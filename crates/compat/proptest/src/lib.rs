#![forbid(unsafe_code)]
//! Offline stand-in for the `proptest` crate.
//!
//! No network access in this container, so this shim provides the subset of
//! proptest the workspace's property tests use: the [`proptest!`] macro,
//! range and tuple strategies, [`collection::vec`], `prop_map`, and the
//! `prop_assert*` macros. Cases are generated from a deterministic seeded
//! RNG; there is **no shrinking** — a failing case panics with the assert
//! message (the generating seed is deterministic per test, so failures
//! reproduce exactly).

use rand::prelude::*;
use std::ops::Range;

/// Per-`proptest!`-block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The deterministic case generator handed to strategies.
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    /// A runner seeded from the test name (stable across runs).
    pub fn from_name(name: &str) -> TestRunner {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        TestRunner {
            rng: StdRng::seed_from_u64(h),
        }
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A value generator. Unlike real proptest there is no shrinking tree; a
/// strategy just draws a value from the runner's RNG.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, runner: &mut TestRunner) -> U {
        (self.f)(self.inner.generate(runner))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(runner),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRunner};
    use rand::prelude::*;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` of values drawn from `element`, with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                runner.rng().gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }
}

/// Runs each test body over `cases` generated inputs. Supports the
/// `#![proptest_config(...)]` header and `name(binding in strategy, ...)`
/// test signatures, mirroring real proptest syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::from_name(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut runner);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts inside a proptest body (no shrinking: behaves like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// The most common imports in one place, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn tuples_and_vecs_compose(v in collection::vec((0u32..5, 0.0f64..1.0), 0..8)) {
            prop_assert!(v.len() < 8);
            for (a, b) in v {
                prop_assert!(a < 5);
                prop_assert!((0.0..1.0).contains(&b));
            }
        }

        #[test]
        fn prop_map_applies(n in (1usize..4).prop_map(|k| k * 100)) {
            prop_assert!(n == 100 || n == 200 || n == 300);
            prop_assert_eq!(n % 100, 0);
        }
    }
}
