#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// (a served query evaluates through this file: the hot path's lint set)

//! [`PlfView`]: the read-only point view every kernel of this crate reads.
//!
//! A function is held in one of two layouts: an owned [`Plf`] (`Vec<Pt>`,
//! what the operators build into) and a [`PlfSlice`] of a frozen
//! [`crate::PlfArena`] (two parallel arrays and the witness runs, what an
//! index stores). Both are read through this one trait, so evaluation
//! (Eq. 1), the forward cursor, `Compound`'s breakpoints, `minimum`'s
//! passes, the merge walks, [`crate::Windows::of`] and the list writer are
//! each written once and read a stored function where it lies: no kernel
//! needs a copy.
//!
//! [`Plf`]: crate::Plf
//! [`PlfSlice`]: crate::PlfSlice

use crate::approx::clamped_segment_value;
use crate::plf::{Pt, Via};

/// Read-only access to one function's interpolation points (at least one,
/// times strictly increasing). Implemented by `&Plf` and [`crate::PlfSlice`];
/// every provided method is the one body both layouts run.
pub trait PlfView: Copy {
    /// Number of interpolation points (≥ 1).
    fn len(self) -> usize;

    /// Time of point `i`.
    fn t(self, i: usize) -> f64;

    /// Value of point `i`.
    fn v(self, i: usize) -> f64;

    /// Witness of the segment starting at point `i`.
    fn via(self, i: usize) -> Via;

    /// Every point's witness, in order: what [`Self::via`] returns for each
    /// `i`, read in one walk (a stored function walks its witness runs).
    fn vias(self) -> impl Iterator<Item = Via>;

    /// Number of leading points whose time satisfies `pred` (which must
    /// hold on a prefix of the times): the layout's own `partition_point`.
    fn partition_point(self, pred: impl FnMut(f64) -> bool) -> usize;

    /// Always false: a function has at least one point.
    #[inline]
    fn is_empty(self) -> bool {
        false
    }

    /// Point `i` as a [`Pt`].
    #[inline]
    fn pt(self, i: usize) -> Pt {
        Pt::with_via(self.t(i), self.v(i), self.via(i))
    }

    /// Number of points with time `≤ x`.
    #[inline]
    fn count_le(self, x: f64) -> usize {
        self.partition_point(|t| t <= x)
    }

    /// Evaluates the function at departure time `t` per Eq. (1): clamped
    /// below the first breakpoint and above the last, linear in between. A
    /// time no breakpoint is at or before — NaN included — takes the left
    /// ray.
    #[inline]
    fn eval(self, t: f64) -> f64 {
        value_at(self, self.count_le(t), t)
    }

    /// [`Self::eval`] with the witness of the segment serving `t`.
    #[inline]
    fn eval_with_via(self, t: f64) -> (f64, Via) {
        let n = self.count_le(t);
        (value_at(self, n, t), self.via(n.saturating_sub(1)))
    }

    /// Arrival time when departing at `t`: `t + w(t)`.
    #[inline]
    fn arrival(self, t: f64) -> f64 {
        t + self.eval(t)
    }

    /// `(min, max)` over all departure times (attained at breakpoints), in
    /// one pass over four independent min/max chains: a single fold waits
    /// on the previous comparison at every point. Min and max are exact, so
    /// the grouping changes no bound.
    fn value_bounds(self) -> (f64, f64) {
        let mut lo = [f64::INFINITY; 4];
        let mut hi = [f64::NEG_INFINITY; 4];
        let mut fold = |k: usize, v: f64| {
            if v < lo[k] {
                lo[k] = v;
            }
            if v > hi[k] {
                hi[k] = v;
            }
        };
        let (n, mut i) = (self.len(), 0);
        while i + 4 <= n {
            for k in 0..4 {
                fold(k, self.v(i + k));
            }
            i += 4;
        }
        for k in 0..n - i {
            fold(k, self.v(i + k));
        }
        (
            lo[0].min(lo[1]).min(lo[2].min(lo[3])),
            hi[0].max(hi[1]).max(hi[2].max(hi[3])),
        )
    }

    /// Minimum value over all departure times.
    #[inline]
    fn min_value(self) -> f64 {
        self.value_bounds().0
    }

    /// Maximum value over all departure times.
    #[inline]
    fn max_value(self) -> f64 {
        self.value_bounds().1
    }
}

/// The value at `t`, given the number `n` of points with time `≤ t`: the
/// left ray for `n == 0`, else the segment starting at point `n − 1`,
/// routed through the shared right-ray clamp ([`clamped_segment_value`]),
/// which the batch kernels share too.
#[inline]
fn value_at(f: impl PlfView, n: usize, t: f64) -> f64 {
    debug_assert!(n <= f.len());
    let Some(i) = n.checked_sub(1) else {
        return f.v(0);
    };
    let next = (n < f.len()).then(|| (f.t(n), f.v(n)));
    clamped_segment_value(f.t(i), f.v(i), next, t)
}

#[cfg(test)]
thread_local! {
    /// Backwards probes this thread's cursors served by binary search.
    pub(crate) static FALLBACKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Forward evaluation cursor over one function: the same values as
/// [`PlfView::eval_with_via`], amortised O(1) per probe while probe times
/// ascend.
pub(crate) struct Cursor<F> {
    f: F,
    /// Number of points with time `≤` the last probe.
    n: usize,
}

impl<F: PlfView> Cursor<F> {
    pub(crate) fn new(f: F) -> Self {
        Cursor { f, n: 0 }
    }

    /// Number of points with time `≤ t`: steps forward from the last probe,
    /// and binary-searches only when `t` precedes the segment it stands on.
    #[inline]
    pub(crate) fn seek(&mut self, t: f64) -> usize {
        if self.n > 0 && t < self.f.t(self.n - 1) {
            self.n = self.f.count_le(t);
            #[cfg(test)]
            FALLBACKS.with(|c| c.set(c.get() + 1));
        } else {
            while self.n < self.f.len() && self.f.t(self.n) <= t {
                self.n += 1;
            }
        }
        self.n
    }

    /// The value at `t`: [`PlfView::eval`]'s arithmetic, with the segment
    /// found by stepping instead of searching.
    #[inline]
    pub(crate) fn value(&mut self, t: f64) -> f64 {
        let n = self.seek(t);
        value_at(self.f, n, t)
    }

    /// [`Self::value`] with the witness of the segment serving `t`.
    #[inline]
    pub(crate) fn at(&mut self, t: f64) -> (f64, Via) {
        let n = self.seek(t);
        (value_at(self.f, n, t), self.f.via(n.saturating_sub(1)))
    }
}
