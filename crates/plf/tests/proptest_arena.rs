//! Property-based agreement between the frozen [`PlfArena`]/[`PlfSlice`]
//! representation and the owned [`Plf`] it was frozen from: every index in
//! the workspace now evaluates slices on its hot path, so exact agreement
//! (not approximate!) with the `Plf` semantics is load-bearing.

use proptest::prelude::*;
use td_plf::{Plf, PlfArena};

/// Strategy: a random FIFO travel-cost function with 1..=12 points over
/// roughly a day, values in [0, 3600] (same generator as `proptest_plf.rs`).
fn fifo_plf() -> impl Strategy<Value = Plf> {
    (
        proptest::collection::vec(0.1f64..3000.0, 0..11),
        0.0f64..3600.0,
        proptest::collection::vec(0.0f64..1.0, 12),
    )
        .prop_map(|(gaps, v0, vs)| {
            let mut t = 0.0;
            let mut pts = vec![(0.0, v0)];
            for (i, gap) in gaps.iter().enumerate() {
                t += gap + 1.0;
                let prev = pts.last().unwrap().1;
                let dt = gap + 1.0;
                let lo = (prev - dt).max(0.0);
                let hi = prev + dt;
                let v = lo + vs[i] * (hi - lo);
                pts.push((t, v));
            }
            Plf::from_pairs(&pts).expect("generated points are valid")
        })
}

/// Random query times spanning the domain, including far outside it.
fn query_times() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-500.0f64..40_000.0, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn slice_eval_agrees_exactly_with_plf(f in fifo_plf(), ts in query_times()) {
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        for t in ts {
            // Bit-for-bit: both run the same partition_point + lerp.
            prop_assert_eq!(s.eval(t), f.eval(t), "t={}", t);
            let (v, via) = s.eval_with_via(t);
            let (wv, wvia) = f.eval_with_via(t);
            prop_assert_eq!(v, wv);
            prop_assert_eq!(via, wvia);
        }
    }

    #[test]
    fn bounds_bound_all_sampled_evaluations(f in fifo_plf(), ts in query_times()) {
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        let (lo, hi) = (arena.min_cost(id), arena.max_cost(id));
        prop_assert!(lo <= hi);
        for t in ts {
            let v = s.eval(t);
            prop_assert!(v >= lo, "eval({}) = {} below min_cost {}", t, v, lo);
            prop_assert!(v <= hi, "eval({}) = {} above max_cost {}", t, v, hi);
        }
        // The bounds are attained at breakpoints, so they are tight.
        prop_assert_eq!(lo, s.min_value());
        prop_assert_eq!(hi, s.max_value());
    }

    #[test]
    fn arena_holds_many_functions_without_crosstalk(
        fs in proptest::collection::vec(fifo_plf(), 1..8),
        ts in query_times(),
    ) {
        let mut arena = PlfArena::new();
        let ids: Vec<_> = fs.iter().map(|f| arena.push(f)).collect();
        for (f, &id) in fs.iter().zip(&ids) {
            prop_assert_eq!(arena.slice(id).len(), f.len());
            for &t in &ts {
                prop_assert_eq!(arena.slice(id).eval(t), f.eval(t));
            }
        }
    }
}
