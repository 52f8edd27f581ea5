//! Property tests for the lazy CH-potential TD-A\* fast path:
//!
//! * costs are **bit-identical** to `search` under `ZeroPotential` (frozen
//!   TD-Dijkstra) over random TD graphs × random departure times (A\*
//!   reorders the search, never the arithmetic);
//! * the potential is *admissible* (`h(v)` never exceeds any realizable TD
//!   cost `v → d`) and *consistent* (`h(u) ≤ w_min(u,v) + h(v)` for every
//!   edge) — the two properties A\*'s exactness argument rests on;
//! * both properties also hold for the reference full-backward-Dijkstra
//!   potential, and the two potentials agree (both are exact min-graph
//!   distances).

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use td_ch::ContractionHierarchy;
use td_dijkstra::{
    search, BoundedCost, ChPotential, ChPotentialScratch, FullPotential, FullPotentialScratch,
    Potential, QueryBudget, SearchScratch, ZeroPotential,
};
use td_gen::random_graph::seeded_graph;
use td_graph::FrozenGraph;
use td_plf::DAY;

/// An unbudgeted [`search`]: always exact.
fn cost<P: Potential>(
    sc: &mut SearchScratch,
    fg: &FrozenGraph,
    pot: &mut P,
    (s, d, t): (u32, u32, f64),
) -> Option<f64> {
    match search(sc, fg, pot, s, d, t, &QueryBudget::UNLIMITED) {
        BoundedCost::Exact(c) => c,
        other => panic!("unlimited budget exhausted: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ch_astar_is_bit_identical_to_frozen_dijkstra(
        seed in 0u64..1_000,
        n in 10usize..48,
        queries in 4usize..24,
    ) {
        let g = seeded_graph(seed, n, n + n / 2, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut dj = SearchScratch::default();
        let mut astar_sc = SearchScratch::default();
        let mut pot_sc = ChPotentialScratch::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa57a);
        for _ in 0..queries {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let want = cost(&mut dj, &fg, &mut ZeroPotential, (s, d, t));
            let mut pot = ChPotential::new(&ch, &mut pot_sc);
            let got = cost(&mut astar_sc, &fg, &mut pot, (s, d, t));
            prop_assert_eq!(
                want.map(f64::to_bits),
                got.map(f64::to_bits),
                "seed={} s={} d={} t={}: {:?} vs {:?}",
                seed, s, d, t, want, got
            );
        }
    }

    #[test]
    fn potentials_are_admissible_and_consistent(
        seed in 0u64..1_000,
        n in 10usize..40,
    ) {
        let g = seeded_graph(seed, n, n + n / 3, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut ch_sc = ChPotentialScratch::default();
        let mut full_sc = FullPotentialScratch::default();
        let mut dj = SearchScratch::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xad31);
        for _ in 0..4 {
            let d = rng.gen_range(0..n) as u32;
            let mut lazy = ChPotential::new(&ch, &mut ch_sc);
            let mut full = FullPotential::new(&fg, &mut full_sc);
            // Anchor both at t = 0: the CH then uses metric 0 (the
            // whole-day minimum), which must agree with the reference full
            // potential; consistency below is tested against `w_min`.
            lazy.init(d, 0.0);
            full.init(d, 0.0);
            prop_assert_eq!(lazy.h(d), 0.0, "h(d) must be 0 (d={})", d);
            for u in 0..n as u32 {
                let hu = lazy.h(u);
                let hu_full = full.h(u);
                // The two exact min-graph potentials agree.
                if hu.is_finite() || hu_full.is_finite() {
                    prop_assert!(
                        (hu - hu_full).abs() < 1e-9,
                        "potentials disagree at v={} d={}: {} vs {}",
                        u, d, hu, hu_full
                    );
                }
                // Consistency: h(u) ≤ w_min(u,v) + h(v) for every edge.
                let (heads, _, mins) = fg.out_slices_with_min(u);
                for (&v, &min) in heads.iter().zip(mins.iter()) {
                    let hv = lazy.h(v);
                    prop_assert!(
                        hu <= min + hv + 1e-9,
                        "inconsistent edge ({},{}) d={}: {} > {} + {}",
                        u, v, d, hu, min, hv
                    );
                }
                // Admissibility against the true TD cost at a random time.
                let t = rng.gen_range(0.0..DAY);
                if let Some(c) = cost(&mut dj, &fg, &mut ZeroPotential, (u, d, t)) {
                    prop_assert!(
                        hu <= c + 1e-9,
                        "h({})={} exceeds TD cost {} (d={}, t={})",
                        u, hu, c, d, t
                    );
                }
            }
        }
    }

    /// The time-anchored suffix-window metrics must stay admissible and
    /// consistent *for their own departure window*: anchored at `t`, `h`
    /// lower-bounds TD costs entered at any `τ ≥ t`.
    #[test]
    fn windowed_potentials_are_admissible_for_their_window(
        seed in 0u64..1_000,
        n in 10usize..36,
    ) {
        let g = seeded_graph(seed, n, n + n / 3, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut ch_sc = ChPotentialScratch::default();
        let mut dj = SearchScratch::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x717e);
        for _ in 0..4 {
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let mut pot = ChPotential::new(&ch, &mut ch_sc);
            pot.init(d, t);
            for u in 0..n as u32 {
                let hu = pot.h(u);
                // Edge-wise consistency at entry times ≥ t (the search can
                // only enter edges at arrival times ≥ the departure).
                let (heads, edges, _) = fg.out_slices_with_min(u);
                for (&v, &e) in heads.iter().zip(edges.iter()) {
                    let hv = pot.h(v);
                    for frac in [0.0, 0.3, 1.0] {
                        let tau = t + frac * (DAY * 1.2 - t);
                        let w = fg.weight(e).eval(tau);
                        prop_assert!(
                            hu <= w + hv + 1e-9,
                            "window-inconsistent edge ({},{}) d={} t={} tau={}: {} > {} + {}",
                            u, v, d, t, tau, hu, w, hv
                        );
                    }
                }
                // Admissibility against the true TD cost departing at t.
                if let Some(c) = cost(&mut dj, &fg, &mut ZeroPotential, (u, d, t)) {
                    prop_assert!(
                        hu <= c + 1e-9,
                        "h({})={} exceeds TD cost {} (d={}, t={})",
                        u, hu, c, d, t
                    );
                }
            }
        }
    }
}
