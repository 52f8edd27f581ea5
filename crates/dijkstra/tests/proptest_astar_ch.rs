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
//!   distances);
//! * on graphs whose distances tie everywhere (integer weights, zero-weight
//!   cycles, two-way and one-way edges, two components) the two potentials
//!   agree bit for bit and every answer keeps its bits.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use td_ch::ContractionHierarchy;
use td_dijkstra::{
    search, BoundedCost, ChPotential, ChPotentialScratch, FullPotential, FullPotentialScratch,
    Potential, QueryBudget, SearchScratch, ZeroPotential,
};
use td_gen::random_graph::seeded_graph;
use td_graph::{FrozenGraph, TdGraph};
use td_plf::{Plf, DAY};

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

/// A graph of tying distances: two components, each edge one-way or
/// two-way with a small integer weight (zero included), constant or with a
/// rush-hour bump, so every min-graph distance is exact in floating point
/// and equal paths abound; vertices 0 and 1 form a zero-weight two-cycle.
/// The graph itself refuses self-loops and repeated edges, so no hierarchy
/// ever meets one.
fn tying_graph(seed: u64, n: usize) -> TdGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TdGraph::with_vertices(n);
    g.add_edge(0, 1, Plf::zero()).unwrap();
    g.add_edge(1, 0, Plf::zero()).unwrap();
    let half = n / 2;
    for _ in 0..2 * n {
        let (lo, hi) = if rng.gen_range(0..2) == 0 {
            (0, half)
        } else {
            (half, n)
        };
        let (u, v) = (rng.gen_range(lo..hi) as u32, rng.gen_range(lo..hi) as u32);
        let w = rng.gen_range(0..4) as f64;
        let weight = if rng.gen_range(0..2) == 0 {
            Plf::constant(w)
        } else {
            Plf::from_pairs(&[(0.0, w + 2.0), (DAY / 3.0, w + 4.0), (DAY / 2.0, w)]).unwrap()
        };
        if u == v || g.find_edge(u, v).is_some() {
            assert!(g.add_edge(u, v, weight).is_err());
            continue;
        }
        g.add_edge(u, v, weight.clone()).unwrap();
        if rng.gen_range(0..2) == 0 && g.find_edge(v, u).is_none() {
            g.add_edge(v, u, weight).unwrap();
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tying_graphs_keep_exact_potentials_and_answer_bits(
        seed in 0u64..1_000,
        n in 6usize..30,
    ) {
        let g = tying_graph(seed, n);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let (mut ch_sc, mut full_sc) = (ChPotentialScratch::default(), FullPotentialScratch::default());
        let (mut dj, mut astar_sc) = (SearchScratch::default(), SearchScratch::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x71e5);
        for d in 0..n as u32 {
            // Departing at 0 the hierarchy uses metric 0, the whole-day
            // minimum the reference potential is exact in.
            let mut lazy = ChPotential::new(&ch, &mut ch_sc);
            let mut full = FullPotential::new(&fg, &mut full_sc);
            lazy.init(d, 0.0);
            full.init(d, 0.0);
            for v in 0..n as u32 {
                prop_assert_eq!(
                    lazy.h(v).to_bits(),
                    full.h(v).to_bits(),
                    "seed={} d={} v={}: {} vs {}", seed, d, v, lazy.h(v), full.h(v)
                );
            }
            for _ in 0..3 {
                let s = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0.0..DAY);
                let want = cost(&mut dj, &fg, &mut ZeroPotential, (s, d, t));
                let mut pot = ChPotential::new(&ch, &mut ch_sc);
                let got = cost(&mut astar_sc, &fg, &mut pot, (s, d, t));
                prop_assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "seed={} s={} d={} t={}", seed, s, d, t
                );
            }
        }
    }

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
