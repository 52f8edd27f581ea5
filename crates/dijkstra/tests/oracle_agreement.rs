//! Randomized agreement tests between the non-index algorithms — the
//! foundation of every later correctness claim: if these agree, the profile
//! search can serve as the oracle for the index crates.

use rand::prelude::*;
use rand::rngs::StdRng;
use td_ch::ContractionHierarchy;
use td_dijkstra::{
    profile_search, search, shortest_path, shortest_path_cost, BoundedCost, ChPotential,
    ChPotentialScratch, FullPotential, FullPotentialScratch, QueryBudget, SearchScratch,
    ZeroPotential,
};
use td_gen::random_graph::seeded_graph;
use td_graph::{FrozenGraph, TdGraph};
use td_plf::{Plf, DAY};

/// The frozen view of one graph plus the scratch of every potential.
struct Frozen {
    fg: FrozenGraph,
    ch: ContractionHierarchy,
    sc: SearchScratch,
    full: FullPotentialScratch,
    lazy: ChPotentialScratch,
}

impl Frozen {
    fn new(g: &TdGraph) -> Frozen {
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        Frozen {
            fg,
            ch,
            sc: SearchScratch::default(),
            full: FullPotentialScratch::default(),
            lazy: ChPotentialScratch::default(),
        }
    }

    /// `search` under the zero, full and CH potentials, in that order.
    fn search_all(&mut self, s: u32, d: u32, t: f64, budget: &QueryBudget) -> [BoundedCost; 3] {
        let mut full = FullPotential::new(&self.fg, &mut self.full);
        let mut lazy = ChPotential::new(&self.ch, &mut self.lazy);
        [
            search(&mut self.sc, &self.fg, &mut ZeroPotential, s, d, t, budget),
            search(&mut self.sc, &self.fg, &mut full, s, d, t, budget),
            search(&mut self.sc, &self.fg, &mut lazy, s, d, t, budget),
        ]
    }

    /// The frozen answer, after checking that every potential reproduces
    /// the zero-potential run bit for bit, that it sits within 1e-5 of the
    /// `TdGraph` reference, and that settle-capped runs either finish with
    /// the same bits or bracket the exact cost.
    fn checked_cost(&mut self, g: &TdGraph, s: u32, d: u32, t: f64) -> Option<f64> {
        let ctx = format!("s={s} d={d} t={t}");
        let [zero, full, lazy] = self.search_all(s, d, t, &QueryBudget::UNLIMITED);
        let BoundedCost::Exact(exact) = zero else {
            panic!("{ctx}: unlimited budget exhausted: {zero:?}");
        };
        for (name, got) in [("full", full), ("ch", lazy)] {
            let BoundedCost::Exact(got) = got else {
                panic!("{ctx}: unlimited budget exhausted under {name}: {got:?}");
            };
            assert_eq!(
                exact.map(f64::to_bits),
                got.map(f64::to_bits),
                "{ctx} {name}"
            );
        }
        match (shortest_path_cost(g, s, d, t), exact) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5, "{ctx}: reference {a} vs {b}"),
            (None, None) => {}
            other => panic!("{ctx}: reachability disagreement {other:?}"),
        }
        for cap in [0u64, 2, 7] {
            for got in self.search_all(s, d, t, &QueryBudget::settles(cap)) {
                match got {
                    BoundedCost::Exact(got) => {
                        assert_eq!(
                            exact.map(f64::to_bits),
                            got.map(f64::to_bits),
                            "{ctx} cap={cap}"
                        )
                    }
                    BoundedCost::Exhausted { lower, upper } => match exact {
                        Some(c) => assert!(
                            lower <= c + 1e-9 && c <= upper + 1e-9,
                            "{ctx} cap={cap}: {c} not in [{lower}, {upper}]"
                        ),
                        // Exhaustion must never imply reachability.
                        None => assert!(upper.is_infinite(), "{ctx} cap={cap}"),
                    },
                }
            }
        }
        exact
    }
}

#[test]
fn scalar_profile_and_search_agree_on_random_graphs() {
    for seed in 0..8u64 {
        let g = seeded_graph(seed, 40, 30, 4);
        let mut frozen = Frozen::new(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..6 {
            let s = rng.gen_range(0..40) as u32;
            let prof = profile_search(&g, s);
            for _ in 0..4 {
                let d = rng.gen_range(0..40) as u32;
                let t = rng.gen_range(0.0..DAY);
                let scalar = frozen.checked_cost(&g, s, d, t);
                match (scalar, prof.cost(d, t)) {
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < 1e-5,
                        "seed={seed} s={s} d={d} t={t}: scalar {a} vs profile {b}"
                    ),
                    (None, None) => {}
                    other => panic!("reachability disagreement seed={seed} s={s} d={d}: {other:?}"),
                }
            }
            assert_eq!(frozen.checked_cost(&g, s, s, 0.25 * DAY), Some(0.0));
        }
    }
}

#[test]
fn unreachable_pairs_agree_under_every_potential() {
    // A random strongly-connected core (vertices 0..20) next to a one-way
    // chain 20 → 21 → 22 that nothing enters or leaves.
    let core = seeded_graph(3, 20, 14, 3);
    let mut g = TdGraph::with_vertices(23);
    for e in core.edges() {
        g.add_edge(e.from, e.to, e.weight.clone()).unwrap();
    }
    g.add_edge(20, 21, Plf::constant(30.0)).unwrap();
    g.add_edge(
        21,
        22,
        Plf::from_pairs(&[(0.0, 40.0), (0.5 * DAY, 90.0)]).unwrap(),
    )
    .unwrap();
    let mut frozen = Frozen::new(&g);
    for t in [0.0, 0.3 * DAY, 0.9 * DAY] {
        for (s, d) in [(0, 21), (22, 5), (22, 20), (21, 20)] {
            assert_eq!(frozen.checked_cost(&g, s, d, t), None, "s={s} d={d} t={t}");
        }
        assert!(frozen.checked_cost(&g, 20, 22, t).is_some());
        assert_eq!(frozen.checked_cost(&g, 22, 22, t), Some(0.0));
    }
}

#[test]
fn recovered_paths_are_valid_and_tight() {
    for seed in 20..26u64 {
        let g = seeded_graph(seed, 30, 25, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let s = rng.gen_range(0..30) as u32;
            let d = rng.gen_range(0..30) as u32;
            let t = rng.gen_range(0.0..DAY);
            if let Some((cost, path)) = shortest_path(&g, s, d, t) {
                assert!(path.is_valid(&g));
                assert_eq!(path.source(), s);
                assert_eq!(path.destination(), d);
                let replay = path.cost(&g, t).unwrap();
                assert!(
                    (cost - replay).abs() < 1e-6,
                    "seed={seed} s={s} d={d} t={t}: {cost} vs replay {replay}"
                );
            }
        }
    }
}

#[test]
fn profile_path_recovery_is_consistent_across_the_day() {
    for seed in 40..44u64 {
        let g = seeded_graph(seed, 25, 20, 4);
        let prof = profile_search(&g, 0);
        for d in 1..25u32 {
            for k in 0..8 {
                let t = k as f64 * DAY / 8.0;
                if let Some(c) = prof.cost(d, t) {
                    let p = prof.path(d, t).expect("reachable vertex has a path");
                    let replay = p.cost(&g, t).unwrap();
                    assert!(
                        (c - replay).abs() < 1e-5,
                        "seed={seed} d={d} t={t}: {c} vs {replay} via {p}"
                    );
                }
            }
        }
    }
}
