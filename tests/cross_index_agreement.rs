//! End-to-end agreement: every backend in the workspace must return the same
//! travel costs as the TD-Dijkstra oracle, on both adversarial random graphs
//! and road-like networks.
//!
//! Since the `td-api` redesign this test is fully backend-generic: one loop
//! over [`Backend::ALL`] builds each index through the shared factory and
//! drives it through a [`QuerySession`] — no per-backend dispatch anywhere.

use rand::prelude::*;
use rand::rngs::StdRng;
use td_road::api::{build_index, Backend, IndexConfig, QuerySession};
use td_road::dijkstra::{profile_search, shortest_path_cost};
use td_road::gen::random_graph::{random_profile, seeded_graph};
use td_road::gen::Dataset;
use td_road::graph::{GraphBuilder, TdGraph};
use td_road::plf::{Plf, DAY, EPS_COST};

fn check_all_backends(g: &TdGraph, budget: u64, seed: u64, queries: usize) {
    let n = g.num_vertices();
    let cfg = IndexConfig {
        budget,
        max_leaf: 16,
        ..Default::default()
    };
    let indexes: Vec<_> = Backend::ALL
        .iter()
        .map(|&b| build_index(g.clone(), b, &cfg))
        .collect();
    let mut sessions: Vec<_> = indexes
        .iter()
        .map(|ix| QuerySession::new(ix.as_ref()))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..queries {
        let s = rng.gen_range(0..n) as u32;
        let d = rng.gen_range(0..n) as u32;
        let t = rng.gen_range(0.0..DAY);
        let want = shortest_path_cost(g, s, d, t);
        for session in &mut sessions {
            let name = session.index().backend_name();
            let got = session.query_cost(s, d, t);
            match (want, got) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() < 1e-4,
                    "{name} seed={seed} s={s} d={d} t={t}: oracle {a} vs {b}"
                ),
                (None, None) => {}
                other => panic!("{name} seed={seed} s={s} d={d}: {other:?}"),
            }
        }
    }
}

#[test]
fn agreement_on_random_graphs() {
    for seed in 0..3u64 {
        let g = seeded_graph(seed, 50, 35, 4);
        check_all_backends(&g, 3_000, seed, 30);
    }
}

#[test]
fn agreement_on_road_like_network() {
    let g = Dataset::Cal.build(3, 0.02, 3); // ~200 vertices, road structure
    check_all_backends(&g, 20_000, 77, 40);
}

#[test]
fn agreement_on_profiles_across_backends() {
    let g = seeded_graph(9, 40, 25, 3);
    let cfg = IndexConfig {
        budget: 2_500,
        max_leaf: 12,
        ..Default::default()
    };
    let indexes: Vec<_> = Backend::ALL
        .iter()
        .map(|&b| build_index(g.clone(), b, &cfg))
        .collect();
    let mut sessions: Vec<_> = indexes
        .iter()
        .map(|ix| QuerySession::new(ix.as_ref()))
        .collect();
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..25 {
        let s = rng.gen_range(0..40) as u32;
        let d = rng.gen_range(0..40) as u32;
        let fs: Vec<_> = sessions
            .iter_mut()
            .map(|sess| sess.query_profile(s, d))
            .collect();
        for k in 0..10 {
            let t = k as f64 * DAY / 10.0 + 31.0;
            let vals: Vec<Option<f64>> = fs.iter().map(|f| f.as_ref().map(|f| f.eval(t))).collect();
            for (i, v) in vals.iter().enumerate().skip(1) {
                match (vals[0], v) {
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < 1e-4,
                        "{} s={s} d={d} t={t}: {vals:?}",
                        Backend::ALL[i]
                    ),
                    (None, None) => {}
                    _ => panic!("s={s} d={d}: reachability disagreement {vals:?}"),
                }
            }
        }
    }
}

/// A seeded ladder of `rungs` rungs: two directed chains `a_i → a_{i+1}` and
/// `b_i → b_{i+1}` (vertices `2i` and `2i + 1`) joined by two-way rungs,
/// every edge a random FIFO profile. Every vertex past the first rung is
/// reached two ways, so each label on the way down is a minimum of
/// compounds of the labels before it.
fn seeded_ladder(seed: u64, rungs: usize, max_points: usize) -> TdGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(2 * rungs);
    for i in 0..rungs as u32 {
        let (a, c) = (2 * i, 2 * i + 1);
        let w = random_profile(&mut rng, max_points, 5.0, 500.0);
        b.bidirectional(a, c, w).expect("valid rung");
        if i + 1 < rungs as u32 {
            for (u, v) in [(a, a + 2), (c, c + 2)] {
                let w = random_profile(&mut rng, max_points, 5.0, 500.0);
                b.edge(u, v, w).expect("valid chain edge");
            }
        }
    }
    b.build()
}

/// Largest `|f − g|` on the union of the two functions' breakpoints — the
/// largest difference anywhere, both being linear in between.
fn max_difference(f: &Plf, g: &Plf) -> f64 {
    let grid = f.points().iter().chain(g.points());
    let diffs = grid.map(|p| (f.eval(p.t) - g.eval(p.t)).abs());
    diffs.fold(0.0, f64::max)
}

/// Every fold may leave a label up to `EPS_COST` above the exact minimum
/// (`min_compound_into`'s keep rule, and `simplify`), and the error of one
/// level passes into the compounds of the next. Down a 60-rung ladder of
/// random profiles the answers of every backend stay within
/// `EPS_COST / 100` of the reference `profile_search` at every breakpoint
/// of either (measured: ≤ 1e-10), so there an answer compared at
/// `EPS_COST` has spent almost none of that budget on the index. A 1e-9
/// bias on every compound breakpoint fails it. Random profiles make no
/// near-ties; a chain of routes within `EPS_COST` of each other at every
/// step can drift by up to `EPS_COST` per step, and this test builds none.
#[test]
fn profiles_stay_well_inside_eps_cost_down_a_deep_chain() {
    let cfg = IndexConfig {
        budget: 4_000,
        max_leaf: 12,
        ..Default::default()
    };
    let seeds = if cfg!(debug_assertions) {
        0..1
    } else {
        0..3u64
    };
    for seed in seeds {
        let g = seeded_ladder(seed, 60, 4);
        let want = profile_search(&g, 0);
        for backend in Backend::ALL {
            let ix = build_index(g.clone(), backend, &cfg);
            let mut sess = QuerySession::new(ix.as_ref());
            for d in 0..g.num_vertices() as u32 {
                let got = sess.query_profile(0, d).expect("the ladder is connected");
                let want = want.dist[d as usize].as_ref().expect("reachable");
                let diff = max_difference(&got, want);
                assert!(
                    diff <= EPS_COST / 100.0,
                    "{backend:?} seed={seed} d={d}: {diff:e} from the reference"
                );
            }
        }
    }
}
