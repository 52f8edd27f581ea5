//! The trait-level conformance suite, instantiated for every backend.

use rand::prelude::*;
use rand::rngs::StdRng;
use td_api::conformance::check_backend;
use td_api::{
    build_index, Backend, IncrementalIndex, IndexConfig, ParallelExecutor, QuerySession,
    RoutingIndexExt,
};
use td_gen::random_graph::seeded_graph;
use td_graph::VertexId;
use td_plf::DAY;

fn workload(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..n) as u32,
                rng.gen_range(0..n) as u32,
                rng.gen_range(0.0..DAY),
            )
        })
        .collect()
}

#[test]
fn every_backend_conforms_on_random_graphs() {
    let cfg = IndexConfig {
        budget: 3_000,
        max_leaf: 12,
        ..Default::default()
    };
    for seed in 0..2u64 {
        let n = 40;
        let g = seeded_graph(seed, n, 28, 3);
        let queries = workload(n, 25, seed ^ 0xabcd);
        for backend in Backend::ALL {
            check_backend(backend, &g, &cfg, &queries);
        }
    }
}

#[test]
fn every_backend_conforms_on_a_disconnected_graph() {
    // Two components: reachability answers must agree (None on cross pairs).
    use td_graph::TdGraph;
    use td_plf::Plf;
    let mut g = TdGraph::with_vertices(6);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        g.add_edge(u, v, Plf::constant(30.0)).unwrap();
        g.add_edge(v, u, Plf::constant(45.0)).unwrap();
    }
    let queries: Vec<(u32, u32, f64)> = (0..6)
        .flat_map(|s| (0..6).map(move |d| (s, d, 1_000.0)))
        .collect();
    let cfg = IndexConfig {
        budget: 500,
        max_leaf: 4,
        ..Default::default()
    };
    for backend in Backend::ALL {
        check_backend(backend, &g, &cfg, &queries);
    }
}

#[test]
fn sessions_survive_interleaved_query_kinds() {
    // One session per backend, interleaving cost/profile/path queries in a
    // mixed order — buffer reuse must never leak state between query kinds.
    let n = 30;
    let g = seeded_graph(7, n, 20, 3);
    let cfg = IndexConfig {
        budget: 2_000,
        max_leaf: 8,
        ..Default::default()
    };
    for backend in Backend::ALL {
        let index = build_index(g.clone(), backend, &cfg);
        let mut session = QuerySession::new(index.as_ref());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let cost = session.query_cost(s, d, t);
            match rng.gen_range(0..3usize) {
                0 => {
                    let p = session.query_profile(s, d);
                    assert_eq!(p.is_some(), cost.is_some(), "{backend} s={s} d={d}");
                }
                1 => {
                    let p = session.query_path(s, d, t);
                    assert_eq!(p.is_some(), cost.is_some(), "{backend} s={s} d={d}");
                }
                _ => {}
            }
            assert_eq!(session.query_cost(s, d, t), cost, "{backend} s={s} d={d}");
        }
    }
}

#[test]
fn incremental_extension_repairs_the_td_tree() {
    use td_gen::random_graph::random_profile;
    let n = 25;
    let g = seeded_graph(3, n, 16, 3);
    let cfg = IndexConfig {
        budget: 1_000,
        track_supports: true,
        ..Default::default()
    };
    // Build through the factory, then use the concrete type for updates
    // (trait objects stay read-only; IncrementalIndex needs &mut).
    let mut index = td_core::TdTreeIndex::build(
        g.clone(),
        td_core::IndexOptions {
            strategy: td_core::SelectionStrategy::Greedy { budget: cfg.budget },
            threads: 0,
            track_supports: true,
        },
    );
    let mut rng = StdRng::seed_from_u64(17);
    let e = g.edges()[rng.gen_range(0..g.num_edges())].clone();
    let new_w = random_profile(&mut rng, 3, 100.0, 900.0);
    let stats = IncrementalIndex::update_edges(&mut index, &[(e.from, e.to, new_w.clone())]);
    assert!(stats.changed_edges <= 1);

    // Post-update answers must match a fresh build on the updated graph.
    let mut g2 = g.clone();
    let eid = g2.find_edge(e.from, e.to).expect("edge exists");
    g2.set_weight(eid, new_w).expect("valid weight");
    let fresh = build_index(g2, Backend::TdAppro, &cfg);
    let mut updated = index.session();
    for _ in 0..30 {
        let s = rng.gen_range(0..n) as u32;
        let d = rng.gen_range(0..n) as u32;
        let t = rng.gen_range(0.0..DAY);
        match (updated.query_cost(s, d, t), fresh.query_cost(s, d, t)) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5, "s={s} d={d} t={t}: {a} vs {b}"),
            (None, None) => {}
            other => panic!("s={s} d={d}: {other:?}"),
        }
    }
}

#[test]
fn profile_queries_report_their_corridor_work() {
    use td_graph::TdGraph;
    use td_plf::Plf;
    // The detour fixture of td-dijkstra's
    // `targeted_corridor_prunes_dead_end_branches`: 0 → 1 → 2 is the only
    // way to d = 2; the branch 0 → 3 → 4 → 5 cannot reach it and dies at
    // its entry edge.
    let mut g = TdGraph::with_vertices(6);
    g.add_edge(0, 1, Plf::constant(3.0)).unwrap();
    g.add_edge(1, 2, Plf::from_pairs(&[(0.0, 4.0), (40.0, 9.0)]).unwrap())
        .unwrap();
    g.add_edge(0, 3, Plf::constant(1.0)).unwrap();
    g.add_edge(3, 4, Plf::constant(1.0)).unwrap();
    g.add_edge(4, 5, Plf::constant(1.0)).unwrap();
    for backend in [Backend::Dijkstra, Backend::AStarCh] {
        let index = build_index(g.clone(), backend, &IndexConfig::default());
        let mut scratch = index.new_scratch();
        let profile = index.query_profile_in(&mut scratch, 0, 2).unwrap();
        assert_eq!(
            Some(profile.eval(0.0)),
            index.query_cost(0, 2, 0.0),
            "{backend}"
        );
        let stats = index
            .take_search_stats(&mut scratch)
            .unwrap_or_else(|| panic!("{backend}: a search backend reports stats"));
        assert_eq!(
            (stats.relaxed, stats.corridor_kills),
            (2, 1),
            "{backend}: two compounds on the chain, one kill at the branch"
        );
        // Drained: each query's counters are observed exactly once.
        assert_eq!(
            index.take_search_stats(&mut scratch),
            Some(Default::default())
        );
        // A profile batch exports them: the catalog's counter moves (other
        // tests of this binary can only move it further).
        let kills = &td_obs::metrics().search_corridor_kills;
        let before = kills.get();
        let profiles = ParallelExecutor::new(index.as_ref(), 1).profile_batch(&[(0, 2)]);
        assert_eq!(profiles, [Some(profile)], "{backend}");
        assert!(kills.get() > before, "{backend}: kill not exported");
    }

    // The TD-tree family's profile sweeps report through the same fields.
    // On this graph the corridor drops work on TD-basic (no seeds, no cut
    // bound: the corridor is the only global bound) and on TD-appro; TD-H2H
    // covers every cut and returns before the bounds phase.
    let n = 40;
    let g = seeded_graph(0, n, 28, 3);
    let cfg = IndexConfig {
        budget: 3_000,
        max_leaf: 12,
        ..Default::default()
    };
    let pairs: Vec<(VertexId, VertexId)> = workload(n, 30, 0xc0de)
        .into_iter()
        .map(|(s, d, _)| (s, d))
        .collect();
    for backend in [Backend::TdBasic, Backend::TdAppro, Backend::TdH2h] {
        let index = build_index(g.clone(), backend, &cfg);
        let mut scratch = index.new_scratch();
        let mut total = td_obs::SearchStats::default();
        for &(s, d) in &pairs {
            index.query_profile_in(&mut scratch, s, d);
            let stats = index
                .take_search_stats(&mut scratch)
                .unwrap_or_else(|| panic!("{backend}: the profile sweeps report stats"));
            total.merge(&stats);
            assert_eq!(
                index.take_search_stats(&mut scratch),
                Some(Default::default()),
                "{backend}: drained"
            );
        }
        if backend == Backend::TdH2h {
            assert_eq!(
                total,
                Default::default(),
                "{backend}: full cover sweeps nothing"
            );
            continue;
        }
        assert!(
            total.relaxed > 0 && total.corridor_kills > 0,
            "{backend}: the corridor must fire ({total:?})"
        );
        let kills = &td_obs::metrics().search_corridor_kills;
        let before = kills.get();
        ParallelExecutor::new(index.as_ref(), 1).profile_batch(&pairs);
        assert!(kills.get() > before, "{backend}: kills not exported");
    }
}
