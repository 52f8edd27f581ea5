//! Update flow end to end on a road-like network: repeated live-traffic
//! batches keep every query exact versus a Dijkstra oracle over the *updated*
//! graph, and the updated index keeps agreeing with a fresh rebuild.

use rand::prelude::*;
use rand::rngs::StdRng;
use td_road::api::RoutingIndex;
use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::dijkstra::shortest_path_cost;
use td_road::gen::random_graph::random_profile;
use td_road::gen::Dataset;
use td_road::plf::DAY;
use td_road::treedec::{WD, WS};

#[test]
fn repeated_update_batches_stay_exact_on_road_network() {
    let g = Dataset::Sf.build(3, 0.012, 21); // ~120 vertices, road-like
    let n = g.num_vertices();
    let mut index = TdTreeIndex::build(
        g,
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget: 30_000 },
            track_supports: true,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(321);
    for round in 0..4 {
        let m = index.graph().num_edges();
        let changes: Vec<_> = (0..8)
            .map(|_| {
                let e = rng.gen_range(0..m) as u32;
                let edge = index.graph().edge(e);
                (edge.from, edge.to, random_profile(&mut rng, 4, 10.0, 400.0))
            })
            .collect();
        let stats = index.update_edges(&changes);
        assert!(stats.replay_secs >= 0.0);

        let g_now = index.graph().clone();
        for _ in 0..25 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let want = shortest_path_cost(&g_now, s, d, t);
            let got = index.query_cost(s, d, t);
            match (want, got) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() < 1e-4,
                    "round {round} s={s} d={d} t={t}: oracle {a} vs index {b}"
                ),
                (None, None) => {}
                other => panic!("round {round} s={s} d={d}: {other:?}"),
            }
            // Paths remain valid after updates.
            if let Some((cost, path)) = index.query_path(s, d, t) {
                assert!(path.is_valid(&g_now));
                let replay = path.cost(&g_now, t).expect("valid");
                assert!((cost - replay).abs() < 1e-4, "round {round}: path replay");
            }
        }
    }
}

#[test]
fn updated_index_matches_fresh_rebuild_on_profiles() {
    let g = Dataset::Cal.build(3, 0.012, 9);
    let n = g.num_vertices();
    let opts = IndexOptions {
        strategy: SelectionStrategy::Greedy { budget: 20_000 },
        track_supports: true,
        ..Default::default()
    };
    let mut index = TdTreeIndex::build(g, opts);
    let mut rng = StdRng::seed_from_u64(654);
    let m = index.graph().num_edges();
    let changes: Vec<_> = (0..10)
        .map(|_| {
            let e = rng.gen_range(0..m) as u32;
            let edge = index.graph().edge(e);
            (edge.from, edge.to, random_profile(&mut rng, 3, 20.0, 300.0))
        })
        .collect();
    index.update_edges(&changes);
    let fresh = TdTreeIndex::build(index.graph().clone(), opts);
    // The replay folds through the reduction's own kernel, so every
    // weight list is the fresh build's to the bit.
    let (updated, rebuilt) = (index.tree(), fresh.tree());
    assert_eq!(updated.len(), rebuilt.len());
    for v in 0..updated.len() as u32 {
        assert_eq!(updated.node(v).bag, rebuilt.node(v).bag, "node {v}: bag");
        let (a, b) = (updated.labels(), rebuilt.labels());
        for idx in a.range(v) {
            for dir in [WS, WD] {
                let (x, y) = (a.get(dir, idx), b.get(dir, idx));
                assert!(
                    x.map(|f| f.to_plf()) == y.map(|f| f.to_plf()),
                    "node {v}: Ws/Wd differ"
                );
            }
        }
    }
    for _ in 0..30 {
        let s = rng.gen_range(0..n) as u32;
        let d = rng.gen_range(0..n) as u32;
        let (a, b) = (index.query_profile(s, d), fresh.query_profile(s, d));
        match (a, b) {
            (Some(a), Some(b)) => {
                for k in 0..8 {
                    let t = k as f64 * DAY / 8.0;
                    assert!(
                        (a.eval(t) - b.eval(t)).abs() < 1e-4,
                        "s={s} d={d} t={t}: updated {} vs fresh {}",
                        a.eval(t),
                        b.eval(t)
                    );
                }
            }
            (None, None) => {}
            other => panic!("s={s} d={d}: {:?}", other.0.map(|_| ())),
        }
    }
}
