//! The paper's §5 workload end to end: 1,000 random pairs × 10 departure
//! intervals on a dataset analogue, with path validity and scalar/profile
//! consistency for the paper's own index.

use td_road::api::RoutingIndex;
use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::{Dataset, Workload, WorkloadConfig};

#[test]
fn paper_workload_runs_consistently() {
    let g = Dataset::Cal.build(3, 0.05, 13); // ~330 vertices
    let n = g.num_vertices();
    let budget = Dataset::Cal.spec().budget_at(0.05) as u64;
    let index = TdTreeIndex::build(
        g.clone(),
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget },
            ..Default::default()
        },
    );
    // The shortcut-free reference: TD-basic over the same graph.
    let basic_index = TdTreeIndex::build(g.clone(), IndexOptions::default());
    let wl = Workload::generate(
        n,
        &WorkloadConfig {
            pairs: 60,
            times_per_pair: 10,
            seed: 5,
        },
    );
    assert_eq!(wl.queries.len(), 600);

    let mut answered = 0;
    for q in &wl.queries {
        let cost = index.query_cost(q.source, q.destination, q.depart);
        let basic = basic_index.query_cost(q.source, q.destination, q.depart);
        match (cost, basic) {
            (Some(a), Some(b)) => {
                assert!(
                    (a - b).abs() < 1e-5,
                    "shortcut vs basic disagreement on {q:?}: {a} vs {b}"
                );
                answered += 1;
            }
            (None, None) => {}
            other => panic!("reachability disagreement on {q:?}: {other:?}"),
        }
    }
    assert!(answered > 500, "road network should be mostly connected");

    // Profile agrees with the scalar answers on each pair.
    for &(s, d) in wl.pairs().iter().take(25) {
        if let Some(f) = index.query_profile(s, d) {
            for q in wl
                .queries
                .iter()
                .filter(|q| q.source == s && q.destination == d)
            {
                let scalar = index.query_cost(s, d, q.depart).expect("profile exists");
                assert!(
                    (f.eval(q.depart) - scalar).abs() < 1e-5,
                    "profile vs scalar at t={}",
                    q.depart
                );
            }
        }
    }

    // Paths replay to their reported costs.
    for q in wl.queries.iter().take(100) {
        if let Some((cost, path)) = index.query_path(q.source, q.destination, q.depart) {
            assert!(path.is_valid(&g));
            let replay = path.cost(&g, q.depart).expect("valid path");
            assert!(
                (cost - replay).abs() < 1e-5,
                "path replay mismatch on {q:?}"
            );
        }
    }
}

#[test]
fn all_dataset_analogues_build_and_answer() {
    for d in Dataset::ALL {
        let g = d.build(2, 0.02, 1);
        let n = g.num_vertices();
        assert!(n >= 50, "{} analogue too small", d.name());
        let index = TdTreeIndex::build(
            g,
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 10_000 },
                ..Default::default()
            },
        );
        let c = index.query_cost(0, (n - 1) as u32, 12.0 * 3600.0);
        assert!(c.is_some(), "{}: endpoints should connect", d.name());
    }
}
