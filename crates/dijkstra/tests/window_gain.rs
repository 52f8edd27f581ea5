//! Guards the gain of fitted suffix windows: on the road-like CAL analogue,
//! the windows `ContractionHierarchy::build` chooses from the graph's own
//! profiles must make TD-A\*-CH settle clearly fewer vertices than the
//! uniform 3-hour grid, while every answer stays bit-identical to
//! TD-Dijkstra under both. It also bounds the potential's set-up: the
//! backward upward search of each query's `init` settles a small share of
//! the graph, which holds only while the hierarchy's down arcs stay few.

use td_ch::{ContractionHierarchy, UNIFORM_WINDOW_STARTS};
use td_dijkstra::{
    search, BoundedCost, ChPotential, ChPotentialScratch, QueryBudget, SearchScratch, ZeroPotential,
};
use td_gen::{Dataset, Workload, WorkloadConfig};
use td_graph::FrozenGraph;

/// Vertices settled over `queries` by TD-A\*-CH on `ch`, and by the
/// potential's backward searches, asserting each answer's bits against the
/// zero-potential run.
fn settled(
    fg: &FrozenGraph,
    ch: &ContractionHierarchy,
    queries: &Workload,
    want: &[Option<u64>],
) -> (u64, u64) {
    let mut sc = SearchScratch::default();
    let mut pot_sc = ChPotentialScratch::default();
    let (mut total, mut init) = (0, 0);
    for (q, want) in queries.queries.iter().zip(want) {
        let mut pot = ChPotential::new(ch, &mut pot_sc);
        let got = search(
            &mut sc,
            fg,
            &mut pot,
            q.source,
            q.destination,
            q.depart,
            &QueryBudget::UNLIMITED,
        );
        let BoundedCost::Exact(got) = got else {
            panic!("{q:?}: unlimited budget exhausted: {got:?}");
        };
        assert_eq!(
            got.map(f64::to_bits),
            *want,
            "{q:?} under windows {:?}",
            ch.window_starts()
        );
        total += sc.stats.take().settled;
        init += pot_sc.last_init_settled() as u64;
    }
    (total, init)
}

#[test]
fn fitted_windows_settle_a_tenth_fewer_than_the_uniform_grid() {
    let fg = Dataset::Cal.spec().build_scaled(3, 0.25, 42).freeze();
    let queries = Workload::generate(
        fg.num_vertices(),
        &WorkloadConfig {
            pairs: 100,
            times_per_pair: 10,
            seed: 42,
        },
    );
    let mut sc = SearchScratch::default();
    let want: Vec<Option<u64>> = queries
        .queries
        .iter()
        .map(|q| {
            match search(
                &mut sc,
                &fg,
                &mut ZeroPotential,
                q.source,
                q.destination,
                q.depart,
                &QueryBudget::UNLIMITED,
            ) {
                BoundedCost::Exact(c) => c.map(f64::to_bits),
                other => panic!("{q:?}: unlimited budget exhausted: {other:?}"),
            }
        })
        .collect();

    let fitted = ContractionHierarchy::build(&fg);
    let uniform = ContractionHierarchy::build_with(&fg, &UNIFORM_WINDOW_STARTS);
    let n = queries.queries.len() as f64;
    let (fitted_total, fitted_init) = settled(&fg, &fitted, &queries, &want);
    let fitted_per = fitted_total as f64 / n;
    let uniform_per = settled(&fg, &uniform, &queries, &want).0 as f64 / n;
    assert!(
        fitted_per <= 0.9 * uniform_per,
        "windows {:?} settle {fitted_per:.1} a query, the 3-hour grid {uniform_per:.1}",
        fitted.window_starts()
    );
    let init_per = fitted_init as f64 / n;
    assert!(
        init_per <= 0.02 * fg.num_vertices() as f64,
        "the potential's backward searches settle {init_per:.1} a query of {} vertices",
        fg.num_vertices()
    );
}
