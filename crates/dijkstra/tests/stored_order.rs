//! A TD-A\*-CH hierarchy keeps the order its snapshot stores. A file
//! written under an order other than the min-degree one `build` takes — a
//! hierarchy built by an older ordering, say — loads through
//! `td_ch::persist::read_ch` with that order, re-customizes every window,
//! and answers exactly: the order decides what a query costs, never what
//! it answers.

use td_ch::persist::{read_ch, write_ch};
use td_ch::ContractionHierarchy;
use td_dijkstra::{
    search, BoundedCost, ChPotential, ChPotentialScratch, QueryBudget, SearchScratch, ZeroPotential,
};
use td_gen::{Dataset, Workload, WorkloadConfig};
use td_graph::FrozenGraph;

/// Every query's cost bits: by TD-A\*-CH on `ch`, or without a hierarchy
/// by TD-Dijkstra (the zero potential).
fn answers(
    fg: &FrozenGraph,
    queries: &Workload,
    ch: Option<&ContractionHierarchy>,
) -> Vec<Option<u64>> {
    let (mut sc, mut pot_sc) = (SearchScratch::default(), ChPotentialScratch::default());
    (queries.queries.iter())
        .map(|q| {
            let (s, d, t, all) = (q.source, q.destination, q.depart, &QueryBudget::UNLIMITED);
            let got = match ch {
                Some(ch) => search(
                    &mut sc,
                    fg,
                    &mut ChPotential::new(ch, &mut pot_sc),
                    s,
                    d,
                    t,
                    all,
                ),
                None => search(&mut sc, fg, &mut ZeroPotential, s, d, t, all),
            };
            match got {
                BoundedCost::Exact(c) => c.map(f64::to_bits),
                other => panic!("{q:?}: unlimited budget exhausted: {other:?}"),
            }
        })
        .collect()
}

#[test]
fn a_foreign_stored_order_loads_and_answers_exactly() {
    let fg = Dataset::Cal.spec().build_scaled(3, 0.25, 42).freeze();
    let n = fg.num_vertices() as u32;
    let fresh = ContractionHierarchy::build(&fg);
    // Vertex ids reversed: no min-degree order, and a wider one (CAL 0.25:
    // 5 366 chordal arcs against 1 802).
    let rank: Vec<u32> = (0..n).map(|v| n - 1 - v).collect();
    let foreign =
        ContractionHierarchy::with_order(&fg, rank.clone(), fresh.window_starts().to_vec());
    let mut file = Vec::new();
    write_ch(&foreign, &mut file).unwrap();
    let loaded = read_ch(&mut file.as_slice(), &fg).unwrap();
    assert!((0..n).all(|v| loaded.rank(v) == rank[v as usize]));
    assert_eq!(loaded.window_starts(), fresh.window_starts());
    assert!(loaded.order_shape(&fg).arcs > fresh.order_shape(&fg).arcs);

    let queries = Workload::generate(
        fg.num_vertices(),
        &WorkloadConfig {
            pairs: 100,
            times_per_pair: 3,
            seed: 42,
        },
    );
    let oracle = answers(&fg, &queries, None);
    assert!(
        answers(&fg, &queries, Some(&fresh)) == oracle,
        "a fresh build"
    );
    assert!(
        answers(&fg, &queries, Some(&loaded)) == oracle,
        "the stored order"
    );
}
