//! The decomposition's defining invariant (Def. 5, TFP): the union of all
//! stored `Ws`/`Wd` weight lists — i.e. the chordal fill-in graph produced by
//! the elimination — must preserve every shortest travel-cost function of the
//! original graph. If this holds, Properties 1–3 give the query algorithms
//! their correctness.

use rand::prelude::*;
use rand::rngs::StdRng;
use td_dijkstra::{profile_search, shortest_path_cost};
use td_gen::random_graph::seeded_graph;
use td_graph::{GraphBuilder, TdGraph};
use td_plf::DAY;
use td_treedec::{TreeDecomposition, WD, WS};

/// Builds the fill-in graph from a decomposition: edges `v → u` (`Ws`) and
/// `u → v` (`Wd`) for every tree node `X(v)` and bag member `u`.
fn fill_in_graph(td: &TreeDecomposition, n: usize) -> TdGraph {
    let mut b = GraphBuilder::new(n);
    let labels = td.labels();
    for node in &td.nodes {
        for (&u, idx) in node.bag.iter().zip(labels.range(node.vertex)) {
            if let Some(w) = labels.get(WS, idx) {
                b.edge(node.vertex, u, w.to_plf()).unwrap();
            }
            if let Some(w) = labels.get(WD, idx) {
                b.edge(u, node.vertex, w.to_plf()).unwrap();
            }
        }
    }
    b.build()
}

#[test]
fn fill_in_graph_preserves_shortest_cost_functions() {
    for seed in 0..6u64 {
        let n = 30;
        let g = seeded_graph(seed, n, 20, 3);
        let td = TreeDecomposition::build(&g);
        let h = fill_in_graph(&td, n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        for _ in 0..5 {
            let s = rng.gen_range(0..n) as u32;
            let orig = profile_search(&g, s);
            let fill = profile_search(&h, s);
            for d in 0..n as u32 {
                for k in 0..6 {
                    let t = k as f64 * DAY / 6.0 + 17.0;
                    match (orig.cost(d, t), fill.cost(d, t)) {
                        (Some(a), Some(b)) => assert!(
                            (a - b).abs() < 1e-5,
                            "seed={seed} s={s} d={d} t={t}: original {a} vs fill-in {b}"
                        ),
                        (None, None) => {}
                        other => {
                            panic!("seed={seed} s={s} d={d}: reachability mismatch {other:?}")
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fill_in_graph_never_undercuts_the_original() {
    // The fill-in graph is built from shortest functions of the reduced
    // graph, so it can never report a cost *below* the true shortest cost.
    for seed in 10..14u64 {
        let n = 25;
        let g = seeded_graph(seed, n, 15, 4);
        let td = TreeDecomposition::build(&g);
        let h = fill_in_graph(&td, n);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            if let Some(b) = shortest_path_cost(&h, s, d, t) {
                let a = shortest_path_cost(&g, s, d, t).expect("fill-in reachable ⇒ original too");
                assert!(b >= a - 1e-6, "fill-in undercuts: {b} < {a}");
            }
        }
    }
}

#[test]
fn stored_functions_match_direct_edges_on_trees() {
    // On a tree (no fill-in), every stored Ws/Wd must equal the original
    // edge weight exactly.
    let mut b = GraphBuilder::new(5);
    let w = |k: f64| td_plf::Plf::from_pairs(&[(0.0, 10.0 * k), (DAY, 12.0 * k)]).unwrap();
    b.bidirectional(0, 1, w(1.0)).unwrap();
    b.bidirectional(1, 2, w(2.0)).unwrap();
    b.bidirectional(1, 3, w(3.0)).unwrap();
    b.bidirectional(3, 4, w(4.0)).unwrap();
    let g = b.build();
    let td = TreeDecomposition::build(&g);
    let labels = td.labels();
    for node in &td.nodes {
        for (&u, idx) in node.bag.iter().zip(labels.range(node.vertex)) {
            let e = g.find_edge(node.vertex, u);
            if let Some(e) = e {
                let ws = labels.get(WS, idx).unwrap().to_plf();
                assert!(ws.approx_eq(g.weight(e), 1e-9));
            }
            let e = g.find_edge(u, node.vertex);
            if let Some(e) = e {
                let wd = labels.get(WD, idx).unwrap().to_plf();
                assert!(wd.approx_eq(g.weight(e), 1e-9));
            }
        }
    }
}

#[test]
fn road_like_networks_have_small_width() {
    use td_gen::{network::RoadNetwork, RoadNetworkConfig};
    let net = RoadNetwork::generate(&RoadNetworkConfig {
        rows: 24,
        cols: 24,
        extra_edge_fraction: 0.15,
        arterial_fraction: 0.02,
        cell_metres: 250.0,
        seed: 3,
    });
    let td = TreeDecomposition::build(&net.graph);
    let st = td.stats();
    // 576 vertices: a road-like partial grid must stay far below the full
    // grid's Θ(√n·…) width.
    assert!(
        st.width <= 24,
        "width {} too large for a road-like graph",
        st.width
    );
    assert!(st.height <= 200, "height {}", st.height);
}
