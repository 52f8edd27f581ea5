//! Property tests: `.tdx` persistence round-trips arbitrary generated
//! graphs bit-identically.

use proptest::prelude::*;
use td_graph::{GraphBuilder, TdGraph};
use td_plf::{Plf, Pt};
use td_store::Persist;

/// Strategy: a small random TD graph with random FIFO profiles (mirrors
/// `proptest_io.rs`).
fn arb_graph() -> impl Strategy<Value = TdGraph> {
    (
        2usize..12,
        proptest::collection::vec((0u32..12, 0u32..12, 1u32..5, 1.0f64..500.0), 1..30),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, k, base) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u == v {
                    continue;
                }
                let pts: Vec<Pt> = (0..k)
                    .map(|i| Pt::new(i as f64 * 10_000.0, base + i as f64))
                    .collect();
                let w = Plf::new(pts).expect("valid");
                b.edge(u, v, w).expect("valid edge");
            }
            b.build()
        })
}

fn roundtrip<T: Persist>(v: &T) -> T {
    let mut buf = Vec::new();
    v.write_into(&mut buf).expect("write");
    let mut r = buf.as_slice();
    let back = T::read_from(&mut r).expect("read");
    assert!(r.is_empty(), "trailing bytes");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_persist_round_trips_exactly(g in arb_graph()) {
        let back = roundtrip(&g);
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(back.out_edges(v), g.out_edges(v));
            prop_assert_eq!(back.in_edges(v), g.in_edges(v));
        }
        for e in 0..g.num_edges() as u32 {
            prop_assert_eq!(back.weight(e), g.weight(e));
        }
    }
}
