//! Property tests over the tree decomposition: Def. 3's three properties and
//! the elimination-order structure, on arbitrary random graphs.

use proptest::prelude::*;
use td_gen::random_graph::seeded_graph;
use td_treedec::TreeDecomposition;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn def3_and_order_structure(seed in 0u64..10_000, n in 5usize..40, extra in 0usize..30) {
        let g = seeded_graph(seed, n, extra, 3);
        let td = TreeDecomposition::build(&g);
        prop_assert_eq!(td.len(), n);

        // Def. 3 (2): every edge covered by the earlier endpoint's bag.
        for e in g.edges() {
            let (u, v) = (e.from, e.to);
            let first = if td.order[u as usize] < td.order[v as usize] { u } else { v };
            let other = if first == u { v } else { u };
            prop_assert!(td.node(first).bag.contains(&other));
        }

        // Property 2 (⇒ Def. 3 (3) for elimination trees): bags ⊆ ancestors.
        for v in 0..n as u32 {
            for &u in &td.node(v).bag {
                prop_assert!(td.is_ancestor_of(u, v));
                // Bag members are eliminated later.
                prop_assert!(td.order[u as usize] > td.order[v as usize]);
            }
        }

        // Orders form a permutation; root is eliminated last.
        let mut orders: Vec<u32> = td.order.clone();
        orders.sort_unstable();
        prop_assert!(orders.iter().enumerate().all(|(i, &o)| i as u32 == o));
        prop_assert_eq!(td.order[td.root as usize] as usize, n - 1);
    }

    #[test]
    fn vertex_cut_always_separates(seed in 0u64..1_000) {
        let n = 20;
        let g = seeded_graph(seed, n, 12, 2);
        let td = TreeDecomposition::build(&g);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                let cut = td.vertex_cut(s, d);
                if cut.contains(&s) || cut.contains(&d) {
                    continue; // endpoint in cut: separation is trivial
                }
                // BFS avoiding the cut must not connect s and d.
                let mut blocked = vec![false; n];
                for &c in &cut {
                    blocked[c as usize] = true;
                }
                let mut seen = vec![false; n];
                seen[s as usize] = true;
                let mut stack = vec![s];
                let mut reached = false;
                while let Some(x) = stack.pop() {
                    if x == d {
                        reached = true;
                        break;
                    }
                    for &(y, _) in g.out_edges(x).iter().chain(g.in_edges(x).iter()) {
                        if !seen[y as usize] && !blocked[y as usize] {
                            seen[y as usize] = true;
                            stack.push(y);
                        }
                    }
                }
                prop_assert!(!reached, "cut {:?} fails to separate {} and {}", cut, s, d);
            }
        }
    }

    #[test]
    fn stored_weights_upper_bound_true_costs(seed in 0u64..1_000) {
        // Every stored Ws/Wd function is the cost of some real path, so it
        // can never undercut the true shortest cost function.
        let n = 18;
        let g = seeded_graph(seed, n, 10, 3);
        let td = TreeDecomposition::build(&g);
        for v in 0..n as u32 {
            let prof = td_dijkstra::profile_search(&g, v);
            let node = td.node(v);
            for (&u, idx) in node.bag.iter().zip(td.labels().range(v)) {
                let ws = td.labels().get(td_treedec::WS, idx);
                if let (Some(ws), Some(f)) = (ws, &prof.dist[u as usize]) {
                    for k in 0..5 {
                        let t = k as f64 * td_plf::DAY / 5.0;
                        prop_assert!(
                            ws.eval(t) >= f.eval(t) - 1e-6,
                            "Ws undercuts shortest: v={} u={} t={}",
                            v, u, t
                        );
                    }
                }
            }
        }
    }
}
