//! The min-degree elimination order, from the topology alone.
//!
//! The paper's tree decomposition (Algo. 2) eliminates the vertices by
//! minimum degree in the reduced graph, fill-in included; TD-A\*-CH ranks
//! its contraction hierarchy by the same order (the CCH design: an order
//! taken from the topology once, then customized for any metric). Both
//! take it from [`min_degree_order`], so the two orders cannot drift.

use crate::graph::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The min-degree elimination order of the undirected graph on `n`
/// vertices whose neighbours `neighbours(v)` yields: `order[v]` is the step
/// at which `v` is eliminated.
///
/// Each step eliminates the remaining vertex of smallest degree in the
/// reduced graph, ties going to the smaller vertex id; eliminating `v`
/// joins its remaining neighbours into a clique (the fill-in) and removes
/// it. A lazy heap of `(degree, vertex)` entries finds that vertex: each
/// elimination pushes its neighbours' new degrees, and a popped entry whose
/// vertex is gone or whose degree has since moved is skipped. The input may
/// repeat a neighbour (an out- and an in-edge) or name `v` itself; both are
/// ignored.
pub fn min_degree_order<I>(n: usize, neighbours: impl Fn(VertexId) -> I) -> Vec<u32>
where
    I: IntoIterator<Item = VertexId>,
{
    // Each vertex's remaining neighbours, ascending.
    let mut adj: Vec<Vec<VertexId>> = (0..n as VertexId)
        .map(|v| {
            let mut list: Vec<VertexId> = neighbours(v).into_iter().filter(|&u| u != v).collect();
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(u32, VertexId)>> = (adj.iter().enumerate())
        .map(|(v, list)| Reverse((list.len() as u32, v as VertexId)))
        .collect();
    let mut order = vec![u32::MAX; n];
    let mut merged = Vec::new();
    let mut step = 0u32;
    while let Some(Reverse((degree, v))) = heap.pop() {
        if order[v as usize] != u32::MAX || adj[v as usize].len() as u32 != degree {
            continue; // stale
        }
        order[v as usize] = step;
        step += 1;
        let bag = std::mem::take(&mut adj[v as usize]);
        for &u in &bag {
            // `u`'s neighbours joined with the bag, less `u` and `v`: one
            // merge of two ascending lists (an exhausted list reads as
            // `VertexId::MAX`, which no vertex of `0..n` is).
            merged.clear();
            let list = &adj[u as usize];
            let (mut i, mut j) = (0, 0);
            while i < list.len() || j < bag.len() {
                let a = list.get(i).copied().unwrap_or(VertexId::MAX);
                let b = bag.get(j).copied().unwrap_or(VertexId::MAX);
                let x = a.min(b);
                i += usize::from(a == x);
                j += usize::from(b == x);
                if x != u && x != v {
                    merged.push(x);
                }
            }
            std::mem::swap(&mut adj[u as usize], &mut merged);
            heap.push(Reverse((adj[u as usize].len() as u32, u)));
        }
    }
    debug_assert_eq!(step as usize, n);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TdGraph;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::BTreeSet;
    use td_plf::Plf;

    /// Symbolic min-degree elimination by sets: each step scans every
    /// remaining vertex for the smallest `(degree, id)`, then joins its
    /// neighbours into a clique and removes it.
    fn naive_order(g: &TdGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut adj: Vec<BTreeSet<VertexId>> = (0..n as u32)
            .map(|v| g.undirected_neighbors(v).into_iter().collect())
            .collect();
        let mut alive: BTreeSet<VertexId> = (0..n as u32).collect();
        let mut order = vec![0; n];
        for step in 0..n as u32 {
            let v = *alive
                .iter()
                .min_by_key(|&&v| (adj[v as usize].len(), v))
                .unwrap();
            alive.remove(&v);
            order[v as usize] = step;
            let bag = std::mem::take(&mut adj[v as usize]);
            for &a in &bag {
                adj[a as usize].remove(&v);
                for &b in &bag {
                    if a != b {
                        adj[a as usize].insert(b);
                    }
                }
            }
        }
        order
    }

    /// `edges` random directed edges on `n` vertices; with `two_way`, most
    /// also get their reverse.
    fn random_graph(seed: u64, n: usize, edges: usize, two_way: bool) -> TdGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = TdGraph::with_vertices(n);
        for _ in 0..edges {
            let (u, v) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
            if u == v || g.find_edge(u, v).is_some() || g.find_edge(v, u).is_some() {
                continue;
            }
            g.add_edge(u, v, Plf::constant(1.0)).unwrap();
            if two_way && rng.gen_range(0..4) != 0 {
                g.add_edge(v, u, Plf::constant(1.0)).unwrap();
            }
        }
        g
    }

    /// Both graph forms feed the one function, and it eliminates exactly as
    /// the set-based reference: on connected, sparse and disconnected
    /// graphs (isolated vertices included) and on one-way-only ones.
    #[test]
    fn matches_the_set_based_elimination() {
        for seed in 0..40u64 {
            let n = 5 + (seed as usize * 7) % 60;
            for (edges, two_way) in [(2 * n, true), (n / 2, true), (2 * n, false), (3 * n, false)] {
                let g = random_graph(seed, n, edges, two_way);
                let want = naive_order(&g);
                let got = min_degree_order(n, |v| g.undirected_neighbors_iter(v));
                assert_eq!(
                    got, want,
                    "seed {seed}, n {n}, {edges} edges, two-way {two_way}"
                );
                let fg = g.freeze();
                let frozen = min_degree_order(n, |v| {
                    let (outs, ins) = (fg.csr.out_slices(v).0, fg.csr.in_slices(v).0);
                    outs.iter().chain(ins).copied()
                });
                assert_eq!(frozen, want, "seed {seed}: the frozen graph's order");
            }
        }
        assert!(!random_graph(1, 40, 20, true).is_connected());
    }

    #[test]
    fn a_path_goes_leaves_first_and_ties_to_the_smaller_id() {
        // 0 – 1 – 2 – 3: the leaves tie at degree 1, so 0 goes first; then
        // 1 has degree 1 and ties with 3.
        let mut g = TdGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            g.add_edge(u, v, Plf::constant(1.0)).unwrap();
            g.add_edge(v, u, Plf::constant(1.0)).unwrap();
        }
        assert_eq!(
            min_degree_order(4, |v| g.undirected_neighbors_iter(v)),
            [0, 1, 2, 3]
        );
        assert!(min_degree_order(0, |_| Vec::new()).is_empty());
    }
}
