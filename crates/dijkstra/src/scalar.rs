//! Time-dependent Dijkstra for a fixed departure time — the reference.
//!
//! Under FIFO, growing the settled set by earliest *arrival time* is correct
//! exactly as in the static case (Cooke & Halsey \[6\]): when a vertex is
//! popped, its arrival label is final. Complexity `O((n log n + m) · c)` as
//! quoted in §6 of the paper.
//!
//! These [`TdGraph`] entry points are the simple, allocation-per-call
//! implementation every other search and index in the workspace is tested
//! against; queries are served by [`crate::search`] on the frozen layout.

use crate::astar::{walk_parents, Entry};
use std::collections::BinaryHeap;
use td_graph::{Path, TdGraph, VertexId};

/// The travel cost of the shortest path `s → d` departing at `t`, or `None`
/// if `d` is unreachable.
pub fn shortest_path_cost(g: &TdGraph, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
    run(g, s, d, t).map(|(arrival, _)| arrival - t)
}

/// The shortest path and its cost, or `None` if unreachable.
pub fn shortest_path(g: &TdGraph, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
    let (arrival, parent) = run(g, s, d, t)?;
    Some((arrival - t, walk_parents(|v| parent[v as usize], s, d)))
}

/// Settles vertices by arrival time until `d` is popped; returns its arrival
/// and the parent links, or `None` when the search runs dry first.
fn run(g: &TdGraph, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Vec<VertexId>)> {
    let n = g.num_vertices();
    let mut settled = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    best[s as usize] = t;
    heap.push(Entry::new(t, s));
    while let Some(entry) = heap.pop() {
        let (a, u) = (entry.key(), entry.vertex);
        if settled[u as usize] {
            continue; // stale entry
        }
        settled[u as usize] = true;
        if u == d {
            return Some((a, parent));
        }
        for &(v, e) in g.out_edges(u) {
            if settled[v as usize] {
                continue;
            }
            let cand = a + g.weight(e).eval(a);
            if cand < best[v as usize] {
                best[v as usize] = cand;
                parent[v as usize] = u;
                heap.push(Entry::new(cand, v));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_plf::Plf;

    /// The four-edge sub-network of the paper's Fig. 1b:
    /// v1→v2→v9 and v1→v4→v9 (ids 0-based: 1→0, 2→1, 4→2, 9→3).
    fn fig1_subnetwork() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        let w12 = Plf::from_pairs(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]).unwrap();
        let w29 = Plf::from_pairs(&[(0.0, 5.0), (30.0, 10.0), (60.0, 15.0)]).unwrap();
        let w14 = Plf::from_pairs(&[(0.0, 5.0), (30.0, 15.0), (60.0, 25.0)]).unwrap();
        let w49 = Plf::from_pairs(&[(0.0, 5.0), (60.0, 15.0)]).unwrap();
        g.add_edge(0, 1, w12).unwrap(); // v1 -> v2
        g.add_edge(1, 3, w29).unwrap(); // v2 -> v9
        g.add_edge(0, 2, w14).unwrap(); // v1 -> v4
        g.add_edge(2, 3, w49).unwrap(); // v4 -> v9
        g
    }

    #[test]
    fn example_2_3_early_departure_goes_via_v4() {
        // At t=0 the paper says the shortest path is (e_{1,4}, e_{4,9}).
        let g = fig1_subnetwork();
        let (cost, path) = shortest_path(&g, 0, 3, 0.0).unwrap();
        assert_eq!(path.vertices, vec![0, 2, 3]);
        // cost = w14(0) + w49(5) = 5 + (5 + 5·10/60) = 10.833…
        let want = 5.0 + (5.0 + 5.0 * 10.0 / 60.0);
        assert!((cost - want).abs() < 1e-9, "cost={cost}");
    }

    #[test]
    fn example_2_3_late_departure_goes_via_v2() {
        // "as time goes the travel cost of path (e1,2 , e2,9) is much lower".
        let g = fig1_subnetwork();
        let (_, path) = shortest_path(&g, 0, 3, 60.0).unwrap();
        assert_eq!(path.vertices, vec![0, 1, 3]);
    }

    #[test]
    fn cost_matches_path_replay() {
        let g = fig1_subnetwork();
        for t in [0.0, 10.0, 25.0, 40.0, 55.0, 70.0] {
            let (cost, path) = shortest_path(&g, 0, 3, t).unwrap();
            let replay = path.cost(&g, t).unwrap();
            assert!((cost - replay).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        assert_eq!(shortest_path_cost(&g, 0, 2, 0.0), None);
        assert!(shortest_path(&g, 0, 2, 0.0).is_none());
    }

    #[test]
    fn source_to_itself_is_zero() {
        let g = fig1_subnetwork();
        assert_eq!(shortest_path_cost(&g, 0, 0, 5.0), Some(0.0));
    }

    #[test]
    fn departure_time_changes_the_cost() {
        let g = fig1_subnetwork();
        let early = shortest_path_cost(&g, 0, 3, 0.0).unwrap();
        let late = shortest_path_cost(&g, 0, 3, 60.0).unwrap();
        assert!(late > early);
    }

    #[test]
    fn respects_waiting_is_not_allowed() {
        // Costs rise steeply with time: leaving later must not be "fixed" by
        // the algorithm pretending to wait.
        let mut g = TdGraph::with_vertices(2);
        g.add_edge(
            0,
            1,
            Plf::from_pairs(&[(0.0, 10.0), (100.0, 100.0)]).unwrap(),
        )
        .unwrap();
        let c = shortest_path_cost(&g, 0, 1, 100.0).unwrap();
        assert!((c - 100.0).abs() < 1e-9);
    }
}
