//! [`CsrGraph`] and [`FrozenGraph`]: the frozen, cache-friendly query-time
//! representation of a [`TdGraph`].
//!
//! [`TdGraph`] stores adjacency as `Vec<Vec<(VertexId, EdgeId)>>` — right for
//! incremental construction and live-traffic weight updates, wrong for the
//! query hot loops, where every neighbour scan chases a per-vertex heap
//! pointer. [`CsrGraph`] is the standard compressed-sparse-row alternative:
//! one `first_out` offset array plus flat `head`/`edge` arrays (and the same
//! for the reverse direction), so a vertex's out-edges are one contiguous
//! slice and sequential scans prefetch perfectly.
//!
//! [`FrozenGraph`] pairs the CSR topology with a [`PlfArena`] holding every
//! edge's weight function in edge-id order: function `e` of the arena is the
//! weight of edge `e`, with precomputed `min_cost`/`max_cost` bounds the
//! search loops use for pruning. Freeze once after the graph stops changing;
//! rebuild after `set_weight` batches (the build is a single linear copy).

use crate::graph::{EdgeId, TdGraph, VertexId};
use td_plf::{PlfArena, PlfSlice};

/// Compressed-sparse-row adjacency (forward and reverse) over a [`TdGraph`].
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `first_out[v]..first_out[v+1]` delimits `v`'s out-edges (len `n+1`).
    first_out: Vec<u32>,
    /// Head vertex of each out-edge, grouped by tail.
    head: Vec<VertexId>,
    /// Edge id of each out-edge (index into the graph's edge array).
    out_edge: Vec<EdgeId>,
    /// `first_in[v]..first_in[v+1]` delimits `v`'s in-edges (len `n+1`).
    first_in: Vec<u32>,
    /// Tail vertex of each in-edge, grouped by head.
    tail: Vec<VertexId>,
    /// Edge id of each in-edge.
    in_edge: Vec<EdgeId>,
}

impl Default for CsrGraph {
    fn default() -> Self {
        // Not derived: the offset arrays must start as `[0]`, not empty, for
        // the invariant `num_vertices() == first_out.len() - 1` to hold on
        // an empty graph.
        CsrGraph {
            first_out: vec![0],
            head: Vec::new(),
            out_edge: Vec::new(),
            first_in: vec![0],
            tail: Vec::new(),
            in_edge: Vec::new(),
        }
    }
}

impl CsrGraph {
    /// Builds both directions from `g` in `O(n + m)`.
    pub fn build(g: &TdGraph) -> CsrGraph {
        let n = g.num_vertices();
        let m = g.num_edges();
        let mut first_out = Vec::with_capacity(n + 1);
        let mut head = Vec::with_capacity(m);
        let mut out_edge = Vec::with_capacity(m);
        first_out.push(0);
        for v in 0..n as u32 {
            for &(u, e) in g.out_edges(v) {
                head.push(u);
                out_edge.push(e);
            }
            first_out.push(head.len() as u32);
        }
        let mut first_in = Vec::with_capacity(n + 1);
        let mut tail = Vec::with_capacity(m);
        let mut in_edge = Vec::with_capacity(m);
        first_in.push(0);
        for v in 0..n as u32 {
            for &(u, e) in g.in_edges(v) {
                tail.push(u);
                in_edge.push(e);
            }
            first_in.push(tail.len() as u32);
        }
        CsrGraph {
            first_out,
            head,
            out_edge,
            first_in,
            tail,
            in_edge,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.first_out.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.head.len()
    }

    /// `v`'s out-neighbours as parallel `(heads, edge ids)` slices.
    #[inline]
    pub fn out_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.first_out[v as usize] as usize;
        let hi = self.first_out[v as usize + 1] as usize;
        (&self.head[lo..hi], &self.out_edge[lo..hi])
    }

    /// `v`'s in-neighbours as parallel `(tails, edge ids)` slices.
    #[inline]
    pub fn in_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.first_in[v as usize] as usize;
        let hi = self.first_in[v as usize + 1] as usize;
        (&self.tail[lo..hi], &self.in_edge[lo..hi])
    }

    /// Iterator over `v`'s out-edges as `(head, edge)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (heads, edges) = self.out_slices(v);
        heads.iter().copied().zip(edges.iter().copied())
    }

    /// Iterator over `v`'s in-edges as `(tail, edge)` pairs.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (tails, edges) = self.in_slices(v);
        tails.iter().copied().zip(edges.iter().copied())
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.first_out.capacity() + self.first_in.capacity()) * std::mem::size_of::<u32>()
            + (self.head.capacity() + self.tail.capacity()) * std::mem::size_of::<VertexId>()
            + (self.out_edge.capacity() + self.in_edge.capacity()) * std::mem::size_of::<EdgeId>()
    }
}

/// The frozen query representation: CSR topology + contiguous weight arena.
///
/// Arena function `e` is the weight of edge `e`, so [`FrozenGraph::weight`]
/// and the bound accessors index directly by [`EdgeId`].
#[derive(Clone, Debug, Default)]
pub struct FrozenGraph {
    /// CSR adjacency, both directions.
    pub csr: CsrGraph,
    /// All edge weight functions, in edge-id order.
    pub weights: PlfArena,
    /// `min_cost` of each *out-slot* (parallel to the CSR `head` array), so
    /// the relaxation prune reads the bound from the same stream it walks —
    /// no arena touch for pruned edges.
    out_min: Vec<f64>,
}

impl FrozenGraph {
    /// Freezes `g`: builds the CSR arrays and copies every weight function
    /// into the arena.
    pub fn freeze(g: &TdGraph) -> FrozenGraph {
        let csr = CsrGraph::build(g);
        let total: usize = g.edges().iter().map(|e| e.weight.len()).sum();
        let mut weights = PlfArena::with_capacity(g.num_edges(), total);
        for e in g.edges() {
            weights.push(&e.weight);
        }
        let out_min = csr.out_edge.iter().map(|&e| weights.min_cost(e)).collect();
        FrozenGraph {
            csr,
            weights,
            out_min,
        }
    }

    /// `v`'s out-neighbours as parallel `(heads, edge ids, min costs)`
    /// slices — the scalar relaxation's working set.
    #[inline]
    pub fn out_slices_with_min(&self, v: VertexId) -> (&[VertexId], &[EdgeId], &[f64]) {
        let lo = self.csr.first_out[v as usize] as usize;
        let hi = self.csr.first_out[v as usize + 1] as usize;
        (
            &self.csr.head[lo..hi],
            &self.csr.out_edge[lo..hi],
            &self.out_min[lo..hi],
        )
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// The weight function of edge `e` as a borrowed slice.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> PlfSlice<'_> {
        self.weights.slice(e)
    }

    /// Admissible lower bound on `w_e(t)` for every `t`.
    #[inline]
    pub fn min_cost(&self, e: EdgeId) -> f64 {
        self.weights.min_cost(e)
    }

    /// Upper bound on `w_e(t)` for every `t`.
    #[inline]
    pub fn max_cost(&self, e: EdgeId) -> f64 {
        self.weights.max_cost(e)
    }

    /// Heap footprint in bytes (topology + weight arena + bound array).
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes()
            + self.weights.heap_bytes()
            + self.out_min.capacity() * std::mem::size_of::<f64>()
    }
}

impl TdGraph {
    /// Freezes this graph into the CSR/arena query representation.
    pub fn freeze(&self) -> FrozenGraph {
        FrozenGraph::freeze(self)
    }
}

// Compile-time pin: frozen CSR views are shared read-only across query
// threads. A future `Rc`/`Cell` field fails this line instead of a test.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<CsrGraph>();
    shared_across_threads::<FrozenGraph>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use td_plf::Plf;
    use td_plf::PlfView;

    fn sample() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        g.add_edge(1, 2, Plf::from_pairs(&[(0.0, 2.0), (10.0, 4.0)]).unwrap())
            .unwrap();
        g.add_edge(0, 2, Plf::constant(5.0)).unwrap();
        g.add_edge(2, 3, Plf::constant(1.0)).unwrap();
        g
    }

    #[test]
    fn csr_matches_adjacency_lists() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.num_vertices(), g.num_vertices());
        assert_eq!(csr.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            let want: Vec<_> = g.out_edges(v).to_vec();
            let got: Vec<_> = csr.out_edges(v).collect();
            assert_eq!(want, got, "out({v})");
            let want: Vec<_> = g.in_edges(v).to_vec();
            let got: Vec<_> = csr.in_edges(v).collect();
            assert_eq!(want, got, "in({v})");
        }
    }

    #[test]
    fn frozen_weights_match_by_edge_id() {
        let g = sample();
        let fg = g.freeze();
        for e in 0..g.num_edges() as u32 {
            let w = g.weight(e);
            for t in [-1.0, 0.0, 5.0, 10.0, 20.0] {
                assert_eq!(fg.weight(e).eval(t), w.eval(t), "e={e} t={t}");
            }
            assert_eq!(fg.min_cost(e), w.min_value());
            assert_eq!(fg.max_cost(e), w.max_value());
        }
    }

    #[test]
    fn empty_vertex_has_empty_slices() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        assert!(csr.out_slices(3).0.is_empty());
        assert!(csr.in_slices(0).0.is_empty());
    }

    #[test]
    fn memory_accounting_positive() {
        let fg = sample().freeze();
        assert!(fg.heap_bytes() > 0);
        assert_eq!(fg.num_vertices(), 4);
        assert_eq!(fg.num_edges(), 4);
    }
}
