//! The TD-A\*-CH backend: exact time-dependent A\* on the frozen graph,
//! ordered by lazy contraction-hierarchy potentials.
//!
//! Where [`crate::DijkstraOracle`] searches blind, this backend pays a small
//! preprocessing cost — contracting the scalar min-cost graph once
//! ([`td_ch::ContractionHierarchy`]) — so every query gets a goal-directed
//! potential for the price of one backward *upward* search (a few hundred
//! settled vertices) instead of the O(n) full backward Dijkstra of
//! [`td_dijkstra::FullPotential`]. Answers are bit-identical to frozen
//! scalar Dijkstra — the same [`search`] under the zero potential.
//!
//! The contraction **order** is metric-independent — the topology's
//! min-degree elimination order, the TD-tree's own: [`update_edges`]
//! re-freezes the graph (rebuilding the min bounds) and re-customizes the
//! hierarchy under the kept order and the kept suffix windows (placed from
//! the built graph's profiles), CATCHUp-style, instead of re-running the
//! ordering or the window chooser: one pass over the order's chordal
//! supergraph relaxes every window's weights by triangles, with no witness
//! search. The same customization pass runs on snapshot load under the
//! order the file stores, so build, update and load all produce
//! bit-identical hierarchies.
//!
//! [`update_edges`]: crate::IncrementalIndex::update_edges

use td_ch::ContractionHierarchy;
use td_dijkstra::{
    search, BoundedCost, ChPotential, ChPotentialScratch, QueryBudget, SearchScratch,
};
use td_graph::{FrozenGraph, Path, TdGraph, VertexId};
use td_plf::Plf;

#[allow(unused_imports)] // rustdoc link, and the unit test's `query_cost`
use crate::index::RoutingIndex;

/// Per-session scratch of the TD-A\*-CH backend: the forward search state plus
/// the per-worker potential state (backward-upward distances + memo table).
/// One per worker thread; zero allocations per query once warmed.
#[derive(Clone, Debug, Default)]
pub struct AStarChScratch {
    pub(crate) potential: ChPotentialScratch,
    pub(crate) search: SearchScratch,
}

impl AStarChScratch {
    /// Restores a logically fresh state after a contained panic while
    /// keeping every warmed allocation (see [`SearchScratch::sanitize`] and
    /// [`ChPotentialScratch::sanitize`]): generation stamps make all torn
    /// values unreachable, and capacity — the workload's high-water mark —
    /// survives, so post-panic batches allocate nothing extra.
    pub fn sanitize(&mut self) {
        self.potential.sanitize();
        self.search.sanitize();
    }
}

/// TD-A\* over the frozen CSR/arena layout with lazy CH potentials.
#[derive(Clone)]
pub struct AStarChIndex {
    graph: TdGraph,
    frozen: FrozenGraph,
    ch: ContractionHierarchy,
}

impl AStarChIndex {
    /// Freezes `graph` and contracts its min-cost weights.
    pub fn new(graph: TdGraph) -> AStarChIndex {
        let freeze_span = td_obs::phase("freeze");
        let frozen = graph.freeze();
        drop(freeze_span);
        let ch = ContractionHierarchy::build(&frozen);
        AStarChIndex { graph, frozen, ch }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TdGraph {
        &self.graph
    }

    /// The frozen CSR/arena view the forward search runs on.
    pub fn frozen(&self) -> &FrozenGraph {
        &self.frozen
    }

    /// The contraction hierarchy behind the potentials.
    pub fn hierarchy(&self) -> &ContractionHierarchy {
        &self.ch
    }

    /// Travel cost query by TD-A\* reusing `scratch` — the hot path.
    pub fn query_cost_with(
        &self,
        scratch: &mut AStarChScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        crate::bounded::unbudgeted(self.query_cost_bounded_with(
            scratch,
            s,
            d,
            t,
            &QueryBudget::UNLIMITED,
        ))
    }

    /// [`AStarChIndex::query_cost_with`] under a [`QueryBudget`] — the one
    /// call into [`search`]: identical (bit-identical when complete), but
    /// exhaustion degrades to a bracketing interval whose lower bound comes
    /// from the CH-potential frontier keys. The search's counters also get
    /// the potential's work (`s == d` runs no potential).
    pub fn query_cost_bounded_with(
        &self,
        scratch: &mut AStarChScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> BoundedCost {
        let mut pot = ChPotential::new(&self.ch, &mut scratch.potential);
        let answer = search(&mut scratch.search, &self.frozen, &mut pot, s, d, t, budget);
        if s != d {
            scratch.potential.record(&mut scratch.search.stats);
        }
        answer
    }

    /// Travel cost and path: [`AStarChIndex::query_cost_with`], then the
    /// parent walk of the completed search.
    pub fn query_path_with(
        &self,
        scratch: &mut AStarChScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        let cost = self.query_cost_with(scratch, s, d, t)?;
        Some((cost, scratch.search.path_to(s, d)))
    }

    /// Applies weight changes: rebuilds the frozen view (and with it every
    /// min bound), then re-customizes the hierarchy's shortcut weights under
    /// the kept metric-independent order and window starts. Panics if an edge does not exist
    /// (updates change weights, not topology — matching the TD-tree
    /// family's contract).
    pub fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> td_core::UpdateStats {
        let t0 = std::time::Instant::now();
        let mut stats = td_core::UpdateStats::default();
        for (u, v, w) in changes {
            let e = self
                .graph
                .find_edge(*u, *v)
                .unwrap_or_else(|| panic!("updated edge {u} -> {v} does not exist"));
            if self.graph.weight(e).approx_eq(w, 1e-9) {
                continue;
            }
            self.graph.set_weight(e, w.clone()).expect("validated");
            stats.changed_edges += 1;
        }
        if stats.changed_edges > 0 {
            self.frozen = self.graph.freeze();
            self.ch.customize(&self.frozen);
        }
        stats.rebuild_secs = t0.elapsed().as_secs_f64();
        stats
    }

    /// Index memory: the frozen mirror plus the hierarchy arrays.
    pub fn memory_bytes(&self) -> usize {
        self.frozen.heap_bytes() + self.ch.heap_bytes()
    }
}

/// Snapshot persistence: the graph plus the hierarchy's metric-independent
/// order (rank permutation + build time). The frozen view and the shortcut
/// arrays are recomputed on load by the same deterministic freeze +
/// customize passes the build used — derived pruning data never sits in the
/// file where a CRC-valid edit could desynchronise it.
impl td_store::Persist for AStarChIndex {
    fn write_into<W: std::io::Write>(&self, w: &mut W) -> Result<(), td_store::StoreError> {
        self.graph.write_into(w)?;
        td_ch::persist::write_ch(&self.ch, w)
    }

    fn read_from<R: std::io::Read>(r: &mut R) -> Result<AStarChIndex, td_store::StoreError> {
        let graph = TdGraph::read_from(r)?;
        let frozen = graph.freeze();
        let ch = td_ch::persist::read_ch(r, &frozen)?;
        Ok(AStarChIndex { graph, frozen, ch })
    }
}

// Compile-time pin: a built index is shared read-only across query threads.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<AStarChIndex>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    #[test]
    fn update_edges_tracks_a_fresh_build() {
        use td_gen::random_graph::random_profile;
        let g = seeded_graph(21, 30, 22, 3);
        let mut index = AStarChIndex::new(g.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let e = g.edges()[rng.gen_range(0..g.num_edges())].clone();
        let w = random_profile(&mut rng, 3, 50.0, 700.0);
        let starts = index.hierarchy().window_starts().to_vec();
        let stats = index.update_edges(&[(e.from, e.to, w.clone())]);
        assert!(stats.changed_edges <= 1);
        // The windows stay where the build placed them, like the order.
        assert_eq!(index.hierarchy().window_starts(), &starts[..]);

        let mut g2 = g.clone();
        let eid = g2.find_edge(e.from, e.to).unwrap();
        g2.set_weight(eid, w).unwrap();
        let fresh = AStarChIndex::new(g2);
        let mut sc = AStarChScratch::default();
        for _ in 0..40 {
            let s = rng.gen_range(0..30) as u32;
            let d = rng.gen_range(0..30) as u32;
            let t = rng.gen_range(0.0..DAY);
            assert_eq!(
                index.query_cost_with(&mut sc, s, d, t).map(f64::to_bits),
                fresh.query_cost(s, d, t).map(f64::to_bits),
                "s={s} d={d} t={t}"
            );
        }
    }
}
