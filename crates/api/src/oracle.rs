//! The non-index TD-Dijkstra baseline behind the [`RoutingIndex`] trait.

use td_dijkstra::{
    profile_search_frozen_corridor_to, search, BoundedCost, QueryBudget, SearchScratch,
    ZeroPotential,
};
use td_graph::{FrozenGraph, TdGraph, VertexId};
use td_obs::SearchStats;
use td_plf::Plf;

#[allow(unused_imports)] // rustdoc link
use crate::index::RoutingIndex;

/// The TD-Dijkstra "index": no precomputation, every query searched from
/// scratch on the input graph. This is the paper's non-index baseline and
/// the workspace's correctness oracle; wrapping it behind [`RoutingIndex`]
/// lets harnesses and conformance tests treat it like any other backend.
///
/// The graph is frozen into the CSR/arena layout at construction (the only
/// "build" this backend has), so scalar queries run on flat adjacency and
/// contiguous breakpoints with per-edge `min_cost` pruning. Queries go
/// through the [`RoutingIndex`] impl; its scratch is a bare
/// [`SearchScratch`].
pub struct DijkstraOracle {
    graph: TdGraph,
    frozen: FrozenGraph,
}

impl DijkstraOracle {
    /// Wraps `graph`, freezing its CSR/arena query view (a single linear
    /// copy; there is nothing else to build).
    pub fn new(graph: TdGraph) -> DijkstraOracle {
        let frozen = graph.freeze();
        DijkstraOracle { graph, frozen }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TdGraph {
        &self.graph
    }

    /// The frozen CSR/arena view scalar queries run on.
    pub fn frozen(&self) -> &FrozenGraph {
        &self.frozen
    }

    /// Travel cost by scalar TD-Dijkstra on the frozen layout — [`search`]
    /// under the zero potential; exact, bounded and path queries all run it.
    pub(crate) fn search(
        &self,
        scratch: &mut SearchScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> BoundedCost {
        search(scratch, &self.frozen, &mut ZeroPotential, s, d, t, budget)
    }

    /// The oracle stores no precomputed index structures; its working set is
    /// the frozen CSR/arena view of the input graph, reported here so the
    /// uniform `memory_bytes > 0` accounting holds for every backend.
    pub fn memory_bytes(&self) -> usize {
        self.frozen.heap_bytes()
    }
}

/// Cost function query by the targeted corridor profile search `s → d` —
/// how the two search backends answer profiles (a potential bounds a single
/// departure; the corridor's two scalar rails bound the whole day). The
/// search's counters land in `stats`, the scratch's [`SearchStats`], which
/// is reset first exactly as [`search`] resets it.
pub(crate) fn profile_by_search(
    graph: &TdGraph,
    frozen: &FrozenGraph,
    stats: &mut SearchStats,
    s: VertexId,
    d: VertexId,
) -> Option<Plf> {
    stats.reset();
    if s == d {
        return Some(Plf::zero());
    }
    let (profile, work) = profile_search_frozen_corridor_to(graph, frozen, s, d);
    stats.merge(&work);
    profile
}

/// Snapshot persistence: the oracle's only independent state is the input
/// graph. The frozen CSR/arena view is always exactly `graph.freeze()` and
/// never mutated, so it is **not** persisted — loading re-runs the same
/// deterministic linear copy, which halves the snapshot and leaves no
/// derived data in the file for a CRC-valid edit to desynchronise.
impl td_store::Persist for DijkstraOracle {
    fn write_into<W: std::io::Write>(&self, w: &mut W) -> Result<(), td_store::StoreError> {
        self.graph.write_into(w)
    }

    fn read_from<R: std::io::Read>(r: &mut R) -> Result<DijkstraOracle, td_store::StoreError> {
        Ok(DijkstraOracle::new(TdGraph::read_from(r)?))
    }
}

// Compile-time pin: the oracle is shared read-only across query threads.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<DijkstraOracle>()
};
