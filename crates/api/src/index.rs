//! The [`RoutingIndex`] trait and its implementations for every backend.

use crate::astar_ch::{AStarChIndex, AStarChScratch};
use crate::bounded::{unbudgeted, BoundedAnswer, QueryError};
use crate::oracle::{profile_by_search, DijkstraOracle};
use crate::session::{QuerySession, SessionScratch};
use td_core::{CostScratch, ProfileScratch, TdTreeIndex, UpdateStats};
use td_dijkstra::{QueryBudget, SearchScratch};
use td_graph::{Path, TdGraph, VertexId};
use td_gtree::{GtreeScratch, TdGtree};
use td_obs::{QueryTrace, SearchStats};
use td_plf::Plf;

/// Construction-time metrics every backend reports uniformly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexStats {
    /// Total construction wall time, seconds (0 for the non-index oracle).
    pub construction_secs: f64,
    /// Number of precomputed pair entries (shortcut pairs, labels, matrix
    /// cells; 0 when not applicable).
    pub precomputed_pairs: usize,
    /// Total stored interpolation points across precomputed functions.
    pub stored_points: usize,
}

/// The unified query interface over every index family in the workspace.
///
/// All methods take `&self` — indexes are immutable once built (see
/// [`IncrementalIndex`] for updates) and safe to share across threads.
///
/// A backend implements the three scratch-taking queries —
/// [`query_cost_in`](RoutingIndex::query_cost_in),
/// [`query_profile_in`](RoutingIndex::query_profile_in),
/// [`query_path_in`](RoutingIndex::query_path_in) — plus its name, graph
/// and accounting, and overrides [`new_scratch`](RoutingIndex::new_scratch)
/// when its queries have reusable state. Everything else is provided on
/// top of those: the scratch-free `query_cost` / `query_profile` /
/// `query_path` run the same code on a fresh scratch, and the bounded and
/// traced forms wrap `query_cost_in` — they exist in the scratch-taking
/// form only, so pass [`new_scratch`](RoutingIndex::new_scratch) for a
/// one-off or hold a [`QuerySession`], which packages the scratch-threading
/// pattern.
pub trait RoutingIndex: Send + Sync {
    /// The backend's display name, as used in the paper's tables.
    fn backend_name(&self) -> &'static str;

    /// The underlying graph (kept by every backend for path expansion,
    /// updates and examples).
    fn graph(&self) -> &TdGraph;

    /// Index memory in bytes. Precomputed structures only — the input graph
    /// is not counted, since every compared method shares it. The one
    /// exception is the non-index [`crate::DijkstraOracle`], which has no
    /// precomputed structures and reports the graph's weight functions (its
    /// entire working set) so the uniform `memory_bytes() > 0` accounting
    /// holds; exclude it from index-memory comparisons.
    fn memory_bytes(&self) -> usize;

    /// Construction statistics.
    fn build_stats(&self) -> IndexStats;

    /// Fresh scratch sized for this backend. The default is an empty scratch
    /// for backends whose queries have no reusable state.
    fn new_scratch(&self) -> SessionScratch {
        SessionScratch::none()
    }

    /// Travel cost query `Q(s, d, t)` reusing `scratch` — the hot path.
    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64>;

    /// Shortest travel cost *function* query `f_{s,d}(t)` reusing `scratch`.
    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf>;

    /// Travel cost and the shortest path itself, reusing `scratch`.
    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)>;

    /// [`RoutingIndex::query_cost_in`] on a fresh scratch.
    fn query_cost(&self, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        self.query_cost_in(&mut self.new_scratch(), s, d, t)
    }

    /// [`RoutingIndex::query_profile_in`] on a fresh scratch.
    fn query_profile(&self, s: VertexId, d: VertexId) -> Option<Plf> {
        self.query_profile_in(&mut self.new_scratch(), s, d)
    }

    /// [`RoutingIndex::query_path_in`] on a fresh scratch.
    fn query_path(&self, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
        self.query_path_in(&mut self.new_scratch(), s, d, t)
    }

    /// Budget-bounded travel cost query reusing `scratch`: validates the
    /// inputs, then answers along the degradation ladder **exact → bounded →
    /// error**. A completed search returns [`BoundedAnswer::Exact`],
    /// bit-identical to [`RoutingIndex::query_cost`]. When the budget runs
    /// out, search backends (TD-Dijkstra, TD-A\*-CH) degrade to a flagged
    /// [`BoundedAnswer::Approximate`] interval proved by their frontier;
    /// label/matrix backends answer exactly in near-constant time, so for
    /// them the settle cap is inapplicable and only an already-expired
    /// deadline turns into [`QueryError::BudgetExhausted`].
    fn query_cost_bounded_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> Result<BoundedAnswer, QueryError> {
        crate::bounded::validate_query(self.graph().num_vertices(), s, d, t)?;
        if budget.deadline_passed() {
            return Err(QueryError::BudgetExhausted);
        }
        Ok(BoundedAnswer::Exact(self.query_cost_in(scratch, s, d, t)))
    }

    /// Drains the [`SearchStats`] the most recent `*_in` query left in
    /// `scratch`. Search backends (TD-Dijkstra, TD-A\*-CH, TD-G-tree) and
    /// the TD-tree family's profile sweeps override this; the default
    /// `None` covers backends whose queries count nothing. Draining resets
    /// the scratch counters, so each query's stats are observed exactly
    /// once.
    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        let _ = scratch;
        None
    }

    /// [`RoutingIndex::query_cost_in`] plus a per-query [`QueryTrace`] (wall
    /// time and search counters): the underlying query runs unchanged, then
    /// the scratch's counters are drained (no allocation once the scratch is
    /// warmed).
    fn query_cost_traced_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> (Option<f64>, QueryTrace) {
        let start = std::time::Instant::now();
        let cost = self.query_cost_in(scratch, s, d, t);
        let trace = QueryTrace {
            stats: self.take_search_stats(scratch).unwrap_or_default(),
            nanos: start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        };
        (cost, trace)
    }

    /// Writes this index as a complete `.tdx` snapshot stream — header
    /// (with this backend's tag), body sections, end marker — such that
    /// [`crate::load_index_from`] reconstructs a query-identical index.
    /// Every in-workspace backend overrides this; the default rejects the
    /// operation so exotic third-party implementors are not forced to
    /// invent a format.
    fn write_snapshot(&self, w: &mut dyn std::io::Write) -> Result<(), td_store::StoreError> {
        let _ = w;
        Err(td_store::StoreError::Unsupported(
            "this backend does not implement snapshot persistence",
        ))
    }
}

// A boxed index (what `load_index` returns) is itself a `RoutingIndex`, so
// generic consumers with `I: RoutingIndex + Sized` bounds — `LiveIndex<I>`,
// `TdServer<I>` — can serve a `Box<dyn RoutingIndex>` without re-dispatching
// on the backend. Every method forwards to the inner implementation,
// defaults included, so overrides are never shadowed by the trait defaults.
impl<T: RoutingIndex + ?Sized> RoutingIndex for Box<T> {
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
    fn graph(&self) -> &TdGraph {
        (**self).graph()
    }
    fn query_cost(&self, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        (**self).query_cost(s, d, t)
    }
    fn query_profile(&self, s: VertexId, d: VertexId) -> Option<Plf> {
        (**self).query_profile(s, d)
    }
    fn query_path(&self, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
        (**self).query_path(s, d, t)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn build_stats(&self) -> IndexStats {
        (**self).build_stats()
    }
    fn new_scratch(&self) -> SessionScratch {
        (**self).new_scratch()
    }
    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        (**self).query_cost_in(scratch, s, d, t)
    }
    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        (**self).query_profile_in(scratch, s, d)
    }
    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        (**self).query_path_in(scratch, s, d, t)
    }
    fn query_cost_bounded_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> Result<BoundedAnswer, QueryError> {
        (**self).query_cost_bounded_in(scratch, s, d, t, budget)
    }
    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        (**self).take_search_stats(scratch)
    }
    fn query_cost_traced_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> (Option<f64>, QueryTrace) {
        (**self).query_cost_traced_in(scratch, s, d, t)
    }
    fn write_snapshot(&self, w: &mut dyn std::io::Write) -> Result<(), td_store::StoreError> {
        (**self).write_snapshot(w)
    }
}

/// Extension methods that need `Self: Sized` (use [`QuerySession::new`]
/// directly on `dyn RoutingIndex`).
pub trait RoutingIndexExt: RoutingIndex + Sized {
    /// A statically-dispatched query session over this index.
    fn session(&self) -> QuerySession<'_, Self> {
        QuerySession::new(self)
    }
}

impl<I: RoutingIndex + Sized> RoutingIndexExt for I {}

/// The optional incremental-maintenance extension: apply edge-weight changes
/// in place instead of rebuilding.
pub trait IncrementalIndex: RoutingIndex {
    /// Applies weight changes to existing edges and repairs the index.
    /// Panics if the backend was not built with update support (for the
    /// TD-tree family: [`crate::IndexConfig::track_supports`]).
    fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats;
}

// ----------------------------------------------------------------------
// TD-tree (TD-basic / TD-appro / TD-dp, and TD-H2H via `All`)
// ----------------------------------------------------------------------

/// Per-session scratch of the TD-tree family.
#[derive(Clone, Debug, Default)]
pub(crate) struct TdTreeScratch {
    pub cost: CostScratch,
    pub profile: ProfileScratch,
}

impl RoutingIndex for TdTreeIndex {
    fn backend_name(&self) -> &'static str {
        use td_core::SelectionStrategy::*;
        match self.options.strategy {
            Basic => "TD-basic",
            Greedy { .. } => "TD-appro",
            Dp { .. } => "TD-dp",
            All => "TD-H2H",
        }
    }

    fn graph(&self) -> &TdGraph {
        TdTreeIndex::graph(self)
    }

    fn memory_bytes(&self) -> usize {
        TdTreeIndex::memory_bytes(self)
    }

    fn build_stats(&self) -> IndexStats {
        IndexStats {
            construction_secs: self.build_stats.total_secs(),
            precomputed_pairs: self.shortcuts().num_pairs(),
            stored_points: self.shortcuts().total_points() + self.tree_stats().stored_points,
        }
    }

    fn new_scratch(&self) -> SessionScratch {
        SessionScratch::new(TdTreeScratch::default())
    }

    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        let sc: &mut TdTreeScratch = scratch.get_or_default();
        self.query_cost_with(&mut sc.cost, s, d, t)
    }

    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        let sc: &mut TdTreeScratch = scratch.get_or_default();
        self.query_profile_with(&mut sc.profile, s, d)
    }

    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        let sc: &mut TdTreeScratch = scratch.get_or_default();
        self.query_path_with(&mut sc.cost, s, d, t)
    }

    /// The scalar and profile sweeps' counters, summed: levels swept
    /// (`settled`) and functions evaluated (`plf_evals_scalar`) by the
    /// scalar queries; relaxations that reached the prune tests (scalar
    /// evaluations and prunes, profile relaxations); bound prunes (scalar
    /// min-cost prunes, profile slot-maximum prunes and merges kept by
    /// per-window bounds without a walk); and the profile's corridor drops
    /// (slots, seeds, relaxations and chain terms).
    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        let sc: &mut TdTreeScratch = scratch.get_or_default();
        let scalar = std::mem::take(&mut sc.cost.counts);
        let counts = std::mem::take(&mut sc.profile.counts);
        Some(SearchStats {
            settled: scalar.levels,
            relaxed: scalar.evals + scalar.prunes + counts.relaxed,
            plf_evals_scalar: scalar.evals,
            minbound_prunes: scalar.prunes + counts.slot_prunes + counts.window_keeps,
            corridor_kills: counts.corridor_drops,
            ..SearchStats::default()
        })
    }

    fn write_snapshot(&self, mut w: &mut dyn std::io::Write) -> Result<(), td_store::StoreError> {
        td_store::write_snapshot(self, crate::snapshot::tree_tag(self), &mut w)
    }
}

impl IncrementalIndex for TdTreeIndex {
    fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
        TdTreeIndex::update_edges(self, changes)
    }
}

// ----------------------------------------------------------------------
// TD-G-tree
// ----------------------------------------------------------------------

impl RoutingIndex for TdGtree {
    fn backend_name(&self) -> &'static str {
        "TD-G-tree"
    }

    fn graph(&self) -> &TdGraph {
        TdGtree::graph(self)
    }

    fn memory_bytes(&self) -> usize {
        TdGtree::memory_bytes(self)
    }

    fn build_stats(&self) -> IndexStats {
        IndexStats {
            construction_secs: self.build_secs,
            precomputed_pairs: self.num_entries(),
            stored_points: self.total_points(),
        }
    }

    fn new_scratch(&self) -> SessionScratch {
        SessionScratch::new(GtreeScratch::default())
    }

    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        let sc: &mut GtreeScratch = scratch.get_or_default();
        self.query_cost_with(sc, s, d, t)
    }

    fn query_profile_in(
        &self,
        _scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        TdGtree::query_profile(self, s, d)
    }

    fn query_path_in(
        &self,
        _scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        TdGtree::query_path(self, s, d, t)
    }

    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        let sc: &mut GtreeScratch = scratch.get_or_default();
        Some(sc.take_search_stats())
    }

    fn write_snapshot(&self, mut w: &mut dyn std::io::Write) -> Result<(), td_store::StoreError> {
        td_store::write_snapshot(self, td_store::BackendTag::TdGtree, &mut w)
    }
}

// ----------------------------------------------------------------------
// TD-Dijkstra oracle
// ----------------------------------------------------------------------

impl RoutingIndex for DijkstraOracle {
    fn backend_name(&self) -> &'static str {
        "TD-Dijkstra"
    }

    fn graph(&self) -> &TdGraph {
        DijkstraOracle::graph(self)
    }

    fn memory_bytes(&self) -> usize {
        DijkstraOracle::memory_bytes(self)
    }

    fn build_stats(&self) -> IndexStats {
        IndexStats::default()
    }

    fn new_scratch(&self) -> SessionScratch {
        SessionScratch::new(SearchScratch::default())
    }

    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        let sc: &mut SearchScratch = scratch.get_or_default();
        unbudgeted(self.search(sc, s, d, t, &QueryBudget::UNLIMITED))
    }

    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        let sc: &mut SearchScratch = scratch.get_or_default();
        profile_by_search(self.graph(), self.frozen(), &mut sc.stats, s, d)
    }

    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        let sc: &mut SearchScratch = scratch.get_or_default();
        let cost = unbudgeted(self.search(sc, s, d, t, &QueryBudget::UNLIMITED))?;
        Some((cost, sc.path_to(s, d)))
    }

    fn query_cost_bounded_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> Result<BoundedAnswer, QueryError> {
        crate::bounded::validate_query(self.graph().num_vertices(), s, d, t)?;
        let sc: &mut SearchScratch = scratch.get_or_default();
        Ok(self.search(sc, s, d, t, budget).into())
    }

    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        let sc: &mut SearchScratch = scratch.get_or_default();
        Some(sc.stats.take())
    }

    fn write_snapshot(&self, mut w: &mut dyn std::io::Write) -> Result<(), td_store::StoreError> {
        td_store::write_snapshot(self, td_store::BackendTag::Dijkstra, &mut w)
    }
}

// ----------------------------------------------------------------------
// TD-A*-CH
// ----------------------------------------------------------------------

impl RoutingIndex for AStarChIndex {
    fn backend_name(&self) -> &'static str {
        "TD-A*-CH"
    }

    fn graph(&self) -> &TdGraph {
        AStarChIndex::graph(self)
    }

    fn memory_bytes(&self) -> usize {
        AStarChIndex::memory_bytes(self)
    }

    fn build_stats(&self) -> IndexStats {
        IndexStats {
            construction_secs: self.hierarchy().construction_secs(),
            precomputed_pairs: self.hierarchy().num_shortcuts(),
            // The hierarchy stores one scalar weight per (directed) up/down
            // edge — the CH analogue of interpolation points.
            stored_points: self.hierarchy().num_edges(),
        }
    }

    fn new_scratch(&self) -> SessionScratch {
        SessionScratch::new(AStarChScratch::default())
    }

    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        let sc: &mut AStarChScratch = scratch.get_or_default();
        self.query_cost_with(sc, s, d, t)
    }

    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        let sc: &mut AStarChScratch = scratch.get_or_default();
        profile_by_search(self.graph(), self.frozen(), &mut sc.search.stats, s, d)
    }

    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        let sc: &mut AStarChScratch = scratch.get_or_default();
        self.query_path_with(sc, s, d, t)
    }

    fn query_cost_bounded_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> Result<BoundedAnswer, QueryError> {
        crate::bounded::validate_query(self.graph().num_vertices(), s, d, t)?;
        let sc: &mut AStarChScratch = scratch.get_or_default();
        Ok(self.query_cost_bounded_with(sc, s, d, t, budget).into())
    }

    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        let sc: &mut AStarChScratch = scratch.get_or_default();
        Some(sc.search.stats.take())
    }

    fn write_snapshot(&self, mut w: &mut dyn std::io::Write) -> Result<(), td_store::StoreError> {
        td_store::write_snapshot(self, td_store::BackendTag::AStarCh, &mut w)
    }
}

impl IncrementalIndex for AStarChIndex {
    fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
        AStarChIndex::update_edges(self, changes)
    }
}
