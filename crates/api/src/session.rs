#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! Reusable per-query state: [`SessionScratch`] and [`QuerySession`].

use crate::index::RoutingIndex;
use std::any::Any;
use td_graph::{Path, VertexId};
use td_plf::Plf;

/// Type-erased, backend-specific scratch space.
///
/// Each backend's [`RoutingIndex::new_scratch`] puts its own buffer type in
/// here (sweep tables for the TD-tree family, arrival hash maps for
/// TD-G-tree, stamped distance arrays and the heap for the search
/// backends); the `*_in` query methods downcast it back. A scratch created
/// by one index works with any index of the same backend family;
/// [`SessionScratch::get_or_default`] lazily re-initialises on a family
/// mismatch, so misuse costs correctness nothing — only the reuse benefit.
#[derive(Default)]
pub struct SessionScratch(Option<Box<dyn Any + Send>>);

impl SessionScratch {
    /// An empty scratch (for backends without reusable state).
    pub fn none() -> Self {
        SessionScratch(None)
    }

    /// A scratch holding `value`.
    pub fn new<T: Any + Send>(value: T) -> Self {
        SessionScratch(Some(Box::new(value)))
    }

    /// Restores a logically fresh state after a contained panic, keeping
    /// the warmed capacity, for backends whose scratch supports wholesale
    /// invalidation — the two search backends:
    /// [`AStarChScratch`](crate::AStarChScratch) (TD-A\*-CH) and a bare
    /// [`SearchScratch`](td_dijkstra::SearchScratch) (TD-Dijkstra).
    /// Returns `false` when it cannot — the caller must then replace the
    /// scratch outright. An empty scratch has no state to tear and
    /// trivially sanitizes.
    pub(crate) fn try_sanitize(&mut self) -> bool {
        let Some(b) = &mut self.0 else { return true };
        if let Some(s) = b.downcast_mut::<crate::AStarChScratch>() {
            s.sanitize();
        } else if let Some(s) = b.downcast_mut::<td_dijkstra::SearchScratch>() {
            s.sanitize();
        } else {
            return false;
        }
        true
    }

    /// The contained `T`, initialising a default if absent or of another
    /// backend's type.
    pub fn get_or_default<T: Any + Send + Default>(&mut self) -> &mut T {
        let needs_init = !matches!(&self.0, Some(b) if b.is::<T>());
        if needs_init {
            self.0 = Some(Box::<T>::default());
        }
        self.0
            .as_mut()
            .expect("just initialised")
            .downcast_mut::<T>()
            .expect("just checked the type")
    }
}

/// A query session: one index plus reusable scratch buffers.
///
/// Sessions are the hot-path entry point: the first few queries size the
/// scratch to the index (tree depth, border set sizes, graph size), after
/// which scalar queries run without heap allocation. One session per worker
/// thread is the intended serving pattern — the index itself is shared
/// (`&I` / `Arc<dyn RoutingIndex>`), the session is per-thread mutable
/// state.
///
/// Works with both static and dynamic dispatch:
///
/// ```
/// # use td_api::{build_index, Backend, IndexConfig, QuerySession, RoutingIndex, RoutingIndexExt};
/// # let mut g = td_graph::TdGraph::with_vertices(2);
/// # g.add_edge(0, 1, td_plf::Plf::constant(60.0)).unwrap();
/// # g.add_edge(1, 0, td_plf::Plf::constant(60.0)).unwrap();
/// let index: Box<dyn RoutingIndex> = build_index(g, Backend::TdBasic, &IndexConfig::default());
/// let mut dynamic = QuerySession::new(index.as_ref()); // QuerySession<dyn RoutingIndex>
/// assert!(dynamic.query_cost(0, 1, 0.0).is_some());
/// ```
pub struct QuerySession<'a, I: RoutingIndex + ?Sized> {
    index: &'a I,
    scratch: SessionScratch,
}

impl<'a, I: RoutingIndex + ?Sized> QuerySession<'a, I> {
    /// A session over `index` with backend-sized scratch.
    pub fn new(index: &'a I) -> Self {
        QuerySession {
            scratch: index.new_scratch(),
            index,
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &'a I {
        self.index
    }

    /// Travel cost query `Q(s, d, t)` — allocation-free after warm-up.
    pub fn query_cost(&mut self, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        self.index.query_cost_in(&mut self.scratch, s, d, t)
    }

    /// Shortest travel cost function query `f_{s,d}(t)`.
    pub fn query_profile(&mut self, s: VertexId, d: VertexId) -> Option<Plf> {
        self.index.query_profile_in(&mut self.scratch, s, d)
    }

    /// Travel cost and the shortest path itself.
    pub fn query_path(&mut self, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
        self.index.query_path_in(&mut self.scratch, s, d, t)
    }

    /// Answers a batch of travel cost queries, amortising the session's
    /// scratch reuse across the workload.
    pub fn query_many(
        &mut self,
        queries: impl IntoIterator<Item = (VertexId, VertexId, f64)>,
    ) -> Vec<Option<f64>> {
        let mut out = Vec::new();
        self.query_many_into(queries, &mut out);
        out
    }

    /// [`QuerySession::query_many`] writing into a caller-owned buffer
    /// (cleared first), so steady-state batch serving allocates nothing.
    pub fn query_many_into(
        &mut self,
        queries: impl IntoIterator<Item = (VertexId, VertexId, f64)>,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        for (s, d, t) in queries {
            out.push(self.query_cost(s, d, t));
        }
    }
}

// Compile-time pin: scratch moves to its worker thread, never shared.
const _: () = {
    const fn moves_to_worker<T: Send>() {}
    moves_to_worker::<SessionScratch>()
};

#[cfg(test)]
mod tests {
    use crate::{build_index, Backend, IndexConfig};

    #[test]
    fn search_backends_sanitize_in_place_and_label_backends_do_not() {
        let mut g = td_graph::TdGraph::with_vertices(3);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            g.add_edge(u, v, td_plf::Plf::constant(60.0)).unwrap();
        }
        for (backend, in_place) in [
            (Backend::Dijkstra, true),
            (Backend::AStarCh, true),
            (Backend::TdBasic, false),
        ] {
            let index = build_index(g.clone(), backend, &IndexConfig::default());
            let mut scratch = index.new_scratch();
            let want = index.query_cost_in(&mut scratch, 0, 2, 10.0);
            assert_eq!(scratch.try_sanitize(), in_place, "{backend:?}");
            assert_eq!(index.query_cost_in(&mut scratch, 0, 2, 10.0), want);
        }
    }
}
