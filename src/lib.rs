#![forbid(unsafe_code)]
//! # td-road — time-dependent road network shortest paths with shortcuts
//!
//! A from-scratch Rust reproduction of *"Querying Shortest Path on Large
//! Time-Dependent Road Networks with Shortcuts"* (Gong, Zeng, Chen — ICDE
//! 2024, arXiv:2303.03720).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`api`] — the unified [`RoutingIndex`](api::RoutingIndex) trait,
//!   [`Backend`](api::Backend) factory and allocation-free
//!   [`QuerySession`](api::QuerySession) over every backend;
//! * [`plf`] — piecewise-linear travel-cost functions (`Compound`, `min`);
//! * [`graph`] — the time-dependent directed graph model;
//! * [`gen`] — synthetic road networks, profiles, workloads and the paper's
//!   named datasets;
//! * [`dijkstra`] — non-index baselines and correctness oracles;
//! * [`treedec`] — travel-function-preserved tree decomposition;
//! * [`core`] — the paper's TD-tree index (TD-basic / TD-dp / TD-appro, and
//!   the TD-H2H baseline as the same index with every pair selected);
//! * [`gtree`] — the TD-G-tree baseline.
//!
//! ## Quickstart
//!
//! Pick a [`Backend`](api::Backend), build it through the shared factory,
//! and open a [`QuerySession`](api::QuerySession) — the same four lines work
//! for every index family in the workspace:
//!
//! ```
//! use td_road::prelude::*;
//!
//! // A small time-dependent road network (3 interpolation points per edge).
//! let graph = Dataset::Cal.build(3, 0.002, 42);
//!
//! // The paper's index (TD-appro: greedily selected shortcuts), behind the
//! // unified RoutingIndex trait. Swap `Backend::TdAppro` for any of
//! // `Backend::ALL` — TdBasic, TdDp, TdH2h, TdGtree, Dijkstra, AStarCh — and
//! // everything below runs unchanged.
//! let index = build_index(
//!     graph,
//!     Backend::TdAppro,
//!     &IndexConfig { budget: 50_000, ..Default::default() },
//! );
//!
//! // A session owns reusable scratch buffers: repeated queries on the hot
//! // path stop allocating after warm-up.
//! let mut session = QuerySession::new(index.as_ref());
//!
//! // Travel cost at 8am, the full cost function, and the path.
//! let cost = session.query_cost(0, 5, 8.0 * 3600.0);
//! let profile = session.query_profile(0, 5);
//! let path = session.query_path(0, 5, 8.0 * 3600.0);
//! assert_eq!(cost.is_some(), profile.is_some());
//! assert_eq!(cost.is_some(), path.is_some());
//!
//! // Batches amortise the session reuse across a workload.
//! let costs = session.query_many([(0, 5, 0.0), (5, 0, 3600.0)]);
//! assert_eq!(costs.len(), 2);
//! ```

pub use td_api as api;
pub use td_core as core;
pub use td_dijkstra as dijkstra;
pub use td_gen as gen;
pub use td_graph as graph;
pub use td_gtree as gtree;
pub use td_plf as plf;
pub use td_store as store;
pub use td_treedec as treedec;

/// The most common imports in one place.
pub mod prelude {
    pub use td_api::{
        build_index, load_index, load_tree_index, save_index, Backend, BoundedAnswer,
        DijkstraOracle, IncrementalIndex, IndexConfig, LiveIndex, ParallelExecutor, QueryBudget,
        QueryError, QuerySession, RoutingIndex, RoutingIndexExt, StoreError, UpdateError,
    };
    pub use td_core::{IndexOptions, SelectionStrategy, TdTreeIndex};
    pub use td_gen::{Dataset, ProfileConfig, Query, Workload, WorkloadConfig};
    pub use td_graph::{GraphBuilder, Path, TdGraph, VertexId};
    pub use td_gtree::{GtreeConfig, TdGtree};
    pub use td_plf::{Plf, PlfView, DAY};
    pub use td_treedec::TreeDecomposition;
}
