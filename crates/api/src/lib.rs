#![forbid(unsafe_code)]
//! # td-api — the system's public query contract
//!
//! Every index family in the workspace — the paper's TD-tree
//! ([`td_core::TdTreeIndex`]), the TD-G-tree and TD-H2H baselines, the
//! non-index TD-Dijkstra oracle, and the lazy-CH-potential TD-A\* engine
//! ([`AStarChIndex`]) — answers the same three query kinds under
//! the same accounting. This crate is the one seam expressing that:
//!
//! * [`RoutingIndex`] — the object-safe trait every backend implements:
//!   the scratch-taking `query_cost_in` / `query_profile_in` /
//!   `query_path_in` are the required queries (they power sessions), next
//!   to `memory_bytes` / `build_stats`; the scratch-free `query_cost` /
//!   `query_profile` / `query_path` are provided on top of them;
//! * [`Backend`] + [`IndexConfig`] + [`build_index`] — a uniform factory so
//!   harnesses, tests and examples never hand-roll per-backend dispatch;
//! * [`QuerySession`] — owns reusable per-query scratch (distance arrays,
//!   sweep tables, PLF work vectors) so hot-path queries stop allocating,
//!   with [`QuerySession::query_many`] amortising the reuse over a batch;
//! * [`IncrementalIndex`] — the optional `update_edges` extension
//!   (implemented by the TD-tree family, TD-H2H included, when built with
//!   [`IndexConfig::track_supports`]);
//! * [`ParallelExecutor`] + [`LiveIndex`] — the concurrent serving layer:
//!   session-pooled parallel query batches over one shared index, and the
//!   epoch/copy-on-write live-update mode where readers query immutable
//!   snapshots while a writer repairs a private clone and publishes it;
//! * [`conformance`] — a backend-generic test suite instantiated for every
//!   [`Backend`] in this crate's tests.
//!
//! ```
//! use td_api::{build_index, Backend, IndexConfig, QuerySession};
//! # let mut g = td_graph::TdGraph::with_vertices(2);
//! # g.add_edge(0, 1, td_plf::Plf::constant(60.0)).unwrap();
//! # g.add_edge(1, 0, td_plf::Plf::constant(60.0)).unwrap();
//! let index = build_index(g, Backend::TdAppro, &IndexConfig {
//!     budget: 20_000,
//!     ..Default::default()
//! });
//! let mut session = QuerySession::new(index.as_ref());
//! let cost = session.query_cost(0, 1, 8.0 * 3600.0);
//! let again = session.query_cost(0, 1, 8.0 * 3600.0); // reuses buffers
//! assert_eq!(cost, again);
//! ```

mod astar_ch;
mod backend;
mod bounded;
pub mod conformance;
mod index;
mod oracle;
mod parallel;
mod session;
mod snapshot;

pub use astar_ch::{AStarChIndex, AStarChScratch};
pub use backend::{build_index, Backend, IndexConfig};
pub use bounded::{BoundedAnswer, QueryError};
pub use index::{IncrementalIndex, IndexStats, RoutingIndex, RoutingIndexExt};
pub use oracle::DijkstraOracle;
pub use parallel::{CostQuery, LiveIndex, ParallelExecutor, UpdateError};
pub use session::{QuerySession, SessionScratch};
pub use snapshot::{
    load_astar_ch_index, load_index, load_index_from, load_tree_index, save_index, save_index_to,
    save_index_with_kill_point, KillPoint,
};
pub use td_dijkstra::QueryBudget;
pub use td_store::{BackendTag, StoreError};
