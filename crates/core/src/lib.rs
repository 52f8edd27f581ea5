#![forbid(unsafe_code)]
//! # td-core — the paper's TD-tree index
//!
//! The primary contribution of *"Querying Shortest Path on Large
//! Time-Dependent Road Networks with Shortcuts"* (ICDE 2024): a travel-
//! function-preserved tree decomposition with a budget-constrained set of
//! selected shortcuts.
//!
//! * [`index`] — [`TdTreeIndex`]: construction (Algo. 2 via `td-treedec`),
//!   shortcut materialisation (Fact 1: weigh every pair, store the closure of
//!   the selected ones, in parallel), memory accounting;
//! * [`select`] — the shortcut-selection knapsack (Def. 8): exact dynamic
//!   programming (Algo. 4, with divide-and-conquer reconstruction and weight
//!   bucketing for large budgets) and the 0.5-approximation dual greedy
//!   (Algo. 5), plus a brute-force reference for tests;
//! * [`shortcut`] — candidate enumeration with utilities (Def. 7) and the
//!   ancestor-vector DFS implementing Fact 1;
//! * [`query`] — the shortcut query (Algo. 6), which over an empty
//!   selection *is* the basic query (Algo. 3), in *scalar* mode (travel-cost
//!   query) and *profile* mode (shortest travel-cost-function query);
//! * [`paths`] — shortest-path recovery by recursive witness unfolding;
//! * [`update`] — incremental edge-weight updates (§5.2, Fig. 10): exact
//!   support-list replay of the reduction plus top-down shortcut rebuild.

pub mod index;
pub mod paths;
pub mod persist;
pub mod query;
pub mod select;
pub mod shortcut;
pub mod update;

pub use index::{BuildStats, IndexOptions, SelectionStrategy, TdTreeIndex};
pub use query::{CostCounts, CostScratch, ProfileCounts, ProfileScratch};
pub use select::{Candidate, Selection};
pub use update::UpdateStats;
