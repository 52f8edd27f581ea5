#![forbid(unsafe_code)]
//! # td-dijkstra — non-index shortest-path algorithms
//!
//! The Dijkstra-based family the paper's §1/§6 survey as the non-index
//! baselines, plus the *profile* (full cost-function) search used as the
//! correctness oracle and as a building block of TD-G-tree:
//!
//! * [`astar`] — [`search`], the one frozen scalar search for a single
//!   departure time `Q(s, d, t)`: time-dependent A\* over the CSR/arena
//!   layout on a reusable [`SearchScratch`], budgeted by a [`QueryBudget`]
//!   and ordered by any pluggable [`Potential`];
//! * [`potential`] — the [`Potential`] trait and its implementations:
//!   [`ZeroPotential`] (`h ≡ 0`, i.e. plain TD-Dijkstra, Cooke–Halsey /
//!   Dreyfus style, correct under FIFO), the lazy [`ChPotential`] (one
//!   small backward upward search in a `td_ch::ContractionHierarchy` +
//!   per-vertex memoized resolution — the CH-Potentials scheme that makes
//!   TD-A\* the fast exact query path) and its test reference
//!   [`FullPotential`] (one full backward Dijkstra per destination);
//! * [`scalar`] — the `TdGraph` reference Dijkstra
//!   ([`shortest_path_cost`] / [`shortest_path`]) every search and index is
//!   tested against;
//! * [`profile`] — label-correcting search computing the *shortest travel
//!   cost function* for the whole day (Def. 2): one frozen loop behind the
//!   one-to-all [`profile_search_frozen`] (`f_{s,v}` for every `v`) and the
//!   targeted [`profile_search_frozen_corridor_to`] (`f_{s,d}` alone, every
//!   off-corridor branch pruned), plus the `TdGraph` reference
//!   [`profile_search`].

pub mod astar;
pub mod budget;
pub mod potential;
pub mod profile;
pub mod scalar;

pub use astar::{search, SearchScratch};
pub use budget::{BoundedCost, QueryBudget, DEADLINE_STRIDE};
pub use potential::{
    ChPotential, ChPotentialScratch, FullPotential, FullPotentialScratch, Potential, ZeroPotential,
};
pub use profile::{
    profile_search, profile_search_frozen, profile_search_frozen_corridor_to, ProfileResult,
};
pub use scalar::{shortest_path, shortest_path_cost};
