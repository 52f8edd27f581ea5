#![forbid(unsafe_code)]
//! # td-graph — time-dependent directed road networks
//!
//! Implements Def. 1 of the paper: a directed graph `G(V, E, W)` whose every
//! edge `e_{u,v}` carries a piecewise-linear travel-cost function
//! `w_{u,v}(t)` ([`td_plf::Plf`]).
//!
//! The crate provides:
//! * [`TdGraph`] — adjacency-list storage with both out- and in-edges (the
//!   reduction operator and reverse searches need predecessors);
//! * [`CsrGraph`] / [`FrozenGraph`] — the frozen query-time view: flat
//!   compressed-sparse-row adjacency plus a contiguous weight-function arena
//!   with per-edge min/max cost bounds (build once, query forever);
//! * [`GraphBuilder`] — incremental construction with validation;
//! * [`min_degree_order`] — the topology-only elimination order the tree
//!   decomposition and the contraction hierarchy both take;
//! * [`Path`] — a vertex sequence with cost evaluation against the graph,
//!   used to verify recovered shortest paths;
//! * [`io`] — a DIMACS-flavoured text format (plus a loader for static DIMACS
//!   `.gr` files, lifting constant costs to PLFs) so real road networks drop
//!   in where the synthetic ones are used.

pub mod builder;
pub mod csr;
pub mod graph;
pub mod io;
pub mod order;
pub mod path;
pub mod persist;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, FrozenGraph};
pub use graph::{Edge, EdgeId, GraphError, TdGraph, VertexId};
pub use order::min_degree_order;
pub use path::Path;
pub use stats::GraphStats;
