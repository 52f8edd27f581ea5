#![forbid(unsafe_code)]
//! # td-treedec — tree decomposition of time-dependent road networks
//!
//! Implements §3 of the paper:
//!
//! * the **reduction operator** `G ⊖ v` (Algo. 1), which eliminates a vertex
//!   while preserving shortest travel-cost functions among its neighbours
//!   (producing a TFP-graph, Def. 5);
//! * **TFP tree decomposition** (Algo. 2): min-degree elimination, one tree
//!   node `X(v)` per vertex with the weight lists `Ws` (`v → u`) and `Wd`
//!   (`u → v`) for every bag member `u ∈ X(v)\{v}`, stored once in the
//!   decomposition's flat [`Labels`] (CSR bag slots over one arena per
//!   direction), the layout the query sweeps read;
//! * the tree skeleton with parent/children links, depths, subtree sizes,
//!   treewidth/treeheight (Def. 4) and O(1) **LCA** via Euler tour + sparse
//!   table (needed by Property 1's vertex-cut argument).
//!
//! The decomposition is the substrate of `td-core`: the paper's index, and
//! the TD-H2H baseline as that index with every pair selected.

pub mod elimination;
pub mod fxhash;
pub mod labels;
pub mod lca;
pub mod persist;
pub mod tree;

pub use elimination::{EliminationGraph, ReductionStats};
pub use labels::{Labels, WD, WS};
pub use lca::LcaIndex;
pub use tree::{TreeDecomposition, TreeNode, TreeStats};
