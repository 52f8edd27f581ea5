//! The [`Backend`] enum, unified [`IndexConfig`] and the [`build_index`]
//! factory.

use crate::astar_ch::AStarChIndex;
use crate::index::RoutingIndex;
use crate::oracle::DijkstraOracle;
use std::fmt;
use std::str::FromStr;
use td_core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_graph::TdGraph;
use td_gtree::{GtreeConfig, TdGtree};

/// Every index family in the workspace, named as in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The TD-tree without shortcuts (Algo. 3 queries only).
    TdBasic,
    /// The TD-tree with Algo. 5 dual-greedy shortcut selection.
    TdAppro,
    /// The TD-tree with Algo. 4 dynamic-programming shortcut selection.
    TdDp,
    /// The TD-H2H baseline (full 2-hop labels): the TD-tree with every
    /// pair selected.
    TdH2h,
    /// The TD-G-tree baseline (border cost-function matrices).
    TdGtree,
    /// The non-index TD-Dijkstra baseline / correctness oracle.
    Dijkstra,
    /// TD-A\* on the frozen graph with lazy contraction-hierarchy
    /// potentials (exact; preprocessing = one scalar min-cost contraction).
    AStarCh,
}

impl Backend {
    /// Every backend, in the paper's presentation order (workspace
    /// additions after the paper's six).
    pub const ALL: [Backend; 7] = [
        Backend::TdBasic,
        Backend::TdAppro,
        Backend::TdDp,
        Backend::TdH2h,
        Backend::TdGtree,
        Backend::Dijkstra,
        Backend::AStarCh,
    ];

    /// Display name as in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::TdBasic => "TD-basic",
            Backend::TdAppro => "TD-appro",
            Backend::TdDp => "TD-dp",
            Backend::TdH2h => "TD-H2H",
            Backend::TdGtree => "TD-G-tree",
            Backend::Dijkstra => "TD-Dijkstra",
            Backend::AStarCh => "TD-A*-CH",
        }
    }

    /// Builds this backend's index over `graph`.
    pub fn build(self, graph: TdGraph, cfg: &IndexConfig) -> Box<dyn RoutingIndex> {
        let _span = td_obs::phase("build");
        let tree_opts = |strategy| IndexOptions {
            strategy,
            threads: cfg.threads,
            track_supports: cfg.track_supports,
        };
        match self {
            Backend::TdBasic => Box::new(TdTreeIndex::build(
                graph,
                tree_opts(SelectionStrategy::Basic),
            )),
            Backend::TdAppro => Box::new(TdTreeIndex::build(
                graph,
                tree_opts(SelectionStrategy::Greedy { budget: cfg.budget }),
            )),
            Backend::TdDp => Box::new(TdTreeIndex::build(
                graph,
                tree_opts(SelectionStrategy::Dp {
                    budget: cfg.budget,
                    weight_scale: cfg.dp_weight_scale(),
                }),
            )),
            Backend::TdH2h => {
                Box::new(TdTreeIndex::build(graph, tree_opts(SelectionStrategy::All)))
            }
            Backend::TdGtree => Box::new(TdGtree::build(
                graph,
                GtreeConfig {
                    max_leaf: cfg.max_leaf,
                },
            )),
            Backend::Dijkstra => Box::new(DijkstraOracle::new(graph)),
            Backend::AStarCh => Box::new(AStarChIndex::new(graph)),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parses paper names and common aliases (case-insensitive):
    /// `td-basic`, `td-appro`/`appro`, `td-dp`/`dp`, `td-h2h`/`h2h`,
    /// `td-g-tree`/`gtree`, `td-dijkstra`/`dijkstra`,
    /// `td-astar-ch`/`astar-ch`/`astar`.
    fn from_str(s: &str) -> Result<Backend, String> {
        match s.to_ascii_lowercase().as_str() {
            "td-basic" | "basic" => Ok(Backend::TdBasic),
            "td-appro" | "appro" => Ok(Backend::TdAppro),
            "td-dp" | "dp" => Ok(Backend::TdDp),
            "td-h2h" | "h2h" => Ok(Backend::TdH2h),
            "td-g-tree" | "td-gtree" | "gtree" => Ok(Backend::TdGtree),
            "td-dijkstra" | "dijkstra" => Ok(Backend::Dijkstra),
            "td-astar-ch" | "td-a*-ch" | "astar-ch" | "astar" => Ok(Backend::AStarCh),
            other => Err(format!("unknown backend `{other}`")),
        }
    }
}

/// Backend-agnostic construction options. Each backend reads the knobs that
/// apply to it and ignores the rest, so one config drives a whole
/// multi-backend comparison.
#[derive(Clone, Debug)]
pub struct IndexConfig {
    /// Shortcut budget `N` in interpolation points (TD-appro / TD-dp).
    pub budget: u64,
    /// Worker threads for the TD-tree family's shortcut passes (0 = all
    /// cores), split by estimated work (`td_core::IndexOptions::threads`);
    /// what is stored does not depend on it.
    pub threads: usize,
    /// Track support lists so the TD-tree family accepts
    /// [`crate::IncrementalIndex::update_edges`].
    pub track_supports: bool,
    /// Maximum vertices per leaf partition (TD-G-tree's τ).
    pub max_leaf: usize,
    /// Build-or-load snapshot caching: when set, [`build_index`] first
    /// tries to load a `.tdx` snapshot of the requested backend from this
    /// path, and on a miss builds from scratch and writes the snapshot for
    /// the next run. A hit must match the requested backend **and** the
    /// passed graph's vertex/edge counts (a snapshot carries its own graph;
    /// shape disagreement means a stale cache and triggers a rebuild).
    /// Construction knobs that change the index but not the graph — the
    /// budget, `track_supports`, `max_leaf` — are *not* cross-checked:
    /// encode them into the path (as the bench harness does with its cell
    /// keys) when caching across configurations. A corrupt, truncated or
    /// mismatched snapshot is reported on stderr and treated as a miss
    /// (the cache never compromises correctness); use [`crate::load_index`]
    /// directly when load failures must be surfaced as errors instead.
    pub snapshot_path: Option<std::path::PathBuf>,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            budget: 10_000,
            threads: 0,
            track_supports: false,
            max_leaf: 32,
            snapshot_path: None,
        }
    }
}

impl IndexConfig {
    /// The weight bucketing of TD-dp's knapsack, derived from the budget so
    /// the DP row stays near 10k cells (`1` = exact, larger = coarser).
    pub fn dp_weight_scale(&self) -> u32 {
        self.budget.div_ceil(10_000).max(1) as u32
    }
}

/// Builds `backend`'s index over `graph` — the workspace's uniform entry
/// point.
///
/// With [`IndexConfig::snapshot_path`] set, this becomes **build-or-load**:
/// an existing snapshot of the same backend is loaded (milliseconds — a
/// linear copy of flat arrays) instead of rebuilding (potentially minutes
/// of elimination/selection/partitioning), and a fresh build is saved back
/// to the path so every later run hits the fast path.
pub fn build_index(graph: TdGraph, backend: Backend, cfg: &IndexConfig) -> Box<dyn RoutingIndex> {
    let Some(path) = &cfg.snapshot_path else {
        return backend.build(graph, cfg);
    };
    if path.exists() {
        match crate::snapshot::load_index(path) {
            // The snapshot must hold the requested backend over the same
            // graph shape; anything else is a stale cache entry and gets
            // rebuilt. (Construction knobs like the budget are the
            // caller's responsibility to encode into the path — see the
            // `snapshot_path` docs.)
            Ok(index)
                if index.backend_name() == backend.name()
                    && index.graph().num_vertices() == graph.num_vertices()
                    && index.graph().num_edges() == graph.num_edges() =>
            {
                return index
            }
            Ok(index) => eprintln!(
                "td-api: snapshot {} holds {} over {} vertices but {} over {} was requested; \
                 rebuilding",
                path.display(),
                index.backend_name(),
                index.graph().num_vertices(),
                backend.name(),
                graph.num_vertices()
            ),
            Err(e) => eprintln!(
                "td-api: could not load snapshot {}: {e}; rebuilding",
                path.display()
            ),
        }
    }
    let index = backend.build(graph, cfg);
    if let Err(e) = crate::snapshot::save_index(index.as_ref(), path) {
        eprintln!("td-api: could not save snapshot {}: {e}", path.display());
    }
    index
}
