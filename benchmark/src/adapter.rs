//! The one file that names the repository's APIs.
//!
//! Everything else in this package measures through the functions and types
//! below, so when the query surface is collapsed (ROADMAP aim 2) the
//! benchmark follows with an edit to this file alone. The wrappers add no
//! work of their own: each is a single forwarded call, `#[inline]` where it
//! sits inside a timed loop.
//!
//! Pinned surface: `Dataset::spec().build_scaled`, `Workload::generate`,
//! `random_profile`, `build_index`, `TdTreeIndex::{build, build_stats,
//! tree_stats}`, `AStarChIndex::new`, `RoutingIndex::{new_scratch,
//! query_cost_in, query_profile_in, query_cost_traced_in, memory_bytes}`,
//! `QuerySession`, `ParallelExecutor::{new, query_batch_into}`,
//! `LiveIndex::{new, snapshot, epoch}`, `IncrementalIndex::update_edges`,
//! `TdServer::{serve_live, submit_query, submit_update, stats, shutdown}`,
//! `RequestHandle::wait`, `save_index` / `load_index`, the six `td-plf`
//! kernels (`eval`, `eval_times_into`, `eval_ids_at`, `compound`,
//! `minimum`, `simplify`) and `TreeDecomposition::build`.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use td_api::{
    build_index, load_index, save_index, AStarChIndex, Backend, BoundedAnswer, IncrementalIndex,
    IndexConfig, LiveIndex, ParallelExecutor, QuerySession, RoutingIndex, SessionScratch,
};
use td_core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_gen::random_graph::random_profile;
use td_gen::{Dataset, Workload, WorkloadConfig};
use td_graph::TdGraph;
use td_plf::{PlfArena, PlfId, NO_VIA};
use td_server::{RequestHandle, ServerConfig, TdServer};
use td_treedec::TreeDecomposition;

/// A time-dependent road network.
pub type Graph = TdGraph;
/// A vertex id.
pub type Vertex = u32;
/// One travel-cost query `(source, destination, departure time in seconds)`.
pub type Query = (Vertex, Vertex, f64);
/// A piecewise-linear travel-cost function.
pub type Profile = td_plf::Plf;
/// One edge-weight change `(tail, head, new weight function)`.
pub type EdgeChange = (Vertex, Vertex, Profile);
/// Any built index behind the query trait.
pub type Index = dyn RoutingIndex;
/// Reusable per-thread query state.
pub type Scratch = SessionScratch;
/// The paper's index as a concrete type (live updates need `Clone`).
pub type TreeIndex = TdTreeIndex;
/// The double-buffered live index the server reads from.
pub type Live = LiveIndex<TdTreeIndex>;

/// Absolute tolerance of a cost comparison against the oracle.
pub const COST_EPS: f64 = td_api::conformance::COST_EPS;
/// Length of the departure-time domain, seconds.
pub const DAY: f64 = td_plf::DAY;
/// `ServerConfig::default().max_batch`, the coalescer's batch cap.
pub const SERVER_MAX_BATCH: usize = 64;

// ---------------------------------------------------------------------
// td-gen
// ---------------------------------------------------------------------

/// The CAL analogue at `scale` with `c = 3` interpolation points per edge.
pub fn cal_graph(scale: f64, seed: u64) -> Graph {
    Dataset::Cal.spec().build_scaled(3, scale, seed)
}

/// The dataset's shortcut budget `N` at `scale`.
pub fn cal_budget(scale: f64) -> u64 {
    Dataset::Cal.spec().budget_at(scale) as u64
}

/// The paper's §5 query mix over `n` vertices, pair-major.
pub fn paper_mix(n: usize, pairs: usize, times_per_pair: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        pairs,
        times_per_pair,
        seed,
    };
    Workload::generate(n, &cfg)
        .queries
        .iter()
        .map(|q| (q.source, q.destination, q.depart))
        .collect()
}

/// One seeded update batch: `edges` distinct random edges of `graph`, each
/// given a fresh `random_profile(rng, 3, 5.0, 500.0)` weight.
pub fn update_batch(graph: &Graph, edges: usize, seed: u64) -> Vec<EdgeChange> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(edges);
    let mut state = seed;
    while picked.len() < edges.min(graph.num_edges()) {
        let e = (crate::inputs::splitmix64(&mut state) % graph.num_edges() as u64) as usize;
        if !picked.contains(&e) {
            picked.push(e);
        }
    }
    picked
        .into_iter()
        .map(|e| {
            let edge = &graph.edges()[e];
            (edge.from, edge.to, random_profile(&mut rng, 3, 5.0, 500.0))
        })
        .collect()
}

/// `graph` with `changes` applied — the input of a fresh oracle after an
/// update batch.
pub fn graph_with(graph: &Graph, changes: &[EdgeChange]) -> Graph {
    let mut g = graph.clone();
    for (u, v, w) in changes {
        let e = g.find_edge(*u, *v).expect("update names an existing edge");
        g.set_weight(e, w.clone())
            .expect("generated profiles are FIFO");
    }
    g
}

/// Feeds every edge `(tail, head, breakpoints…)` of `graph` to `sink` as
/// bit patterns, for the workload hash.
pub fn hash_graph(graph: &Graph, sink: &mut impl FnMut(u64)) {
    sink(graph.num_vertices() as u64);
    for e in graph.edges() {
        sink(u64::from(e.from));
        sink(u64::from(e.to));
        hash_profile(&e.weight, sink);
    }
}

/// Feeds the breakpoints of `f` to `sink` as bit patterns.
pub fn hash_profile(f: &Profile, sink: &mut impl FnMut(u64)) {
    for p in f.points() {
        sink(p.t.to_bits());
        sink(p.v.to_bits());
    }
}

// ---------------------------------------------------------------------
// td-api: building and querying
// ---------------------------------------------------------------------

/// The seven backends, named as the `axes.*` metrics name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    TdBasic,
    TdAppro,
    TdDp,
    TdH2h,
    TdGtree,
    Dijkstra,
    AStarCh,
}

impl BackendKind {
    pub const ALL: [BackendKind; 7] = [
        BackendKind::TdBasic,
        BackendKind::TdAppro,
        BackendKind::TdDp,
        BackendKind::TdH2h,
        BackendKind::TdGtree,
        BackendKind::Dijkstra,
        BackendKind::AStarCh,
    ];

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::TdBasic => "td-basic",
            BackendKind::TdAppro => "td-appro",
            BackendKind::TdDp => "td-dp",
            BackendKind::TdH2h => "td-h2h",
            BackendKind::TdGtree => "td-gtree",
            BackendKind::Dijkstra => "td-dijkstra",
            BackendKind::AStarCh => "td-astar-ch",
        }
    }

    fn backend(self) -> Backend {
        match self {
            BackendKind::TdBasic => Backend::TdBasic,
            BackendKind::TdAppro => Backend::TdAppro,
            BackendKind::TdDp => Backend::TdDp,
            BackendKind::TdH2h => Backend::TdH2h,
            BackendKind::TdGtree => Backend::TdGtree,
            BackendKind::Dijkstra => Backend::Dijkstra,
            BackendKind::AStarCh => Backend::AStarCh,
        }
    }
}

/// Builds `kind` over `graph` with shortcut budget `budget` on `threads`
/// construction threads.
pub fn build(graph: Graph, kind: BackendKind, budget: u64, threads: usize) -> Box<Index> {
    let cfg = IndexConfig {
        budget,
        threads,
        ..IndexConfig::default()
    };
    build_index(graph, kind.backend(), &cfg)
}

/// Stage timings of a TD-tree build, from the index's public `BuildStats`.
#[derive(Clone, Copy, Debug)]
pub struct TreeBuildStages {
    pub decompose_s: f64,
    pub weigh_s: f64,
    pub select_s: f64,
    pub shortcut_build_s: f64,
    pub selected_pairs: usize,
    pub height: usize,
    pub width: usize,
}

/// Builds TD-appro as a concrete index. `track_supports` makes it accept
/// `update_edges` (what `LiveIndex` and the server's update lane need).
pub fn build_tree(graph: Graph, budget: u64, threads: usize, track_supports: bool) -> TreeIndex {
    TdTreeIndex::build(
        graph,
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget },
            threads,
            track_supports,
        },
    )
}

/// The stage numbers `tree` recorded while it was built.
pub fn tree_build_stages(tree: &TreeIndex) -> TreeBuildStages {
    let b = &tree.build_stats;
    let t = tree.tree_stats();
    TreeBuildStages {
        decompose_s: b.decompose_secs,
        weigh_s: b.weigh_secs,
        select_s: b.select_secs,
        shortcut_build_s: b.build_secs,
        selected_pairs: b.selected_pairs,
        height: t.height,
        width: t.width,
    }
}

/// `TreeDecomposition::build` alone; returns `(height, width)`.
pub fn tree_decomposition(graph: &Graph) -> (usize, usize) {
    let stats = TreeDecomposition::build(graph).stats();
    (stats.height, stats.width)
}

/// Builds the TD-A\*-CH index as a concrete type (its updates are probed).
pub fn build_astar_ch(graph: Graph) -> AStarChIndex {
    AStarChIndex::new(graph)
}

/// Applies `changes` in place; returns the number of tree nodes the index
/// says it rebuilt (its public `UpdateStats`).
pub fn update_edges<I: IncrementalIndex>(index: &mut I, changes: &[EdgeChange]) -> usize {
    index.update_edges(changes).rebuilt_subtree_nodes
}

#[inline]
pub fn new_scratch(index: &Index) -> Scratch {
    index.new_scratch()
}

#[inline]
pub fn query_cost(index: &Index, scratch: &mut Scratch, q: Query) -> Option<f64> {
    index.query_cost_in(scratch, q.0, q.1, q.2)
}

#[inline]
pub fn query_profile(
    index: &Index,
    scratch: &mut Scratch,
    s: Vertex,
    d: Vertex,
) -> Option<Profile> {
    index.query_profile_in(scratch, s, d)
}

/// Work counters of one search, from the public `SearchStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchCounts {
    pub settled: u64,
    pub relaxed: u64,
    pub plf_evals: u64,
    pub minbound_prunes: u64,
}

#[inline]
pub fn query_cost_counted(
    index: &Index,
    scratch: &mut Scratch,
    q: Query,
) -> (Option<f64>, SearchCounts) {
    let (cost, trace) = index.query_cost_traced_in(scratch, q.0, q.1, q.2);
    let s = trace.stats;
    (
        cost,
        SearchCounts {
            settled: s.settled,
            relaxed: s.relaxed,
            plf_evals: s.plf_evals_scalar + s.plf_evals_batched,
            minbound_prunes: s.minbound_prunes,
        },
    )
}

pub fn memory_bytes(index: &Index) -> usize {
    index.memory_bytes()
}

pub fn profile_eval(f: &Profile, t: f64) -> f64 {
    f.eval(t)
}

/// A `QuerySession` over a trait object — the per-thread serving handle.
pub struct Session<'a>(QuerySession<'a, Index>);

impl<'a> Session<'a> {
    pub fn new(index: &'a Index) -> Session<'a> {
        Session(QuerySession::new(index))
    }

    #[inline]
    pub fn query_cost(&mut self, q: Query) -> Option<f64> {
        self.0.query_cost(q.0, q.1, q.2)
    }
}

/// A `ParallelExecutor` with a pinned worker count.
pub struct Executor<'a>(ParallelExecutor<'a, Index>);

impl<'a> Executor<'a> {
    pub fn new(index: &'a Index, workers: usize) -> Executor<'a> {
        assert!(workers > 0, "worker counts are pinned, never `all cores`");
        Executor(ParallelExecutor::new(index, workers))
    }

    #[inline]
    pub fn query_batch_into(&mut self, queries: &[Query], out: &mut Vec<Option<f64>>) {
        self.0.query_batch_into(queries, out)
    }
}

// ---------------------------------------------------------------------
// td-api live index + td-server
// ---------------------------------------------------------------------

pub fn live_new(tree: TreeIndex) -> Arc<Live> {
    Arc::new(LiveIndex::new(tree))
}

pub fn live_epoch(live: &Live) -> u64 {
    live.epoch()
}

#[inline]
pub fn live_snapshot(live: &Live) -> Arc<TreeIndex> {
    live.snapshot()
}

/// How a request ended, as the client sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reply {
    /// An exact answer (`None` = unreachable).
    Exact(Option<f64>),
    /// A flagged interval instead of an answer.
    Approximate,
    /// A typed error after admission.
    Error,
}

/// An admitted request.
pub struct Ticket(RequestHandle);

impl Ticket {
    #[inline]
    pub fn wait(&self) -> Reply {
        match self.0.wait() {
            Ok(BoundedAnswer::Exact(v)) => Reply::Exact(v),
            Ok(BoundedAnswer::Approximate { .. }) => Reply::Approximate,
            Err(_) => Reply::Error,
        }
    }
}

/// The serving counters the benchmark reads, from the public `ServerStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounts {
    pub admitted: u64,
    pub approximate: u64,
    pub batches: u64,
    pub updates_shed: u64,
}

/// `TdServer::serve_live` with `ServerConfig::default()` and pinned workers.
pub struct Server(TdServer<TreeIndex>);

impl Server {
    pub fn start(live: Arc<Live>, workers: usize) -> Server {
        assert!(workers > 0, "worker counts are pinned, never `all cores`");
        let cfg = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        assert_eq!(cfg.max_batch, SERVER_MAX_BATCH);
        Server(TdServer::serve_live(live, cfg))
    }

    /// `Err(())` is a typed admission rejection.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn submit(&self, q: Query) -> Result<Ticket, ()> {
        self.0.submit_query(q, None).map(Ticket).map_err(|_| ())
    }

    /// `false` when the update lane shed the batch.
    pub fn submit_update(&self, changes: Vec<EdgeChange>) -> bool {
        self.0.submit_update(changes).is_ok()
    }

    pub fn counts(&self) -> ServerCounts {
        let s = self.0.stats();
        ServerCounts {
            admitted: s.admitted,
            approximate: s.approximate,
            batches: s.batches,
            updates_shed: s.updates_shed,
        }
    }

    /// Drains and joins the server's threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

// ---------------------------------------------------------------------
// td-store
// ---------------------------------------------------------------------

pub fn save(index: &Index, path: &Path) -> Result<(), String> {
    save_index(index, path).map_err(|e| e.to_string())
}

pub fn load(path: &Path) -> Result<Box<Index>, String> {
    load_index(path).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// td-plf kernels
// ---------------------------------------------------------------------

/// A frozen structure-of-arrays set of functions.
pub struct Arena {
    arena: PlfArena,
    ids: Vec<PlfId>,
}

impl Arena {
    pub fn from_profiles<'a>(fs: impl IntoIterator<Item = &'a Profile>) -> Arena {
        let mut arena = PlfArena::new();
        let ids = fs.into_iter().map(|f| arena.push(f)).collect();
        Arena { arena, ids }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `PlfSlice::eval` of function `i`.
    #[inline]
    pub fn eval(&self, i: usize, t: f64) -> f64 {
        self.arena.slice(self.ids[i]).eval(t)
    }

    /// `eval_times_into` of function `i` over sorted `ts`.
    #[inline]
    pub fn eval_times_into(&self, i: usize, ts: &[f64], out: &mut [f64]) {
        td_plf::eval_times_into(self.arena.slice(self.ids[i]), ts, out)
    }

    /// `eval_ids_at` of functions `lo..hi` at one departure time.
    #[inline]
    pub fn eval_ids_at(&self, lo: usize, hi: usize, t: f64, out: &mut [f64]) {
        td_plf::eval_ids_at(&self.arena, &self.ids[lo..hi], t, out)
    }
}

/// The weight functions of `graph`'s edges, in edge order.
pub fn edge_profiles(graph: &Graph) -> Vec<&Profile> {
    graph.edges().iter().map(|e| &e.weight).collect()
}

#[inline]
pub fn plf_compound(f: &Profile, g: &Profile) -> Profile {
    f.compound(g, NO_VIA)
}

#[inline]
pub fn plf_minimum(f: &Profile, g: &Profile) -> Profile {
    f.minimum(g)
}

#[inline]
pub fn plf_simplify(f: &mut Profile) {
    f.simplify()
}

pub fn plf_points(f: &Profile) -> usize {
    f.len()
}
