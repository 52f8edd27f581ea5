//! TD-G-tree: border travel-cost-function matrices and assembly queries.

use crate::partition::PartitionTree;
use std::collections::HashMap;
use std::time::Instant;
use td_dijkstra::{profile_search_frozen, shortest_path};
use td_graph::{GraphBuilder, Path, TdGraph, VertexId};
use td_plf::{eval_ids_at, ops::min_compound_into, Plf, PlfArena, PlfId, PlfSlice, NO_PLF};

/// Reusable scratch for TD-G-tree scalar queries: the stage plan, the two
/// partition-tree paths and the two arrival hash maps are recycled across
/// queries (hash maps keep their capacity through `clear`, so repeated
/// queries stop allocating once warmed up).
#[derive(Clone, Debug, Default)]
pub struct GtreeScratch {
    plan: Vec<(usize, usize)>,
    path_s: Vec<usize>,
    path_d: Vec<usize>,
    cur: HashMap<VertexId, f64>,
    next: HashMap<VertexId, f64>,
    sweep: SweepScratch,
}

/// Reusable buffers for the batched border-matrix sweep
/// ([`relax_scalar_into`]): column lookups, running bests and the gathered
/// id/value runs handed to the `td-plf` batch kernel. `resize` reuses the
/// retained capacity, so warmed-up queries stop allocating here too.
#[derive(Clone, Debug, Default)]
struct SweepScratch {
    /// Column index per target (`usize::MAX` = not an anchor of this matrix).
    cols: Vec<usize>,
    /// Running best arrival per target, seeded from the carry-over arrivals.
    best: Vec<f64>,
    /// Arena ids surviving the min-bound prune for the current source.
    ids: Vec<PlfId>,
    /// Target slot of each gathered id, parallel to `ids`.
    slots: Vec<u32>,
    /// Batched evaluations, parallel to `ids`.
    vals: Vec<f64>,
    /// Per-query counters (reset by `query_cost_with`, drained through
    /// [`GtreeScratch::take_search_stats`]): matrix-entry relaxations,
    /// batched evaluations and min-bound prunes of the sweep.
    stats: td_obs::SearchStats,
}

impl GtreeScratch {
    /// Drains (returns and resets) the counters the most recent
    /// [`TdGtree::query_cost_with`] left behind.
    pub fn take_search_stats(&mut self) -> td_obs::SearchStats {
        self.sweep.stats.take()
    }
}

/// Configuration of the TD-G-tree.
#[derive(Clone, Copy, Debug)]
pub struct GtreeConfig {
    /// Maximum vertices per leaf partition (the original's τ).
    pub max_leaf: usize,
}

impl Default for GtreeConfig {
    fn default() -> Self {
        GtreeConfig { max_leaf: 32 }
    }
}

/// All-pairs travel-cost-function matrix over one node's anchor set.
///
/// Every entry is stored once, in the node's contiguous [`PlfArena`]: the
/// scalar query loops walk `ids`/arena slices with precomputed `min_cost`
/// bounds, and the assembly passes and profile queries copy out the few
/// whole functions they need.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeMatrix {
    /// Anchor vertices: all vertices for leaves, union of children borders
    /// for internal nodes.
    pub(crate) anchors: Vec<VertexId>,
    /// Anchor id lookup.
    pub(crate) pos: HashMap<VertexId, usize>,
    /// Row-major `anchors²` arena ids (direction `i → j`; `NO_PLF` =
    /// absent).
    pub(crate) ids: Vec<PlfId>,
    /// Breakpoints of every stored entry.
    pub(crate) arena: PlfArena,
}

impl NodeMatrix {
    /// The matrix over `anchors` whose row-major entries are `ids` into
    /// `arena`. A duplicate anchor keeps its last position.
    pub(crate) fn new(anchors: Vec<VertexId>, ids: Vec<PlfId>, arena: PlfArena) -> NodeMatrix {
        debug_assert_eq!(ids.len(), anchors.len() * anchors.len());
        let pos = anchors.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        NodeMatrix {
            anchors,
            pos,
            ids,
            arena,
        }
    }

    /// Entry `from → to`: `(breakpoint slice, min cost bound)`.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn entry(&self, from: VertexId, to: VertexId) -> Option<(PlfSlice<'_>, f64)> {
        let i = *self.pos.get(&from)?;
        let j = *self.pos.get(&to)?;
        debug_assert!(i * self.anchors.len() + j < self.ids.len());
        let id = self.ids[i * self.anchors.len() + j];
        if id == NO_PLF {
            return None;
        }
        Some((self.arena.slice(id), self.arena.min_cost(id)))
    }

    fn bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<PlfId>() + self.arena.heap_bytes()
    }
}

/// The TD-G-tree index.
pub struct TdGtree {
    pub(crate) graph: TdGraph,
    pub(crate) pt: PartitionTree,
    pub(crate) mats: Vec<NodeMatrix>,
    /// Construction wall time, seconds.
    pub build_secs: f64,
}

impl TdGtree {
    /// Builds the index: partition tree, bottom-up matrix assembly, then the
    /// top-down global refinement pass.
    pub fn build(graph: TdGraph, cfg: GtreeConfig) -> TdGtree {
        let t0 = Instant::now();
        let pt = PartitionTree::build(&graph, cfg.max_leaf);
        let nn = pt.nodes.len();
        let mut mats: Vec<NodeMatrix> = vec![NodeMatrix::default(); nn];

        // Bottom-up assembly: deepest nodes first.
        let mut order: Vec<usize> = (0..nn).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(pt.nodes[i].depth));
        for &idx in &order {
            let anchors = anchor_set(&pt, idx);
            let local = supergraph(&graph, &pt, &mats, idx, &anchors, None);
            mats[idx] = all_pairs(&local, anchors);
        }

        // Top-down refinement: rebuild each non-root matrix with the parent's
        // (already global) entries among this node's borders as extra edges.
        let mut down: Vec<usize> = (0..nn).collect();
        down.sort_by_key(|&i| pt.nodes[i].depth);
        for &idx in &down {
            let Some(parent) = pt.nodes[idx].parent else {
                continue;
            };
            let anchors = anchor_set(&pt, idx);
            let outside: Vec<(VertexId, VertexId, Plf)> = border_pairs(&pt, &mats, idx, parent);
            let local = supergraph(&graph, &pt, &mats, idx, &anchors, Some(&outside));
            mats[idx] = all_pairs(&local, anchors);
        }

        TdGtree {
            graph,
            pt,
            mats,
            build_secs: t0.elapsed().as_secs_f64(),
        }
    }

    /// Fills `plan` with the `(matrix node, target border owner)` relaxation
    /// stages between `ls`'s borders and `ld`'s borders: up through the
    /// nodes strictly between the leaf and the LCA, across the LCA towards
    /// the d-side child, then down to `ld`. `path_s`/`path_d` are reusable
    /// buffers for the partition-tree paths.
    fn stage_plan_into(
        &self,
        ls: usize,
        ld: usize,
        plan: &mut Vec<(usize, usize)>,
        path_s: &mut Vec<usize>,
        path_d: &mut Vec<usize>,
    ) {
        let lca = self.pt.lca(ls, ld);
        self.pt.path_up_into(ls, lca, path_s);
        self.pt.path_up_into(ld, lca, path_d);
        plan.clear();
        // Upward: the nodes strictly between the leaf and the LCA.
        for &n in &path_s[1..path_s.len().saturating_sub(1)] {
            plan.push((n, n));
        }
        // Across the LCA: from s-side child borders to d-side child borders.
        let child_d = path_d[path_d.len() - 2];
        plan.push((lca, child_d));
        // Downward on d's side (path_d[0] == ld, so `i - 1` is the node below).
        for i in (1..path_d.len() - 1).rev() {
            plan.push((path_d[i], path_d[i - 1]));
        }
    }

    /// Travel cost query `Q(s, d, t)`.
    ///
    /// Convenience form allocating fresh scratch; hot paths should hold a
    /// [`GtreeScratch`] and call [`TdGtree::query_cost_with`].
    pub fn query_cost(&self, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        self.query_cost_with(&mut GtreeScratch::default(), s, d, t)
    }

    /// Travel cost query reusing `scratch` (no fresh hash maps after
    /// warm-up).
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn query_cost_with(
        &self,
        scratch: &mut GtreeScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        scratch.sweep.stats.reset();
        if s == d {
            return Some(0.0);
        }
        debug_assert!((s as usize) < self.pt.leaf_of.len() && (d as usize) < self.pt.leaf_of.len());
        let ls = self.pt.leaf_of[s as usize];
        let ld = self.pt.leaf_of[d as usize];
        if ls == ld {
            // Same-leaf: the refined leaf matrix is globally exact.
            scratch.sweep.stats.eval_scalar(1);
            return self.mats[ls].entry(s, d).map(|(f, _)| f.eval(t));
        }
        let GtreeScratch {
            plan,
            path_s,
            path_d,
            cur,
            next,
            sweep,
        } = scratch;
        self.stage_plan_into(ls, ld, plan, path_s, path_d);

        // Upward: arrivals at the source leaf's border set.
        cur.clear();
        for &b in &self.pt.nodes[ls].borders {
            if let Some((f, _)) = self.mats[ls].entry(s, b) {
                sweep.stats.eval_scalar(1);
                let a = t + f.eval(t);
                cur.entry(b).and_modify(|x| *x = x.min(a)).or_insert(a);
            }
        }
        // Relax through the staged border sets.
        for &(n, tgt) in plan.iter() {
            relax_scalar_into(&self.mats[n], cur, &self.pt.nodes[tgt].borders, sweep, next);
            std::mem::swap(cur, next);
        }
        // Into d.
        let mut best: Option<f64> = None;
        for (&b, &a) in cur.iter() {
            if let Some((f, min)) = self.mats[ld].entry(b, d) {
                // Lower-bound prune: the final hop costs at least `min`.
                if best.is_some_and(|x| a + min >= x) {
                    sweep.stats.prune(1);
                    continue;
                }
                sweep.stats.eval_scalar(1);
                let total = a + f.eval(a);
                if best.is_none_or(|x| total < x) {
                    best = Some(total);
                }
            }
        }
        best.map(|a| a - t)
    }

    /// Travel cost *and* shortest path for `Q(s, d, t)`.
    ///
    /// Runs the scalar border relaxation with predecessor tracking to obtain
    /// the optimal border chain `s → b₁ → … → b_k → d`, then expands each
    /// consecutive hop with a targeted TD-Dijkstra on the original graph.
    /// Every refined matrix entry is globally exact, so each hop expansion
    /// reproduces exactly the hop's matrix cost and the concatenation is a
    /// shortest path; the hops are partition-local, so each expansion only
    /// explores a small region.
    pub fn query_path(&self, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
        if s == d {
            return Some((0.0, Path::new(vec![s])));
        }
        let chain = self.border_chain(s, d, t)?;
        let mut vertices = vec![s];
        let mut now = t;
        for w in chain.windows(2) {
            let (u, v) = (w[0], w[1]);
            let (c, seg) = shortest_path(&self.graph, u, v, now)?;
            vertices.extend_from_slice(&seg.vertices[1..]);
            now += c;
        }
        Some((now - t, Path::new(vertices)))
    }

    /// The optimal border chain `[s, b₁, …, b_k, d]` (consecutive duplicates
    /// removed), or `None` when `d` is unreachable from `s`.
    fn border_chain(&self, s: VertexId, d: VertexId, t: f64) -> Option<Vec<VertexId>> {
        let ls = self.pt.leaf_of[s as usize];
        let ld = self.pt.leaf_of[d as usize];
        if ls == ld {
            self.mats[ls].entry(s, d)?;
            return Some(vec![s, d]);
        }
        let (mut plan, mut path_s, mut path_d) = (Vec::new(), Vec::new(), Vec::new());
        self.stage_plan_into(ls, ld, &mut plan, &mut path_s, &mut path_d);

        // Layered relaxation with predecessors: layers[k] maps a border to
        // (arrival, predecessor border in layer k-1); layer 0's predecessor
        // is `s` itself.
        let mut layers: Vec<HashMap<VertexId, (f64, VertexId)>> =
            Vec::with_capacity(plan.len() + 1);
        let mut cur: HashMap<VertexId, (f64, VertexId)> = HashMap::new();
        for &b in &self.pt.nodes[ls].borders {
            if let Some((f, _)) = self.mats[ls].entry(s, b) {
                let a = t + f.eval(t);
                match cur.entry(b) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if a < e.get().0 {
                            *e.get_mut() = (a, s);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((a, s));
                    }
                }
            }
        }
        for &(n, tgt) in &plan {
            let next = relax_pred(&self.mats[n], &cur, &self.pt.nodes[tgt].borders);
            layers.push(std::mem::replace(&mut cur, next));
        }
        layers.push(cur);

        // Into d: pick the best final border.
        let last = layers.last()?;
        let mut best: Option<(f64, VertexId)> = None;
        let mut finals: Vec<VertexId> = last.keys().copied().collect();
        finals.sort_unstable();
        for b in finals {
            let (a, _) = last[&b];
            if let Some((f, _)) = self.mats[ld].entry(b, d) {
                let total = a + f.eval(a);
                if best.is_none_or(|(x, _)| total < x) {
                    best = Some((total, b));
                }
            }
        }
        let (_, mut bcur) = best?;

        // Backtrack through the layers.
        let mut rev = vec![d, bcur];
        for li in (1..layers.len()).rev() {
            let pred = layers[li][&bcur].1;
            rev.push(pred);
            bcur = pred;
        }
        rev.push(s);
        rev.reverse();
        rev.dedup();
        Some(rev)
    }

    /// Shortest travel cost function query `f_{s,d}(t)`: the cost query's
    /// stage plan, relaxed with whole functions.
    pub fn query_profile(&self, s: VertexId, d: VertexId) -> Option<Plf> {
        if s == d {
            return Some(Plf::zero());
        }
        let ls = self.pt.leaf_of[s as usize];
        let ld = self.pt.leaf_of[d as usize];
        if ls == ld {
            return self.mats[ls].entry(s, d).map(|(f, _)| f.to_plf());
        }
        let (mut plan, mut path_s, mut path_d) = (Vec::new(), Vec::new(), Vec::new());
        self.stage_plan_into(ls, ld, &mut plan, &mut path_s, &mut path_d);

        // `borders` is sorted and deduplicated: one entry per border.
        let mut cost: HashMap<VertexId, Plf> = (self.pt.nodes[ls].borders.iter())
            .filter_map(|&b| Some((b, self.mats[ls].entry(s, b)?.0.to_plf())))
            .collect();
        for &(n, tgt) in &plan {
            cost = relax_profile(&self.mats[n], &cost, &self.pt.nodes[tgt].borders);
        }
        let mut best: Option<Plf> = None;
        let mut sources: Vec<VertexId> = cost.keys().copied().collect();
        sources.sort_unstable();
        for b in sources {
            if let Some((f2, _)) = self.mats[ld].entry(b, d) {
                min_compound_into(&mut best, &cost[&b], f2, b);
            }
        }
        best
    }

    /// Index memory in bytes (all cached matrices).
    pub fn memory_bytes(&self) -> usize {
        self.mats.iter().map(|m| m.bytes()).sum()
    }

    /// Total cached interpolation points.
    pub fn total_points(&self) -> usize {
        self.mats.iter().map(|m| m.arena.total_points()).sum()
    }

    /// Number of cached matrix entries (anchor pairs with a stored cost
    /// function) across all partition nodes.
    pub fn num_entries(&self) -> usize {
        self.mats.iter().map(|m| m.arena.len()).sum()
    }

    /// Number of partition-tree nodes.
    pub fn num_partitions(&self) -> usize {
        self.pt.nodes.len()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TdGraph {
        &self.graph
    }
}

/// Anchor set of a node: all vertices (leaf) or union of children borders.
fn anchor_set(pt: &PartitionTree, idx: usize) -> Vec<VertexId> {
    let node = &pt.nodes[idx];
    let mut anchors: Vec<VertexId> = if node.children.is_empty() {
        node.vertices.clone()
    } else {
        let mut a: Vec<VertexId> = node
            .children
            .iter()
            .flat_map(|&c| pt.nodes[c].borders.iter().copied())
            .collect();
        // The node's own borders must be present (they are borders of some
        // child too, but be defensive).
        a.extend_from_slice(&node.borders);
        a
    };
    anchors.sort_unstable();
    anchors.dedup();
    anchors
}

/// Adds a local edge whose endpoints came out of a `local_of` map and are
/// therefore dense indices below the builder's vertex count; an out-of-range
/// error is impossible by construction, so release builds drop the edge
/// instead of aborting a long index build.
fn add_local_edge(b: &mut GraphBuilder, x: u32, y: u32, f: Plf) {
    let r = b.edge(x, y, f);
    debug_assert!(r.is_ok(), "local ids are dense by construction");
}

/// Builds the local supergraph over `anchors`:
/// * leaf: induced original edges;
/// * internal: children's border-to-border matrix entries + crossing edges;
/// * plus optional `outside` edges (parent's refined entries).
fn supergraph(
    g: &TdGraph,
    pt: &PartitionTree,
    mats: &[NodeMatrix],
    idx: usize,
    anchors: &[VertexId],
    outside: Option<&[(VertexId, VertexId, Plf)]>,
) -> TdGraph {
    let mut local_of: HashMap<VertexId, u32> = HashMap::new();
    for (i, &v) in anchors.iter().enumerate() {
        local_of.insert(v, i as u32);
    }
    let mut b = GraphBuilder::new(anchors.len());
    let node = &pt.nodes[idx];
    if node.children.is_empty() {
        // Induced subgraph.
        for &v in anchors {
            for &(u, e) in g.out_edges(v) {
                if let (Some(&lv), Some(&lu)) = (local_of.get(&v), local_of.get(&u)) {
                    add_local_edge(&mut b, lv, lu, g.weight(e).clone());
                }
            }
        }
    } else {
        // Children matrices among their borders.
        for &c in &node.children {
            let borders = &pt.nodes[c].borders;
            for &x in borders {
                for &y in borders {
                    if x == y {
                        continue;
                    }
                    if let (Some((f, _)), Some(&lx), Some(&ly)) =
                        (mats[c].entry(x, y), local_of.get(&x), local_of.get(&y))
                    {
                        add_local_edge(&mut b, lx, ly, f.to_plf());
                    }
                }
            }
        }
        // Crossing edges between children (both endpoints are borders).
        for &v in anchors {
            for &(u, e) in g.out_edges(v) {
                if let (Some(&lv), Some(&lu)) = (local_of.get(&v), local_of.get(&u)) {
                    // Only add original edges that cross children (edges
                    // inside one child are subsumed by its matrix, but adding
                    // them again is harmless thanks to min-merging).
                    add_local_edge(&mut b, lv, lu, g.weight(e).clone());
                }
            }
        }
    }
    if let Some(extra) = outside {
        for (x, y, f) in extra {
            if let (Some(&lx), Some(&ly)) = (local_of.get(x), local_of.get(y)) {
                if lx != ly {
                    add_local_edge(&mut b, lx, ly, f.clone());
                }
            }
        }
    }
    b.build()
}

/// Parent's refined matrix entries among `idx`'s borders.
fn border_pairs(
    pt: &PartitionTree,
    mats: &[NodeMatrix],
    idx: usize,
    parent: usize,
) -> Vec<(VertexId, VertexId, Plf)> {
    let borders = &pt.nodes[idx].borders;
    let mut out = Vec::new();
    for &x in borders {
        for &y in borders {
            if x == y {
                continue;
            }
            if let Some((f, _)) = mats[parent].entry(x, y) {
                out.push((x, y, f.to_plf()));
            }
        }
    }
    out
}

/// All-pairs profile search over the local supergraph (one search per
/// anchor, parallelised across rows). The local graph is frozen once into
/// the CSR/arena layout and shared read-only by all workers, so every row's
/// search walks flat adjacency with per-edge min-cost pruning. The rows are
/// then pushed, row-major, into an arena sized exactly to them; the owned
/// rows live only while this one node is assembled.
fn all_pairs(g: &TdGraph, anchors: Vec<VertexId>) -> NodeMatrix {
    let fg = g.freeze();
    let k = anchors.len();
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(k.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let rows: Vec<std::sync::Mutex<Vec<Option<Plf>>>> =
        (0..k).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= k {
                    break;
                }
                let prof = profile_search_frozen(g, &fg, i as u32);
                // A poisoned lock only means another worker panicked after
                // finishing its own row; this row's slot is still writable.
                *rows[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = prof.dist;
            });
        }
    });
    let entries: Vec<Option<Plf>> = rows
        .into_iter()
        .flat_map(|row| {
            row.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect();
    let stored = || entries.iter().flatten();
    let mut arena = PlfArena::with_capacity(stored().count(), stored().map(Plf::len).sum());
    let ids = (entries.iter())
        .map(|slot| slot.as_ref().map_or(NO_PLF, |f| arena.push(f)))
        .collect();
    // An entry with more than one witness run grew the run array.
    arena.shrink_to_fit();
    NodeMatrix::new(anchors, ids, arena)
}

/// Scalar relaxation through a node matrix into `out` (cleared first):
/// earliest arrivals at `targets`. Runs source-major on the frozen arena
/// layout: all of one source's matrix entries evaluate at the *same*
/// departure time, so the survivors of the `arrival + min_cost` prune (the
/// min bound is admissible, so the skip is exact) batch through the
/// `td-plf` arena kernel in one call. Final bests are a plain `min` fold,
/// so the sweep order cannot change the result.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
fn relax_scalar_into(
    m: &NodeMatrix,
    arr: &HashMap<VertexId, f64>,
    targets: &[VertexId],
    sweep: &mut SweepScratch,
    out: &mut HashMap<VertexId, f64>,
) {
    out.clear();
    let k = m.anchors.len();
    let nt = targets.len();
    sweep.cols.clear();
    sweep.best.clear();
    sweep.cols.resize(nt, usize::MAX);
    sweep.best.resize(nt, f64::INFINITY);
    sweep.ids.resize(nt, NO_PLF);
    sweep.slots.resize(nt, 0);
    sweep.vals.resize(nt, 0.0);
    for (j, &b2) in targets.iter().enumerate() {
        debug_assert!(j < sweep.cols.len() && j < sweep.best.len());
        sweep.cols[j] = m.pos.get(&b2).copied().unwrap_or(usize::MAX);
        // Carry-over: a border already reached stays reachable even when the
        // matrix holds no incoming entry for it.
        if let Some(&a0) = arr.get(&b2) {
            sweep.best[j] = a0;
        }
    }
    for (&b1, &a) in arr {
        let Some(&row) = m.pos.get(&b1) else { continue };
        // Gather this source's surviving entries …
        let mut cnt = 0usize;
        for (j, &b2) in targets.iter().enumerate() {
            debug_assert!(j < sweep.cols.len());
            let col = sweep.cols[j];
            if b2 == b1 || col == usize::MAX {
                continue;
            }
            debug_assert!(row * k + col < m.ids.len());
            let id = m.ids[row * k + col];
            if id == NO_PLF {
                continue;
            }
            if a + m.arena.min_cost(id) >= sweep.best[j] {
                sweep.stats.prune(1);
                continue;
            }
            debug_assert!(cnt < sweep.ids.len());
            sweep.ids[cnt] = id;
            sweep.slots[cnt] = j as u32;
            cnt += 1;
        }
        // … evaluate them in one batched arena pass …
        eval_ids_at(&m.arena, &sweep.ids[..cnt], a, &mut sweep.vals[..cnt]);
        sweep.stats.relax(nt as u64);
        sweep.stats.eval_batched(cnt as u64);
        // … and fold the candidates into the running bests.
        for i in 0..cnt {
            debug_assert!(i < sweep.slots.len() && i < sweep.vals.len());
            let j = sweep.slots[i] as usize;
            let cand = a + sweep.vals[i];
            if cand < sweep.best[j] {
                sweep.best[j] = cand;
            }
        }
    }
    for (j, &b2) in targets.iter().enumerate() {
        debug_assert!(j < sweep.best.len());
        if sweep.best[j] < f64::INFINITY {
            out.insert(b2, sweep.best[j]);
        }
    }
}

/// [`relax_scalar_into`] with predecessor tracking for path recovery: each
/// target maps to `(arrival, best predecessor border)`; a carried-over value
/// records the border itself as its predecessor.
fn relax_pred(
    m: &NodeMatrix,
    arr: &HashMap<VertexId, (f64, VertexId)>,
    targets: &[VertexId],
) -> HashMap<VertexId, (f64, VertexId)> {
    let mut out: HashMap<VertexId, (f64, VertexId)> = HashMap::with_capacity(targets.len());
    let mut sources: Vec<VertexId> = arr.keys().copied().collect();
    sources.sort_unstable();
    for &b2 in targets {
        let mut best: Option<(f64, VertexId)> = arr.get(&b2).map(|&(a, _)| (a, b2));
        for &b1 in &sources {
            let (a, _) = arr[&b1];
            if b1 == b2 {
                continue;
            }
            if let Some((f, min)) = m.entry(b1, b2) {
                if best.is_some_and(|(x, _)| a + min >= x) {
                    continue;
                }
                let cand = a + f.eval(a);
                if best.is_none_or(|(x, _)| cand < x) {
                    best = Some((cand, b1));
                }
            }
        }
        if let Some(v) = best {
            out.insert(b2, v);
        }
    }
    out
}

/// Profile relaxation through a node matrix, each entry compounded where
/// its arena holds it.
fn relax_profile(
    m: &NodeMatrix,
    cost: &HashMap<VertexId, Plf>,
    targets: &[VertexId],
) -> HashMap<VertexId, Plf> {
    let mut out: HashMap<VertexId, Plf> = HashMap::with_capacity(targets.len());
    let mut sources: Vec<VertexId> = cost.keys().copied().collect();
    sources.sort_unstable();
    for &b2 in targets {
        let mut best: Option<Plf> = cost.get(&b2).cloned();
        for &b1 in &sources {
            if b1 == b2 {
                continue;
            }
            if let Some((f2, _)) = m.entry(b1, b2) {
                min_compound_into(&mut best, &cost[&b1], f2, b1);
            }
        }
        if let Some(f) = best {
            out.insert(b2, f);
        }
    }
    out
}

// Compile-time pin: built indexes are shared read-only across query threads
// and scratches move to worker threads. A future `Rc`/`Cell` field fails
// this line instead of a test.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    const fn moves_to_worker<T: Send>() {}
    shared_across_threads::<TdGtree>();
    moves_to_worker::<GtreeScratch>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_dijkstra::shortest_path_cost;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    #[test]
    fn gtree_cost_matches_the_oracle() {
        for seed in 0..4u64 {
            let n = 60;
            let g = seeded_graph(seed, n, 40, 3);
            let gt = TdGtree::build(g.clone(), GtreeConfig { max_leaf: 10 });
            let mut rng = StdRng::seed_from_u64(seed ^ 0xaaaa);
            for _ in 0..50 {
                let s = rng.gen_range(0..n) as u32;
                let d = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0.0..DAY);
                let want = shortest_path_cost(&g, s, d, t);
                let got = gt.query_cost(s, d, t);
                match (want, got) {
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < 1e-4,
                        "seed={seed} s={s} d={d} t={t}: oracle {a} vs gtree {b}"
                    ),
                    (None, None) => {}
                    other => panic!("seed={seed} s={s} d={d}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn gtree_profile_matches_scalar_queries() {
        let n = 40;
        let g = seeded_graph(7, n, 25, 3);
        let gt = TdGtree::build(g.clone(), GtreeConfig { max_leaf: 8 });
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            match gt.query_profile(s, d) {
                Some(f) => {
                    for k in 0..8 {
                        let t = k as f64 * DAY / 8.0 + 11.0;
                        let scalar = gt.query_cost(s, d, t).expect("profile exists");
                        assert!(
                            (f.eval(t) - scalar).abs() < 1e-4,
                            "s={s} d={d} t={t}: profile {} vs scalar {scalar}",
                            f.eval(t)
                        );
                    }
                }
                None => assert!(gt.query_cost(s, d, 0.0).is_none()),
            }
        }
    }

    #[test]
    fn same_leaf_queries_are_exact() {
        let n = 30;
        let g = seeded_graph(3, n, 20, 3);
        let gt = TdGtree::build(g.clone(), GtreeConfig { max_leaf: 64 }); // single leaf
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let t = 5_000.0;
                let want = shortest_path_cost(&g, s, d, t);
                let got = gt.query_cost(s, d, t);
                match (want, got) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5, "s={s} d={d}"),
                    (None, None) => {}
                    other => panic!("s={s} d={d}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn recovered_paths_are_shortest_and_replay_their_cost() {
        for seed in 0..3u64 {
            let n = 60;
            let g = seeded_graph(seed, n, 40, 3);
            let gt = TdGtree::build(g.clone(), GtreeConfig { max_leaf: 10 });
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbbbb);
            for _ in 0..40 {
                let s = rng.gen_range(0..n) as u32;
                let d = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0.0..DAY);
                match gt.query_path(s, d, t) {
                    Some((cost, path)) => {
                        assert_eq!(path.source(), s);
                        assert_eq!(path.destination(), d);
                        assert!(path.is_valid(&g), "seed={seed} invalid path");
                        let replay = path.cost(&g, t).expect("valid path replays");
                        assert!(
                            (replay - cost).abs() < 1e-5,
                            "seed={seed} s={s} d={d} t={t}: reported {cost} vs replay {replay}"
                        );
                        let want = shortest_path_cost(&g, s, d, t).expect("reachable");
                        assert!(
                            (want - cost).abs() < 1e-4,
                            "seed={seed} s={s} d={d} t={t}: not shortest ({cost} vs {want})"
                        );
                    }
                    None => assert!(shortest_path_cost(&g, s, d, t).is_none()),
                }
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let n = 50;
        let g = seeded_graph(2, n, 30, 3);
        let gt = TdGtree::build(g.clone(), GtreeConfig { max_leaf: 12 });
        let mut scratch = GtreeScratch::default();
        let mut rng = StdRng::seed_from_u64(0x5c5c);
        for _ in 0..80 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            assert_eq!(
                gt.query_cost_with(&mut scratch, s, d, t),
                gt.query_cost(s, d, t),
                "s={s} d={d} t={t}"
            );
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let g = seeded_graph(5, 50, 30, 3);
        let gt = TdGtree::build(g, GtreeConfig { max_leaf: 10 });
        assert!(gt.memory_bytes() > 0);
        assert!(gt.total_points() > 0);
        assert!(gt.num_partitions() > 1);
        assert!(gt.build_secs >= 0.0);
    }
}
