//! Shortcut machinery: ancestor vectors (Fact 1), candidate weighing
//! (Def. 7) and the two-pass, parallel materialisation.
//!
//! A *shortcut pair instance* `⟨i, j⟩` (Def. 6) stores the exact shortest
//! travel-cost functions `s⟨i,j⟩(t)` (up: `i → j`) and `s⟨j,i⟩(t)` (down)
//! between a tree node and one of its ancestors. Fact 1 computes them
//! top-down:
//!
//! ```text
//! s⟨i,j⟩ = min_{v ∈ X(i)\{i}} Compound(X(i).Ws_v, s⟨v,j⟩)
//! s⟨j,i⟩ = min_{v ∈ X(i)\{i}} Compound(s⟨j,v⟩, X(i).Wd_v)
//! ```
//!
//! The engine runs a DFS from the root keeping, per node on the current root
//! path, the full *ancestor vector* (both directions to every ancestor).
//! Because `X(i)\{i} ⊆ Anc(X(i))` (Property 2), every term above is available
//! on the DFS stack. Peak memory is `O(h² · c)` per path — this is how the
//! index weighs **all** `O(n·h)` candidates (Def. 8 needs their exact
//! interpolation-point weights) without materialising TD-H2H's `O(n·h·c)`
//! label space. Selection then runs, and a second pass stores only the
//! chosen pairs. TD-H2H is the same engine with "store everything".

use crate::select::Candidate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use td_graph::VertexId;
use td_plf::{ops::min_into, Plf};
use td_treedec::TreeDecomposition;

/// Both direction functions from one node to all its ancestors, indexed by
/// ancestor depth (position in the root-first ancestor list).
#[derive(Clone, Debug, Default)]
pub struct NodeVectors {
    /// `up[k]`: node → ancestor at depth `k` (`None` = unreachable).
    pub up: Vec<Option<Plf>>,
    /// `down[k]`: ancestor at depth `k` → node.
    pub down: Vec<Option<Plf>>,
    /// Minimum of `up[k]` / `down[k]` over all departure times, kept in the
    /// DFS frame so the nodes below bound a compound without scanning it.
    up_min: Vec<f64>,
    down_min: Vec<f64>,
}

impl NodeVectors {
    fn up_at(&self, k: usize) -> Option<(&Plf, f64)> {
        self.up[k].as_ref().map(|f| (f, self.up_min[k]))
    }

    fn down_at(&self, k: usize) -> Option<(&Plf, f64)> {
        self.down[k].as_ref().map(|f| (f, self.down_min[k]))
    }
}

/// Fact 1's accumulator for one direction towards one ancestor: the best
/// function so far with its `(min, max)` beside it (`+∞` while unreachable).
struct Best {
    f: Option<Plf>,
    bounds: (f64, f64),
}

impl Best {
    const UNREACHABLE: Best = Best {
        f: None,
        bounds: (f64::INFINITY, f64::INFINITY),
    };

    /// Folds in a term whose values are all ≥ `lower_bound` — unless that
    /// already reaches the accumulator's maximum: the term is then nowhere
    /// below it and `min_into` would keep the accumulator (ties included),
    /// so it is never built.
    fn relax(&mut self, lower_bound: f64, term: impl FnOnce() -> Plf) {
        if lower_bound >= self.bounds.1 {
            return;
        }
        min_into(&mut self.f, term());
        let f = self.f.as_ref().expect("min_into leaves a function");
        self.bounds = f.value_bounds();
    }
}

/// Computes `v`'s ancestor vectors from the DFS stack (Fact 1).
///
/// `stack[k]` must hold the vectors of `v`'s ancestor at depth `k`;
/// `stack.len() == depth(v)`. Every term `Compound(label, rest)` is bounded
/// below by `min(label) + min(rest)` — the label minimum pre-fetched per bag
/// member, the rest's read from its frame — and skipped when that cannot get
/// below the maximum of what the slot already holds.
pub fn compute_vectors(td: &TreeDecomposition, v: VertexId, stack: &[NodeVectors]) -> NodeVectors {
    let node = td.node(v);
    let d = node.depth as usize;
    debug_assert_eq!(stack.len(), d);
    let mut vecs = NodeVectors {
        up: Vec::with_capacity(d),
        down: Vec::with_capacity(d),
        up_min: Vec::with_capacity(d),
        down_min: Vec::with_capacity(d),
    };
    // Pre-fetch each bag member's depth and label minima once.
    let min_of = |w: &Option<Plf>| w.as_ref().map_or(f64::INFINITY, Plf::min_value);
    let bag: Vec<(usize, f64, f64)> = (0..node.bag.len())
        .map(|bi| {
            let du = td.node(node.bag[bi]).depth as usize;
            (du, min_of(&node.ws[bi]), min_of(&node.wd[bi]))
        })
        .collect();
    for k in 0..d {
        let (mut best_up, mut best_down) = (Best::UNREACHABLE, Best::UNREACHABLE);
        for (bi, &u) in node.bag.iter().enumerate() {
            let (du, ws_min, wd_min) = bag[bi];
            if let Some(ws) = &node.ws[bi] {
                // v → anc[k] through bag member u.
                if du == k {
                    best_up.relax(ws_min, || ws.clone());
                } else {
                    // u above the target: u → anc[k] is the target's down
                    // entry at u's depth; u below it: u's own up entry.
                    let rest = if du < k {
                        stack[k].down_at(du)
                    } else {
                        stack[du].up_at(k)
                    };
                    if let Some((f, f_min)) = rest {
                        best_up.relax(ws_min + f_min, || ws.compound(f, u));
                    }
                }
            }
            if let Some(wd) = &node.wd[bi] {
                // anc[k] → v through bag member u.
                if du == k {
                    best_down.relax(wd_min, || wd.clone());
                } else {
                    let rest = if du < k {
                        stack[k].up_at(du)
                    } else {
                        stack[du].down_at(k)
                    };
                    if let Some((f, f_min)) = rest {
                        best_down.relax(f_min + wd_min, || f.compound(wd, u));
                    }
                }
            }
        }
        vecs.up_min.push(best_up.bounds.0);
        vecs.down_min.push(best_down.bounds.0);
        vecs.up.push(best_up.f);
        vecs.down.push(best_down.f);
    }
    vecs
}

/// One stored pair: `(ancestor, up function, down function)`.
pub(crate) type StoredPair = (VertexId, Option<Plf>, Option<Plf>);

/// The stored, selected shortcuts.
#[derive(Clone, Debug, Default)]
pub struct ShortcutStore {
    /// Per vertex: `(ancestor, up, down)` entries sorted by ancestor id.
    pub(crate) per_node: Vec<Vec<StoredPair>>,
    /// Number of stored pairs, kept beside the rows so the query engine
    /// reads "is anything selected?" in O(1) per query.
    pub(crate) pairs: usize,
}

impl ShortcutStore {
    /// An empty store over `n` vertices (TD-basic).
    pub fn empty(n: usize) -> Self {
        ShortcutStore {
            per_node: vec![Vec::new(); n],
            pairs: 0,
        }
    }

    fn insert(&mut self, v: VertexId, ancestor: VertexId, up: Option<Plf>, down: Option<Plf>) {
        let row = &mut self.per_node[v as usize];
        let pos = row.partition_point(|e| e.0 < ancestor);
        row.insert(pos, (ancestor, up, down));
        self.pairs += 1;
    }

    /// The pair instance `⟨v, ancestor⟩`, if selected.
    pub fn get(&self, v: VertexId, ancestor: VertexId) -> Option<(&Option<Plf>, &Option<Plf>)> {
        let row = &self.per_node[v as usize];
        let pos = row.partition_point(|e| e.0 < ancestor);
        row.get(pos)
            .filter(|e| e.0 == ancestor)
            .map(|e| (&e.1, &e.2))
    }

    /// True iff the pair `⟨v, ancestor⟩` was selected.
    pub fn has(&self, v: VertexId, ancestor: VertexId) -> bool {
        self.get(v, ancestor).is_some()
    }

    /// Number of selected pair instances.
    pub fn num_pairs(&self) -> usize {
        self.pairs
    }

    /// Total stored interpolation points (the paper's weight measure).
    pub fn total_points(&self) -> usize {
        self.per_node
            .iter()
            .flatten()
            .map(|(_, u, d)| u.as_ref().map_or(0, |f| f.len()) + d.as_ref().map_or(0, |f| f.len()))
            .sum()
    }

    /// Heap bytes of all stored functions.
    pub fn bytes(&self) -> usize {
        self.per_node
            .iter()
            .flatten()
            .map(|(_, u, d)| {
                u.as_ref().map_or(0, |f| f.heap_bytes())
                    + d.as_ref().map_or(0, |f| f.heap_bytes())
                    + std::mem::size_of::<(VertexId, Option<Plf>, Option<Plf>)>()
            })
            .sum()
    }

    /// Drops all entries of the given vertices (used by updates before a
    /// rebuild of their subtrees).
    pub fn clear_vertices(&mut self, vs: &[VertexId]) {
        for &v in vs {
            self.pairs -= self.per_node[v as usize].len();
            self.per_node[v as usize].clear();
        }
    }

    /// Iterates over all `(vertex, ancestor)` selected pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(|(v, row)| row.iter().map(move |e| (v as VertexId, e.0)))
    }
}

/// What a DFS pass should do at each node.
enum PassMode<'a> {
    /// Record `(utility, weight)` candidates for every ancestor pair.
    Weigh,
    /// Store vectors for the selected ancestors of each node.
    Store(&'a [Vec<VertexId>]),
    /// Store vectors for *all* ancestors (TD-H2H).
    StoreAll,
}

/// Output of one DFS pass.
#[derive(Default)]
struct PassOutput {
    candidates: Vec<Candidate>,
    stored: Vec<(VertexId, VertexId, Option<Plf>, Option<Plf>)>,
}

/// Weighs every candidate pair (first pass): returns `Candidate`s with exact
/// utilities (Def. 7) and interpolation-point weights.
pub fn weigh_candidates(td: &TreeDecomposition, width: usize, threads: usize) -> Vec<Candidate> {
    run_pass(td, width, threads, &PassMode::Weigh, None).candidates
}

/// Runs a storing pass and moves the pairs it emits into `store`'s rows.
fn store_pass(
    store: &mut ShortcutStore,
    td: &TreeDecomposition,
    threads: usize,
    mode: &PassMode<'_>,
    only_subtrees_of: Option<&[VertexId]>,
) {
    for (v, a, up, down) in run_pass(td, 0, threads, mode, only_subtrees_of).stored {
        store.insert(v, a, up, down);
    }
}

/// Builds the selected shortcut pairs (second pass). `selected[v]` lists the
/// chosen ancestors of `v` (any order).
pub fn build_selected(
    td: &TreeDecomposition,
    selected: &[Vec<VertexId>],
    threads: usize,
) -> ShortcutStore {
    let mut store = ShortcutStore::empty(td.len());
    store_pass(&mut store, td, threads, &PassMode::Store(selected), None);
    store
}

/// Builds *all* pairs (TD-H2H's full label, single pass).
pub fn build_all(td: &TreeDecomposition, threads: usize) -> ShortcutStore {
    let mut store = ShortcutStore::empty(td.len());
    store_pass(&mut store, td, threads, &PassMode::StoreAll, None);
    store
}

/// Rebuilds in place the rows of every vertex inside the subtrees rooted at
/// `roots`, after tree labels changed (incremental updates), and returns how
/// many vertices that was. What is stored is what is selected: each row's
/// ancestor keys are read off before the row is cleared, then the second
/// pass re-runs restricted to those subtrees.
pub(crate) fn rebuild_subtrees(
    store: &mut ShortcutStore,
    td: &TreeDecomposition,
    roots: &[VertexId],
    threads: usize,
) -> usize {
    let mut affected = Vec::new();
    let mut selected: Vec<Vec<VertexId>> = vec![Vec::new(); td.len()];
    let mut seen = vec![false; td.len()];
    let mut stack: Vec<VertexId> = roots.to_vec();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut seen[v as usize], true) {
            continue;
        }
        affected.push(v);
        selected[v as usize] = store.per_node[v as usize].iter().map(|e| e.0).collect();
        stack.extend(td.node(v).children.iter().copied());
    }
    store.clear_vertices(&affected);
    store_pass(store, td, threads, &PassMode::Store(&selected), Some(roots));
    affected.len()
}

/// DFS driver: sequential down to a branching frontier, then parallel over
/// subtrees with cloned prefix stacks.
///
/// `only_subtrees_of`: when set, vectors are still computed wherever needed,
/// but output is only produced for vertices inside the subtrees rooted at the
/// given vertices, and branches containing none of them are skipped entirely
/// (incremental updates).
fn run_pass(
    td: &TreeDecomposition,
    width: usize,
    threads: usize,
    mode: &PassMode<'_>,
    only_subtrees_of: Option<&[VertexId]>,
) -> PassOutput {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };

    // Relevance marking for incremental rebuilds.
    // affected[v]: v's output must be produced (v is in a target subtree).
    // on_path[v]: v's subtree contains an affected vertex (must be visited).
    let marks = only_subtrees_of.map(|roots| {
        let n = td.len();
        let mut affected = vec![false; n];
        for &r in roots {
            affected[r as usize] = true;
        }
        // Propagate down: preorder.
        let mut order: Vec<VertexId> = vec![td.root];
        let mut i = 0;
        while i < order.len() {
            let v = order[i];
            i += 1;
            for &c in &td.node(v).children {
                if affected[v as usize] {
                    affected[c as usize] = true;
                }
                order.push(c);
            }
        }
        let mut on_path = affected.clone();
        for &v in order.iter().rev() {
            if on_path[v as usize] {
                if let Some(p) = td.node(v).parent {
                    on_path[p as usize] = true;
                }
            }
        }
        (affected, on_path)
    });
    let should_visit = |v: VertexId| marks.as_ref().is_none_or(|(_, p)| p[v as usize]);
    let should_emit = |v: VertexId| marks.as_ref().is_none_or(|(a, _)| a[v as usize]);

    // Sequential descent collecting parallel jobs: split once the frontier is
    // wide enough.
    let target_jobs = threads * 4;
    let mut output = PassOutput::default();
    let mut jobs: Vec<(VertexId, Vec<NodeVectors>)> = Vec::new();
    // (vertex, prefix depth) queue; prefix stacks owned per entry.
    let mut queue: Vec<(VertexId, Vec<NodeVectors>)> = vec![(td.root, Vec::new())];
    while let Some((v, stack)) = queue.pop() {
        if !should_visit(v) {
            continue;
        }
        if jobs.len() + queue.len() >= target_jobs || td.node(v).children.is_empty() {
            jobs.push((v, stack));
            continue;
        }
        let vecs = compute_vectors(td, v, &stack);
        emit(td, v, width, &vecs, mode, should_emit(v), &mut output);
        let mut stack = stack;
        stack.push(vecs);
        for &c in &td.node(v).children {
            queue.push((c, stack.clone()));
        }
    }

    if jobs.is_empty() {
        return output;
    }

    // Parallel phase.
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<PassOutput>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| {
                let mut local = PassOutput::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let (root, prefix) = &jobs[i];
                    subtree_dfs(
                        td,
                        *root,
                        prefix.clone(),
                        width,
                        mode,
                        &should_visit,
                        &should_emit,
                        &mut local,
                    );
                }
                // Poison only means another worker panicked after pushing
                // a complete `local`; the Vec itself is still well-formed.
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(local);
            });
        }
    });
    for local in collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        output.candidates.extend(local.candidates);
        output.stored.extend(local.stored);
    }
    output
}

/// Iterative DFS over one subtree with an explicit vector stack.
#[allow(clippy::too_many_arguments)]
fn subtree_dfs(
    td: &TreeDecomposition,
    root: VertexId,
    mut stack: Vec<NodeVectors>,
    width: usize,
    mode: &PassMode<'_>,
    should_visit: &dyn Fn(VertexId) -> bool,
    should_emit: &dyn Fn(VertexId) -> bool,
    out: &mut PassOutput,
) {
    let base_depth = stack.len();
    // Frame: (vertex, next child index).
    let mut frames: Vec<(VertexId, usize)> = Vec::new();
    let vecs = compute_vectors(td, root, &stack);
    emit(td, root, width, &vecs, mode, should_emit(root), out);
    stack.push(vecs);
    frames.push((root, 0));
    while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
        let children = &td.node(v).children;
        if *ci < children.len() {
            let c = children[*ci];
            *ci += 1;
            if !should_visit(c) {
                continue;
            }
            let vecs = compute_vectors(td, c, &stack);
            emit(td, c, width, &vecs, mode, should_emit(c), out);
            stack.push(vecs);
            frames.push((c, 0));
        } else {
            frames.pop();
            stack.pop();
        }
    }
    debug_assert_eq!(stack.len(), base_depth);
}

/// Produces a node's output for the current pass mode.
fn emit(
    td: &TreeDecomposition,
    v: VertexId,
    width: usize,
    vecs: &NodeVectors,
    mode: &PassMode<'_>,
    emit_output: bool,
    out: &mut PassOutput,
) {
    if !emit_output {
        return;
    }
    let d = td.node(v).depth as usize;
    match mode {
        PassMode::Weigh => {
            let anc = td.ancestors_root_first(v);
            let n = td.len() as f64;
            for (k, &j) in anc.iter().enumerate().take(d) {
                let weight = vecs.up[k].as_ref().map_or(0, |f| f.len())
                    + vecs.down[k].as_ref().map_or(0, |f| f.len());
                if weight == 0 {
                    continue; // both directions unreachable: nothing to store
                }
                // p⟨i,j⟩ = |{k : LCA(X(i),X(k)) = X(j)}| / |V|
                //        = (subtree(j) − subtree(child of j towards i)) / |V|.
                let towards = if k + 1 < d { anc[k + 1] } else { v };
                let covered = td.node(j).subtree_size - td.node(towards).subtree_size;
                let p = covered as f64 / n;
                let utility = (d - k) as f64 * width as f64 * p;
                out.candidates.push(Candidate {
                    node: v,
                    ancestor: j,
                    utility,
                    weight: weight as u32,
                });
            }
        }
        PassMode::Store(selected) => {
            if selected[v as usize].is_empty() {
                return;
            }
            let anc = td.ancestors_root_first(v);
            for &a in &selected[v as usize] {
                let k = td.node(a).depth as usize;
                debug_assert!(
                    k < d && anc[k] == a,
                    "selected ancestor must be on the root path"
                );
                out.stored
                    .push((v, a, vecs.up[k].clone(), vecs.down[k].clone()));
            }
        }
        PassMode::StoreAll => {
            let anc = td.ancestors_root_first(v);
            for (k, &a) in anc.iter().enumerate().take(d) {
                if vecs.up[k].is_some() || vecs.down[k].is_some() {
                    out.stored
                        .push((v, a, vecs.up[k].clone(), vecs.down[k].clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_dijkstra::profile_search;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    /// The ancestor vectors must equal the true shortest travel-cost
    /// functions — the crux of Fact 1.
    #[test]
    fn vectors_equal_true_shortest_functions() {
        for seed in 0..4u64 {
            let n = 25;
            let g = seeded_graph(seed, n, 15, 3);
            let td = TreeDecomposition::build(&g);
            let store = build_all(&td, 1);
            for v in 0..n as u32 {
                let prof = profile_search(&g, v);
                for a in td.ancestors_root_first(v) {
                    let up = store.get(v, a).and_then(|(u, _)| u.as_ref());
                    match (&prof.dist[a as usize], up) {
                        (Some(want), Some(got)) => {
                            for k in 0..8 {
                                let t = k as f64 * DAY / 8.0;
                                assert!(
                                    (want.eval(t) - got.eval(t)).abs() < 1e-5,
                                    "seed={seed} v={v} a={a} t={t}: {} vs {}",
                                    want.eval(t),
                                    got.eval(t)
                                );
                            }
                        }
                        (None, None) => {}
                        other => panic!("seed={seed} v={v} a={a}: {:?}", other.1.map(|_| ())),
                    }
                }
            }
        }
    }

    #[test]
    fn down_vectors_equal_reverse_shortest_functions() {
        let n = 20;
        let g = seeded_graph(7, n, 12, 3);
        let td = TreeDecomposition::build(&g);
        let store = build_all(&td, 1);
        for a in 0..n as u32 {
            let prof = profile_search(&g, a);
            for v in 0..n as u32 {
                if !td.is_ancestor_of(a, v) || a == v {
                    continue;
                }
                let down = store.get(v, a).and_then(|(_, d)| d.as_ref());
                match (&prof.dist[v as usize], down) {
                    (Some(want), Some(got)) => {
                        for k in 0..6 {
                            let t = k as f64 * DAY / 6.0;
                            assert!(
                                (want.eval(t) - got.eval(t)).abs() < 1e-5,
                                "a={a} v={v} t={t}"
                            );
                        }
                    }
                    (None, None) => {}
                    other => panic!("a={a} v={v}: {:?}", other.1.map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_passes_agree() {
        let g = seeded_graph(3, 60, 40, 3);
        let td = TreeDecomposition::build(&g);
        let seq = build_all(&td, 1);
        let par = build_all(&td, 8);
        assert_eq!(seq.num_pairs(), par.num_pairs());
        for (v, a) in seq.pairs() {
            let (su, sd) = seq.get(v, a).unwrap();
            let (pu, pd) = par.get(v, a).unwrap();
            match (su, pu) {
                (Some(x), Some(y)) => assert!(x.approx_eq(y, 1e-9)),
                (None, None) => {}
                _ => panic!("up mismatch at ({v},{a})"),
            }
            match (sd, pd) {
                (Some(x), Some(y)) => assert!(x.approx_eq(y, 1e-9)),
                (None, None) => {}
                _ => panic!("down mismatch at ({v},{a})"),
            }
        }
    }

    #[test]
    fn weigh_pass_reports_exact_weights() {
        let g = seeded_graph(5, 30, 20, 3);
        let td = TreeDecomposition::build(&g);
        let width = td.stats().width;
        let cands = weigh_candidates(&td, width, 2);
        let store = build_all(&td, 2);
        assert!(!cands.is_empty());
        for c in &cands {
            let (up, down) = store
                .get(c.node, c.ancestor)
                .expect("candidate was weighed");
            let w = up.as_ref().map_or(0, |f| f.len()) + down.as_ref().map_or(0, |f| f.len());
            assert_eq!(c.weight as usize, w, "pair ({}, {})", c.node, c.ancestor);
            assert!(c.utility >= 0.0);
        }
    }

    #[test]
    fn utility_probability_sums_to_lca_partition() {
        // For fixed i, Σ_j over ancestors of p⟨i,j⟩·n + subtree(i) + (vertices
        // outside root subtree…) — sanity: each vertex k with LCA(i,k)=j is
        // counted once, so Σ_j covered(j) = n − subtree(lowest …). Simpler
        // check: covered counts are positive and bounded by n.
        let g = seeded_graph(6, 40, 25, 3);
        let td = TreeDecomposition::build(&g);
        let n = td.len() as f64;
        let width = td.stats().width;
        let cands = weigh_candidates(&td, width, 1);
        for c in &cands {
            let p = c.utility
                / ((td.node(c.node).depth - td.node(c.ancestor).depth) as f64 * width as f64);
            assert!(p > 0.0 && p <= 1.0 + 1e-9, "p={p} out of range");
            let _ = n;
        }
    }

    #[test]
    fn build_selected_stores_exactly_the_selection() {
        let g = seeded_graph(8, 30, 20, 3);
        let td = TreeDecomposition::build(&g);
        let mut selected: Vec<Vec<VertexId>> = vec![Vec::new(); td.len()];
        // Select: every node's root and parent (when distinct).
        for v in 0..td.len() as u32 {
            let anc = td.ancestors_root_first(v);
            if let Some(&r) = anc.first() {
                selected[v as usize].push(r);
            }
            if anc.len() >= 2 {
                let p = *anc.last().unwrap();
                selected[v as usize].push(p);
            }
        }
        let store = build_selected(&td, &selected, 2);
        let want: usize = selected.iter().map(|s| s.len()).sum();
        assert_eq!(store.num_pairs(), want);
        let full = build_all(&td, 2);
        for (v, a) in store.pairs() {
            let (u1, d1) = store.get(v, a).unwrap();
            let (u2, d2) = full.get(v, a).unwrap();
            match (u1, u2) {
                (Some(x), Some(y)) => assert!(x.approx_eq(y, 1e-9)),
                (None, None) => {}
                _ => panic!("selected build differs from full build"),
            }
            match (d1, d2) {
                (Some(x), Some(y)) => assert!(x.approx_eq(y, 1e-9)),
                (None, None) => {}
                _ => panic!("selected build differs from full build"),
            }
        }
    }

    #[test]
    fn store_lookup_and_accounting() {
        let g = seeded_graph(9, 20, 10, 3);
        let td = TreeDecomposition::build(&g);
        let store = build_all(&td, 1);
        assert!(store.total_points() > 0);
        assert!(store.bytes() > 0);
        assert!(!store.has(0, 0));
        let mut store2 = store.clone();
        let all: Vec<VertexId> = (0..20).collect();
        store2.clear_vertices(&all);
        assert_eq!(store2.num_pairs(), 0);
    }
}
