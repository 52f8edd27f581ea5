//! Shortcut machinery: ancestor vectors (Fact 1), candidate weighing
//! (Def. 7) and the parallel materialisation — weigh everything, store the
//! closure.
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
//! path, its *ancestor vector* (both directions to its ancestors). Because
//! `X(i)\{i} ⊆ Anc(X(i))` (Property 2), every term above is available on the
//! DFS stack. Peak memory is `O(h² · c)` per path — this is how the index
//! weighs **all** `O(n·h)` candidates (Def. 8 needs their exact
//! interpolation-point weights) without materialising TD-H2H's `O(n·h·c)`
//! label space.
//!
//! Every pass is driven by one relevance table, `need[v]`: the ancestor
//! depths of `v` whose entries some emitted pair reads. Entry `(v, k)` reads
//! only `(u, k)` for bag members `u` below depth `k` and
//! `(anc_k(v), depth(u))` for bag members above it — always an entry of a
//! proper ancestor — so one deepest-first sweep from the rows to emit closes
//! the table (`need_closure`). The weigh pass and TD-H2H's "store
//! everything" emit every pair, so their table is every depth; the store
//! pass after selection and the rebuild after an update compute only the
//! closure of the rows they emit (about a tenth of all entries on a road
//! network at the default budget), and the DFS never enters a subtree that
//! holds none of it. An entry outside the table is `Entry::Skipped`, not
//! "unreachable": reading one panics instead of dropping a Fact-1 term.
//!
//! Inside an entry almost every term loses to, or beats, the running minimum
//! outright. Each `min{best, Compound(label, rest)}` is decided before
//! anything is built — by the two minima against the running maximum, then
//! by [`td_plf::ops::min_compound_into`]'s walk of the term's values against
//! the running minimum — so a term is built only when it gets below the
//! running minimum somewhere, and merged only when neither wins everywhere.

use crate::select::Candidate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use td_graph::VertexId;
use td_plf::ops::{min_compound_into, min_into};
use td_plf::Plf;
use td_treedec::TreeDecomposition;

/// One ancestor-vector entry of a DFS frame.
#[derive(Clone, Debug)]
enum Entry {
    /// Outside the pass's `need` table: never computed.
    Skipped,
    /// Computed: no path in this direction.
    Unreachable,
    /// Computed: the function and its minimum over all departure times, kept
    /// in the frame so the nodes below bound a compound without scanning it.
    Reachable(Plf, f64),
}

impl Entry {
    /// The computed function (`None` = unreachable) with its minimum.
    ///
    /// Panics on a skipped entry, in release builds too: the `need` table
    /// missed a dependency, and answering "unreachable" would silently drop
    /// a Fact-1 term.
    fn get(&self) -> Option<(&Plf, f64)> {
        match self {
            Entry::Skipped => panic!("ancestor-vector entry read outside the need closure"),
            Entry::Unreachable => None,
            Entry::Reachable(f, min) => Some((f, *min)),
        }
    }

    fn function(&self) -> Option<&Plf> {
        self.get().map(|(f, _)| f)
    }
}

/// Both direction functions from one node to its ancestors, indexed by
/// ancestor depth (position in the root-first ancestor list).
#[derive(Clone, Debug)]
struct NodeVectors {
    /// `up[k]`: node → ancestor at depth `k`.
    up: Vec<Entry>,
    /// `down[k]`: ancestor at depth `k` → node.
    down: Vec<Entry>,
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

    /// Folds in `Compound(f, g)` through `via`, whose values are all ≥
    /// `lower_bound` — unless that already reaches the accumulator's
    /// maximum: the term is then nowhere below it and would be dropped
    /// (ties included), so it is not touched at all. Otherwise the term is
    /// walked against the accumulator and built only if it gets below it.
    fn relax(&mut self, lower_bound: f64, f: &Plf, g: &Plf, via: VertexId) {
        if lower_bound < self.bounds.1 && min_compound_into(&mut self.f, f, g, via) {
            self.refresh();
        }
    }

    /// Folds in a label — the direct term through the target itself — by
    /// the same rule.
    fn relax_label(&mut self, w: &Plf, w_min: f64) {
        if w_min < self.bounds.1 && min_into(&mut self.f, w.clone()) {
            self.refresh();
        }
    }

    fn refresh(&mut self) {
        let f = self.f.as_ref().expect("a relaxation leaves a function");
        self.bounds = f.value_bounds();
    }

    fn into_entry(self) -> Entry {
        match self.f {
            Some(f) => Entry::Reachable(f, self.bounds.0),
            None => Entry::Unreachable,
        }
    }
}

/// Computes the entries `need` (sorted ancestor depths) of `v`'s ancestor
/// vectors from the DFS stack (Fact 1); every other entry stays
/// `Entry::Skipped`.
///
/// `stack[k]` must hold the vectors of `v`'s ancestor at depth `k`;
/// `stack.len() == depth(v)`. Every term `Compound(label, rest)` is bounded
/// below by `min(label) + min(rest)` — the label minimum pre-fetched per bag
/// member, the rest's read from its frame — and skipped when that cannot get
/// below the maximum of what the slot already holds; past that test it is
/// walked against the slot and built only if it gets below it somewhere.
fn compute_vectors(
    td: &TreeDecomposition,
    v: VertexId,
    need: &[u32],
    stack: &[NodeVectors],
) -> NodeVectors {
    let node = td.node(v);
    let d = node.depth as usize;
    debug_assert_eq!(stack.len(), d);
    let mut vecs = NodeVectors {
        up: vec![Entry::Skipped; d],
        down: vec![Entry::Skipped; d],
    };
    // Pre-fetch each bag member's depth and label minima once.
    let min_of = |w: &Option<Plf>| w.as_ref().map_or(f64::INFINITY, Plf::min_value);
    let bag: Vec<(usize, f64, f64)> = (0..node.bag.len())
        .map(|bi| {
            let du = td.node(node.bag[bi]).depth as usize;
            (du, min_of(&node.ws[bi]), min_of(&node.wd[bi]))
        })
        .collect();
    for &k in need {
        let k = k as usize;
        let (mut best_up, mut best_down) = (Best::UNREACHABLE, Best::UNREACHABLE);
        for (bi, &u) in node.bag.iter().enumerate() {
            let (du, ws_min, wd_min) = bag[bi];
            if let Some(ws) = &node.ws[bi] {
                // v → anc[k] through bag member u.
                if du == k {
                    best_up.relax_label(ws, ws_min);
                } else {
                    // u above the target: u → anc[k] is the target's down
                    // entry at u's depth; u below it: u's own up entry.
                    let rest = if du < k {
                        stack[k].down[du].get()
                    } else {
                        stack[du].up[k].get()
                    };
                    if let Some((f, f_min)) = rest {
                        best_up.relax(ws_min + f_min, ws, f, u);
                    }
                }
            }
            if let Some(wd) = &node.wd[bi] {
                // anc[k] → v through bag member u.
                if du == k {
                    best_down.relax_label(wd, wd_min);
                } else {
                    let rest = if du < k {
                        stack[k].up[du].get()
                    } else {
                        stack[du].down[k].get()
                    };
                    if let Some((f, f_min)) = rest {
                        best_down.relax(f_min + wd_min, f, wd, u);
                    }
                }
            }
        }
        vecs.up[k] = best_up.into_entry();
        vecs.down[k] = best_down.into_entry();
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
/// utilities (Def. 7) and interpolation-point weights, sorted by `(node,
/// ancestor)` — the workers finish in scheduling order, and selection's
/// tie-breaks and utility sum must not depend on it.
pub fn weigh_candidates(td: &TreeDecomposition, width: usize, threads: usize) -> Vec<Candidate> {
    let mut candidates = run_pass(td, width, threads, &PassMode::Weigh).candidates;
    candidates.sort_unstable_by_key(|c| (c.node, c.ancestor));
    candidates
}

/// Runs a storing pass and moves the pairs it emits into `store`'s rows.
fn store_pass(
    store: &mut ShortcutStore,
    td: &TreeDecomposition,
    threads: usize,
    mode: &PassMode<'_>,
) {
    for (v, a, up, down) in run_pass(td, 0, threads, mode).stored {
        store.insert(v, a, up, down);
    }
}

/// Builds the selected shortcut pairs (the store pass). `selected[v]` lists the
/// chosen ancestors of `v` (any order).
pub fn build_selected(
    td: &TreeDecomposition,
    selected: &[Vec<VertexId>],
    threads: usize,
) -> ShortcutStore {
    let mut store = ShortcutStore::empty(td.len());
    store_pass(&mut store, td, threads, &PassMode::Store(selected));
    store
}

/// Builds *all* pairs (TD-H2H's full label, single pass).
pub fn build_all(td: &TreeDecomposition, threads: usize) -> ShortcutStore {
    let mut store = ShortcutStore::empty(td.len());
    store_pass(&mut store, td, threads, &PassMode::StoreAll);
    store
}

/// Rebuilds in place the rows of every vertex inside the subtrees rooted at
/// `roots`, after tree labels changed (incremental updates), and returns how
/// many vertices that was. What is stored is what is selected: each row's
/// ancestor keys are read off before the row is cleared, then the store pass
/// re-runs on those rows alone — it computes their closure and nothing else.
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
    store_pass(store, td, threads, &PassMode::Store(&selected));
    affected.len()
}

/// A pass's relevance table. `need[v]` is `None` when nothing in `v`'s
/// subtree has an entry to compute — the DFS never goes there — and otherwise
/// the sorted ancestor depths of `v` whose entries some emitted pair reads
/// (empty for a vertex that is only passed through).
type Need = Vec<Option<Vec<u32>>>;

/// The table of a pass that emits every pair: every depth, everywhere — four
/// bytes per pair the pass goes on to weigh or store, the price of walking
/// the one `need` loop in `compute_vectors` instead of a second one.
fn need_everything(td: &TreeDecomposition) -> Need {
    (td.nodes.iter())
        .map(|node| Some((0..node.depth).collect()))
        .collect()
}

/// The table of a pass that emits the rows `selected`: their closure under
/// Fact 1's reads. Every read points at a proper ancestor's entry, so one
/// sweep in elimination order (each vertex before its ancestors) closes it in
/// `O(closure × width)`.
fn need_closure(td: &TreeDecomposition, selected: &[Vec<VertexId>]) -> Need {
    let mut need: Need = (selected.iter())
        .map(|row| {
            (!row.is_empty()).then(|| row.iter().map(|&a| td.node(a).depth).collect::<Vec<_>>())
        })
        .collect();
    let mut by_step: Vec<VertexId> = vec![0; td.len()];
    for (v, &step) in td.order.iter().enumerate() {
        by_step[step as usize] = v as VertexId;
    }
    let mut anc = Vec::new();
    for v in by_step {
        let Some(mut depths) = need[v as usize].take() else {
            continue;
        };
        depths.sort_unstable();
        depths.dedup();
        let node = td.node(v);
        if let Some(p) = node.parent {
            need[p as usize].get_or_insert_with(Vec::new);
        }
        td.ancestors_root_first_into(v, &mut anc);
        for &u in &node.bag {
            let du = td.node(u).depth;
            for &k in &depths {
                // The reads of `compute_vectors`: through `u` below the
                // target, `u`'s own entry towards it; through `u` above it,
                // the target's entry at `u`'s depth.
                let (owner, entry) = match du.cmp(&k) {
                    std::cmp::Ordering::Greater => (u, k),
                    std::cmp::Ordering::Less => (anc[k as usize], du),
                    std::cmp::Ordering::Equal => continue,
                };
                need[owner as usize]
                    .get_or_insert_with(Vec::new)
                    .push(entry);
            }
        }
        need[v as usize] = Some(depths);
    }
    need
}

/// DFS driver: sequential down to a branching frontier, then parallel over
/// subtrees with cloned prefix stacks. Only `need`'s entries are computed and
/// only the subtrees it marks are entered.
fn run_pass(
    td: &TreeDecomposition,
    width: usize,
    threads: usize,
    mode: &PassMode<'_>,
) -> PassOutput {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let need = match mode {
        PassMode::Store(selected) => need_closure(td, selected),
        PassMode::Weigh | PassMode::StoreAll => need_everything(td),
    };
    let needed_children =
        |v: VertexId| (td.node(v).children.iter().copied()).filter(|&c| need[c as usize].is_some());

    // Sequential descent collecting parallel jobs: split once the frontier is
    // wide enough.
    let target_jobs = threads * 4;
    let mut output = PassOutput::default();
    let mut jobs: Vec<(VertexId, Vec<NodeVectors>)> = Vec::new();
    // (vertex, prefix depth) queue; prefix stacks owned per entry.
    let mut queue: Vec<(VertexId, Vec<NodeVectors>)> = Vec::new();
    if need[td.root as usize].is_some() {
        queue.push((td.root, Vec::new()));
    }
    while let Some((v, mut stack)) = queue.pop() {
        if jobs.len() + queue.len() >= target_jobs || needed_children(v).next().is_none() {
            jobs.push((v, stack));
            continue;
        }
        stack.push(visit(td, v, &need, &stack, width, mode, &mut output));
        queue.extend(needed_children(v).map(|c| (c, stack.clone())));
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
                    subtree_dfs(td, *root, prefix.clone(), &need, width, mode, &mut local);
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
fn subtree_dfs(
    td: &TreeDecomposition,
    root: VertexId,
    mut stack: Vec<NodeVectors>,
    need: &Need,
    width: usize,
    mode: &PassMode<'_>,
    out: &mut PassOutput,
) {
    let base_depth = stack.len();
    // Frame: (vertex, next child index).
    let mut frames: Vec<(VertexId, usize)> = Vec::new();
    stack.push(visit(td, root, need, &stack, width, mode, out));
    frames.push((root, 0));
    while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
        let children = &td.node(v).children;
        if *ci < children.len() {
            let c = children[*ci];
            *ci += 1;
            if need[c as usize].is_none() {
                continue;
            }
            stack.push(visit(td, c, need, &stack, width, mode, out));
            frames.push((c, 0));
        } else {
            frames.pop();
            stack.pop();
        }
    }
    debug_assert_eq!(stack.len(), base_depth);
}

/// Computes `v`'s needed entries on top of `stack` and produces its output
/// for the current pass mode.
fn visit(
    td: &TreeDecomposition,
    v: VertexId,
    need: &Need,
    stack: &[NodeVectors],
    width: usize,
    mode: &PassMode<'_>,
    out: &mut PassOutput,
) -> NodeVectors {
    let need_v = need[v as usize]
        .as_deref()
        .expect("the DFS only enters needed subtrees");
    let vecs = compute_vectors(td, v, need_v, stack);
    let d = td.node(v).depth as usize;
    let points = |e: &Entry| e.function().map_or(0, Plf::len);
    match mode {
        PassMode::Weigh => {
            let anc = td.ancestors_root_first(v);
            let n = td.len() as f64;
            for (k, &j) in anc.iter().enumerate().take(d) {
                let weight = points(&vecs.up[k]) + points(&vecs.down[k]);
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
            for &a in &selected[v as usize] {
                let k = td.node(a).depth as usize;
                debug_assert!(
                    k < d && td.is_ancestor_of(a, v),
                    "selected ancestor must be on the root path"
                );
                let (up, down) = (vecs.up[k].function(), vecs.down[k].function());
                out.stored.push((v, a, up.cloned(), down.cloned()));
            }
        }
        PassMode::StoreAll => {
            let anc = td.ancestors_root_first(v);
            for (k, &a) in anc.iter().enumerate().take(d) {
                let (up, down) = (vecs.up[k].function(), vecs.down[k].function());
                if up.is_some() || down.is_some() {
                    out.stored.push((v, a, up.cloned(), down.cloned()));
                }
            }
        }
    }
    vecs
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
        assert_eq!(seq.per_node, par.per_node);
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
        // p⟨v,j⟩·n counts the vertices k with LCA(X(v), X(k)) = X(j). Over
        // v's ancestors j that is every vertex outside v's own subtree, each
        // once: Σ_j p⟨v,j⟩·n = n − subtree(v) (the covered counts telescope
        // down the root path), and v has one candidate per ancestor.
        for seed in 0..8u64 {
            let g = seeded_graph(seed, 40, 25, 3);
            let td = TreeDecomposition::build(&g);
            let n = td.len() as f64;
            let width = td.stats().width as f64;
            let cands = weigh_candidates(&td, td.stats().width, 1);
            for v in 0..td.len() as VertexId {
                let node = td.node(v);
                let mine: Vec<&Candidate> = cands.iter().filter(|c| c.node == v).collect();
                assert_eq!(mine.len(), node.depth as usize, "seed={seed} v={v}");
                let covered: f64 = (mine.iter())
                    .map(|c| {
                        let levels = (node.depth - td.node(c.ancestor).depth) as f64;
                        c.utility / (levels * width) * n
                    })
                    .sum();
                let want = n - node.subtree_size as f64;
                assert!(
                    (covered - want).abs() < 1e-6,
                    "seed={seed} v={v}: Σ p·n = {covered}, n − subtree(v) = {want}"
                );
            }
        }
    }

    /// Whatever is selected, the store pass computes its closure to the bits
    /// the full label holds: empty rows, one deep pair, every vertex's root
    /// and parent, random subsets and every pair, sequentially and with more
    /// workers than cores.
    #[test]
    fn demand_built_rows_equal_the_full_label() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let graphs = (0..6).map(|seed| (seed, 40 + 5 * seed as usize, 30));
        for (seed, vertices, extra) in graphs.chain([(8u64, 30, 20)]) {
            let g = seeded_graph(seed, vertices, extra, 3);
            let td = TreeDecomposition::build(&g);
            let full = build_all(&td, 1);
            let n = td.len();
            let all_rows: Vec<Vec<VertexId>> = (full.per_node.iter())
                .map(|row| row.iter().map(|e| e.0).collect())
                .collect();
            let deepest = (0..n as u32)
                .max_by_key(|&v| (td.node(v).depth, v))
                .expect("non-empty");
            let mut one_deep_pair = vec![Vec::new(); n];
            one_deep_pair[deepest as usize] = vec![td.root];
            let root_and_parent: Vec<Vec<VertexId>> = (0..n as u32)
                .map(|v| {
                    let mut row: Vec<_> = (td.node(v).parent.into_iter())
                        .chain([td.root])
                        .filter(|&a| a != v)
                        .collect();
                    row.dedup();
                    row
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1ec7);
            let mut selections = vec![
                vec![Vec::new(); n],
                one_deep_pair,
                root_and_parent,
                all_rows.clone(),
            ];
            for keep in [0.05, 0.3, 0.8] {
                selections.push(
                    (all_rows.iter())
                        .map(|row| {
                            row.iter()
                                .copied()
                                .filter(|_| rng.gen_range(0.0..1.0) < keep)
                                .collect()
                        })
                        .collect(),
                );
            }
            for (si, selected) in selections.iter().enumerate() {
                for threads in [1, 8] {
                    let store = build_selected(&td, selected, threads);
                    let want: usize = selected.iter().map(Vec::len).sum();
                    assert_eq!(store.num_pairs(), want, "seed={seed} selection={si}");
                    for (v, row) in store.per_node.iter().enumerate() {
                        let full_row = (full.per_node[v].iter())
                            .filter(|e| selected[v].contains(&e.0))
                            .cloned()
                            .collect::<Vec<_>>();
                        assert_eq!(
                            row, &full_row,
                            "seed={seed} selection={si} threads={threads} v={v}"
                        );
                    }
                }
            }
        }
    }

    /// A ring 0‥5 with the chord 1–4 and a pendant 6 on 3. Min-degree
    /// elimination (ties by id) gives
    ///
    /// ```text
    /// 5 ─ 4 ─ 1 ┬ 0            bags: X(4) = {5}, X(1) = {4, 5},
    ///           └ 3 ┬ 2              X(0) = {1, 5}, X(3) = {1, 4},
    ///               └ 6              X(2) = {3, 1}, X(6) = {3}
    /// ```
    fn hand_tree() -> TreeDecomposition {
        let mut b = td_graph::GraphBuilder::new(7);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (3, 6),
            (1, 4),
        ] {
            b.bidirectional(u, v, Plf::constant(1.0)).unwrap();
        }
        let td = TreeDecomposition::build(&b.build());
        let shape: Vec<_> = (0..7)
            .map(|v| (td.node(v).parent, td.node(v).bag.clone()))
            .collect();
        assert_eq!(
            shape,
            [
                (Some(1), vec![1, 5]),
                (Some(4), vec![4, 5]),
                (Some(3), vec![3, 1]),
                (Some(1), vec![1, 4]),
                (Some(5), vec![5]),
                (None, vec![]),
                (Some(3), vec![3]),
            ]
        );
        td
    }

    /// Runs Fact 1 down the path 5 → 4 → 1 → 3 → 2 of [`hand_tree`].
    fn compute_hand_path(td: &TreeDecomposition, need: &Need) -> Vec<NodeVectors> {
        let mut stack = Vec::new();
        for v in [5, 4, 1, 3, 2] {
            let need_v = need[v as usize].as_deref().expect("on the path");
            let vecs = compute_vectors(td, v, need_v, &stack);
            stack.push(vecs);
        }
        stack
    }

    #[test]
    fn need_is_exactly_the_closure_of_the_emitted_rows() {
        let td = hand_tree();
        // ⟨2,5⟩ (depth 0) reads (3,0) and (1,0); (3,0) reads (1,0) and (4,0);
        // (1,0) reads (4,0); (4,0) reads nothing — all through members below
        // the target. ⟨2,1⟩ (depth 2) reads (3,2); (3,2) has member 4 above
        // the target, so it reads the target's entry (1,1), which in turn
        // reads (4,0) through member 5. ⟨6,3⟩ is a label: no reads at all.
        let mut selected = vec![Vec::new(); 7];
        selected[2] = vec![5, 1];
        selected[6] = vec![3];
        let need = need_closure(&td, &selected);
        assert_eq!(
            need,
            [
                None, // 0: not emitted, not read, no needed descendant
                Some(vec![0, 1]),
                Some(vec![0, 2]),
                Some(vec![0, 2]),
                Some(vec![0]),
                Some(vec![]), // the root: passed through only
                Some(vec![3]),
            ]
        );
        // The closure is enough for Fact 1, to the full label's bits.
        let frames = compute_hand_path(&td, &need);
        let full = build_all(&td, 1);
        let (up, down) = full.get(2, 1).expect("stored");
        assert_eq!(frames[4].up[2].function(), up.as_ref());
        assert_eq!(frames[4].down[2].function(), down.as_ref());
        // An empty selection needs nothing, not even the root.
        assert!(need_closure(&td, &vec![Vec::new(); 7])
            .iter()
            .all(Option::is_none));
    }

    /// The guard `Entry::Skipped` exists for: with one dependency missing
    /// from the table, Fact 1 stops instead of treating it as unreachable.
    #[test]
    #[should_panic(expected = "outside the need closure")]
    fn a_read_outside_the_closure_panics() {
        let td = hand_tree();
        let mut selected = vec![Vec::new(); 7];
        selected[2] = vec![1];
        let mut need = need_closure(&td, &selected);
        assert_eq!(need[1], Some(vec![1]));
        need[1] = Some(vec![]); // (3,2) reads (1,1)
        compute_hand_path(&td, &need);
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
