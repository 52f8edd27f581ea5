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
//! by [`td_plf::ops::fold_compound_into`]'s walk of the term's values against
//! the running minimum — so a term is built only when it gets below the
//! running minimum somewhere, and merged only when neither wins everywhere.
//! The running minimum's `(min, max)` lives beside it and is handed to the
//! kernel, which keeps it current without rescanning.
//!
//! Every pass splits its DFS by estimated work, not by subtree count: a
//! vertex costs `1 + |need[v]| · |bag(v)|`, the relaxations
//! `compute_vectors` runs there, summed over subtrees in one sweep
//! (`plan_pass`). A sequential descent enters every subtree whose estimate
//! exceeds `total / (2 · threads)`, and every other needed subtree below it
//! is a job, run by one worker on the descent's frames, which the jobs share
//! (`Arc`) instead of copying. Road-network trees are skewed: on the
//! benchmark graph, stopping once the frontier held `4 · threads` subtrees
//! left one of them 97–99.6 % of the weigh pass, and so one worker nearly
//! all of it. The jobs, heaviest first, are packed longest-first into at most
//! `4 · threads` outputs, so the plan, like everything it stores, depends on
//! the tree and `threads` alone.
//!
//! What a storing pass emits is frozen on the spot. Each output's jobs write
//! their pairs' functions straight from the frame into an arena of its own,
//! sized up front from the rows' weights (exact after the weigh pass; the old
//! rows' before an update) and trimmed when the output is done, and the
//! [`ShortcutStore`] keeps those arenas as its chunks, in plan order, behind
//! CSR rows: no owned copy of a stored function is ever held beside the
//! arena, and the layout does not depend on scheduling. An update drops the
//! affected rows' functions from their chunks, compacting each in place,
//! re-runs the pass on those rows and keeps its arenas as further chunks, so
//! dead slices never accumulate and no stored point is copied until the
//! chunk count passes its bound and the smallest chunks are merged.

use crate::select::Candidate;
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use td_graph::VertexId;
use td_plf::ops::{fold_compound_into, fold_into, EMPTY_BOUNDS};
use td_plf::{Plf, PlfArena, PlfId, PlfSlice, NO_PLF};
use td_treedec::{TreeDecomposition, WD, WS};

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

/// A DFS stack: the vectors of each node on the current root path, root
/// first. Frames are shared, so a job starts on the descent's frames
/// without copying them.
type Frames = Vec<Arc<NodeVectors>>;

/// Fact 1's accumulator for one direction towards one ancestor: the best
/// function so far with its `(min, max)` beside it (`+∞` while unreachable).
struct Best {
    f: Option<Plf>,
    bounds: (f64, f64),
}

impl Best {
    const UNREACHABLE: Best = Best {
        f: None,
        bounds: EMPTY_BOUNDS,
    };

    /// Folds in `Compound(f, g)` through `via`, whose values are all ≥
    /// `lower_bound` — unless that already reaches the accumulator's
    /// maximum: the term is then nowhere below it and would be dropped
    /// (ties included), so it is not touched at all. Otherwise the term is
    /// walked against the accumulator and built only if it gets below it.
    /// The merge kernel reads `bounds` instead of rescanning the
    /// accumulator, and leaves them the new one's.
    fn relax(&mut self, lower_bound: f64, f: &Plf, g: &Plf, via: VertexId) {
        if lower_bound < self.bounds.1 {
            fold_compound_into(&mut self.f, &mut self.bounds, None, f, g, via);
        }
    }

    /// Folds in a label — the direct term through the target itself — by
    /// the same rule.
    fn relax_label(&mut self, w: &Plf, w_min: f64) {
        if w_min < self.bounds.1 {
            fold_into(&mut self.f, &mut self.bounds, None, w.clone());
        }
    }

    /// The entry, sized exactly: a kernel result keeps the buffer it was
    /// made in, and the DFS frames hold their entries for the rest of the
    /// pass.
    fn into_entry(self) -> Entry {
        match self.f {
            Some(mut f) => {
                f.shrink_to_fit();
                Entry::Reachable(f, self.bounds.0)
            }
            None => Entry::Unreachable,
        }
    }
}

/// A label copied out of the label store for the merge kernel, with its
/// minimum (`None` = absent).
type LabelCopy = Option<(Plf, f64)>;

/// Computes the entries `need` (sorted ancestor depths) of `v`'s ancestor
/// vectors from the DFS stack (Fact 1); every other entry stays
/// `Entry::Skipped`.
///
/// `stack[k]` must hold the vectors of `v`'s ancestor at depth `k`;
/// `stack.len() == depth(v)`. `v`'s labels are copied out of the tree's
/// label store once per visit, for the merge kernel, each with its member's
/// depth and its minimum. Every term `Compound(label, rest)` is bounded
/// below by `min(label) + min(rest)` — the label minimum from the store,
/// the rest's read from its frame — and skipped when that cannot get
/// below the maximum of what the slot already holds; past that test it is
/// walked against the slot and built only if it gets below it somewhere.
fn compute_vectors(
    td: &TreeDecomposition,
    v: VertexId,
    need: &[u32],
    stack: &[Arc<NodeVectors>],
) -> NodeVectors {
    let node = td.node(v);
    let d = node.depth as usize;
    debug_assert_eq!(stack.len(), d);
    let mut vecs = NodeVectors {
        up: vec![Entry::Skipped; d],
        down: vec![Entry::Skipped; d],
    };
    let labels = td.labels();
    let bag: Vec<(usize, [LabelCopy; 2])> = (labels.range(v))
        .map(|idx| {
            let copy = |dir| (labels.get(dir, idx)).map(|f| (f.to_plf(), labels.min(dir, idx)));
            (labels.bag_depth(idx), [copy(WS), copy(WD)])
        })
        .collect();
    for &k in need {
        let k = k as usize;
        let (mut best_up, mut best_down) = (Best::UNREACHABLE, Best::UNREACHABLE);
        for (&u, &(du, [ref ws, ref wd])) in node.bag.iter().zip(&bag) {
            if let Some((ws, ws_min)) = ws {
                // v → anc[k] through bag member u.
                if du == k {
                    best_up.relax_label(ws, *ws_min);
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
            if let Some((wd, wd_min)) = wd {
                // anc[k] → v through bag member u.
                if du == k {
                    best_down.relax_label(wd, *wd_min);
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

/// Direction index of a stored pair's up function (`v → ancestor`).
pub(crate) const UP: usize = 0;
/// Direction index of a stored pair's down function (`ancestor → v`).
pub(crate) const DOWN: usize = 1;

/// Chunks an update leaves a store with at most, unless the store had more
/// already: a pass makes one per output, at most four per thread, plus the
/// descent above them, and an update adds those of its own pass.
pub(crate) const MAX_CHUNKS: usize = 64;

/// The stored, selected shortcuts, structure-of-arrays.
///
/// Rows are CSR: `first[v]..first[v + 1]` are `v`'s pairs, sorted by
/// ancestor id, in `anc` and in the two id arrays `ids[UP]` / `ids[DOWN]`
/// ([`NO_PLF`] = that direction is unreachable). The points live in
/// [`PlfArena`] chunks at 20 B each: a store pass keeps the arena each of
/// its outputs wrote its pairs into, in plan order, a load keeps one arena per
/// direction list, and an update adds the arenas of its pass. Each
/// direction of a row lives in one chunk, `chunk_of[dir][v]`, so a lookup is
/// a binary search over the row's keys and two array reads.
#[derive(Clone, Debug)]
pub struct ShortcutStore {
    /// `n + 1` row offsets into `anc` and `ids`.
    first: Vec<u32>,
    /// Per pair: the ancestor.
    anc: Vec<VertexId>,
    /// Per direction, per pair: the function's id in its row's chunk.
    ids: [Vec<PlfId>; 2],
    /// Per direction, per vertex: the chunk holding that row's functions.
    chunk_of: [Vec<u32>; 2],
    chunks: Vec<PlfArena>,
}

impl ShortcutStore {
    /// An empty store over `n` vertices (TD-basic).
    pub fn empty(n: usize) -> Self {
        ShortcutStore {
            first: vec![0; n + 1],
            anc: Vec::new(),
            ids: Default::default(),
            chunk_of: [vec![0; n], vec![0; n]],
            chunks: Vec::new(),
        }
    }

    /// Assembles a store from a storing pass's outputs: each output that
    /// stored a pair becomes a chunk, in pass order, and the rows are sorted
    /// into CSR. Every array is allocated at its exact size.
    fn from_pass(n: usize, outputs: Vec<PassOutput>) -> ShortcutStore {
        let mut rows: Vec<(VertexId, VertexId, u32, [PlfId; 2])> =
            Vec::with_capacity(outputs.iter().map(|o| o.stored.len()).sum());
        let mut chunks =
            Vec::with_capacity(outputs.iter().filter(|o| !o.stored.is_empty()).count());
        for out in outputs.into_iter().filter(|o| !o.stored.is_empty()) {
            let c = chunks.len() as u32;
            rows.extend(out.stored.iter().map(|&(v, a, ids)| (v, a, c, ids)));
            chunks.push(out.arena);
        }
        rows.sort_unstable_by_key(|&(v, a, ..)| (v, a));
        debug_assert!(rows.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut first = vec![0u32; n + 1];
        let mut chunk_of = [vec![0; n], vec![0; n]];
        for &(v, _, c, _) in &rows {
            first[v as usize + 1] += 1;
            chunk_of[UP][v as usize] = c;
            chunk_of[DOWN][v as usize] = c;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        ShortcutStore {
            first,
            anc: rows.iter().map(|r| r.1).collect(),
            ids: [UP, DOWN].map(|dir| rows.iter().map(|r| r.3[dir]).collect()),
            chunk_of,
            chunks,
        }
    }

    /// Number of vertices (rows).
    pub(crate) fn num_vertices(&self) -> usize {
        self.first.len() - 1
    }

    /// `v`'s pairs, as positions in the flat arrays.
    fn range(&self, v: VertexId) -> Range<usize> {
        self.first[v as usize] as usize..self.first[v as usize + 1] as usize
    }

    /// `v`'s row in direction `dir` ([`UP`] / [`DOWN`]), resolved once for
    /// a query that looks up many of its pairs.
    pub(crate) fn row(&self, v: VertexId, dir: usize) -> Row<'_> {
        let range = self.range(v);
        Row {
            keys: &self.anc[range.clone()],
            ids: &self.ids[dir][range],
            chunk: self.chunks.get(self.chunk_of[dir][v as usize] as usize),
        }
    }

    /// `v`'s ancestor keys, ascending.
    pub(crate) fn keys(&self, v: VertexId) -> &[VertexId] {
        &self.anc[self.range(v)]
    }

    /// The flat position of the pair `⟨v, ancestor⟩`, if selected.
    fn find(&self, v: VertexId, ancestor: VertexId) -> Option<usize> {
        let row = self.range(v);
        let keys = &self.anc[row.clone()];
        let pos = keys.partition_point(|&a| a < ancestor);
        (keys.get(pos) == Some(&ancestor)).then_some(row.start + pos)
    }

    /// Direction `dir` of the pair at flat position `i` of `v`'s row (`None`
    /// = unreachable).
    fn function(&self, v: VertexId, i: usize, dir: usize) -> Option<PlfSlice<'_>> {
        let id = self.ids[dir][i];
        (id != NO_PLF).then(|| self.chunks[self.chunk_of[dir][v as usize] as usize].slice(id))
    }

    /// The pair instance `⟨v, ancestor⟩`, if selected: its up and down
    /// functions (`None` = unreachable), evaluated in place.
    pub fn get(
        &self,
        v: VertexId,
        ancestor: VertexId,
    ) -> Option<(Option<PlfSlice<'_>>, Option<PlfSlice<'_>>)> {
        let i = self.find(v, ancestor)?;
        Some((self.function(v, i, UP), self.function(v, i, DOWN)))
    }

    /// True iff the pair `⟨v, ancestor⟩` was selected.
    pub fn has(&self, v: VertexId, ancestor: VertexId) -> bool {
        self.find(v, ancestor).is_some()
    }

    /// Interpolation points of `v`'s row, both directions.
    pub(crate) fn row_points(&self, v: VertexId) -> usize {
        (self.range(v))
            .flat_map(|i| [UP, DOWN].map(|dir| self.function(v, i, dir)))
            .map(|f| f.map_or(0, |f| f.len()))
            .sum()
    }

    /// Number of selected pair instances.
    pub fn num_pairs(&self) -> usize {
        self.anc.len()
    }

    /// Total stored interpolation points (the paper's weight measure).
    pub fn total_points(&self) -> usize {
        self.chunks.iter().map(PlfArena::total_points).sum()
    }

    /// Heap bytes of what is stored: the row arrays and, in every chunk,
    /// 20 B a point and 20 B a function, by capacity. A chunk's own
    /// bookkeeping — the arena header and its leading offset — is left out,
    /// so equal rows report equal bytes however their points are chunked:
    /// a built store and its reload, or builds on different thread counts.
    pub fn bytes(&self) -> usize {
        let words = [&self.first, &self.anc]
            .into_iter()
            .chain(&self.ids)
            .chain(&self.chunk_of)
            .map(Vec::capacity)
            .sum::<usize>();
        let chunks = (self.chunks.iter())
            .map(|c| c.heap_bytes() - std::mem::size_of::<u32>())
            .sum::<usize>();
        words * std::mem::size_of::<u32>() + chunks
    }

    /// Iterates over all `(vertex, ancestor)` selected pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.keys(v).iter().map(move |&a| (v, a)))
    }

    /// The row offsets and the ancestor of every pair, in row order.
    pub(crate) fn rows(&self) -> (&[u32], &[VertexId]) {
        (&self.first, &self.anc)
    }

    /// Direction `dir` of every pair, in row order (`None` = unreachable).
    pub(crate) fn functions(
        &self,
        dir: usize,
    ) -> impl Iterator<Item = Option<PlfSlice<'_>>> + Clone + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.range(v).map(move |i| self.function(v, i, dir)))
    }

    /// A store over rows read back from their flat lists: `ids[dir]` indexes
    /// `arenas[dir]`, one chunk per direction. The caller has checked the
    /// offsets, the keys and the list lengths.
    pub(crate) fn from_lists(
        first: Vec<u32>,
        anc: Vec<VertexId>,
        ids: [Vec<PlfId>; 2],
        arenas: [PlfArena; 2],
    ) -> ShortcutStore {
        let n = first.len() - 1;
        ShortcutStore {
            first,
            anc,
            ids,
            chunk_of: [vec![UP as u32; n], vec![DOWN as u32; n]],
            chunks: arenas.into(),
        }
    }

    /// Drops every function of the rows `rows` — their ids become
    /// [`NO_PLF`] — and compacts each chunk that held one in place, trimmed
    /// to its new size; the kept functions of those chunks are renumbered.
    /// The scratch is the dropped ids. [`Self::fill_rows`] then installs the
    /// rows' new functions.
    fn clear_rows(&mut self, rows: &[VertexId]) {
        let mut dropped: Vec<Vec<PlfId>> = vec![Vec::new(); self.chunks.len()];
        for &v in rows {
            let range = self.range(v);
            for dir in [UP, DOWN] {
                let gone = &mut dropped[self.chunk_of[dir][v as usize] as usize];
                for id in &mut self.ids[dir][range.clone()] {
                    if *id != NO_PLF {
                        gone.push(std::mem::replace(id, NO_PLF));
                    }
                }
            }
        }
        if dropped.iter().all(Vec::is_empty) {
            return;
        }
        for (chunk, gone) in self.chunks.iter_mut().zip(&mut dropped) {
            if !gone.is_empty() {
                gone.sort_unstable();
                chunk.remove_functions(gone);
                chunk.shrink_to_fit();
            }
        }
        for dir in [UP, DOWN] {
            for v in 0..self.num_vertices() {
                let gone = &dropped[self.chunk_of[dir][v] as usize];
                if gone.is_empty() {
                    continue;
                }
                let range = self.range(v as VertexId);
                for id in &mut self.ids[dir][range] {
                    if *id != NO_PLF {
                        *id -= gone.partition_point(|&d| d < *id) as PlfId;
                    }
                }
            }
        }
    }

    /// Installs `fresh` — a store pass over exactly the keys of the rows
    /// [`Self::clear_rows`] emptied — without copying a point: each arena
    /// of the pass joins the store as a chunk of its own, and a chunk no row
    /// reads any more is released. No dead slice is retained, so the store
    /// holds the functions and the bytes a fresh pass over the same keys
    /// gives. An update adds chunks, so past [`MAX_CHUNKS`] (or the count
    /// the store had, if higher) the smallest are merged.
    fn fill_rows(&mut self, fresh: Vec<PassOutput>) {
        let cap = self.chunks.len().max(MAX_CHUNKS);
        for out in fresh.into_iter().filter(|o| !o.stored.is_empty()) {
            let c = self.chunks.len() as u32;
            for &(v, a, ids) in &out.stored {
                let i = self.find(v, a).expect("a rebuilt row keeps its keys");
                for dir in [UP, DOWN] {
                    self.ids[dir][i] = ids[dir];
                    self.chunk_of[dir][v as usize] = c;
                }
            }
            self.chunks.push(out.arena);
        }
        self.release_unread_chunks();
        while self.chunks.len() > cap {
            self.merge_smallest_chunks();
        }
    }

    /// Releases every chunk that no row with pairs points at and renumbers
    /// the rest, order kept. (A row without pairs never reads its chunk; it
    /// is pointed at the first.)
    fn release_unread_chunks(&mut self) {
        let mut read = vec![false; self.chunks.len()];
        for v in 0..self.num_vertices() {
            if self.range(v as VertexId).is_empty() {
                self.chunk_of[UP][v] = 0;
                self.chunk_of[DOWN][v] = 0;
            } else {
                read[self.chunk_of[UP][v] as usize] = true;
                read[self.chunk_of[DOWN][v] as usize] = true;
            }
        }
        if read.iter().all(|&r| r) {
            return;
        }
        let index: Vec<u32> = (read.iter())
            .scan(0, |next, &r| {
                *next += u32::from(r);
                Some(*next - u32::from(r))
            })
            .collect();
        let mut c = 0;
        self.chunks.retain(|_| {
            c += 1;
            read[c - 1]
        });
        for of in &mut self.chunk_of {
            of.iter_mut().for_each(|c| *c = index[*c as usize]);
        }
    }

    /// Appends the smallest chunk to the next smallest — the least copying
    /// that takes one chunk away — and releases it.
    fn merge_smallest_chunks(&mut self) {
        let mut by_size: Vec<usize> = (0..self.chunks.len()).collect();
        by_size.sort_by_key(|&c| self.chunks[c].total_points());
        let (from, into) = (by_size[0], by_size[1]);
        let source = std::mem::take(&mut self.chunks[from]);
        let first = self.chunks[into].append(&source);
        for dir in [UP, DOWN] {
            for v in 0..self.num_vertices() {
                if self.chunk_of[dir][v] as usize != from {
                    continue;
                }
                self.chunk_of[dir][v] = into as u32;
                let range = self.range(v as VertexId);
                for id in &mut self.ids[dir][range] {
                    if *id != NO_PLF {
                        *id += first;
                    }
                }
            }
        }
        self.release_unread_chunks();
    }
}

/// One direction of one store row: its ancestor keys, their function ids
/// and the chunk holding those functions (`None` only for a row with no
/// pairs in a store with no chunk).
#[derive(Clone, Copy)]
pub(crate) struct Row<'a> {
    keys: &'a [VertexId],
    ids: &'a [PlfId],
    chunk: Option<&'a PlfArena>,
}

impl<'a> Row<'a> {
    /// Where the function of the pair `⟨v, ancestor⟩` lives, if the pair is
    /// selected: its chunk — which serves the O(1) `min_cost` / `max_cost`
    /// — and its id there ([`NO_PLF`] = unreachable).
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub(crate) fn locate(&self, ancestor: VertexId) -> Option<(&'a PlfArena, PlfId)> {
        let pos = self.keys.partition_point(|&a| a < ancestor);
        if self.keys.get(pos) != Some(&ancestor) {
            return None;
        }
        Some((self.chunk?, self.ids[pos]))
    }

    /// The function of the pair `⟨v, ancestor⟩`, if the pair is selected
    /// (`Some(None)` = unreachable), to evaluate in place.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub(crate) fn get(&self, ancestor: VertexId) -> Option<Option<PlfSlice<'a>>> {
        let (chunk, id) = self.locate(ancestor)?;
        Some((id != NO_PLF).then(|| chunk.slice(id)))
    }
}

/// One row as owned `(ancestor, up, down)` triples, what tests compare.
#[cfg(test)]
pub(crate) type OwnedRow = Vec<(VertexId, Option<Plf>, Option<Plf>)>;

#[cfg(test)]
impl ShortcutStore {
    /// Number of arena chunks the points are spread over.
    pub(crate) fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Every row, copied out of the arenas.
    pub(crate) fn owned_rows(&self) -> Vec<OwnedRow> {
        (0..self.num_vertices() as VertexId)
            .map(|v| {
                (self.range(v))
                    .map(|i| {
                        let f = |dir| self.function(v, i, dir).map(|f| f.to_plf());
                        (self.anc[i], f(UP), f(DOWN))
                    })
                    .collect()
            })
            .collect()
    }

    /// A one-chunk store holding `rows` (each sorted by ancestor).
    pub(crate) fn from_owned_rows(rows: &[OwnedRow]) -> ShortcutStore {
        let mut out = PassOutput::default();
        for (v, row) in rows.iter().enumerate() {
            for (a, up, down) in row {
                let ids = [up, down].map(|f| f.as_ref().map_or(NO_PLF, |f| out.arena.push(f)));
                out.stored.push((v as VertexId, *a, ids));
            }
        }
        ShortcutStore::from_pass(rows.len(), vec![out])
    }
}

/// What a DFS pass should do at each node.
enum PassMode<'a> {
    /// Record `(utility, weight)` candidates for every ancestor pair.
    Weigh,
    /// Store vectors for the listed ancestors of each node. `points[v]` is
    /// the interpolation points `v`'s row is expected to hold — exact from
    /// the weigh pass, the old row's before an update — and sizes each
    /// output's arena up front; an arena grows past it if it must and is
    /// trimmed when its output is done.
    Store(&'a [Vec<VertexId>], &'a [u64]),
    /// Store vectors for *all* ancestors (TD-H2H).
    StoreAll,
}

/// What one plan output's DFS jobs emit (or the sequential descent above
/// them).
#[derive(Default)]
struct PassOutput {
    candidates: Vec<Candidate>,
    /// `(vertex, ancestor, [up, down])` of each stored pair, ids in `arena`.
    stored: Vec<(VertexId, VertexId, [PlfId; 2])>,
    /// The stored functions' points, written straight from the DFS frames.
    arena: PlfArena,
}

impl PassOutput {
    /// An output whose arena holds `(functions, points)` without growing.
    fn sized((functions, points): (usize, usize)) -> PassOutput {
        PassOutput {
            candidates: Vec::new(),
            stored: Vec::with_capacity(functions / 2),
            arena: PlfArena::with_capacity(functions, points),
        }
    }

    /// Stores the pair `⟨v, ancestor⟩` from its two frame entries.
    fn store(&mut self, v: VertexId, ancestor: VertexId, entries: [&Entry; 2]) {
        let ids = entries.map(|e| e.function().map_or(NO_PLF, |f| self.arena.push(f)));
        self.stored.push((v, ancestor, ids));
    }
}

/// Weighs every candidate pair (first pass): returns `Candidate`s with exact
/// utilities (Def. 7) and interpolation-point weights, sorted by `(node,
/// ancestor)` — the workers finish in scheduling order, and selection's
/// tie-breaks and utility sum must not depend on it.
pub fn weigh_candidates(td: &TreeDecomposition, width: usize, threads: usize) -> Vec<Candidate> {
    let outputs = run_pass(td, width, threads, &PassMode::Weigh);
    let mut candidates = Vec::with_capacity(outputs.iter().map(|o| o.candidates.len()).sum());
    for out in outputs {
        candidates.extend(out.candidates);
    }
    candidates.sort_unstable_by_key(|c| (c.node, c.ancestor));
    candidates
}

/// Builds the selected shortcut pairs (the store pass). `selected[v]` lists
/// the chosen ancestors of `v` (any order) and `points[v]` their weights'
/// sum, the interpolation points of `v`'s row, which size the arenas.
pub fn build_selected(
    td: &TreeDecomposition,
    selected: &[Vec<VertexId>],
    points: &[u64],
    threads: usize,
) -> ShortcutStore {
    let outputs = run_pass(td, 0, threads, &PassMode::Store(selected, points));
    ShortcutStore::from_pass(td.len(), outputs)
}

/// Builds *all* pairs (TD-H2H's full label, single pass).
pub fn build_all(td: &TreeDecomposition, threads: usize) -> ShortcutStore {
    let outputs = run_pass(td, 0, threads, &PassMode::StoreAll);
    ShortcutStore::from_pass(td.len(), outputs)
}

/// Rebuilds the rows of every vertex inside the subtrees rooted at `roots`,
/// after tree labels changed (incremental updates), and returns how many
/// vertices that was. What is stored is what is selected: each row's
/// ancestor keys are read off, their old functions dropped
/// ([`ShortcutStore::clear_rows`]), the store pass runs on those rows alone —
/// it computes their closure and nothing else — and its arenas join the
/// store ([`ShortcutStore::fill_rows`]). The old rows' sizes size the new
/// ones.
pub(crate) fn rebuild_subtrees(
    store: &mut ShortcutStore,
    td: &TreeDecomposition,
    roots: &[VertexId],
    threads: usize,
) -> usize {
    let mut affected = Vec::new();
    let mut selected: Vec<Vec<VertexId>> = vec![Vec::new(); td.len()];
    let mut points = vec![0u64; td.len()];
    let mut seen = vec![false; td.len()];
    let mut stack: Vec<VertexId> = roots.to_vec();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut seen[v as usize], true) {
            continue;
        }
        affected.push(v);
        selected[v as usize] = store.keys(v).to_vec();
        points[v as usize] = store.row_points(v) as u64;
        stack.extend(td.node(v).children.iter().copied());
    }
    store.clear_rows(&affected);
    let fresh = run_pass(td, 0, threads, &PassMode::Store(&selected, &points));
    store.fill_rows(fresh);
    affected.len()
}

/// The vertices in elimination order: each before its ancestors.
fn elimination_order(td: &TreeDecomposition) -> Vec<VertexId> {
    let mut by_step: Vec<VertexId> = vec![0; td.len()];
    for (v, &step) in td.order.iter().enumerate() {
        by_step[step as usize] = v as VertexId;
    }
    by_step
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
    let mut anc = Vec::new();
    for v in elimination_order(td) {
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

/// The estimated work of visiting `v`: `1 + |need[v]| · |bag(v)|`, the
/// relaxations `compute_vectors` runs there (0 where the DFS never goes).
fn estimate(td: &TreeDecomposition, need: &Need, v: VertexId) -> u64 {
    need[v as usize]
        .as_ref()
        .map_or(0, |need_v| 1 + (need_v.len() * td.node(v).bag.len()) as u64)
}

/// Per vertex, summed over its subtree: the pass's [`estimate`]d work and
/// the `(functions, points)` of the rows it stores there. Sizes are known to
/// a store pass only — two functions a pair, an upper bound that is exact
/// when both directions are reachable, and the rows' weights — and are zero
/// for the other modes.
fn subtree_totals(
    td: &TreeDecomposition,
    need: &Need,
    mode: &PassMode<'_>,
) -> Vec<(u64, (usize, usize))> {
    let mut totals: Vec<(u64, (usize, usize))> = (0..td.len())
        .map(|v| {
            let size = match mode {
                PassMode::Store(selected, points) => (2 * selected[v].len(), points[v] as usize),
                PassMode::Weigh | PassMode::StoreAll => (0, 0),
            };
            (estimate(td, need, v as VertexId), size)
        })
        .collect();
    for v in elimination_order(td) {
        if let Some(p) = td.node(v).parent {
            let (work, (functions, points)) = totals[v as usize];
            let (p_work, (p_functions, p_points)) = &mut totals[p as usize];
            *p_work += work;
            *p_functions += functions;
            *p_points += points;
        }
    }
    totals
}

/// How a pass splits its DFS between the sequential descent and the
/// workers. It follows from the tree, `need` and `threads` alone, never from
/// timing, so neither do the outputs a store keeps as chunks.
#[derive(Default)]
struct Plan {
    /// The vertices the sequential descent visits, each after its parent.
    descent: Vec<VertexId>,
    /// Each job — a needed subtree below the descent, run whole by one
    /// worker — as its root and estimated work, heaviest first, ties by id.
    jobs: Vec<(VertexId, u64)>,
    /// The outputs the jobs are packed into, at most `4 · threads`.
    outputs: Vec<PlannedOutput>,
}

/// One output of a [`Plan`]: the jobs one worker runs into one arena.
#[derive(Default)]
struct PlannedOutput {
    /// The jobs' roots, heaviest first.
    roots: Vec<VertexId>,
    /// Their estimated work.
    work: u64,
    /// `(functions, points)` the arena is sized to.
    size: (usize, usize),
}

/// Plans a pass over `need` on `threads` workers: the descent enters every
/// needed subtree whose estimate exceeds `total / (2 · threads)` and has a
/// needed child, every other needed subtree below it is a job, and the
/// jobs, heaviest first, go longest-processing-time-first into at most
/// `4 · threads` outputs — each to the lightest so far, ties to the first.
fn plan_pass(td: &TreeDecomposition, need: &Need, mode: &PassMode<'_>, threads: usize) -> Plan {
    let totals = subtree_totals(td, need, mode);
    let split = totals[td.root as usize].0 / (2 * threads as u64);
    let mut plan = Plan::default();
    let mut queue: Vec<VertexId> = Vec::new();
    if need[td.root as usize].is_some() {
        queue.push(td.root);
    }
    while let Some(v) = queue.pop() {
        let mut children = (td.node(v).children.iter().copied())
            .filter(|&c| need[c as usize].is_some())
            .peekable();
        if totals[v as usize].0 > split && children.peek().is_some() {
            plan.descent.push(v);
            queue.extend(children);
        } else {
            plan.jobs.push((v, totals[v as usize].0));
        }
    }
    plan.jobs
        .sort_unstable_by_key(|&(v, work)| (Reverse(work), v));
    plan.outputs = (0..plan.jobs.len().min(4 * threads))
        .map(|_| PlannedOutput::default())
        .collect();
    for &(root, work) in &plan.jobs {
        let out = (plan.outputs.iter_mut())
            .min_by_key(|out| out.work)
            .expect("a job leaves at least one output");
        let (functions, points) = totals[root as usize].1;
        out.roots.push(root);
        out.work += work;
        out.size.0 += functions;
        out.size.1 += points;
    }
    plan
}

/// Runs a pass: the sequential descent of [`plan_pass`], then the planned
/// outputs in parallel, each job on the descent's frames. Only `need`'s
/// entries are computed and only the subtrees it marks are entered. Returns
/// one output for the descent and then the plan's, in plan order — the
/// order the store keeps their arenas in, whatever the workers' finishing
/// order.
fn run_pass(
    td: &TreeDecomposition,
    width: usize,
    threads: usize,
    mode: &PassMode<'_>,
) -> Vec<PassOutput> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let need = match mode {
        PassMode::Store(selected, _) => need_closure(td, selected),
        PassMode::Weigh | PassMode::StoreAll => need_everything(td),
    };
    let plan = plan_pass(td, &need, mode, threads);

    // The descent, each vertex on its ancestors' frames; a job's ancestors
    // are all descended into, so its stack is theirs.
    let mut descent = PassOutput::default();
    let mut frames: Vec<Option<Arc<NodeVectors>>> = vec![None; td.len()];
    let stack_of = |frames: &[Option<Arc<NodeVectors>>], v: VertexId| -> Frames {
        (td.ancestors_root_first(v).iter())
            .map(|&a| {
                frames[a as usize]
                    .clone()
                    .expect("the descent visits a job's ancestors")
            })
            .collect()
    };
    for &v in &plan.descent {
        let stack = stack_of(&frames, v);
        frames[v as usize] = Some(visit(td, v, &need, &stack, width, mode, &mut descent));
    }
    descent.arena.shrink_to_fit();

    // Parallel phase: a worker takes the next output and runs its jobs.
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, PassOutput)>> =
        Mutex::new(Vec::with_capacity(plan.outputs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(plan.outputs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(planned) = plan.outputs.get(i) else {
                    break;
                };
                let mut out = PassOutput::sized(planned.size);
                for &root in &planned.roots {
                    let stack = stack_of(&frames, root);
                    subtree_dfs(td, root, stack, &need, width, mode, &mut out);
                }
                out.arena.shrink_to_fit();
                // Poison only means another worker panicked after pushing a
                // complete output; the Vec itself is still well-formed.
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((i, out));
            });
        }
    });
    let mut collected = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    collected.sort_unstable_by_key(|&(i, _)| i);
    std::iter::once(descent)
        .chain(collected.into_iter().map(|(_, out)| out))
        .collect()
}

/// Iterative DFS over one subtree with an explicit vector stack.
fn subtree_dfs(
    td: &TreeDecomposition,
    root: VertexId,
    mut stack: Frames,
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
    stack: &[Arc<NodeVectors>],
    width: usize,
    mode: &PassMode<'_>,
    out: &mut PassOutput,
) -> Arc<NodeVectors> {
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
        PassMode::Store(selected, _) => {
            for &a in &selected[v as usize] {
                let k = td.node(a).depth as usize;
                debug_assert!(
                    k < d && td.is_ancestor_of(a, v),
                    "selected ancestor must be on the root path"
                );
                out.store(v, a, [&vecs.up[k], &vecs.down[k]]);
            }
        }
        PassMode::StoreAll => {
            let anc = td.ancestors_root_first(v);
            for (k, &a) in anc.iter().enumerate().take(d) {
                let entries = [&vecs.up[k], &vecs.down[k]];
                if entries.iter().any(|e| e.function().is_some()) {
                    out.store(v, a, entries);
                }
            }
        }
    }
    Arc::new(vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_dijkstra::profile_search;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    /// The weights the weigh pass gives the rows `selected`: their pairs'
    /// points in `full`, which holds them all.
    fn weights(full: &ShortcutStore, selected: &[Vec<VertexId>]) -> Vec<u64> {
        (0..selected.len() as VertexId)
            .map(|v| {
                (selected[v as usize].iter())
                    .map(|&a| {
                        let (up, down) = full.get(v, a).expect("full holds every pair");
                        [up, down]
                            .into_iter()
                            .flatten()
                            .map(|f| f.len() as u64)
                            .sum::<u64>()
                    })
                    .sum()
            })
            .collect()
    }

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
                    let up = store.get(v, a).and_then(|(u, _)| u);
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
                let down = store.get(v, a).and_then(|(_, d)| d);
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
        assert_eq!(seq.owned_rows(), par.owned_rows());
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
            let w = up.map_or(0, |f| f.len()) + down.map_or(0, |f| f.len());
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
            let full_rows = full.owned_rows();
            let n = td.len();
            let all_rows: Vec<Vec<VertexId>> =
                (0..n as VertexId).map(|v| full.keys(v).to_vec()).collect();
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
                let want_rows: Vec<OwnedRow> = (full_rows.iter().zip(selected))
                    .map(|(row, keys)| {
                        row.iter()
                            .filter(|e| keys.contains(&e.0))
                            .cloned()
                            .collect()
                    })
                    .collect();
                let points = weights(&full, selected);
                for threads in [1, 8] {
                    let store = build_selected(&td, selected, &points, threads);
                    let want: usize = selected.iter().map(Vec::len).sum();
                    assert_eq!(store.num_pairs(), want, "seed={seed} selection={si}");
                    assert_eq!(
                        store.owned_rows(),
                        want_rows,
                        "seed={seed} selection={si} threads={threads}"
                    );
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
    fn compute_hand_path(td: &TreeDecomposition, need: &Need) -> Frames {
        let mut stack = Vec::new();
        for v in [5, 4, 1, 3, 2] {
            let need_v = need[v as usize].as_deref().expect("on the path");
            let vecs = compute_vectors(td, v, need_v, &stack);
            stack.push(Arc::new(vecs));
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
        assert_eq!(frames[4].up[2].function().cloned(), up.map(|f| f.to_plf()));
        assert_eq!(
            frames[4].down[2].function().cloned(),
            down.map(|f| f.to_plf())
        );
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

    /// The footprint the store's layout promises: 20 B a point (two `f64`
    /// and a `u32` witness, no padding, no per-function allocation) plus a
    /// fixed cost per pair and per row, whatever the chunking. An
    /// array-of-structs point (24 B), a `Vec` per function or spare capacity
    /// brings the cost back above it; a built store, its reload (one chunk
    /// per direction) and a one-thread build report the same bytes.
    #[test]
    fn the_store_costs_twenty_bytes_a_point_plus_fixed_overheads() {
        use std::mem::size_of;
        const PER_POINT: usize = 2 * size_of::<f64>() + size_of::<u32>();
        // Ancestor and two ids, then per function an offset and two bounds.
        const PER_PAIR: usize =
            3 * size_of::<u32>() + 2 * (size_of::<u32>() + 2 * size_of::<f64>());
        // An offset and two chunk indices.
        const PER_ROW: usize = 3 * size_of::<u32>();
        assert_eq!(PER_POINT, 20);
        let g = seeded_graph(9, 60, 40, 3);
        let td = TreeDecomposition::build(&g);
        let n = td.len();
        let all = build_all(&td, 2);
        let some: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|v| all.keys(v).iter().copied().step_by(3).collect())
            .collect();
        let loaded = {
            use td_store::Persist;
            let mut buf = Vec::new();
            all.write_into(&mut buf).unwrap();
            ShortcutStore::read_from(&mut buf.as_slice()).unwrap()
        };
        assert!(all.num_chunks() > 2 && loaded.num_chunks() == 2);
        assert_eq!(loaded.bytes(), all.bytes());
        assert_eq!(build_all(&td, 1).bytes(), all.bytes());
        let selected = build_selected(&td, &some, &weights(&all, &some), 2);
        for (what, store) in [
            ("all", all),
            ("selected", selected),
            ("loaded", loaded),
            ("empty", ShortcutStore::empty(n)),
        ] {
            let bound =
                PER_POINT * store.total_points() + PER_PAIR * store.num_pairs() + PER_ROW * (n + 1);
            assert!(
                store.bytes() <= bound,
                "{what}: {} B stored, {bound} B allowed",
                store.bytes()
            );
            assert!(store
                .pairs()
                .all(|(v, a)| store.has(v, a) && !store.has(a, v)));
        }
    }

    /// The plan splits a pass by estimated work. On the benchmark graph (the
    /// CAL analogue at scale 0.5), for the weigh pass's table and a store
    /// pass's closure: every job fits in its `total / (2 · threads)` share
    /// unless its root has no needed child to split it at, the outputs and
    /// the descent stay within a store's `4 · threads + 1` chunks, and every
    /// job lands in one output. The descent does at most 5 % of the weigh
    /// pass; a closure, which thins out with depth, leaves it more (5.9 % of
    /// the parent rows' at 4 threads). Splitting the weigh pass by frontier
    /// count instead left one job 97–99.6 % of the work.
    #[test]
    fn the_plan_splits_the_pass_by_estimated_work() {
        let g = td_gen::Dataset::Cal.spec().build_scaled(3, 0.5, 42);
        let td = TreeDecomposition::build(&g);
        let n = td.len();
        let parent_rows: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|v| td.node(v).parent.into_iter().collect())
            .collect();
        let no_points = vec![0; n];
        // (pass, its table, its mode, the descent's largest share in %)
        let passes = [
            ("weigh", need_everything(&td), PassMode::Weigh, 5),
            (
                "store",
                need_closure(&td, &parent_rows),
                PassMode::Store(&parent_rows, &no_points),
                10,
            ),
        ];
        for (what, need, mode, descent_pct) in &passes {
            for threads in [2, 4] {
                let what = format!("{what}, {threads} threads");
                let plan = plan_pass(&td, need, mode, threads);
                let descent: u64 = (plan.descent.iter()).map(|&v| estimate(&td, need, v)).sum();
                let total = descent + plan.jobs.iter().map(|&(_, work)| work).sum::<u64>();
                assert_eq!(total, subtree_totals(&td, need, mode)[td.root as usize].0);
                let share = total / (2 * threads as u64);
                for &(root, work) in &plan.jobs {
                    let splittable =
                        (td.node(root).children.iter()).any(|&c| need[c as usize].is_some());
                    assert!(
                        work <= share || !splittable,
                        "{what}: job {root} holds {work} of {total}"
                    );
                }
                // With the descent's, at most 4 · threads + 1 chunks.
                assert!(plan.outputs.len() <= 4 * threads, "{what}");
                let mut packed: Vec<VertexId> = (plan.outputs.iter())
                    .flat_map(|out| out.roots.iter().copied())
                    .collect();
                let mut roots: Vec<VertexId> = plan.jobs.iter().map(|&(root, _)| root).collect();
                packed.sort_unstable();
                roots.sort_unstable();
                assert_eq!(packed, roots, "{what}");
                assert!(
                    descent * 100 <= descent_pct * total,
                    "{what}: the descent holds {descent} of {total}"
                );
            }
        }
    }

    /// Merging chunks — what keeps an updated store within [`MAX_CHUNKS`] —
    /// moves functions without changing one or leaving a dead slice: down
    /// to a single chunk, every row and the bytes stay the build's.
    #[test]
    fn merging_chunks_keeps_every_function_and_the_bytes() {
        let g = seeded_graph(11, 80, 50, 3);
        let td = TreeDecomposition::build(&g);
        let mut store = build_all(&td, 8);
        let (rows, bytes) = (store.owned_rows(), store.bytes());
        assert!(store.num_chunks() > 4);
        while store.num_chunks() > 1 {
            let before = store.num_chunks();
            store.merge_smallest_chunks();
            assert_eq!(store.num_chunks(), before - 1);
            assert_eq!(store.owned_rows(), rows);
            assert_eq!(store.bytes(), bytes);
        }
    }
}
