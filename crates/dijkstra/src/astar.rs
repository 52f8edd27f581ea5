#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! The crate's one frozen scalar search: time-dependent A\* over the
//! CSR/arena layout, ordered by `arrival + h` for a pluggable
//! [`Potential`].
//!
//! A potential `h(v)` lower-bounds the remaining time-dependent cost
//! `v → d`; when it is admissible and consistent, A\* keyed by
//! `arrival + h` settles every vertex at its final arrival on FIFO graphs
//! (the "speed patterns" lower-bounding idea of \[15\]). The potential is
//! the only thing that distinguishes the workspace's search backends:
//!
//! * [`crate::ZeroPotential`] — `h ≡ 0`: plain time-dependent Dijkstra
//!   (Cooke & Halsey \[6\]), the TD-Dijkstra backend and the correctness
//!   oracle;
//! * [`crate::ChPotential`] — lazy contraction-hierarchy potentials, the
//!   fast exact query path (TD-A\*-CH);
//! * [`crate::FullPotential`] — one full backward Dijkstra per
//!   destination, the test reference for `ChPotential`.
//!
//! [`search`] walks CSR adjacency with per-edge `min_cost` pruning on a
//! generation-stamped [`SearchScratch`] (0 allocations per query once
//! warmed) and stops at the checkpoints of a [`QueryBudget`];
//! [`SearchScratch::path_to`] recovers the path of a completed search.

use crate::budget::{BoundedCost, QueryBudget};
use crate::potential::Potential;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use td_graph::{FrozenGraph, Path, VertexId};
use td_obs::SearchStats;
use td_plf::eval_ids_at;

/// Out-edge relaxations are batched in chunks of this many edges: prunes
/// first, then one [`eval_ids_at`] arena pass over the survivors, then the
/// label updates. Stack arrays of this size hold the gathered chunk.
const RELAX_CHUNK: usize = 32;

/// Shared min-heap entry of every scalar search in this crate, ordered by
/// smallest key first (ties broken by vertex id for determinism). The key
/// is held as its `f64::total_cmp` image — an `i64` whose integer order is
/// the float's total order, computed once per push — so a heap comparison
/// is one integer tuple compare instead of two float-bit transforms. The
/// order is `total_cmp`'s exactly: keys are finite by construction, and a
/// NaN would order deterministically rather than abort the query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    ord: i64,
    pub(crate) vertex: VertexId,
}

impl Entry {
    /// The `total_cmp` image of `key`; the map is its own inverse.
    #[inline]
    fn flip(bits: i64) -> i64 {
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    #[inline]
    pub(crate) fn new(key: f64, vertex: VertexId) -> Entry {
        Entry {
            ord: Self::flip(key.to_bits() as i64),
            vertex,
        }
    }

    /// The key, bit for bit as pushed.
    #[inline]
    pub(crate) fn key(self) -> f64 {
        f64::from_bits(Self::flip(self.ord) as u64)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ord, other.vertex).cmp(&(self.ord, self.vertex))
    }
}

/// One vertex's search state, 16 B so a relaxation reads and writes one
/// cache line: the tentative arrival, the parent it came from and the
/// generation stamp that makes both valid.
#[derive(Clone, Copy, Debug)]
struct Label {
    best: f64,
    parent: VertexId,
    /// 2·id stamps "reached this query", 2·id+1 stamps "settled".
    stamp: u32,
}

impl Label {
    const UNREACHED: Label = Label {
        best: f64::INFINITY,
        parent: u32::MAX,
        stamp: 0,
    };
}

/// Reusable state of [`search`]: the per-vertex labels are
/// generation-stamped (no O(n) clear per query) and the heap is recycled —
/// zero allocations per query once warmed to the graph's size.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    labels: Vec<Label>,
    gen: u32,
    heap: BinaryHeap<Entry>,
    /// Counters for the most recent search, reset at query start (plain
    /// `u64`s — the hot loop records without touching shared state);
    /// callers export them via [`SearchStats::take`].
    pub stats: SearchStats,
}

impl SearchScratch {
    /// Restores a logically fresh state after a contained panic while
    /// keeping every warmed allocation. The labels may hold torn values
    /// from the unwound query, but all reads are gated by their stamps:
    /// zeroing the stamps and restarting the generation makes every stale
    /// entry unreachable, exactly as the wrap-around path of `reset` does.
    /// Capacity — the workload's true high-water mark — survives, so the
    /// first batch after a panic allocates nothing extra.
    pub fn sanitize(&mut self) {
        self.heap.clear();
        self.clear_stamps();
        self.gen = 0;
        self.stats.reset();
    }

    /// The path `s → d` found by the most recent [`search`] on this
    /// scratch, which must have returned `Exact(Some(_))` for the same
    /// `(s, d)` (the returned [`Path`] allocates — it is the result).
    pub fn path_to(&self, s: VertexId, d: VertexId) -> Path {
        walk_parents(|v| self.labels[v as usize].parent, s, d)
    }

    fn clear_stamps(&mut self) {
        for l in &mut self.labels {
            l.stamp = 0;
        }
    }

    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn reset(&mut self, n: usize) -> u32 {
        debug_assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        if self.labels.len() != n {
            self.labels = vec![Label::UNREACHED; n];
            self.gen = 0;
        }
        self.heap.clear();
        self.stats.reset();
        // Two stamp values per query: gen (reached) and gen+1 (settled).
        // On wrap-around the stamps are cleared wholesale, as in
        // `crate::potential::bump_generation` (which steps by 1, not 2).
        self.gen = if self.gen >= u32::MAX - 2 {
            self.clear_stamps();
            1
        } else {
            self.gen + 2
        };
        self.gen
    }
}

/// Walks `parent` links back from `d` to `s` — the one path
/// reconstruction of the crate (`parent(v)` must be set for every vertex on
/// the way, which a search that settled `d` guarantees).
pub(crate) fn walk_parents(
    parent: impl Fn(VertexId) -> VertexId,
    s: VertexId,
    d: VertexId,
) -> Path {
    let mut vertices = vec![d];
    let mut cur = d;
    while cur != s {
        let p = parent(cur);
        debug_assert_ne!(p, u32::MAX, "settled vertex must have a parent");
        vertices.push(p);
        cur = p;
    }
    vertices.reverse();
    Path::new(vertices)
}

/// Travel cost `s → d` departing at `t` on the frozen layout, settling by
/// `arrival + h` for the given [`Potential`] (initialised here). Exact for
/// admissible, consistent potentials; relaxations are pruned by the
/// interleaved per-edge `min_cost` bounds both against the head's tentative
/// arrival and — potential-strengthened — against the best known arrival
/// at `d`. A completed search leaves the parent links for
/// [`SearchScratch::path_to`]; `s == d` returns before any setup, with zero
/// [`SearchStats`].
///
/// The search stops at `budget`'s checkpoints
/// ([`QueryBudget::UNLIMITED`] never does). On exhaustion the frontier's
/// minimum `arrival + h` key is an admissible lower bound on the
/// destination's arrival (for a consistent potential with `h(d) = 0` —
/// what every [`Potential`] in this crate provides), and the tentative
/// target label (if a path was found) an upper bound, so the caller gets a
/// bracketing interval, never a wrong exact claim. Completed runs perform
/// bit-identical float operations whatever the budget.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub fn search<P: Potential>(
    scratch: &mut SearchScratch,
    fg: &FrozenGraph,
    pot: &mut P,
    s: VertexId,
    d: VertexId,
    t: f64,
    budget: &QueryBudget,
) -> BoundedCost {
    if s == d {
        // Arrival = departure; skip the potential setup entirely (but drop
        // the previous query's counters so a later export sees this query).
        scratch.stats.reset();
        return BoundedCost::Exact(Some(0.0));
    }
    debug_assert!((s as usize) < fg.num_vertices() && (d as usize) < fg.num_vertices());
    let gen = scratch.reset(fg.num_vertices());
    pot.init(d, t);
    let hs = pot.h(s);
    if hs.is_infinite() {
        return BoundedCost::Exact(None);
    }
    let labels = &mut scratch.labels[..];
    labels[s as usize] = Label {
        best: t,
        parent: u32::MAX,
        stamp: gen,
    };
    scratch.heap.push(Entry::new(t + hs, s));
    // Best known (tentative) arrival at d: since h(d) = 0 and h is
    // admissible, no relaxation whose optimistic arrival `a + min + h(v)`
    // reaches it can improve the answer.
    let mut target_best = f64::INFINITY;
    let mut settles: u64 = 0;
    // One chunk's gathered edges, reused across settles (written before
    // they are read, so never cleared).
    let mut ids = [0u32; RELAX_CHUNK];
    let mut slots = [0u32; RELAX_CHUNK];
    let mut hvs = [0.0f64; RELAX_CHUNK];
    let mut vals = [0.0f64; RELAX_CHUNK];
    while let Some(entry) = scratch.heap.pop() {
        let (key, u) = (entry.key(), entry.vertex);
        let lu = &mut labels[u as usize];
        if lu.stamp == gen + 1 {
            continue; // already settled; stale heap entry
        }
        // Budget checkpoint. Settling the destination itself is always
        // free — it finishes the query without relaxing a single edge.
        if u != d && budget.exhausted(settles) {
            return BoundedCost::exhausted_from_arrivals(key, target_best, t);
        }
        settles += 1;
        scratch.stats.settle(1);
        lu.stamp = gen + 1;
        let a = lu.best;
        if u == d {
            return BoundedCost::Exact(Some(a - t));
        }
        let (heads, edges, mins) = fg.out_slices_with_min(u);
        // Batched relaxation: per chunk, the streaming min-bound +
        // potential prunes gather the surviving edges' weight-function ids,
        // one `eval_ids_at` arena pass produces their costs at `a`, then the
        // label updates run in edge order against the freshest `best`.
        let deg = heads.len();
        let mut base = 0usize;
        while base < deg {
            let stop = (base + RELAX_CHUNK).min(deg);
            let mut m = 0usize;
            for idx in base..stop {
                // debug_assert-documented indexing: the three out-slices
                // share one length, and idx < stop ≤ deg.
                debug_assert!(idx < heads.len() && idx < edges.len() && idx < mins.len());
                let v = heads[idx];
                let lv = labels[v as usize];
                if lv.stamp == gen + 1 {
                    continue;
                }
                // Min-bound prune before touching breakpoints or the
                // potential: the true candidate is ≥ a + min_cost(e).
                let lb = a + mins[idx];
                let known = if lv.stamp == gen {
                    lv.best
                } else {
                    f64::INFINITY
                };
                if lb >= known || lb >= target_best {
                    scratch.stats.prune(1);
                    continue;
                }
                let hv = pot.h(v);
                if hv.is_infinite() || lb + hv >= target_best {
                    scratch.stats.prune(1);
                    continue;
                }
                // debug_assert-documented indexing: m ≤ idx - base < RELAX_CHUNK.
                debug_assert!(m < RELAX_CHUNK);
                ids[m] = edges[idx];
                slots[m] = idx as u32;
                hvs[m] = hv;
                m += 1;
            }
            eval_ids_at(&fg.weights, &ids[..m], a, &mut vals[..m]);
            scratch.stats.relax((stop - base) as u64);
            scratch.stats.eval_batched(m as u64);
            for j in 0..m {
                // debug_assert-documented indexing: j < m ≤ RELAX_CHUNK, and
                // slots[j] was written from an in-range idx above.
                debug_assert!(j < slots.len() && j < vals.len() && j < hvs.len());
                let idx = slots[j] as usize;
                debug_assert!(idx < heads.len());
                let v = heads[idx];
                let cand = a + vals[j];
                let lv = &mut labels[v as usize];
                // A gathered head is unsettled: its stamp is gen or older.
                let known = if lv.stamp == gen {
                    lv.best
                } else {
                    f64::INFINITY
                };
                if cand < known {
                    *lv = Label {
                        best: cand,
                        parent: u,
                        stamp: gen,
                    };
                    if v == d {
                        target_best = cand;
                    }
                    scratch.stats.heap_push(1);
                    scratch.heap.push(Entry::new(cand + hvs[j], v));
                }
            }
            base = stop;
        }
    }
    BoundedCost::Exact(None)
}

// Compile-time pin: per-worker scratch moves to its thread.
const _: () = {
    const fn moves_to_worker<T: Send>() {}
    moves_to_worker::<SearchScratch>();
    moves_to_worker::<crate::potential::ChPotentialScratch>();
    moves_to_worker::<crate::potential::FullPotentialScratch>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{
        ChPotential, ChPotentialScratch, FullPotential, FullPotentialScratch, ZeroPotential,
    };
    use crate::scalar::{shortest_path, shortest_path_cost};
    use td_ch::ContractionHierarchy;
    use td_graph::TdGraph;
    use td_plf::Plf;

    fn diamond() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 1, Plf::from_pairs(&[(0.0, 10.0), (50.0, 30.0)]).unwrap())
            .unwrap();
        g.add_edge(0, 2, Plf::constant(12.0)).unwrap();
        g.add_edge(1, 3, Plf::constant(5.0)).unwrap();
        g.add_edge(2, 3, Plf::from_pairs(&[(0.0, 20.0), (50.0, 2.0)]).unwrap())
            .unwrap();
        g
    }

    /// An unbudgeted [`search`]: always `Exact`.
    fn cost<P: Potential>(
        sc: &mut SearchScratch,
        fg: &FrozenGraph,
        pot: &mut P,
        (s, d, t): (VertexId, VertexId, f64),
    ) -> Option<f64> {
        match search(sc, fg, pot, s, d, t, &QueryBudget::UNLIMITED) {
            BoundedCost::Exact(c) => c,
            other => panic!("unlimited budget exhausted: {other:?}"),
        }
    }

    #[test]
    fn every_potential_matches_the_reference() {
        let g = diamond();
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = SearchScratch::default();
        let mut full_sc = FullPotentialScratch::default();
        let mut ch_sc = ChPotentialScratch::default();
        for t in [0.0, 10.0, 25.0, 50.0, 80.0] {
            for s in 0..4u32 {
                for d in 0..4u32 {
                    let q = (s, d, t);
                    let zero = cost(&mut sc, &fg, &mut ZeroPotential, q);
                    match (shortest_path_cost(&g, s, d, t), zero) {
                        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12, "{q:?}: {a} vs {b}"),
                        (None, None) => {}
                        other => panic!("{q:?}: {other:?}"),
                    }
                    let mut full = FullPotential::new(&fg, &mut full_sc);
                    let got_full = cost(&mut sc, &fg, &mut full, q);
                    let mut lazy = ChPotential::new(&ch, &mut ch_sc);
                    let got_ch = cost(&mut sc, &fg, &mut lazy, q);
                    assert_eq!(
                        zero.map(f64::to_bits),
                        got_full.map(f64::to_bits),
                        "full {q:?}"
                    );
                    assert_eq!(zero.map(f64::to_bits), got_ch.map(f64::to_bits), "ch {q:?}");
                }
            }
        }
    }

    #[test]
    fn found_paths_replay_to_the_reported_cost() {
        let g = diamond();
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = SearchScratch::default();
        let mut ch_sc = ChPotentialScratch::default();
        for t in [0.0, 25.0, 60.0] {
            for s in 0..4u32 {
                for d in 0..4u32 {
                    let want = shortest_path(&g, s, d, t).map(|(c, _)| c);
                    for lazy in [false, true] {
                        let got = if lazy {
                            let mut pot = ChPotential::new(&ch, &mut ch_sc);
                            cost(&mut sc, &fg, &mut pot, (s, d, t))
                        } else {
                            cost(&mut sc, &fg, &mut ZeroPotential, (s, d, t))
                        };
                        assert_eq!(want.is_some(), got.is_some(), "s={s} d={d} t={t}");
                        let Some(c) = got else { continue };
                        let path = sc.path_to(s, d);
                        assert_eq!((path.source(), path.destination()), (s, d));
                        assert!(path.is_valid(&g));
                        // Tie breaks may pick different equal-cost paths;
                        // every one must replay to the reported cost.
                        let replay = path.cost(&g, t).unwrap();
                        assert!((c - replay).abs() < 1e-9, "t={t}: {c} vs {replay}");
                        assert!((c - want.unwrap()).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn unreachable_is_none_and_self_is_zero() {
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = SearchScratch::default();
        let mut pot_sc = ChPotentialScratch::default();
        for (q, want) in [
            ((0, 2, 0.0), None),
            ((2, 0, 0.0), None),
            ((1, 1, 9.0), Some(0.0)),
        ] {
            let mut pot = ChPotential::new(&ch, &mut pot_sc);
            assert_eq!(cost(&mut sc, &fg, &mut pot, q), want, "ch {q:?}");
            assert_eq!(
                cost(&mut sc, &fg, &mut ZeroPotential, q),
                want,
                "zero {q:?}"
            );
        }
        // s == d returns before any setup: no work is counted.
        assert_eq!(sc.stats, SearchStats::default());
    }

    #[test]
    fn bounded_search_brackets_the_exact_answer() {
        let g = diamond();
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = SearchScratch::default();
        let mut ch_sc = ChPotentialScratch::default();
        for t in [0.0, 10.0, 40.0, 70.0] {
            for s in 0..4u32 {
                for d in 0..4u32 {
                    let exact = cost(&mut sc, &fg, &mut ZeroPotential, (s, d, t));
                    for cap in [0u64, 1, 2, 3, u64::MAX] {
                        let budget = QueryBudget::settles(cap);
                        let mut pot = ChPotential::new(&ch, &mut ch_sc);
                        for got in [
                            search(&mut sc, &fg, &mut ZeroPotential, s, d, t, &budget),
                            search(&mut sc, &fg, &mut pot, s, d, t, &budget),
                        ] {
                            match got {
                                BoundedCost::Exact(got) => assert_eq!(
                                    got.map(f64::to_bits),
                                    exact.map(f64::to_bits),
                                    "s={s} d={d} t={t} cap={cap}"
                                ),
                                BoundedCost::Exhausted { lower, upper } => {
                                    assert!(lower <= upper, "s={s} d={d} t={t} cap={cap}");
                                    match exact {
                                        Some(c) => assert!(
                                            lower <= c + 1e-9 && c <= upper + 1e-9,
                                            "s={s} d={d} t={t} cap={cap}: {c} not in [{lower}, {upper}]"
                                        ),
                                        // Exhaustion must never imply reachability.
                                        None => assert!(upper.is_infinite()),
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
