#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! A\* potentials: admissible, consistent lower bounds on the remaining
//! time-dependent cost to a fixed destination.
//!
//! [`ZeroPotential`] (`h ≡ 0`) is trivially both, and turns
//! [`crate::search`] into plain time-dependent Dijkstra. The other two
//! bound via the *scalar min-cost graph* (every edge weighted by
//! `min_t w_e(t)`), whose exact distances to `d` are admissible
//! (`w_e(t) ≥ min_t w_e(t)`) and consistent (`h(u) ≤ w_min(u,v) + h(v)` is
//! the triangle inequality of a true distance), so A\* keyed by
//! `arrival + h` is correct on FIFO graphs:
//!
//! * [`FullPotential`] — the test reference for [`ChPotential`]: one
//!   **full** backward Dijkstra over the reverse min-cost graph per
//!   destination. O(n log n) per query before the forward search even
//!   starts; generation-stamped scratch keeps it allocation-free.
//! * [`ChPotential`] — the fast path: one backward *upward* search in a
//!   prebuilt [`ContractionHierarchy`] (settling only the destination's
//!   upward cone — typically a small fraction of the graph), then `h(v)`
//!   resolved lazily and memoized per vertex the forward search actually
//!   touches. This is the CH-Potentials scheme of Strasser, Wagner & Zeitz.

use std::collections::BinaryHeap;
use td_ch::ContractionHierarchy;
use td_graph::{FrozenGraph, VertexId};

use crate::astar::Entry;

/// A destination-anchored lower bound `h(v)` on the remaining TD cost
/// `v → d` for searches departing no earlier than `t`, with `h(d) = 0` and
/// `f64::INFINITY` when `d` is unreachable from `v`.
///
/// Implementations must be **admissible** (`h(v) ≤` every TD cost `v → d`
/// entered at any time `≥ t` — FIFO arrival times along a search never
/// precede the departure) and **consistent**
/// (`h(u) ≤ min_{τ ≥ t} w_{u,v}(τ) + h(v)` for every edge); both
/// properties are proptested in `tests/proptest_astar_ch.rs`.
pub trait Potential {
    /// Re-anchors the potential at destination `d` for a query departing
    /// at `t`. Called once per query by [`crate::search`].
    fn init(&mut self, d: VertexId, t: f64);

    /// The lower bound for `v`. `&mut` because lazy implementations resolve
    /// and memoize on first access.
    fn h(&mut self, v: VertexId) -> f64;
}

/// The zero potential: no goal direction, so [`crate::search`] settles by
/// arrival time alone — plain time-dependent Dijkstra. Never reports a
/// vertex as unable to reach `d`; the search runs dry instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZeroPotential;

impl Potential for ZeroPotential {
    #[inline]
    fn init(&mut self, _d: VertexId, _t: f64) {}

    #[inline]
    fn h(&mut self, _v: VertexId) -> f64 {
        0.0
    }
}

/// Steps a shared generation counter, clearing the stamp array wholesale on
/// wrap-around so stale stamps can never collide with a live generation.
/// Every gen-stamped scratch in this crate routes through this (the search
/// scratch steps by 2 and keeps its own variant, documented there).
pub(crate) fn bump_generation(gen: &mut u32, stamps: &mut [u32]) -> u32 {
    *gen = if *gen == u32::MAX {
        stamps.fill(0);
        1
    } else {
        *gen + 1
    };
    *gen
}

// ----------------------------------------------------------------------
// Full backward Dijkstra (test reference)
// ----------------------------------------------------------------------

/// Reusable state of the full-backward-Dijkstra potential: distance array,
/// generation stamps (replacing the per-query `vec![false; n]` visited
/// marks) and the heap survive across queries, so re-anchoring allocates
/// nothing once warmed.
#[derive(Clone, Debug, Default)]
pub struct FullPotentialScratch {
    h: Vec<f64>,
    h_gen: Vec<u32>,
    gen: u32,
    heap: BinaryHeap<Entry>,
}

impl FullPotentialScratch {
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn reset(&mut self, n: usize) -> u32 {
        if self.h.len() != n {
            self.h = vec![f64::INFINITY; n];
            self.h_gen = vec![0; n];
            self.gen = 0;
        }
        self.heap.clear();
        bump_generation(&mut self.gen, &mut self.h_gen)
    }
}

/// The reference potential: exact whole-day-min-graph distances to `d` by
/// one full backward Dijkstra over the frozen reverse adjacency at `init`
/// (the departure time is ignored — this is the classic loose bound); `h`
/// is then an O(1) lookup.
pub struct FullPotential<'a> {
    fg: &'a FrozenGraph,
    scratch: &'a mut FullPotentialScratch,
}

impl<'a> FullPotential<'a> {
    /// Binds the graph to (reusable) scratch.
    pub fn new(fg: &'a FrozenGraph, scratch: &'a mut FullPotentialScratch) -> Self {
        FullPotential { fg, scratch }
    }
}

impl Potential for FullPotential<'_> {
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn init(&mut self, d: VertexId, _t: f64) {
        debug_assert!((d as usize) < self.fg.num_vertices());
        let sc = &mut *self.scratch;
        let gen = sc.reset(self.fg.num_vertices());
        sc.h[d as usize] = 0.0;
        sc.h_gen[d as usize] = gen;
        sc.heap.push(Entry::new(0.0, d));
        while let Some(entry) = sc.heap.pop() {
            let (key, u) = (entry.key(), entry.vertex);
            if key > sc.h[u as usize] {
                continue; // stale
            }
            let (tails, edges) = self.fg.csr.in_slices(u);
            for (&p, &e) in tails.iter().zip(edges.iter()) {
                let cand = key + self.fg.min_cost(e);
                let known = if sc.h_gen[p as usize] == gen {
                    sc.h[p as usize]
                } else {
                    f64::INFINITY
                };
                if cand < known {
                    sc.h[p as usize] = cand;
                    sc.h_gen[p as usize] = gen;
                    sc.heap.push(Entry::new(cand, p));
                }
            }
        }
    }

    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn h(&mut self, v: VertexId) -> f64 {
        debug_assert!((v as usize) < self.scratch.h_gen.len());
        if self.scratch.h_gen[v as usize] == self.scratch.gen {
            self.scratch.h[v as usize]
        } else {
            f64::INFINITY
        }
    }
}

// ----------------------------------------------------------------------
// Lazy CH potential (the fast path)
// ----------------------------------------------------------------------

/// Reusable state of the lazy CH potential: the backward-upward distance
/// array, the memoized potentials, both generation-stamped, plus the heap
/// and the resolution stack. Zero allocations per query once warmed.
#[derive(Clone, Debug, Default)]
pub struct ChPotentialScratch {
    /// `b[v]` = distance `v → d` in the downward graph (set for vertices
    /// settled by the backward-upward search).
    b: Vec<f64>,
    b_gen: Vec<u32>,
    /// Memoized `h(v)` for vertices the forward search touched.
    memo: Vec<f64>,
    memo_gen: Vec<u32>,
    gen: u32,
    heap: BinaryHeap<Entry>,
    stack: Vec<VertexId>,
    /// Vertices settled by the last `init` — the per-query setup cost.
    init_settled: usize,
    /// Potentials `h` resolved since the last `init`.
    resolved: usize,
}

impl ChPotentialScratch {
    /// Vertices settled by the backward-upward search of the last `init` —
    /// the whole per-query setup, run in the metric of the suffix window the
    /// departure falls in. They are not in the search's `settled` (the
    /// forward search alone) but in its `potential_settled`, which
    /// [`ChPotentialScratch::record`] fills. The unit test
    /// `init_settles_a_fraction_of_the_graph` checks that it settles the
    /// destination and never more than the graph; `tests/window_gain.rs`
    /// asserts that on CAL 0.25's 1 000-query mix it settles at most 2 % of
    /// the vertices a query on average.
    pub fn last_init_settled(&self) -> usize {
        self.init_settled
    }

    /// Adds the last query's potential work to its counters: the settles of
    /// `init`'s backward search (`potential_settled`) and the vertices `h`
    /// resolved since (`potential_resolved`).
    pub fn record(&self, stats: &mut td_obs::SearchStats) {
        stats.potential_settle(self.init_settled as u64);
        stats.potential_resolve(self.resolved as u64);
    }

    /// Restores a logically fresh state after a contained panic while
    /// keeping every warmed allocation: both generation-stamp arrays are
    /// zeroed and the generation restarts, so any torn values in `b` /
    /// `memo` become unreachable — the same wholesale invalidation the
    /// wrap-around path of `reset` performs. Capacity survives.
    pub fn sanitize(&mut self) {
        self.heap.clear();
        self.stack.clear();
        self.b_gen.fill(0);
        self.memo_gen.fill(0);
        self.gen = 0;
        self.init_settled = 0;
        self.resolved = 0;
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
        if self.memo.len() != n {
            self.b = vec![f64::INFINITY; n];
            self.b_gen = vec![0; n];
            self.memo = vec![f64::INFINITY; n];
            self.memo_gen = vec![0; n];
            self.gen = 0;
        }
        self.heap.clear();
        self.stack.clear();
        let g = bump_generation(&mut self.gen, &mut self.b_gen);
        // One generation counter stamps both arrays; they were reset
        // together, so the wrap-around fill above must cover both.
        if g == 1 {
            self.memo_gen.fill(0);
        }
        g
    }
}

/// The lazy CH potential: `init(d, t)` selects the tightest suffix-window
/// metric whose start is at or before `t` and runs one backward upward
/// search from `d` (distances `b[·]` within that metric's downward graph);
/// `h(v)` then resolves `h(v) = min(b[v], min_{(v,u) ∈ G↑} w(v,u) + h(u))`
/// by a memoized depth-first pass over the (acyclic) upward graph — each
/// vertex is resolved at most once per query, and only if the forward
/// search asks for it.
pub struct ChPotential<'a> {
    ch: &'a ContractionHierarchy,
    metric: &'a td_ch::MetricCsr,
    scratch: &'a mut ChPotentialScratch,
}

impl<'a> ChPotential<'a> {
    /// Binds the hierarchy to (reusable) scratch.
    pub fn new(ch: &'a ContractionHierarchy, scratch: &'a mut ChPotentialScratch) -> Self {
        ChPotential {
            ch,
            metric: ch.metric(0),
            scratch,
        }
    }
}

impl Potential for ChPotential<'_> {
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn init(&mut self, d: VertexId, t: f64) {
        debug_assert!((d as usize) < self.ch.num_vertices());
        self.metric = self.ch.metric_for(t);
        let sc = &mut *self.scratch;
        let gen = sc.reset(self.ch.num_vertices());
        sc.init_settled = 0;
        sc.resolved = 0;
        sc.b[d as usize] = 0.0;
        sc.b_gen[d as usize] = gen;
        sc.heap.push(Entry::new(0.0, d));
        while let Some(entry) = sc.heap.pop() {
            let (key, v) = (entry.key(), entry.vertex);
            if key > sc.b[v as usize] {
                continue; // stale
            }
            sc.init_settled += 1;
            let (tails, weights) = self.metric.backward_up_edges(v);
            for (&u, &w) in tails.iter().zip(weights.iter()) {
                let cand = key + w;
                let known = if sc.b_gen[u as usize] == gen {
                    sc.b[u as usize]
                } else {
                    f64::INFINITY
                };
                if cand < known {
                    sc.b[u as usize] = cand;
                    sc.b_gen[u as usize] = gen;
                    sc.heap.push(Entry::new(cand, u));
                }
            }
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
    fn h(&mut self, v: VertexId) -> f64 {
        let sc = &mut *self.scratch;
        let gen = sc.gen;
        debug_assert!((v as usize) < sc.memo_gen.len());
        if sc.memo_gen[v as usize] == gen {
            return sc.memo[v as usize];
        }
        // Iterative DFS over the upward DAG: a vertex is computed once all
        // its up-neighbours are memoized; a vertex found already-memoized on
        // the stack (pushed twice via two parents) just pops.
        // One scan per visit folds the minimum while it looks for pending
        // up-neighbours; a visit that finds one drops its fold and comes
        // back once they are memoized.
        sc.stack.push(v);
        while let Some(&x) = sc.stack.last() {
            if sc.memo_gen[x as usize] == gen {
                sc.stack.pop();
                continue;
            }
            let (heads, weights) = self.metric.up_edges(x);
            let mut pending = false;
            let mut best = if sc.b_gen[x as usize] == gen {
                sc.b[x as usize]
            } else {
                f64::INFINITY
            };
            for (&u, &w) in heads.iter().zip(weights.iter()) {
                if sc.memo_gen[u as usize] != gen {
                    sc.stack.push(u);
                    pending = true;
                } else if !pending {
                    best = best.min(w + sc.memo[u as usize]);
                }
            }
            if pending {
                continue;
            }
            sc.memo[x as usize] = best;
            sc.memo_gen[x as usize] = gen;
            sc.resolved += 1;
            sc.stack.pop();
        }
        sc.memo[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::shortest_path_cost;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    /// Both potentials must agree with each other (both are exact min-graph
    /// distances) and lower-bound the true TD cost.
    #[test]
    fn potentials_agree_and_lower_bound() {
        for seed in 0..3u64 {
            let g = seeded_graph(seed, 45, 32, 3);
            let fg = g.freeze();
            let ch = ContractionHierarchy::build(&fg);
            let mut full_sc = FullPotentialScratch::default();
            let mut ch_sc = ChPotentialScratch::default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e);
            for _ in 0..6 {
                let d = rng.gen_range(0..45) as u32;
                let mut full = FullPotential::new(&fg, &mut full_sc);
                let mut lazy = ChPotential::new(&ch, &mut ch_sc);
                full.init(d, 0.0);
                lazy.init(d, 0.0);
                for v in 0..45u32 {
                    let a = full.h(v);
                    let b = lazy.h(v);
                    if a.is_infinite() || b.is_infinite() {
                        assert!(
                            a.is_infinite() && b.is_infinite(),
                            "v={v} d={d}: {a} vs {b}"
                        );
                        continue;
                    }
                    assert!((a - b).abs() < 1e-9, "v={v} d={d}: {a} vs {b}");
                    let t = rng.gen_range(0.0..DAY);
                    if let Some(c) = shortest_path_cost(&g, v, d, t) {
                        assert!(b <= c + 1e-9, "h({v})={b} exceeds TD cost {c} at t={t}");
                    }
                }
            }
        }
    }

    /// Consistency: `h(u) ≤ w_min(u,v) + h(v)` for every edge.
    #[test]
    fn ch_potential_is_consistent() {
        let g = seeded_graph(11, 40, 30, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = ChPotentialScratch::default();
        for d in [0u32, 7, 19, 39] {
            let mut pot = ChPotential::new(&ch, &mut sc);
            pot.init(d, 0.0);
            for u in 0..40u32 {
                let hu = pot.h(u);
                let (heads, edges, mins) = fg.out_slices_with_min(u);
                for ((&v, &_e), &min) in heads.iter().zip(edges.iter()).zip(mins.iter()) {
                    let hv = pot.h(v);
                    assert!(
                        hu <= min + hv + 1e-9,
                        "inconsistent at ({u},{v}), d={d}: {hu} > {min} + {hv}"
                    );
                }
            }
        }
    }

    #[test]
    fn init_settles_a_fraction_of_the_graph() {
        let g = seeded_graph(3, 60, 45, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = ChPotentialScratch::default();
        let mut pot = ChPotential::new(&ch, &mut sc);
        pot.init(30, 0.0);
        let settled = sc.last_init_settled();
        assert!(settled > 0, "backward search must settle the destination");
        assert!(settled <= 60, "cannot settle more than the graph");
    }

    /// `record` reports the last `init`'s settles and one resolution per
    /// memoized vertex: asking again, or for a vertex already resolved on
    /// the way, resolves nothing.
    #[test]
    fn record_counts_settles_and_resolutions() {
        let g = seeded_graph(3, 60, 45, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut sc = ChPotentialScratch::default();
        let mut pot = ChPotential::new(&ch, &mut sc);
        pot.init(30, 0.0);
        for v in 0..60 {
            pot.h(v);
        }
        pot.h(7);
        let mut stats = td_obs::SearchStats::default();
        sc.record(&mut stats);
        assert_eq!(stats.potential_settled, sc.last_init_settled() as u64);
        assert_eq!(stats.potential_resolved, 60);
        // A new `init` starts the count afresh.
        let mut pot = ChPotential::new(&ch, &mut sc);
        pot.init(5, 0.0);
        let mut stats = td_obs::SearchStats::default();
        sc.record(&mut stats);
        assert_eq!(stats.potential_resolved, 0);
    }
}
