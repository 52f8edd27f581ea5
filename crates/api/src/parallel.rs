//! Concurrent serving: [`ParallelExecutor`] and the epoch/copy-on-write
//! [`LiveIndex`].
//!
//! Every built index is immutable at query time and `Send + Sync` (a
//! supertrait obligation of [`RoutingIndex`]), so one index — typically an
//! `Arc<dyn RoutingIndex>` — can be shared across any number of threads.
//! What each thread needs privately is scratch space. [`ParallelExecutor`]
//! packages that pattern: a pool of per-worker [`SessionScratch`] states,
//! reused across batches, driven over a query slice under
//! [`std::thread::scope`]. No work-stealing deques are needed — workers pull
//! small contiguous chunks of the result slice off one shared iterator, so
//! fast workers naturally take more of the slice and per-query results land
//! at their input positions. Two batch calls cover the cost path:
//! [`ParallelExecutor::query_batch_into`] (bare `Option<f64>` answers, a
//! panic propagates) and [`ParallelExecutor::query_batch_bounded_into`]
//! (validated, budget-bounded per slot, panic-contained).
//!
//! [`LiveIndex`] adds the writer side: one published copy of an
//! [`IncrementalIndex`]. Readers clone an [`Arc`] snapshot of it and query
//! it lock-free; [`LiveIndex::apply`] clones it into a private copy, repairs
//! that with [`IncrementalIndex::update_edges`] and publishes it atomically
//! (bumping the epoch); the retired copy is freed once the readers still
//! holding it drain. Queries never observe a half-updated index and never
//! block on the repair.

use crate::bounded::{BoundedAnswer, QueryError};
use crate::index::{IncrementalIndex, RoutingIndex};
use crate::session::SessionScratch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use td_core::UpdateStats;
use td_dijkstra::QueryBudget;
use td_graph::VertexId;
use td_plf::Plf;

/// A `(source, destination, departure)` travel-cost query.
pub type CostQuery = (VertexId, VertexId, f64);

/// Renders a caught panic payload for a typed error. Panic messages are
/// `&str` or `String` in practice; anything else stays opaque.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Builds the replacement for a scratch torn by a panic: a fresh scratch,
/// pre-warmed by one contained probe query so its arrays are already sized
/// to the graph. Without the probe the worker's first post-panic query pays
/// the cold-start allocations a warmed pool exists to avoid (the
/// `budget_overhead` bench gates this path). If the probe itself panics
/// (a hostile index may fail deterministically on it), fall back to the
/// cold scratch — correctness first, warmth best-effort.
fn replacement_scratch<I: RoutingIndex + ?Sized>(index: &I) -> SessionScratch {
    let mut scratch = index.new_scratch();
    let n = index.graph().num_vertices();
    if n > 0 {
        let d = (n - 1) as VertexId;
        let probe = catch_unwind(AssertUnwindSafe(|| {
            index.query_cost_in(&mut scratch, 0, d, 0.0);
            index.take_search_stats(&mut scratch);
        }));
        if probe.is_err() {
            return index.new_scratch();
        }
    }
    scratch
}

/// A pool of reusable [`QuerySession`](crate::QuerySession)-style scratch
/// states answering query batches on `N` threads.
///
/// The executor owns one [`SessionScratch`] per worker; batches are handed
/// to the workers chunk by chunk, so a slow query (long-range, cold cache)
/// does not stall the rest of the slice. Scratches persist across batch
/// calls — after the first few batches the cost path performs **zero heap
/// allocations per query in every worker**, exactly like a warmed
/// single-threaded session.
///
/// ```
/// # use td_api::{build_index, Backend, IndexConfig, ParallelExecutor};
/// # let mut g = td_graph::TdGraph::with_vertices(2);
/// # g.add_edge(0, 1, td_plf::Plf::constant(60.0)).unwrap();
/// # g.add_edge(1, 0, td_plf::Plf::constant(45.0)).unwrap();
/// let index = build_index(g, Backend::TdBasic, &IndexConfig::default());
/// let mut exec = ParallelExecutor::new(index.as_ref(), 4);
/// let mut costs = Vec::new();
/// exec.query_batch_into(&[(0, 1, 0.0), (1, 0, 3600.0)], &mut costs);
/// assert_eq!(costs, vec![Some(60.0), Some(45.0)]);
/// ```
pub struct ParallelExecutor<'a, I: RoutingIndex + ?Sized> {
    index: &'a I,
    workers: Vec<SessionScratch>,
}

impl<'a, I: RoutingIndex + ?Sized> ParallelExecutor<'a, I> {
    /// An executor over `index` with `threads` workers (0 = all cores).
    pub fn new(index: &'a I, threads: usize) -> ParallelExecutor<'a, I> {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        ParallelExecutor {
            index,
            workers: (0..threads).map(|_| index.new_scratch()).collect(),
        }
    }

    /// The shared index.
    pub fn index(&self) -> &'a I {
        self.index
    }

    /// Number of pooled workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(scratch, w, i)` for every slot `i` of `out`, fanned out over
    /// the worker pool, writing each result to `out[i]`. `w` is the metric
    /// shard of the thread running the slot — a spawned worker's stable pool
    /// index, or inline the calling thread's own ([`td_obs::thread_shard`])
    /// — so telemetry exports stay contention-free across workers, and
    /// across callers that each drive a one-thread executor.
    fn run<T, F>(&mut self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut SessionScratch, usize, usize) -> T + Sync,
    {
        let n = out.len();
        if self.workers.len() <= 1 || n <= 1 {
            // Inline fast path: no reason to pay a thread spawn.
            let scratch = &mut self.workers[0];
            let w = td_obs::thread_shard();
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(scratch, w, i);
            }
            return;
        }
        // Chunked hand-out: coarse enough to keep contention off the hot
        // path, fine enough that stragglers rebalance. The lock covers one
        // iterator step and is released before the chunk runs.
        let chunk = (n / (self.workers.len() * 8)).clamp(1, 64);
        let chunks = Mutex::new(out.chunks_mut(chunk).enumerate());
        let (chunks, f) = (&chunks, &f);
        std::thread::scope(|scope| {
            for (w, scratch) in self.workers.iter_mut().enumerate() {
                scope.spawn(move || loop {
                    let next = chunks
                        .lock()
                        .expect("stepping the chunk iterator cannot panic under the lock")
                        .next();
                    let Some((c, slots)) = next else { break };
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = f(scratch, w, c * chunk + j);
                    }
                });
            }
        });
    }

    /// Answers a batch of travel-cost queries on all workers, writing into a
    /// caller-owned buffer so steady-state serving with a constant batch
    /// size allocates nothing. Results are in input order and bit-identical
    /// to a single-threaded [`QuerySession`](crate::QuerySession) run.
    /// Inputs are not validated and a panicking query propagates; use
    /// [`ParallelExecutor::query_batch_bounded_into`] for untrusted input.
    pub fn query_batch_into(&mut self, queries: &[CostQuery], out: &mut Vec<Option<f64>>) {
        out.clear();
        out.resize(queries.len(), None);
        let index = self.index;
        self.run(out, |scratch, w, i| {
            let (s, d, t) = queries[i];
            let (cost, trace) = index.query_cost_traced_in(scratch, s, d, t);
            td_obs::metrics().record_query(w, &trace);
            cost
        });
    }

    /// Budget-bounded, panic-contained batch with a budget *per slot*: each
    /// `(query, budget)` runs [`RoutingIndex::query_cost_bounded_in`]
    /// (validation and the exact → bounded → error degradation ladder
    /// included) inside [`std::panic::catch_unwind`], so one poisoned query
    /// (a backend bug, a corrupt weight) surfaces as a typed
    /// [`QueryError::Panicked`] in its own slot while the other results of
    /// the batch arrive untouched and bit-identical to a clean run. Under
    /// [`QueryBudget::UNLIMITED`] every answered slot is
    /// [`BoundedAnswer::Exact`] and equals
    /// [`ParallelExecutor::query_batch_into`]'s bit for bit. Per-slot
    /// budgets are how a serving layer propagates each request's own client
    /// deadline into the search (see [`QueryBudget::tightened_to`]) while
    /// batching requests with different deadlines together.
    ///
    /// A worker whose scratch was mid-mutation when the panic unwound has it
    /// sanitized in place (generation stamps make torn state unreachable
    /// while the warmed capacity survives) or replaced with a probe-warmed
    /// fresh one, so later queries never see torn state and post-panic
    /// batches don't re-pay the warm-up allocations. `out` is cleared and
    /// refilled in input order; its capacity is reused across calls.
    pub fn query_batch_bounded_into(
        &mut self,
        queries: &[(CostQuery, QueryBudget)],
        out: &mut Vec<Result<BoundedAnswer, QueryError>>,
    ) {
        out.clear();
        out.resize(queries.len(), Ok(BoundedAnswer::Exact(None)));
        let index = self.index;
        self.run(out, |scratch, w, i| {
            let ((s, d, t), budget) = queries[i];
            let start = std::time::Instant::now();
            let answer = match catch_unwind(AssertUnwindSafe(|| {
                index.query_cost_bounded_in(scratch, s, d, t, &budget)
            })) {
                Ok(answer) => answer,
                Err(payload) => {
                    // The scratch may hold half-written search state:
                    // sanitize it in place (keeps the warmed capacity) or,
                    // for backends without wholesale invalidation, replace
                    // it with a probe-warmed fresh one.
                    if !scratch.try_sanitize() {
                        *scratch = replacement_scratch(index);
                    }
                    Err(QueryError::Panicked(panic_message(payload)))
                }
            };
            let m = td_obs::metrics();
            match &answer {
                Ok(BoundedAnswer::Exact(_)) => &m.ladder_exact,
                Ok(BoundedAnswer::Approximate { .. }) => &m.ladder_approximate,
                Err(QueryError::BudgetExhausted) => &m.ladder_budget_exhausted,
                Err(QueryError::Panicked(_)) => &m.ladder_panicked,
                Err(QueryError::InvalidQuery(_)) => &m.ladder_invalid,
            }
            .add_shard(w, 1);
            let trace = td_obs::QueryTrace {
                stats: index.take_search_stats(scratch).unwrap_or_default(),
                nanos: start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            };
            m.record_query(w, &trace);
            answer
        });
    }

    /// Answers a batch of cost-function (profile) queries on all workers,
    /// exporting each search backend's counters like the cost batches do.
    pub fn profile_batch(&mut self, pairs: &[(VertexId, VertexId)]) -> Vec<Option<Plf>> {
        let mut out = vec![None; pairs.len()];
        let index = self.index;
        self.run(&mut out, |scratch, w, i| {
            let (s, d) = pairs[i];
            let profile = index.query_profile_in(scratch, s, d);
            let stats = index.take_search_stats(scratch).unwrap_or_default();
            td_obs::metrics().record_search(w, &stats);
            profile
        });
        out
    }
}

/// An incrementally-updatable index served live: readers query immutable
/// snapshots while a writer repairs a private copy, published atomically
/// between update batches (copy-on-write).
///
/// The live index is one published [`Arc`], a writer lock and the epoch.
/// [`LiveIndex::snapshot`] hands readers a clone of the published `Arc` — a
/// lock is held only for that clone, never across a query.
/// [`LiveIndex::apply`]:
///
/// 1. clones the published index into a private copy and repairs it with
///    [`IncrementalIndex::update_edges`] (readers are unaffected — nothing
///    they can reach is written);
/// 2. publishes the copy and bumps the epoch (atomic with respect to
///    [`LiveIndex::snapshot_with_epoch`]); the retired index is freed when
///    the last reader still holding it lets go.
///
/// One copy lives between updates, two during a repair. Writers are
/// serialised by the writer lock. Writers never block readers, and readers
/// never block writers — a snapshot held forever (even by the writer's own
/// thread, across `apply`) keeps its epoch's index alive, not a stall.
///
/// **Failure model.** Both locks recover from poisoning with
/// [`PoisonError::into_inner`]: the protected values are a plain `Arc` slot
/// whose only mutation is a whole-value replacement and a unit, so a panic
/// mid-critical-section cannot leave them torn, and a crashed writer thread
/// must not wedge every future reader. A failing [`IncrementalIndex::
/// update_edges`] (surfaced by [`LiveIndex::try_apply`]) drops the private
/// copy: the published `Arc` and the epoch do not move and readers never
/// observe any part of the failed batch.
pub struct LiveIndex<I> {
    active: Mutex<Arc<I>>,
    writer: Mutex<()>,
    epoch: AtomicU64,
}

/// Why a live update batch was not applied.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateError {
    /// [`IncrementalIndex::update_edges`] panicked (e.g. a change referred
    /// to a nonexistent edge). The half-repaired private copy was dropped;
    /// the epoch did not move and readers were never exposed to the partial
    /// batch.
    UpdatePanicked(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UpdatePanicked(msg) => {
                write!(f, "live update panicked (batch discarded): {msg}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl<I> LiveIndex<I> {
    /// Wraps `index` as the published snapshot. Epoch 0 is the as-built
    /// state.
    pub fn new(index: I) -> LiveIndex<I> {
        LiveIndex {
            active: Mutex::new(Arc::new(index)),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current epoch: the number of applied update batches.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// An immutable snapshot of the active index. The snapshot stays valid —
    /// and frozen at its epoch's edge weights — for as long as the `Arc` is
    /// held, across any number of concurrent [`LiveIndex::apply`] calls.
    /// A poisoned lock (a reader or writer thread that panicked while
    /// holding it) is recovered, never propagated: the slot is always a
    /// whole, valid `Arc`.
    pub fn snapshot(&self) -> Arc<I> {
        self.active
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// [`LiveIndex::snapshot`] paired with the epoch it belongs to. The two
    /// are read under one lock, so a concurrent swap cannot tear the pair.
    pub fn snapshot_with_epoch(&self) -> (u64, Arc<I>) {
        let guard = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        (self.epoch.load(Ordering::Acquire), guard.clone())
    }
}

impl<I: IncrementalIndex + Clone> LiveIndex<I> {
    /// Applies one batch of absolute edge-weight changes, making them
    /// visible to new snapshots atomically. Returns the repair's statistics.
    /// Panics if the repair fails — but only *after* [`LiveIndex::try_apply`]
    /// has dropped the private copy and released both locks, so even then no
    /// lock is poisoned and readers keep answering from the published epoch.
    pub fn apply(&self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
        self.try_apply(changes)
            .unwrap_or_else(|e| panic!("live update failed: {e}"))
    }

    /// [`LiveIndex::apply`] with the failure rung made a typed value: if
    /// [`IncrementalIndex::update_edges`] panics (a change naming a
    /// nonexistent edge, a backend bug), the half-repaired private copy is
    /// dropped, the published snapshot and the epoch stay put, and the error
    /// reports the contained panic. Readers are unaffected throughout, and
    /// the next valid batch applies normally.
    pub fn try_apply(
        &self,
        changes: &[(VertexId, VertexId, Plf)],
    ) -> Result<UpdateStats, UpdateError> {
        let start = std::time::Instant::now();
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Only a writer replaces the published `Arc`, and this is the one
        // writer: the copy below starts level with what readers see.
        let published = self.snapshot();
        let repair = catch_unwind(AssertUnwindSafe(|| {
            let mut next = I::clone(&published);
            let stats = next.update_edges(changes);
            (next, stats)
        }));
        let (next, stats) = match repair {
            Ok(repaired) => repaired,
            Err(payload) => {
                // The unwind dropped the half-applied copy. Epoch unchanged.
                td_obs::metrics().live_rollbacks_total.inc();
                return Err(UpdateError::UpdatePanicked(panic_message(payload)));
            }
        };
        let next = Arc::new(next);
        let epoch = {
            let mut active = self.active.lock().unwrap_or_else(PoisonError::into_inner);
            *active = next;
            self.epoch.fetch_add(1, Ordering::Release) + 1
        };
        // `published` still holds the retired index, so the store above
        // freed nothing under the lock readers take.
        drop(published);
        let m = td_obs::metrics();
        m.live_updates_total.inc();
        m.live_update_seconds
            .observe(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        m.live_epoch.set(epoch.min(i64::MAX as u64) as i64);
        Ok(stats)
    }
}

// Compile-time pin: a live index is shared across reader and writer threads;
// `Sync` for any `Send + Sync` inner index.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<LiveIndex<crate::AStarChIndex>>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_index, Backend, IndexConfig, QuerySession};
    use td_graph::TdGraph;

    fn tiny_graph() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        for (u, v, w) in [
            (0u32, 1u32, 60.0),
            (1, 2, 30.0),
            (2, 3, 45.0),
            (3, 0, 90.0),
            (1, 0, 60.0),
            (2, 1, 30.0),
            (3, 2, 45.0),
            (0, 3, 90.0),
        ] {
            g.add_edge(u, v, Plf::constant(w)).unwrap();
        }
        g
    }

    fn batch(
        exec: &mut ParallelExecutor<'_, dyn RoutingIndex>,
        queries: &[CostQuery],
    ) -> Vec<Option<f64>> {
        let mut out = Vec::new();
        exec.query_batch_into(queries, &mut out);
        out
    }

    /// The contained call with one `budget` for every slot.
    fn bounded(
        exec: &mut ParallelExecutor<'_, dyn RoutingIndex>,
        queries: &[CostQuery],
        budget: QueryBudget,
    ) -> Vec<Result<BoundedAnswer, QueryError>> {
        let slots: Vec<_> = queries.iter().map(|&q| (q, budget)).collect();
        let mut out = Vec::new();
        exec.query_batch_bounded_into(&slots, &mut out);
        out
    }

    #[test]
    fn executor_matches_session_on_every_worker_count() {
        let index = build_index(tiny_graph(), Backend::TdBasic, &IndexConfig::default());
        let queries: Vec<CostQuery> = (0..4)
            .flat_map(|s| (0..4).map(move |d| (s, d, 3600.0 * (s + d) as f64)))
            .collect();
        let mut session = QuerySession::new(index.as_ref());
        let want = session.query_many(queries.iter().copied());
        for threads in [1, 2, 3, 8] {
            let mut exec = ParallelExecutor::new(index.as_ref(), threads);
            assert_eq!(exec.num_workers(), threads);
            // Twice: the second batch runs on warmed scratches.
            assert_eq!(batch(&mut exec, &queries), want, "{threads} threads");
            assert_eq!(batch(&mut exec, &queries), want, "{threads} threads warm");
        }
    }

    #[test]
    fn executor_handles_empty_and_unit_batches() {
        let index = build_index(tiny_graph(), Backend::TdBasic, &IndexConfig::default());
        let mut exec = ParallelExecutor::new(index.as_ref(), 4);
        assert_eq!(batch(&mut exec, &[]), Vec::<Option<f64>>::new());
        assert_eq!(batch(&mut exec, &[(0, 2, 0.0)]), vec![Some(90.0)]);
        assert!(bounded(&mut exec, &[], QueryBudget::UNLIMITED).is_empty());
    }

    #[test]
    fn live_index_snapshots_are_stable_across_apply() {
        use td_core::{IndexOptions, SelectionStrategy, TdTreeIndex};
        let g = tiny_graph();
        let index = TdTreeIndex::build(
            g,
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 500 },
                track_supports: true,
                ..Default::default()
            },
        );
        let live = LiveIndex::new(index);
        let (e0, before) = live.snapshot_with_epoch();
        assert_eq!(e0, 0);
        let old_cost = before.query_cost(0, 2, 0.0).unwrap();

        live.apply(&[(0, 1, Plf::constant(600.0))]);
        assert_eq!(live.epoch(), 1);
        // The held snapshot still answers with pre-update weights...
        assert_eq!(before.query_cost(0, 2, 0.0).unwrap(), old_cost);
        // ...while a fresh snapshot sees the jam (0->1->2 got slower; the
        // alternative 0->3->2 now wins at 90+45).
        let after = live.snapshot();
        let new_cost = after.query_cost(0, 2, 0.0).unwrap();
        assert!(new_cost > old_cost);
        assert!((new_cost - 135.0).abs() < 1e-9);

        // A second batch repairs a copy of the first batch's result.
        live.apply(&[(0, 1, Plf::constant(60.0))]);
        assert_eq!(live.epoch(), 2);
        assert_eq!(live.snapshot().query_cost(0, 2, 0.0).unwrap(), old_cost);
    }

    #[test]
    fn unlimited_bounded_batch_agrees_and_types_invalid_inputs() {
        let index = build_index(tiny_graph(), Backend::TdBasic, &IndexConfig::default());
        let queries: Vec<CostQuery> = vec![
            (0, 2, 0.0),
            (9, 0, 0.0), // source out of range
            (1, 3, 100.0),
            (0, 0, f64::NAN), // non-finite departure
            (2, 0, -5.0),     // negative departure
            (3, 1, 1_000.0),
        ];
        for threads in [1, 4] {
            let mut exec = ParallelExecutor::new(index.as_ref(), threads);
            let got = bounded(&mut exec, &queries, QueryBudget::UNLIMITED);
            for (i, (q, r)) in queries.iter().zip(got.iter()).enumerate() {
                match (i, r) {
                    (1 | 3 | 4, r) => assert!(
                        matches!(r, Err(QueryError::InvalidQuery(_))),
                        "slot {i}: {r:?}"
                    ),
                    (_, Ok(BoundedAnswer::Exact(cost))) => assert_eq!(
                        cost.map(f64::to_bits),
                        index.query_cost(q.0, q.1, q.2).map(f64::to_bits),
                        "slot {i}"
                    ),
                    (_, r) => panic!("slot {i}: unlimited budget degraded to {r:?}"),
                }
            }
        }
    }

    #[test]
    fn bounded_batch_walks_the_degradation_ladder() {
        let index = build_index(tiny_graph(), Backend::AStarCh, &IndexConfig::default());
        let queries: Vec<CostQuery> = vec![(0, 2, 0.0), (4, 0, 0.0), (3, 1, 50.0)];
        let mut exec = ParallelExecutor::new(index.as_ref(), 2);
        // Unlimited: exact everywhere (except the invalid slot).
        let got = bounded(&mut exec, &queries, QueryBudget::UNLIMITED);
        assert_eq!(
            got[0],
            Ok(BoundedAnswer::Exact(index.query_cost(0, 2, 0.0)))
        );
        assert!(matches!(got[1], Err(QueryError::InvalidQuery(_))));
        assert_eq!(
            got[2],
            Ok(BoundedAnswer::Exact(index.query_cost(3, 1, 50.0)))
        );
        // A zero-settle budget degrades the search backend to intervals
        // that still bracket the truth.
        let got = bounded(&mut exec, &queries, QueryBudget::settles(0));
        for (i, r) in got.iter().enumerate() {
            if i == 1 {
                continue;
            }
            let exact = index.query_cost(queries[i].0, queries[i].1, queries[i].2);
            assert!(
                r.as_ref().unwrap().is_consistent_with(exact, 1e-9),
                "slot {i}: {r:?} vs exact {exact:?}"
            );
        }
    }

    #[test]
    fn per_slot_budgets_bound_each_query_independently() {
        let index = build_index(tiny_graph(), Backend::AStarCh, &IndexConfig::default());
        let queries: [CostQuery; 3] = [(0, 2, 0.0), (3, 1, 50.0), (1, 3, 100.0)];
        let with = |budgets: [QueryBudget; 3]| -> Vec<(CostQuery, QueryBudget)> {
            queries.iter().copied().zip(budgets).collect()
        };
        let mut got = Vec::new();
        for threads in [1, 2] {
            let mut exec = ParallelExecutor::new(index.as_ref(), threads);
            exec.query_batch_bounded_into(
                &with([
                    QueryBudget::UNLIMITED,
                    QueryBudget::settles(0),
                    QueryBudget::UNLIMITED,
                ]),
                &mut got,
            );
            // Unlimited slots are exact and bit-identical to the scalar API.
            assert_eq!(
                got[0],
                Ok(BoundedAnswer::Exact(index.query_cost(0, 2, 0.0)))
            );
            assert_eq!(
                got[2],
                Ok(BoundedAnswer::Exact(index.query_cost(1, 3, 100.0)))
            );
            // The starved middle slot degrades but still brackets the truth.
            let exact = index.query_cost(3, 1, 50.0);
            assert!(got[1].as_ref().unwrap().is_consistent_with(exact, 1e-9));
            // An already-expired per-slot deadline exhausts that slot alone.
            let expired = QueryBudget::UNLIMITED.tightened_to(Some(
                std::time::Instant::now() - std::time::Duration::from_secs(1),
            ));
            exec.query_batch_bounded_into(
                &with([QueryBudget::UNLIMITED, expired, QueryBudget::UNLIMITED]),
                &mut got,
            );
            assert!(got[0].as_ref().is_ok_and(|a| a.is_exact()));
            // Expired slots degrade (interval or typed exhaustion) — they
            // are never reported exact and never poison their neighbours.
            assert!(!matches!(&got[1], Ok(a) if a.is_exact()), "{:?}", got[1]);
            assert!(got[2].as_ref().is_ok_and(|a| a.is_exact()));
        }
    }

    #[test]
    fn poisoned_locks_recover_instead_of_wedging() {
        let live = LiveIndex::new(crate::AStarChIndex::new(tiny_graph()));
        let before = live.snapshot().query_cost(0, 2, 0.0);
        // Poison both locks: panic while holding each guard.
        fn poison<T>(lock: &Mutex<T>) {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _guard = lock.lock().unwrap();
                panic!("deliberate poisoning");
            }));
            assert!(r.is_err());
        }
        poison(&live.active);
        poison(&live.writer);
        assert!(live.active.is_poisoned());
        assert!(live.writer.is_poisoned());
        // Readers and writers must keep working on the recovered locks.
        assert_eq!(live.snapshot().query_cost(0, 2, 0.0), before);
        assert_eq!(live.snapshot_with_epoch().0, 0);
        live.apply(&[(0, 1, Plf::constant(600.0))]);
        assert_eq!(live.epoch(), 1);
        assert!(live.snapshot().query_cost(0, 2, 0.0).unwrap() > before.unwrap());
    }

    #[test]
    fn failed_update_drops_the_private_copy_and_epoch_stays() {
        let live = LiveIndex::new(crate::AStarChIndex::new(tiny_graph()));
        let before = live.snapshot().query_cost(0, 2, 0.0);
        // Edge 0 -> 2 does not exist: update_edges panics mid-batch after
        // having already applied the 0 -> 1 change.
        let err = live
            .try_apply(&[(0, 1, Plf::constant(600.0)), (0, 2, Plf::constant(1.0))])
            .unwrap_err();
        assert!(matches!(err, UpdateError::UpdatePanicked(_)));
        assert!(err.to_string().contains("does not exist"));
        // Epoch unmoved, readers unaffected, no partial batch visible.
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.snapshot().query_cost(0, 2, 0.0), before);
        // The next valid batch starts from the untouched published copy.
        live.apply(&[(0, 1, Plf::constant(600.0))]);
        assert_eq!(live.epoch(), 1);
        let after = live.snapshot().query_cost(0, 2, 0.0).unwrap();
        assert!((after - 135.0).abs() < 1e-9);
        // And the batch after that from the one just published.
        live.apply(&[(0, 1, Plf::constant(60.0))]);
        assert_eq!(live.snapshot().query_cost(0, 2, 0.0), before);
    }

    /// An A\*-CH index that counts its clones and its live instances.
    struct Counted {
        inner: crate::AStarChIndex,
        /// `(clones so far, instances alive)`.
        counts: Arc<(AtomicU64, AtomicU64)>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.counts.0.fetch_add(1, Ordering::SeqCst);
            self.counts.1.fetch_add(1, Ordering::SeqCst);
            Counted {
                inner: self.inner.clone(),
                counts: self.counts.clone(),
            }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.counts.1.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl RoutingIndex for Counted {
        fn backend_name(&self) -> &'static str {
            self.inner.backend_name()
        }
        fn graph(&self) -> &TdGraph {
            self.inner.graph()
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn build_stats(&self) -> crate::IndexStats {
            self.inner.build_stats()
        }
        fn new_scratch(&self) -> SessionScratch {
            self.inner.new_scratch()
        }
        fn query_cost_in(
            &self,
            scratch: &mut SessionScratch,
            s: VertexId,
            d: VertexId,
            t: f64,
        ) -> Option<f64> {
            self.inner.query_cost_in(scratch, s, d, t)
        }
        fn query_profile_in(
            &self,
            scratch: &mut SessionScratch,
            s: VertexId,
            d: VertexId,
        ) -> Option<Plf> {
            self.inner.query_profile_in(scratch, s, d)
        }
        fn query_path_in(
            &self,
            scratch: &mut SessionScratch,
            s: VertexId,
            d: VertexId,
            t: f64,
        ) -> Option<(f64, td_graph::Path)> {
            self.inner.query_path_in(scratch, s, d, t)
        }
    }

    impl IncrementalIndex for Counted {
        fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
            self.inner.update_edges(changes)
        }
    }

    #[test]
    fn live_index_holds_one_copy_and_clones_once_per_applied_batch() {
        let counts = Arc::new((AtomicU64::new(0), AtomicU64::new(1)));
        let (clones, alive) = (
            || counts.0.load(Ordering::SeqCst),
            || counts.1.load(Ordering::SeqCst),
        );
        let live = LiveIndex::new(Counted {
            inner: crate::AStarChIndex::new(tiny_graph()),
            counts: counts.clone(),
        });
        assert_eq!((clones(), alive()), (0, 1), "new() must not clone");

        // A reader holding epoch 0 keeps that copy alive across the swap.
        let held = live.snapshot();
        live.apply(&[(0, 1, Plf::constant(600.0))]);
        assert_eq!((clones(), alive()), (1, 2));
        drop(held);
        assert_eq!(alive(), 1, "the retired copy dies with its last reader");
        live.apply(&[(0, 1, Plf::constant(60.0))]);
        assert_eq!((clones(), alive(), live.epoch()), (2, 1, 2));

        // A failing batch costs its one clone and publishes nothing.
        let before = live.snapshot();
        live.try_apply(&[(0, 2, Plf::constant(1.0))]).unwrap_err();
        assert!(Arc::ptr_eq(&before, &live.snapshot()));
        assert_eq!((clones(), alive(), live.epoch()), (3, 1, 2));
    }
}
