//! [`TdServer`]: the threaded serving core.
//!
//! ```text
//!  clients ──submit()──▶ admission ──▶ bounded queue ──▶ N serving workers,
//!                         │             each: pop ▶ grab ▶ budgets ▶ run ▶ reply
//!                         └── typed Rejected (O(µs))          ▲
//!                                                             └── 1 panic retry
//! ```
//!
//! `workers` run-to-completion threads share the admission queue. Each
//! blocks only while the queue is empty and is work-conserving otherwise:
//! it pops a request, takes an even share of what is queued behind it
//! ([`control::grab_size`]) and runs the batch at once — there is no timer
//! on the request path, so a lone request and a backlog alike are served at
//! CPU speed, and batches grow by themselves while every worker is busy.
//! It builds per-slot budgets from the overload mode and each request's own
//! deadline, runs the batch inline on its own one-worker
//! [`ParallelExecutor`] (panic containment and scratch reuse included), and
//! fulfils the reply slots. After every batch it ticks the overload
//! controller — queue fill walks the Normal → Degraded → Shedding state
//! machine, published with one compare-and-swap, no lock — and checks the
//! update watchdog (the retry bound, lane capacity and watchdog limit are
//! constants here, each beside its one reader). Every server reads its
//! index through a [`LiveIndex`]: a fixed index is one that no update lane
//! moves past epoch 0. The updater thread of [`TdServer::serve_live`]
//! applies live traffic refreshes through [`LiveIndex::try_apply`] with
//! rollback-and-retry — an update storm sheds *updates*, never queries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use td_api::{
    BoundedAnswer, CostQuery, IncrementalIndex, LiveIndex, ParallelExecutor, QueryError,
    RoutingIndex,
};
use td_dijkstra::QueryBudget;
use td_graph::VertexId;
use td_obs::HistSnapshot;
use td_plf::Plf;

use crate::config::ServerConfig;
use crate::control::{self, OverloadMode};
use crate::queue::{AdmissionQueue, Popped};
use crate::request::{Pending, Rejected, ReplySlot, RequestHandle, ServeError, ServeResult};
use crate::update::{UpdateLane, UpdateRejected};

/// Monotonic serving counters, snapshot as [`ServerStats`].
#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    replied: AtomicU64,
    duplicates: AtomicU64,
    exact: AtomicU64,
    approximate: AtomicU64,
    failed: AtomicU64,
    shed_expired: AtomicU64,
    retries: AtomicU64,
    batches: AtomicU64,
}

/// A point-in-time snapshot of a server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused at admission with a typed [`Rejected`].
    pub rejected: u64,
    /// Terminal replies delivered (first fulfillment per request).
    pub replied: u64,
    /// Attempted second replies to one request — always 0 unless the
    /// exactly-once invariant broke.
    pub duplicates: u64,
    /// Replies that were [`BoundedAnswer::Exact`].
    pub exact: u64,
    /// Replies that were flagged [`BoundedAnswer::Approximate`] intervals.
    pub approximate: u64,
    /// Replies that were typed errors ([`ServeError`]).
    pub failed: u64,
    /// Admitted requests shed before dispatch on an expired deadline
    /// (their typed reply is included in `failed`).
    pub shed_expired: u64,
    /// Panicked slots granted their single bounded retry.
    pub retries: u64,
    /// Batches served (one per worker grab that had live requests).
    pub batches: u64,
    /// Live-update batches applied.
    pub updates_applied: u64,
    /// Live-update batches retried after a rollback.
    pub update_retries: u64,
    /// Live-update batches shed (full lane, stuck lane, terminal failure).
    pub updates_shed: u64,
}

/// Pre-resolved rejection counter handles, so admission's metric export is
/// one sharded atomic add — never a registry lock.
struct RejectCounters {
    queue_full: Arc<td_obs::Counter>,
    overloaded: Arc<td_obs::Counter>,
    deadline: Arc<td_obs::Counter>,
    shutdown: Arc<td_obs::Counter>,
}

impl RejectCounters {
    fn new() -> RejectCounters {
        let m = td_obs::metrics();
        RejectCounters {
            queue_full: m.server_rejected("queue_full"),
            overloaded: m.server_rejected("overloaded"),
            deadline: m.server_rejected("deadline_expired"),
            shutdown: m.server_rejected("shutdown"),
        }
    }

    fn of(&self, r: &Rejected) -> &td_obs::Counter {
        match r {
            Rejected::QueueFull { .. } => &self.queue_full,
            Rejected::Overloaded => &self.overloaded,
            Rejected::DeadlineExpired => &self.deadline,
            Rejected::ShuttingDown => &self.shutdown,
        }
    }
}

/// State shared by clients, the serving workers, and the updater.
struct Shared<I> {
    /// As given, except `workers`: resolved to the real thread count.
    cfg: ServerConfig,
    /// The index the workers snapshot; only `serve_live`'s updater moves
    /// its epoch.
    source: Arc<LiveIndex<I>>,
    queue: AdmissionQueue,
    update: UpdateLane,
    shutdown: AtomicBool,
    /// Current [`OverloadMode`] (its `as_u8`), read lock-free at admission.
    mode: AtomicU8,
    started: Instant,
    /// Private admission→reply latency histogram: per-server soak reports
    /// without mixing servers through the global catalog.
    latency: td_obs::Histogram,
    counters: Counters,
    rejects: RejectCounters,
}

impl<I: RoutingIndex> Shared<I> {
    /// Delivers `result` as the request's terminal reply, keeping the
    /// exactly-once accounting and latency export.
    fn fulfill(&self, p: Pending, result: ServeResult) {
        let kind = match &result {
            Ok(BoundedAnswer::Exact(_)) => &self.counters.exact,
            Ok(BoundedAnswer::Approximate { .. }) => &self.counters.approximate,
            Err(_) => &self.counters.failed,
        };
        if p.slot.fulfill(result) {
            self.counters.replied.fetch_add(1, Ordering::Relaxed);
            kind.fetch_add(1, Ordering::Relaxed);
            let nanos = p.submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.latency.observe(nanos);
            td_obs::metrics().server_request_seconds.observe(nanos);
        } else {
            self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_reject(&self, r: &Rejected) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.rejects.of(r).inc();
    }

    /// Re-evaluates the overload state machine after a batch and returns
    /// the transition this call published, if any. The decision is made
    /// from the mode read at the start and published with one
    /// `compare_exchange` from that value, so a tick that read a mode a
    /// racing tick has since replaced publishes nothing: every published
    /// transition starts from the mode it replaced.
    fn tick(&self) -> Option<(OverloadMode, OverloadMode)> {
        let read = self.mode.load(Ordering::Relaxed);
        let mode = OverloadMode::from_u8(read);
        let depth = self.queue.depth();
        let next = control::next_mode(mode, depth, self.queue.capacity());
        let m = td_obs::metrics();
        m.server_queue_depth
            .set(depth.min(i64::MAX as usize) as i64);
        if next == mode
            || self
                .mode
                .compare_exchange(read, next.as_u8(), Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
        {
            return None;
        }
        // Mirror the mode into the gauge, then read it again: a racing
        // tick may publish between this CAS and the gauge write, so repeat
        // until the value written is still current. The fences order each
        // gauge write between the mode CASes around it.
        let mut shown = next.as_u8();
        loop {
            fence(Ordering::SeqCst);
            m.server_overload_state.set(i64::from(shown));
            fence(Ordering::SeqCst);
            let now = self.mode.load(Ordering::Relaxed);
            if now == shown {
                return Some((mode, next));
            }
            shown = now;
        }
    }
}

/// The overload-safe serving front-end over any [`RoutingIndex`].
///
/// See the crate docs for the pipeline. Construction spawns the serving
/// workers (and, for [`TdServer::serve_live`], the updater);
/// [`TdServer::shutdown`] — or dropping the server — closes admission,
/// drains the queue (every admitted request still gets its exactly-one
/// reply), and joins the threads.
pub struct TdServer<I: RoutingIndex + 'static> {
    shared: Arc<Shared<I>>,
    workers: Vec<JoinHandle<()>>,
    updater: Option<JoinHandle<()>>,
}

/// Pending live-update batches the update lane buffers before shedding.
const UPDATE_QUEUE_CAPACITY: usize = 64;

impl<I: RoutingIndex + 'static> TdServer<I> {
    /// Serves a fixed index: epoch 0 of a [`LiveIndex`] that no update lane
    /// advances.
    pub fn serve(index: I, cfg: ServerConfig) -> TdServer<I> {
        TdServer::start(Arc::new(LiveIndex::new(index)), cfg)
    }

    fn start(source: Arc<LiveIndex<I>>, mut cfg: ServerConfig) -> TdServer<I> {
        if cfg.workers == 0 {
            cfg.workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        }
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            update: UpdateLane::new(UPDATE_QUEUE_CAPACITY),
            shutdown: AtomicBool::new(false),
            mode: AtomicU8::new(OverloadMode::Normal.as_u8()),
            started: Instant::now(),
            latency: td_obs::Histogram::new(),
            counters: Counters::default(),
            rejects: RejectCounters::new(),
            cfg,
            source,
        });
        let workers = (0..cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("td-server-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serving worker")
            })
            .collect();
        TdServer {
            shared,
            workers,
            updater: None,
        }
    }

    /// Submits one travel-cost query with an optional client deadline.
    ///
    /// Admission is O(µs): a typed [`Rejected`] (shutdown, expired
    /// deadline, shedding mode, full queue) comes back before the request
    /// touches a queue slot or a worker. An accepted request is guaranteed
    /// exactly one terminal reply on the returned handle.
    pub fn submit(
        &self,
        s: VertexId,
        d: VertexId,
        t: f64,
        deadline: Option<Instant>,
    ) -> Result<RequestHandle, Rejected> {
        self.submit_query((s, d, t), deadline)
    }

    /// [`TdServer::submit`] taking the query as a [`CostQuery`] tuple.
    pub fn submit_query(
        &self,
        query: CostQuery,
        deadline: Option<Instant>,
    ) -> Result<RequestHandle, Rejected> {
        let shared = &self.shared;
        let now = Instant::now();
        let mode = OverloadMode::from_u8(shared.mode.load(Ordering::Relaxed));
        if let Some(r) = control::admission_decision(
            shared.shutdown.load(Ordering::Relaxed),
            deadline,
            now,
            mode,
        ) {
            shared.record_reject(&r);
            return Err(r);
        }
        let slot = Arc::new(ReplySlot::new());
        let pending = Pending {
            query,
            deadline,
            submitted: now,
            attempts: 0,
            slot: Arc::clone(&slot),
        };
        match shared.queue.push_back(pending) {
            Ok(()) => {
                shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
                td_obs::metrics().server_admitted_total.inc();
                Ok(RequestHandle {
                    slot,
                    submitted: now,
                })
            }
            Err(_) => {
                let r = if shared.shutdown.load(Ordering::Relaxed) {
                    Rejected::ShuttingDown
                } else {
                    Rejected::QueueFull {
                        depth: shared.queue.depth(),
                        capacity: shared.queue.capacity(),
                    }
                };
                shared.record_reject(&r);
                Err(r)
            }
        }
    }

    /// Submits one batch of live edge-weight changes to the supervised
    /// update lane. Sheds (typed) when the lane is missing (fixed-index
    /// servers), stuck past the watchdog, full, or shutting down — queries
    /// are never paused by update pressure, whatever the answer here.
    pub fn submit_update(
        &self,
        changes: Vec<(VertexId, VertexId, Plf)>,
    ) -> Result<(), UpdateRejected> {
        if self.updater.is_none() {
            self.shared.update.count_shed();
            return Err(UpdateRejected::LaneUnavailable);
        }
        self.shared.update.submit(changes)
    }

    /// The overload controller's current rung.
    pub fn mode(&self) -> OverloadMode {
        OverloadMode::from_u8(self.shared.mode.load(Ordering::Relaxed))
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let u = self.shared.update.stats();
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            replied: c.replied.load(Ordering::Relaxed),
            duplicates: c.duplicates.load(Ordering::Relaxed),
            exact: c.exact.load(Ordering::Relaxed),
            approximate: c.approximate.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed_expired: c.shed_expired.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            updates_applied: u.applied,
            update_retries: u.retries,
            updates_shed: u.shed,
        }
    }

    /// The private admission→reply latency histogram (merged snapshot).
    /// Quantiles here are *this* server's accepted-request latency, not the
    /// process-wide catalog family.
    pub fn latency_snapshot(&self) -> HistSnapshot {
        self.shared.latency.snapshot()
    }

    /// Chaos hook: poisons the admission-queue and update-lane mutexes (a
    /// contained panic while holding each guard). The serving path must
    /// recover every one — `td_server_lock_recoveries_total` counts them.
    pub fn inject_lock_poison(&self) {
        self.shared.queue.poison();
        self.shared.update.poison();
    }

    /// Closes admission and both queues, then joins every thread: each
    /// worker retires once the closed queue is drained.
    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        self.shared.update.close();
        for h in self.workers.drain(..).chain(self.updater.take()) {
            let _ = h.join();
        }
    }

    /// Stops admission, drains the queue (every already-admitted request
    /// still receives its exactly-one reply), joins the threads, and
    /// returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }
}

impl<I: IncrementalIndex + Clone + 'static> TdServer<I> {
    /// Serves a [`LiveIndex`]: queries run on epoch snapshots while the
    /// supervised update lane applies [`TdServer::submit_update`] batches
    /// through [`LiveIndex::try_apply`] with rollback-and-retry.
    pub fn serve_live(live: Arc<LiveIndex<I>>, cfg: ServerConfig) -> TdServer<I> {
        let mut server = TdServer::start(live, cfg);
        let shared = Arc::clone(&server.shared);
        let updater = std::thread::Builder::new()
            .name("td-server-update".into())
            .spawn(move || updater_loop(&shared))
            .expect("spawn updater");
        server.updater = Some(updater);
        server
    }
}

impl<I: RoutingIndex + 'static> Drop for TdServer<I> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bounded retries for a [`QueryError::Panicked`] slot. Deterministic
/// failures (`InvalidQuery`, `BudgetExhausted`) are never retried.
const PANIC_RETRIES: u32 = 1;

/// Serves one worker's batch: shed expired, budget, execute, retry/reply.
fn serve_batch<I: RoutingIndex>(
    shared: &Shared<I>,
    exec: &mut ParallelExecutor<'_, I>,
    incoming: &mut Vec<Pending>,
    batch: &mut Vec<Pending>,
    queries: &mut Vec<(CostQuery, QueryBudget)>,
    results: &mut Vec<Result<BoundedAnswer, QueryError>>,
) {
    let now = Instant::now();
    let mode = OverloadMode::from_u8(shared.mode.load(Ordering::Relaxed));
    batch.clear();
    queries.clear();
    for p in incoming.drain(..) {
        // Deadline propagation, stage 2: requests that expired while queued
        // are shed with a typed reply before touching a worker.
        if p.deadline.is_some_and(|d| now >= d) {
            shared.counters.shed_expired.fetch_add(1, Ordering::Relaxed);
            td_obs::metrics().server_shed_expired_total.inc();
            shared.fulfill(p, Err(ServeError::Shed(Rejected::DeadlineExpired)));
            continue;
        }
        // Stage 3: the client deadline rides into the search itself as the
        // budget's wall-clock bound, under the mode's settle cap.
        queries.push((p.query, control::slot_budget(mode, p.deadline)));
        batch.push(p);
    }
    if batch.is_empty() {
        return;
    }
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    let m = td_obs::metrics();
    m.server_batches_total.inc();
    m.server_batch_size.observe(batch.len() as u64);
    exec.query_batch_bounded_into(queries, results);
    for (mut p, result) in batch.drain(..).zip(results.drain(..)) {
        match result {
            // One bounded retry for contained panics only: the request goes
            // back to the queue *head*, where the next worker to pop — this
            // one or another — takes it at once. Deterministic failures —
            // InvalidQuery, BudgetExhausted — are never retried.
            Err(QueryError::Panicked(_)) if p.attempts < PANIC_RETRIES => {
                p.attempts += 1;
                shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                td_obs::metrics().server_retries_total.inc();
                shared.queue.push_front(p);
            }
            Ok(answer) => shared.fulfill(p, Ok(answer)),
            Err(e) => shared.fulfill(p, Err(ServeError::Query(e))),
        }
    }
}

/// How long one `try_apply` may run before the watchdog declares the update
/// lane stuck and sheds further updates (query service is never paused
/// either way).
const UPDATE_WATCHDOG: Duration = Duration::from_secs(2);

fn worker_loop<I: RoutingIndex>(shared: &Shared<I>) {
    let cfg = &shared.cfg;
    let mut incoming: Vec<Pending> = Vec::new();
    let mut batch: Vec<Pending> = Vec::new();
    let mut queries: Vec<(CostQuery, QueryBudget)> = Vec::new();
    let mut results: Vec<Result<BoundedAnswer, QueryError>> = Vec::new();
    'epoch: loop {
        // One executor per epoch: its scratch stays warm across batches.
        let (epoch, snap) = shared.source.snapshot_with_epoch();
        let mut exec = ParallelExecutor::new(&*snap, 1);
        loop {
            // Empty unless an epoch flip sent a grabbed batch round again.
            if incoming.is_empty() {
                match shared.queue.pop_wait() {
                    Popped::Closed => return, // drained: every admitted request replied
                    Popped::Item(p) => incoming.push(p),
                }
                let grab = control::grab_size(shared.queue.depth(), cfg.workers, cfg.max_batch);
                if grab > 1 {
                    shared.queue.drain_into(grab - 1, &mut incoming);
                }
            }
            // However long this worker slept in `pop_wait`, a batch never
            // runs on a snapshot older than the epoch visible at its start.
            if shared.source.epoch() != epoch {
                continue 'epoch;
            }
            // The worker itself is contained: a bug here must not strand
            // admitted requests without their reply.
            let r = catch_unwind(AssertUnwindSafe(|| {
                serve_batch(
                    shared,
                    &mut exec,
                    &mut incoming,
                    &mut batch,
                    &mut queries,
                    &mut results,
                )
            }));
            if r.is_err() {
                for p in incoming.drain(..).chain(batch.drain(..)) {
                    shared.fulfill(
                        p,
                        Err(ServeError::Query(QueryError::Panicked(
                            "serving worker fault".to_string(),
                        ))),
                    );
                }
            }
            shared.tick();
            shared
                .update
                .watchdog_check(shared.started, UPDATE_WATCHDOG);
        }
    }
}

fn updater_loop<I: IncrementalIndex + Clone>(shared: &Shared<I>) {
    let live = &shared.source;
    while let Some(changes) = shared.update.pop_wait() {
        shared.update.begin_apply(shared.started);
        let mut applied = false;
        for attempt in 0..2u32 {
            // `try_apply` already contains panics and drops the half-
            // repaired copy; the outer catch_unwind is belt-and-braces so
            // even an unexpected unwind cannot kill the lane.
            let outcome = catch_unwind(AssertUnwindSafe(|| live.try_apply(&changes)));
            match outcome {
                Ok(Ok(_)) => {
                    applied = true;
                    break;
                }
                Ok(Err(_)) | Err(_) => {
                    if attempt == 0 {
                        shared.update.count_retry();
                    }
                }
            }
        }
        shared.update.end_apply();
        if applied {
            shared.update.count_applied();
        } else {
            shared.update.count_shed();
        }
    }
}

// Compile-time pins: the server (and its shared core) crosses client,
// worker, and updater threads.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<TdServer<td_api::AStarChIndex>>();
    shared_across_threads::<AdmissionQueue>();
    shared_across_threads::<UpdateLane>();
    shared_across_threads::<ReplySlot>();
    shared_across_threads::<crate::fault::HostileIndex<td_api::AStarChIndex>>();
    shared_across_threads::<crate::fault::FaultPlan>();
    shared_across_threads::<ServerStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, HostileIndex};
    use std::sync::{Barrier, Condvar, Mutex, MutexGuard, PoisonError};
    use td_api::{AStarChIndex, IndexStats, SessionScratch};
    use td_core::UpdateStats;
    use td_graph::{Path, TdGraph};

    /// `td_server_overload_state` is one process-wide gauge: the tests whose
    /// servers change mode hold this, so the tick race reads its own writes.
    static MODE_MOVES: Mutex<()> = Mutex::new(());

    /// A two-way path 0 – 1 – … – n-1, every edge 10 s.
    fn line(n: u32) -> TdGraph {
        let mut g = TdGraph::with_vertices(n as usize);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, Plf::constant(10.0)).unwrap();
            g.add_edge(v + 1, v, Plf::constant(10.0)).unwrap();
        }
        g
    }

    fn config(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }

    /// Where the tests park serving workers: inside a query. While the gate
    /// is closed every [`Gated`] bounded cost query blocks on it, and it
    /// counts the callers it holds.
    #[derive(Default)]
    struct Gate {
        state: Mutex<GateState>,
        moved: Condvar,
    }

    #[derive(Default)]
    struct GateState {
        closed: bool,
        held: usize,
    }

    impl Gate {
        fn state(&self) -> MutexGuard<'_, GateState> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn wait<'a>(&self, st: MutexGuard<'a, GateState>) -> MutexGuard<'a, GateState> {
            self.moved.wait(st).unwrap_or_else(PoisonError::into_inner)
        }

        /// Closes the gate until the returned guard drops. Declared after
        /// the server, the guard drops first when an assertion fails, so
        /// every parked worker is let go before the server joins them.
        fn close(&self) -> Closed<'_> {
            self.state().closed = true;
            Closed(self)
        }

        fn pass(&self) {
            let mut st = self.state();
            if !st.closed {
                return;
            }
            st.held += 1;
            self.moved.notify_all();
            while st.closed {
                st = self.wait(st);
            }
            st.held -= 1;
        }

        /// Blocks until the gate holds `n` callers.
        fn await_held(&self, n: usize) {
            let mut st = self.state();
            while st.held < n {
                st = self.wait(st);
            }
        }
    }

    struct Closed<'a>(&'a Gate);

    impl Drop for Closed<'_> {
        fn drop(&mut self) {
            self.0.state().closed = false;
            self.0.moved.notify_all();
        }
    }

    /// `AStarChIndex` behind a [`Gate`]: the serving path's one query call
    /// passes the gate first.
    #[derive(Clone)]
    struct Gated {
        inner: AStarChIndex,
        gate: Arc<Gate>,
    }

    fn gated_line(n: u32) -> (Gated, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let index = Gated {
            inner: AStarChIndex::new(line(n)),
            gate: Arc::clone(&gate),
        };
        (index, gate)
    }

    impl RoutingIndex for Gated {
        fn backend_name(&self) -> &'static str {
            self.inner.backend_name()
        }
        fn graph(&self) -> &TdGraph {
            self.inner.graph()
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn build_stats(&self) -> IndexStats {
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
        ) -> Option<(f64, Path)> {
            self.inner.query_path_in(scratch, s, d, t)
        }
        fn query_cost_bounded_in(
            &self,
            scratch: &mut SessionScratch,
            s: VertexId,
            d: VertexId,
            t: f64,
            budget: &QueryBudget,
        ) -> Result<BoundedAnswer, QueryError> {
            self.gate.pass();
            self.inner.query_cost_bounded_in(scratch, s, d, t, budget)
        }
    }

    impl IncrementalIndex for Gated {
        fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
            self.inner.update_edges(changes)
        }
    }

    /// Parks every worker in the closed gate: one request per worker, each
    /// sent once the one before it is held. A held worker pops nothing, so
    /// each request is held by a different thread, and nobody pops from the
    /// queue afterwards until the gate opens.
    fn park_every_worker<I: RoutingIndex>(
        server: &TdServer<I>,
        gate: &Gate,
        query: CostQuery,
    ) -> Vec<RequestHandle> {
        (1..=server.shared.cfg.workers)
            .map(|held| {
                let handle = server.submit_query(query, None).unwrap();
                gate.await_held(held);
                handle
            })
            .collect()
    }

    fn exact(reply: &ServeResult) -> Option<f64> {
        match reply {
            Ok(BoundedAnswer::Exact(cost)) => *cost,
            other => panic!("expected an exact answer, got {other:?}"),
        }
    }

    #[test]
    fn zero_workers_resolves_to_the_core_count_once() {
        let server = TdServer::serve(AStarChIndex::new(line(3)), config(0));
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(server.shared.cfg.workers, cores);
        assert_eq!(server.workers.len(), cores);
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_are_answered_by_one_grab() {
        let (index, gate) = gated_line(4);
        let server = TdServer::serve(index, config(1));
        // Three queued while the only worker is parked inside its first
        // batch: once let go it pops the first and takes the other two with
        // it in the same grab — nothing waits for more to arrive.
        let held = gate.close();
        let first = park_every_worker(&server, &gate, (0, 3, 0.0));
        let queued = [(0, 3), (0, 2), (1, 3)].map(|(s, d)| server.submit(s, d, 0.0, None).unwrap());
        drop(held);
        assert_eq!(exact(&first[0].wait()), Some(30.0));
        let replies = queued.map(|h| exact(&h.wait()));
        assert_eq!(replies, [Some(30.0), Some(20.0), Some(20.0)]);
        assert_eq!(server.shutdown().batches, 2);
    }

    #[test]
    fn shutdown_with_a_full_queue_drains_it_and_joins_every_thread() {
        let _mode = MODE_MOVES.lock().unwrap_or_else(PoisonError::into_inner);
        for workers in [1usize, 2, 4] {
            let cfg = ServerConfig {
                queue_capacity: 16,
                ..config(workers)
            };
            let (index, gate) = gated_line(4);
            let server = TdServer::serve(index, cfg);
            let shared = Arc::clone(&server.shared);
            let held = gate.close();
            let parked = park_every_worker(&server, &gate, (0, 3, 0.0));
            // Nobody pops now: the queue fills to its cap and then refuses.
            let mut handles = Vec::new();
            let refusal = loop {
                match server.submit(0, 3, 0.0, None) {
                    Ok(h) => handles.push(h),
                    Err(r) => break r,
                }
            };
            assert_eq!(
                refusal,
                Rejected::QueueFull {
                    depth: 16,
                    capacity: 16
                }
            );
            assert_eq!(handles.len(), 16);
            let stats = std::thread::scope(|s| {
                let closer = s.spawn(move || server.shutdown());
                // Admission is closed over the full queue before any worker
                // is let back to it.
                while !shared.shutdown.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                drop(held);
                closer.join().unwrap()
            });
            assert_eq!(stats.admitted, (workers + 16) as u64);
            assert_eq!(stats.replied, stats.admitted, "{workers} workers");
            assert_eq!(stats.duplicates, 0);
            assert_eq!(stats.exact, stats.admitted);
            for h in parked.into_iter().chain(handles) {
                assert_eq!(exact(&h.try_reply().expect("drained")), Some(30.0));
            }
            // Every worker thread has returned and dropped its handle on
            // the shared state: this one is the last.
            assert_eq!(Arc::strong_count(&shared), 1, "{workers} workers");
        }
    }

    #[test]
    fn every_worker_answers_from_the_new_snapshot_once_the_epoch_is_visible() {
        let (index, gate) = gated_line(4);
        let live = Arc::new(LiveIndex::new(index));
        let server = TdServer::serve_live(Arc::clone(&live), config(4));
        let query = (0, 3, 0.0);
        // Each of the four workers builds its epoch-0 executor and is held
        // in a batch on it.
        let held = gate.close();
        let parked = park_every_worker(&server, &gate, query);
        drop(held);
        for handle in parked {
            assert_eq!(exact(&handle.wait()), Some(30.0));
        }
        // All four workers now hold an epoch-0 executor and sleep in
        // `pop_wait` (or are on their way there). Publish a new weight and
        // wait until it is visible: from here on no reply may be stale,
        // whichever worker wakes for it.
        server
            .submit_update(vec![(1, 2, Plf::constant(25.0))])
            .unwrap();
        while live.epoch() == 0 {
            std::thread::yield_now();
        }
        for _ in 0..64 {
            let reply = server.submit_query(query, None).unwrap().wait();
            assert_eq!(exact(&reply), Some(45.0), "a worker served a stale epoch");
        }
    }

    #[test]
    fn a_retried_slot_is_served_exactly_once_by_whichever_worker_pops_it() {
        let _quiet = crate::fault::silence_contained_panics();
        // Every query panics the first time it runs and succeeds after.
        let plan = FaultPlan {
            seed: 7,
            panic_per_million: 1_000_000,
            transient_panics: true,
            ..FaultPlan::none()
        };
        for workers in [1usize, 2] {
            let (index, gate) = gated_line(4);
            let server = TdServer::serve(HostileIndex::new(index, &plan), config(workers));
            // The first run panics in the hostile wrapper, before the gate;
            // the slot goes back to the queue head, and the worker that pops
            // it — the same one or, with two, either — is held at the gate
            // with the one reply still unsent.
            let held = gate.close();
            let handle = server.submit(0, 3, 0.0, None).unwrap();
            gate.await_held(1);
            assert!(handle.try_reply().is_none(), "{workers} workers");
            assert_eq!(server.stats().retries, 1, "{workers} workers");
            drop(held);
            assert_eq!(exact(&handle.wait()), Some(30.0), "{workers} workers");
            let stats = server.shutdown();
            assert_eq!(
                (stats.admitted, stats.replied, stats.retries, stats.exact),
                (1, 1, 1, 1),
                "{workers} workers"
            );
            assert_eq!(stats.duplicates, 0);
        }
    }

    #[test]
    fn racing_ticks_publish_one_chain_of_single_rung_transitions() {
        use OverloadMode::{Degraded, Normal, Shedding};
        let _mode = MODE_MOVES.lock().unwrap_or_else(PoisonError::into_inner);
        // Idle workers never tick, and the queue stays empty — below every
        // watermark — so each racer decides one rung down from what it read.
        let server = TdServer::serve(AStarChIndex::new(line(3)), config(2));
        let shared = &*server.shared;
        for round in 0..100 {
            let racers = 2 + round % 3;
            shared.mode.store(Shedding.as_u8(), Ordering::Relaxed);
            let gate = Barrier::new(racers);
            let mut published: Vec<_> = std::thread::scope(|s| {
                let ticks: Vec<_> = (0..racers)
                    .map(|_| {
                        s.spawn(|| {
                            gate.wait();
                            shared.tick()
                        })
                    })
                    .collect();
                ticks
                    .into_iter()
                    .filter_map(|t| t.join().unwrap())
                    .collect()
            });
            // Join order is not publish order; a chain runs down the rungs.
            published.sort_by_key(|&(from, _)| std::cmp::Reverse(from));
            // One rung each, chained from Shedding, and no second transition
            // out of a mode another racer had already replaced.
            assert!(
                matches!(
                    published[..],
                    [(Shedding, Degraded)] | [(Shedding, Degraded), (Degraded, Normal)]
                ),
                "round {round}, {racers} racers: {published:?}"
            );
            let last = published[published.len() - 1].1;
            assert_eq!(server.mode(), last, "round {round}");
            assert_eq!(
                td_obs::metrics().server_overload_state.get(),
                i64::from(last.as_u8()),
                "round {round}: the gauge lags the mode"
            );
        }
    }
}
