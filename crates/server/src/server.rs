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
//! fulfils the reply slots. After every batch it ticks the
//! shared overload controller — queue depth and the recent latency window
//! walk the Normal → Degraded → Shedding state machine — and checks the
//! update watchdog (the window size, baseline floor, retry bound, lane
//! capacity and watchdog limit are constants here, each beside its one
//! reader). An optional updater thread applies live traffic refreshes
//! through [`LiveIndex::try_apply`] with rollback-and-retry — an update
//! storm sheds *updates*, never queries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
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
use crate::control::{self, OverloadMode, Window};
use crate::queue::{AdmissionQueue, Popped};
use crate::request::{Pending, Rejected, ReplySlot, RequestHandle, ServeError, ServeResult};
use crate::sync::lock_recover;
use crate::update::{UpdateLane, UpdateRejected};

/// Where the workers get their index snapshots.
enum Source<I> {
    /// A fixed immutable index: epoch is always 0.
    Fixed(Arc<I>),
    /// A live copy-on-write index: snapshots follow the epoch.
    Live(Arc<LiveIndex<I>>),
}

impl<I> Source<I> {
    fn snapshot_with_epoch(&self) -> (u64, Arc<I>) {
        match self {
            Source::Fixed(index) => (0, Arc::clone(index)),
            Source::Live(live) => live.snapshot_with_epoch(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Source::Fixed(_) => 0,
            Source::Live(live) => live.epoch(),
        }
    }
}

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

/// Replies a latency window must hold before [`Shared::tick`] trusts its p99.
const MIN_WINDOW: u64 = 64;
/// Noise floor for the latency baseline, nanoseconds (200 µs): a baseline
/// below this is clamped up so microsecond jitter on tiny graphs cannot
/// trip the p99 rule.
const BASELINE_FLOOR_NANOS: u64 = 200_000;

/// The overload controller's state, shared by the workers behind
/// `Shared::controller`: the latency window's delta base and the calibrated
/// baseline.
#[derive(Default)]
struct Controller {
    /// `counters.replied` when the last window was accepted.
    seen: u64,
    prev: HistSnapshot,
    window: Window,
}

/// State shared by clients, the serving workers, and the updater.
struct Shared<I> {
    /// As given, except `workers`: resolved to the real thread count.
    cfg: ServerConfig,
    source: Source<I>,
    queue: AdmissionQueue,
    update: UpdateLane,
    has_update_lane: bool,
    shutdown: AtomicBool,
    /// Current [`OverloadMode`] (its `as_u8`), read lock-free at admission.
    mode: AtomicU8,
    started: Instant,
    /// Private admission→reply latency histogram: powers the overload
    /// controller's recent-p99 window and per-server soak reports without
    /// mixing servers through the global catalog.
    latency: td_obs::Histogram,
    controller: Mutex<Controller>,
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

    /// Re-evaluates the overload state machine after a batch; true when
    /// this call consumed a latency window. Workers serialise on the
    /// controller lock and the mode is read, decided and published inside
    /// it, so a window is consumed once and no transition is overwritten by
    /// a concurrent tick that saw an older window.
    fn tick(&self) -> bool {
        let mut ctl = lock_recover(&self.controller);
        let mode = OverloadMode::from_u8(self.mode.load(Ordering::Relaxed));
        let replied = self.counters.replied.load(Ordering::Relaxed);
        let mut consumed = false;
        // Merging the histogram's shards is paid once per window, not per
        // batch: nothing is read until enough replies have gone out.
        if replied.wrapping_sub(ctl.seen) >= MIN_WINDOW {
            let snap = self.latency.snapshot();
            let delta = snap.diff(&ctl.prev);
            if delta.count() >= MIN_WINDOW {
                ctl.window.p99_nanos = delta.quantile(0.99);
                ctl.prev = snap;
                ctl.seen = replied;
                consumed = true;
                // The first full window observed in Normal mode calibrates
                // the baseline (clamped up to the noise floor).
                if ctl.window.baseline_nanos == 0 && mode == OverloadMode::Normal {
                    ctl.window.baseline_nanos = ctl.window.p99_nanos.max(BASELINE_FLOOR_NANOS);
                }
            }
        }
        let depth = self.queue.depth();
        let next = control::next_mode(mode, depth, self.queue.capacity(), ctl.window);
        if next != mode {
            self.mode.store(next.as_u8(), Ordering::Relaxed);
        }
        let m = td_obs::metrics();
        m.server_queue_depth
            .set(depth.min(i64::MAX as usize) as i64);
        m.server_overload_state.set(next.as_u8() as i64);
        consumed
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
    /// Serves a fixed immutable index.
    pub fn serve(index: Arc<I>, cfg: ServerConfig) -> TdServer<I> {
        TdServer::start(Source::Fixed(index), cfg, false)
    }

    fn start(source: Source<I>, mut cfg: ServerConfig, live: bool) -> TdServer<I> {
        if cfg.workers == 0 {
            cfg.workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        }
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            update: UpdateLane::new(UPDATE_QUEUE_CAPACITY),
            has_update_lane: live,
            shutdown: AtomicBool::new(false),
            mode: AtomicU8::new(OverloadMode::Normal.as_u8()),
            started: Instant::now(),
            latency: td_obs::Histogram::new(),
            controller: Mutex::new(Controller::default()),
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
        if !self.shared.has_update_lane {
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
        let mut server = TdServer::start(Source::Live(live), cfg, true);
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
    let live = match &shared.source {
        Source::Live(live) => Arc::clone(live),
        Source::Fixed(_) => return,
    };
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
    shared_across_threads::<Controller>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, HostileIndex};
    use std::sync::{Barrier, MutexGuard};
    use td_api::AStarChIndex;
    use td_graph::TdGraph;

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

    /// Parks the workers one by one. A worker ticks the controller after
    /// every batch, so while the test holds the controller lock each worker
    /// serves exactly one batch and then waits for the lock: `workers`
    /// requests sent one at a time are answered by `workers` different
    /// threads, and nobody pops from the queue afterwards until the guard
    /// is dropped. (Take the lock once per server, before its first
    /// request: a worker still parked from an earlier hold is one short.)
    fn one_batch_per_worker<I: RoutingIndex>(
        server: &TdServer<I>,
        _held: &MutexGuard<'_, Controller>,
        query: CostQuery,
    ) -> Vec<ServeResult> {
        (0..server.shared.cfg.workers)
            .map(|_| server.submit_query(query, None).unwrap().wait())
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
        let server = TdServer::serve(Arc::new(AStarChIndex::new(line(3))), config(0));
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(server.shared.cfg.workers, cores);
        assert_eq!(server.workers.len(), cores);
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_are_answered_by_one_grab() {
        let server = TdServer::serve(Arc::new(AStarChIndex::new(line(4))), config(1));
        // Three queued while the only worker is parked after its first
        // batch: once let go it pops the first and takes the other two with
        // it in the same grab — nothing waits for more to arrive.
        let held = lock_recover(&server.shared.controller);
        one_batch_per_worker(&server, &held, (0, 3, 0.0));
        let queued = [(0, 3), (0, 2), (1, 3)].map(|(s, d)| server.submit(s, d, 0.0, None).unwrap());
        drop(held);
        let replies = queued.map(|h| exact(&h.wait()));
        assert_eq!(replies, [Some(30.0), Some(20.0), Some(20.0)]);
        assert_eq!(server.shutdown().batches, 2);
    }

    #[test]
    fn shutdown_with_a_full_queue_drains_it_and_joins_every_thread() {
        for workers in [1usize, 2, 4] {
            let cfg = ServerConfig {
                queue_capacity: 16,
                ..config(workers)
            };
            let server = TdServer::serve(Arc::new(AStarChIndex::new(line(4))), cfg);
            let shared = Arc::clone(&server.shared);
            let held = lock_recover(&shared.controller);
            one_batch_per_worker(&server, &held, (0, 3, 0.0));
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
            for h in handles {
                assert_eq!(exact(&h.try_reply().expect("drained")), Some(30.0));
            }
            // Every worker thread has returned and dropped its handle on
            // the shared state: this one is the last.
            assert_eq!(Arc::strong_count(&shared), 1, "{workers} workers");
        }
    }

    #[test]
    fn every_worker_answers_from_the_new_snapshot_once_the_epoch_is_visible() {
        let live = Arc::new(LiveIndex::new(AStarChIndex::new(line(4))));
        let server = TdServer::serve_live(Arc::clone(&live), config(4));
        let query = (0, 3, 0.0);
        {
            let held = lock_recover(&server.shared.controller);
            for reply in one_batch_per_worker(&server, &held, query) {
                assert_eq!(exact(&reply), Some(30.0));
            }
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
            let index = HostileIndex::new(AStarChIndex::new(line(4)), &plan);
            let server = TdServer::serve(Arc::new(index), config(workers));
            // With two workers, the one that panicked re-queues the slot
            // and parks on the controller lock: the other must take it.
            // Alone, the same worker pops its own retry.
            let held = (workers > 1).then(|| lock_recover(&server.shared.controller));
            let reply = server.submit(0, 3, 0.0, None).unwrap().wait();
            assert_eq!(exact(&reply), Some(30.0), "{workers} workers");
            drop(held);
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
    fn racing_ticks_consume_a_window_once_and_keep_the_transition() {
        // Idle workers never tick: the two racers below are the only ones.
        let server = TdServer::serve(Arc::new(AStarChIndex::new(line(3))), config(2));
        let shared = &*server.shared;
        let feed = |replies: u64, nanos: u64| {
            for _ in 0..replies {
                shared.latency.observe(nanos);
            }
            shared
                .counters
                .replied
                .fetch_add(replies, Ordering::Relaxed);
        };
        // Two ticks released together; how many of them took the window.
        let race = || {
            let gate = Barrier::new(2);
            std::thread::scope(|s| {
                let racers = [(); 2].map(|()| {
                    s.spawn(|| {
                        gate.wait();
                        shared.tick()
                    })
                });
                racers
                    .into_iter()
                    .map(|r| usize::from(r.join().unwrap()))
                    .sum::<usize>()
            })
        };
        // One reply short of a window: nothing to take.
        feed(MIN_WINDOW - 1, 100_000);
        assert_eq!(race(), 0);
        feed(1, 100_000);
        assert_eq!(race(), 1, "the first window calibrates the baseline");
        for round in 0..100 {
            // A quiet window, then one far above 8x the baseline (which
            // sits at the 200 µs floor).
            feed(MIN_WINDOW, 100_000);
            assert_eq!(race(), 1, "round {round}: quiet window");
            assert_eq!(server.mode(), OverloadMode::Normal, "round {round}");
            feed(MIN_WINDOW, 10_000_000);
            assert_eq!(race(), 1, "round {round}: hot window");
            assert_eq!(server.mode(), OverloadMode::Degraded, "round {round}");
        }
    }
}
