//! The supervised live-update lane.
//!
//! Live traffic refreshes ride a *separate* bounded queue drained by a
//! dedicated updater thread, so an update storm contends with queries only
//! through `LiveIndex`'s snapshot swap — never through the serving workers.
//! A watchdog (checked by a worker after every batch, so it needs no
//! thread of its own) declares the lane stuck when one apply overruns its
//! budget; a stuck lane sheds *updates* with a typed refusal while query
//! service continues on the last good epoch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use td_graph::VertexId;
use td_plf::Plf;

use crate::sync::{lock_recover, wait_recover};

/// One batch of live edge-weight changes.
pub(crate) type UpdateBatch = Vec<(VertexId, VertexId, Plf)>;

/// Why an update batch was refused at the lane. Queries are never refused
/// for any of these reasons — update pressure sheds updates, not queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateRejected {
    /// The server fronts a fixed index: there is no update lane at all.
    LaneUnavailable,
    /// The watchdog declared an in-flight apply stuck; the lane sheds until
    /// the apply finishes (or forever, if it never does — query service is
    /// unaffected either way).
    LaneStuck,
    /// The bounded update queue is at capacity.
    QueueFull {
        /// Lane depth observed at the refusal.
        depth: usize,
        /// The lane's capacity.
        capacity: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for UpdateRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateRejected::LaneUnavailable => write!(f, "server has no live update lane"),
            UpdateRejected::LaneStuck => write!(f, "update lane stuck past its watchdog"),
            UpdateRejected::QueueFull { depth, capacity } => {
                write!(f, "update lane full ({depth}/{capacity})")
            }
            UpdateRejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for UpdateRejected {}

struct LaneState {
    batches: VecDeque<UpdateBatch>,
    closed: bool,
}

/// Counter snapshot of the lane (see [`crate::ServerStats`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LaneStats {
    pub applied: u64,
    pub retries: u64,
    pub shed: u64,
}

pub(crate) struct UpdateLane {
    state: Mutex<LaneState>,
    not_empty: Condvar,
    capacity: usize,
    /// True while the updater is inside one `try_apply`.
    in_apply: AtomicBool,
    /// When the in-flight apply began, as millis since server start (valid
    /// only while `in_apply` is set; written before it).
    apply_started_ms: AtomicU64,
    /// Latched by the watchdog; cleared when the wedged apply finishes.
    stuck: AtomicBool,
    applied: AtomicU64,
    retries: AtomicU64,
    shed: AtomicU64,
}

impl UpdateLane {
    pub(crate) fn new(capacity: usize) -> UpdateLane {
        UpdateLane {
            state: Mutex::new(LaneState {
                batches: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            in_apply: AtomicBool::new(false),
            apply_started_ms: AtomicU64::new(0),
            stuck: AtomicBool::new(false),
            applied: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Enqueues one batch, or refuses with a typed reason (stuck lane, full
    /// lane, shutdown). Refused batches are counted as shed.
    pub(crate) fn submit(&self, batch: UpdateBatch) -> Result<(), UpdateRejected> {
        if self.stuck.load(Ordering::Relaxed) {
            self.count_shed();
            return Err(UpdateRejected::LaneStuck);
        }
        let mut state = lock_recover(&self.state);
        if state.closed {
            drop(state);
            self.count_shed();
            return Err(UpdateRejected::ShuttingDown);
        }
        if state.batches.len() >= self.capacity {
            let depth = state.batches.len();
            drop(state);
            self.count_shed();
            return Err(UpdateRejected::QueueFull {
                depth,
                capacity: self.capacity,
            });
        }
        state.batches.push_back(batch);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the next batch; `None` once closed *and* drained.
    pub(crate) fn pop_wait(&self) -> Option<UpdateBatch> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(batch) = state.batches.pop_front() {
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = wait_recover(&self.not_empty, state);
        }
    }

    pub(crate) fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Chaos hook: poisons the lane mutex (contained panic while holding
    /// the guard); every later operation must recover.
    pub(crate) fn poison(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.state.lock();
            panic!("injected lock poison");
        }));
    }

    pub(crate) fn begin_apply(&self, started: Instant) {
        let now_ms = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        self.apply_started_ms.store(now_ms, Ordering::Relaxed);
        self.in_apply.store(true, Ordering::Release);
    }

    pub(crate) fn end_apply(&self) {
        self.in_apply.store(false, Ordering::Release);
        self.stuck.store(false, Ordering::Relaxed);
    }

    /// Called by a serving worker after each batch: latches `stuck` when the
    /// in-flight apply has overrun `limit`. Returns true when newly latched.
    pub(crate) fn watchdog_check(&self, started: Instant, limit: Duration) -> bool {
        if !self.in_apply.load(Ordering::Acquire) {
            return false;
        }
        let began = self.apply_started_ms.load(Ordering::Relaxed);
        let now_ms = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let limit_ms = limit.as_millis().min(u64::MAX as u128) as u64;
        if now_ms.saturating_sub(began) > limit_ms {
            return !self.stuck.swap(true, Ordering::Relaxed);
        }
        false
    }

    pub(crate) fn count_applied(&self) {
        self.applied.fetch_add(1, Ordering::Relaxed);
        td_obs::metrics().server_update_applied_total.inc();
    }

    pub(crate) fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        td_obs::metrics().server_update_retries_total.inc();
    }

    pub(crate) fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        td_obs::metrics().server_update_shed_total.inc();
    }

    pub(crate) fn stats(&self) -> LaneStats {
        LaneStats {
            applied: self.applied.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(i: u32) -> UpdateBatch {
        vec![(i, i + 1, Plf::constant(1.0))]
    }

    #[test]
    fn lane_is_bounded_and_fifo() {
        let lane = UpdateLane::new(2);
        assert!(lane.submit(batch(0)).is_ok());
        assert!(lane.submit(batch(1)).is_ok());
        assert!(matches!(
            lane.submit(batch(2)),
            Err(UpdateRejected::QueueFull {
                depth: 2,
                capacity: 2
            })
        ));
        assert_eq!(lane.stats().shed, 1);
        assert_eq!(lane.pop_wait().unwrap()[0].0, 0);
        lane.close();
        assert!(matches!(
            lane.submit(batch(3)),
            Err(UpdateRejected::ShuttingDown)
        ));
        // Close still drains what was accepted.
        assert_eq!(lane.pop_wait().unwrap()[0].0, 1);
        assert!(lane.pop_wait().is_none());
    }

    #[test]
    fn watchdog_latches_stuck_and_apply_end_clears_it() {
        let lane = UpdateLane::new(4);
        let started = Instant::now() - Duration::from_secs(10);
        // No apply in flight: never stuck.
        assert!(!lane.watchdog_check(started, Duration::from_millis(1)));
        lane.begin_apply(started);
        // Within budget: fine. (The apply "began" 10s into the server's
        // life, i.e. just now.)
        assert!(!lane.watchdog_check(started, Duration::from_secs(60)));
        // Overrun: latches once, reports once.
        std::thread::sleep(Duration::from_millis(5));
        assert!(lane.watchdog_check(started, Duration::from_millis(1)));
        assert!(!lane.watchdog_check(started, Duration::from_millis(1)));
        // A stuck lane sheds typed.
        assert!(matches!(
            lane.submit(batch(0)),
            Err(UpdateRejected::LaneStuck)
        ));
        assert_eq!(lane.stats().shed, 1);
        // The wedged apply finishing clears the latch.
        lane.end_apply();
        assert!(lane.submit(batch(0)).is_ok());
    }

    #[test]
    fn poisoned_lane_recovers() {
        let lane = UpdateLane::new(4);
        lane.poison();
        assert!(lane.submit(batch(0)).is_ok());
        assert_eq!(lane.pop_wait().unwrap()[0].0, 0);
    }
}
