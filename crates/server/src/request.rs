//! The request lifecycle: typed admission rejections, terminal replies, and
//! the exactly-once reply slot a client waits on. The server installs a
//! reply and wakes its client in two steps — a worker installs a whole
//! batch before it wakes anyone — and the slot tells the installer whether
//! a client sleeps on it, so only a sleeper is woken.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use td_api::{BoundedAnswer, CostQuery, QueryError};

use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};

/// Why a request was refused at admission. Every variant is produced in
/// O(µs) — a rejected client learns its fate before the request touches a
/// queue slot, a worker, or the index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded admission queue is at capacity. Depth never grows past
    /// the cap — overload becomes this typed refusal, not latency collapse.
    QueueFull {
        /// Queue depth observed at the refusal.
        depth: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The overload controller is in shedding mode: the server is refusing
    /// new work so already-admitted requests keep their latency.
    Overloaded,
    /// The client's deadline had already passed at submission (or before
    /// dispatch, for the post-admission shed path).
    DeadlineExpired,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
}

impl Rejected {
    /// Stable label for the `td_server_rejected_total{reason=…}` family.
    pub fn reason(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::Overloaded => "overloaded",
            Rejected::DeadlineExpired => "deadline_expired",
            Rejected::ShuttingDown => "shutdown",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity})")
            }
            Rejected::Overloaded => write!(f, "server is shedding load"),
            Rejected::DeadlineExpired => write!(f, "request deadline already expired"),
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an *admitted* request did not produce an answer.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Shed after admission: the deadline expired while queued, or the
    /// server shut down with the request still in flight.
    Shed(Rejected),
    /// The query itself failed with a typed error — invalid inputs, budget
    /// exhausted on a backend with nothing to degrade to, or a panic that
    /// survived its single bounded retry.
    Query(QueryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed(r) => write!(f, "request shed: {r}"),
            ServeError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The terminal reply of an admitted request: an answer from the
/// degradation ladder, or a typed error. Exactly one is delivered per
/// admitted request.
pub type ServeResult = Result<BoundedAnswer, ServeError>;

/// The write-once slot a reply lands in. `install` keeps the *first*
/// terminal reply and reports duplicates instead of overwriting — the
/// exactly-once invariant is enforced structurally, not by convention.
///
/// A client about to block marks the slot under its lock, so the server
/// learns at install time whether anyone sleeps on the reply: only then
/// does it owe the slot a [`ReplySlot::wake`] — the one syscall of a reply.
/// A reply nobody waits for yet (the client is still submitting the rest of
/// its burst, or polls with [`RequestHandle::try_reply`]) costs no syscall.
pub(crate) struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

struct SlotState {
    reply: Option<ServeResult>,
    /// Set by a client before it blocks on `ready`, never cleared: a reply
    /// installed after it is owed a wake-up.
    waiting: bool,
}

/// What [`ReplySlot::install`] did.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Installed {
    /// The first reply; `sleeper` when a client blocks on the slot and must
    /// be woken with [`ReplySlot::wake`].
    First { sleeper: bool },
    /// A second reply, dropped: the first is kept and the caller counts the
    /// violation.
    Duplicate,
}

impl ReplySlot {
    pub(crate) fn new() -> ReplySlot {
        ReplySlot {
            state: Mutex::new(SlotState {
                reply: None,
                waiting: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Installs the terminal reply without waking anyone: a client that
    /// polls sees it at once, a sleeping one once the caller wakes the slot.
    pub(crate) fn install(&self, reply: ServeResult) -> Installed {
        let mut state = lock_recover(&self.state);
        if state.reply.is_some() {
            return Installed::Duplicate;
        }
        state.reply = Some(reply);
        Installed::First {
            sleeper: state.waiting,
        }
    }

    /// Wakes every client blocked on the slot.
    pub(crate) fn wake(&self) {
        self.ready.notify_all();
    }

    fn get(&self) -> Option<ServeResult> {
        lock_recover(&self.state).reply.clone()
    }

    fn wait(&self) -> ServeResult {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(reply) = &state.reply {
                return reply.clone();
            }
            state.waiting = true;
            state = wait_recover(&self.ready, state);
        }
    }

    fn wait_deadline(&self, deadline: Instant) -> Option<ServeResult> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(reply) = &state.reply {
                return Some(reply.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state.waiting = true;
            state = wait_timeout_recover(&self.ready, state, deadline - now);
        }
    }

    /// Whether a client has blocked on the slot.
    #[cfg(test)]
    pub(crate) fn has_sleeper(&self) -> bool {
        lock_recover(&self.state).waiting
    }
}

/// The client's side of an admitted request: a handle on the reply slot.
///
/// Dropping the handle is safe — the server still fulfills the slot (the
/// reply is simply never read), so a slow or crashed consumer can never
/// stall a serving worker or leak the exactly-once accounting.
pub struct RequestHandle {
    pub(crate) slot: Arc<ReplySlot>,
    pub(crate) submitted: Instant,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("replied", &self.slot.get().is_some())
            .field("elapsed", &self.submitted.elapsed())
            .finish()
    }
}

impl RequestHandle {
    /// The terminal reply if it has already arrived (non-blocking).
    pub fn try_reply(&self) -> Option<ServeResult> {
        self.slot.get()
    }

    /// Blocks until the terminal reply arrives. Every admitted request gets
    /// exactly one, so this never blocks past the server's shutdown drain.
    pub fn wait(&self) -> ServeResult {
        self.slot.wait()
    }

    /// Blocks up to `timeout`; `None` means the reply has not arrived yet
    /// (the handle stays valid and can be waited on again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeResult> {
        self.slot.wait_deadline(Instant::now() + timeout)
    }

    /// Time since the request was admitted.
    pub fn elapsed(&self) -> Duration {
        self.submitted.elapsed()
    }
}

/// An admitted request travelling through queue → worker grab → executor.
pub(crate) struct Pending {
    pub query: CostQuery,
    pub deadline: Option<Instant>,
    pub submitted: Instant,
    /// Panic-retry attempts already spent (0 on first dispatch).
    pub attempts: u32,
    pub slot: Arc<ReplySlot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the server does with a reply it owes no batch: install it, then
    /// wake a sleeper.
    fn deliver(slot: &ReplySlot, reply: ServeResult) -> Installed {
        let installed = slot.install(reply);
        if installed == (Installed::First { sleeper: true }) {
            slot.wake();
        }
        installed
    }

    #[test]
    fn install_is_exactly_once() {
        let slot = Arc::new(ReplySlot::new());
        let handle = RequestHandle {
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
        };
        assert!(handle.try_reply().is_none());
        // Nobody has blocked on the slot: the reply is owed no wake-up.
        assert_eq!(
            slot.install(Ok(BoundedAnswer::Exact(Some(1.0)))),
            Installed::First { sleeper: false }
        );
        // The duplicate is reported and the first reply kept.
        assert_eq!(
            slot.install(Ok(BoundedAnswer::Exact(Some(2.0)))),
            Installed::Duplicate
        );
        assert_eq!(handle.wait(), Ok(BoundedAnswer::Exact(Some(1.0))));
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(1)),
            Some(Ok(BoundedAnswer::Exact(Some(1.0))))
        );
        // A reply already there never blocks its reader.
        assert!(!slot.has_sleeper());
    }

    #[test]
    fn wait_timeout_expires_without_a_reply() {
        let slot = Arc::new(ReplySlot::new());
        let handle = RequestHandle {
            slot,
            submitted: Instant::now(),
        };
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), None);
        // It blocked: a reply installed now would be owed a wake-up.
        assert!(handle.slot.has_sleeper());
    }

    #[test]
    fn wait_crosses_threads() {
        let slot = Arc::new(ReplySlot::new());
        let handle = RequestHandle {
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
        };
        let t = std::thread::spawn(move || {
            while !slot.has_sleeper() {
                std::thread::yield_now();
            }
            deliver(&slot, Err(ServeError::Shed(Rejected::ShuttingDown)))
        });
        assert_eq!(handle.wait(), Err(ServeError::Shed(Rejected::ShuttingDown)));
        assert_eq!(t.join().unwrap(), Installed::First { sleeper: true });
    }

    /// Spins for a seeded 0–2 047 iterations: enough to put either side of
    /// a race first, or both inside it at once.
    fn jitter(seed: u64) {
        for _ in 0..crate::fault::splitmix64(seed) % 2048 {
            std::hint::spin_loop();
        }
    }

    /// No lost wake-up: a client's `wait_timeout(1 s)` races the server's
    /// install-then-wake from a seeded start each round. Whichever comes
    /// first, the client must come back with the reply long before its
    /// timeout — a wake-up lost between the flag and the sleep would hold it
    /// the whole second.
    #[test]
    fn wait_timeout_racing_a_delivery_never_sleeps_through_it() {
        let rounds: u64 = if cfg!(debug_assertions) { 300 } else { 2_000 };
        for round in 0..rounds {
            let slot = Arc::new(ReplySlot::new());
            let handle = RequestHandle {
                slot: Arc::clone(&slot),
                submitted: Instant::now(),
            };
            let waited = std::thread::scope(|s| {
                s.spawn(|| {
                    jitter(2 * round);
                    deliver(&slot, Ok(BoundedAnswer::Exact(Some(round as f64))));
                });
                jitter(2 * round + 1);
                let start = Instant::now();
                let reply = handle.wait_timeout(Duration::from_secs(1));
                (reply, start.elapsed())
            });
            assert_eq!(
                waited.0,
                Some(Ok(BoundedAnswer::Exact(Some(round as f64)))),
                "round {round}"
            );
            assert!(
                waited.1 < Duration::from_millis(500),
                "round {round}: the wake-up was lost ({:?})",
                waited.1
            );
        }
    }

    #[test]
    fn rejection_taxonomy_renders_and_labels() {
        let cases: [(Rejected, &str); 4] = [
            (
                Rejected::QueueFull {
                    depth: 8,
                    capacity: 8,
                },
                "queue_full",
            ),
            (Rejected::Overloaded, "overloaded"),
            (Rejected::DeadlineExpired, "deadline_expired"),
            (Rejected::ShuttingDown, "shutdown"),
        ];
        for (r, label) in cases {
            assert_eq!(r.reason(), label);
            assert!(!r.to_string().is_empty());
        }
    }
}
