//! The bounded MPMC admission queue.
//!
//! Producers (client threads calling `submit`) push without ever blocking:
//! a full queue hands the request straight back so admission can refuse it
//! with a typed [`crate::Rejected::QueueFull`] — depth is capped by
//! construction, so overload can never become unbounded memory growth or
//! silent latency collapse. The consumers (the serving workers) block on
//! the condvar only while the queue is empty: each takes one request with
//! `pop_wait` and tops its batch up with whatever `drain_into` finds already
//! queued — nothing on the request path waits for more to arrive. A
//! consumer about to block counts itself idle under the queue's lock, and a
//! push signals only when one is: while every worker is busy, admission
//! makes no syscall. `close` wakes every consumer, idle or not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::request::Pending;
use crate::sync::{lock_recover, wait_recover};

struct State {
    items: VecDeque<Pending>,
    closed: bool,
    /// Consumers blocked in `pop_wait`; a push signals only when one is.
    idle: usize,
}

pub(crate) struct AdmissionQueue {
    state: Mutex<State>,
    not_empty: Condvar,
    capacity: usize,
    /// Lock-free mirror of the queue depth for the controller, the gauge,
    /// and `QueueFull` payloads. Advisory (updated after the fact); the
    /// capacity check itself runs under the lock and is exact.
    depth: AtomicUsize,
}

/// Outcome of a consumer's blocking pop.
pub(crate) enum Popped {
    Item(Pending),
    /// Closed *and* drained: the worker can retire.
    Closed,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
                idle: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Advisory current depth (exact between mutations).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Admits `p` at the tail. On a full (or closed) queue the request is
    /// handed back untouched so the caller can produce a typed rejection —
    /// producers never block and never grow the queue past its cap.
    pub(crate) fn push_back(&self, p: Pending) -> Result<(), Pending> {
        let mut state = lock_recover(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(p);
        }
        state.items.push_back(p);
        self.depth.store(state.items.len(), Ordering::Relaxed);
        let idle = state.idle > 0;
        drop(state);
        if idle {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Re-enqueues an already-admitted request at the *head* (the panic
    /// retry path). Deliberately ignores the capacity cap: the request
    /// holds an admission slot already, and dropping it would break the
    /// exactly-once reply invariant. Excursions past the cap are bounded
    /// by what the workers hold: `workers × max_batch`.
    pub(crate) fn push_front(&self, p: Pending) {
        let mut state = lock_recover(&self.state);
        state.items.push_front(p);
        self.depth.store(state.items.len(), Ordering::Relaxed);
        let idle = state.idle > 0;
        drop(state);
        if idle {
            self.not_empty.notify_one();
        }
    }

    /// Blocks until an item is available (or the queue is closed *and*
    /// empty). First call of a worker's batch. A consumer counts itself idle
    /// under the lock before it sleeps, so a push that finds no idle
    /// consumer and skips the signal is one this consumer's next look at
    /// the queue sees.
    pub(crate) fn pop_wait(&self) -> Popped {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(p) = state.items.pop_front() {
                self.depth.store(state.items.len(), Ordering::Relaxed);
                return Popped::Item(p);
            }
            if state.closed {
                return Popped::Closed;
            }
            state.idle += 1;
            state = wait_recover(&self.not_empty, state);
            state.idle -= 1;
        }
    }

    /// Moves up to `take` already-queued requests from the head into `buf`
    /// and returns at once, however few there were: a worker's batch is
    /// what the queue holds now, never what might still arrive.
    pub(crate) fn drain_into(&self, take: usize, buf: &mut Vec<Pending>) {
        let mut state = lock_recover(&self.state);
        let k = take.min(state.items.len());
        buf.extend(state.items.drain(..k));
        self.depth.store(state.items.len(), Ordering::Relaxed);
    }

    /// Closes admission and wakes every consumer, idle or not. Items already
    /// queued are still handed out by `pop_wait` before it reports `Closed`.
    pub(crate) fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Consumers blocked in `pop_wait` right now.
    #[cfg(test)]
    fn idle(&self) -> usize {
        lock_recover(&self.state).idle
    }

    /// Chaos hook: poisons the queue mutex by panicking (contained) while
    /// holding the guard. The queue state is untouched — the next operation
    /// must recover and keep serving.
    pub(crate) fn poison(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.state.lock();
            panic!("injected lock poison");
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReplySlot;
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    fn pending(i: u32) -> Pending {
        Pending {
            query: (i, i, 0.0),
            deadline: None,
            submitted: Instant::now(),
            attempts: 0,
            slot: Arc::new(ReplySlot::new()),
        }
    }

    #[test]
    fn capacity_is_a_hard_cap_and_fifo_holds() {
        let q = AdmissionQueue::new(2);
        assert!(q.push_back(pending(0)).is_ok());
        assert!(q.push_back(pending(1)).is_ok());
        assert_eq!(q.depth(), 2);
        // The third admission bounces with the request handed back.
        let bounced = q.push_back(pending(2)).unwrap_err();
        assert_eq!(bounced.query.0, 2);
        // Retry push_front bypasses the cap (admitted work is never dropped)
        // and lands at the head.
        q.push_front(pending(9));
        assert_eq!(q.depth(), 3);
        match q.pop_wait() {
            Popped::Item(p) => assert_eq!(p.query.0, 9),
            Popped::Closed => panic!("queue is open"),
        }
        match q.pop_wait() {
            Popped::Item(p) => assert_eq!(p.query.0, 0),
            Popped::Closed => panic!("queue is open"),
        }
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = AdmissionQueue::new(4);
        assert!(q.push_back(pending(0)).is_ok());
        q.close();
        // Closed queues refuse new work...
        assert!(q.push_back(pending(1)).is_err());
        // ...but still hand out what was admitted.
        assert!(matches!(q.pop_wait(), Popped::Item(_)));
        assert!(matches!(q.pop_wait(), Popped::Closed));
    }

    #[test]
    fn drain_takes_what_is_queued_and_only_an_empty_pop_blocks() {
        let q = Arc::new(AdmissionQueue::new(16));
        // `drain_into` has no way to wait (it never touches the condvar):
        // with k queued it hands over exactly min(k, take), head first.
        for (k, take) in [(0usize, 3usize), (2, 5), (5, 5), (7, 3), (4, 0)] {
            for i in 0..k {
                assert!(q.push_back(pending(i as u32)).is_ok());
            }
            let mut buf = Vec::new();
            q.drain_into(take, &mut buf);
            let got: Vec<u32> = buf.iter().map(|p| p.query.0).collect();
            let want: Vec<u32> = (0..k.min(take) as u32).collect();
            assert_eq!(got, want, "k={k} take={take}");
            assert_eq!(q.depth(), k - k.min(take));
            q.drain_into(usize::MAX, &mut buf);
            assert_eq!(q.depth(), 0);
        }
        // `pop_wait` on the now-empty queue blocks: it can only return the
        // item pushed after the consumer was started.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || match q.pop_wait() {
                Popped::Item(p) => p.query.0,
                Popped::Closed => panic!("queue is open"),
            })
        };
        assert!(q.push_back(pending(77)).is_ok());
        assert_eq!(consumer.join().unwrap(), 77);
    }

    /// Spins for a seeded 0–2 047 iterations: enough to put either side of
    /// a race first, or both inside it at once.
    fn jitter(seed: u64) {
        for _ in 0..crate::fault::splitmix64(seed) % 2048 {
            std::hint::spin_loop();
        }
    }

    /// No lost wake-up: each round one or two consumers enter `pop_wait` on
    /// an empty queue while a producer pushes as many requests, every side
    /// from a seeded start — before, while and after the consumers count
    /// themselves idle. Every consumer must come back with a request. A
    /// push that skipped the signal to a consumer about to sleep would
    /// leave it blocked; the round then closes the queue to let it go and
    /// fails.
    #[test]
    fn a_push_racing_a_consumer_into_pop_wait_always_wakes_it() {
        let rounds: u64 = if cfg!(debug_assertions) { 300 } else { 2_000 };
        for round in 0..rounds {
            let q = AdmissionQueue::new(4);
            let consumers = 1 + (round % 2) as usize;
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                for c in 0..consumers {
                    let (q, tx) = (&q, tx.clone());
                    s.spawn(move || {
                        jitter(3 * round + c as u64);
                        let popped = matches!(q.pop_wait(), Popped::Item(_));
                        tx.send(popped).unwrap();
                    });
                }
                jitter(3 * round + 2);
                for i in 0..consumers {
                    assert!(q.push_back(pending(i as u32)).is_ok());
                }
                for c in 0..consumers {
                    let got = rx.recv_timeout(Duration::from_secs(5));
                    if got != Ok(true) {
                        q.close();
                        panic!("round {round}: consumer {c} of {consumers} got {got:?}");
                    }
                }
            });
            assert_eq!(q.depth(), 0, "round {round}");
            assert_eq!(q.idle(), 0, "round {round}");
        }
    }

    #[test]
    fn close_wakes_every_blocked_consumer() {
        let q = AdmissionQueue::new(4);
        let (tx, rx) = mpsc::channel();
        let got: Vec<_> = std::thread::scope(|s| {
            for _ in 0..3 {
                let (q, tx) = (&q, tx.clone());
                s.spawn(move || tx.send(matches!(q.pop_wait(), Popped::Closed)).unwrap());
            }
            while q.idle() < 3 {
                std::thread::yield_now();
            }
            q.close();
            let got: Vec<_> = (0..3)
                .map(|_| rx.recv_timeout(Duration::from_secs(5)))
                .collect();
            // A consumer `close` left asleep is let go by a retry push (the
            // one push a closed queue takes), so the failure reports.
            for i in 0..q.idle() {
                q.push_front(pending(i as u32));
            }
            got
        });
        assert_eq!(got, [Ok(true), Ok(true), Ok(true)]);
        assert_eq!(q.idle(), 0);
    }

    #[test]
    fn poisoned_queue_keeps_serving() {
        let q = AdmissionQueue::new(4);
        assert!(q.push_back(pending(7)).is_ok());
        q.poison();
        assert!(q.state.is_poisoned());
        // Every operation recovers: push, pop, close.
        assert!(q.push_back(pending(8)).is_ok());
        match q.pop_wait() {
            Popped::Item(p) => assert_eq!(p.query.0, 7),
            Popped::Closed => panic!("queue is open"),
        }
        q.close();
        assert!(matches!(q.pop_wait(), Popped::Item(_)));
        assert!(matches!(q.pop_wait(), Popped::Closed));
    }
}
