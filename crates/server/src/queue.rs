//! The bounded MPMC admission queue.
//!
//! Producers (client threads calling `submit`) push without ever blocking:
//! a full queue hands the request straight back so admission can refuse it
//! with a typed [`crate::Rejected::QueueFull`] — depth is capped by
//! construction, so overload can never become unbounded memory growth or
//! silent latency collapse. The consumers (the serving workers) block on
//! the condvar only while the queue is empty: each takes one request with
//! `pop_wait` and tops its batch up with whatever `drain_into` finds already
//! queued — nothing on the request path waits for more to arrive.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::request::Pending;
use crate::sync::{lock_recover, wait_recover};

struct State {
    items: VecDeque<Pending>,
    closed: bool,
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
        drop(state);
        self.not_empty.notify_one();
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
        drop(state);
        self.not_empty.notify_one();
    }

    /// Blocks until an item is available (or the queue is closed *and*
    /// empty). First call of a worker's batch.
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
            state = wait_recover(&self.not_empty, state);
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

    /// Closes admission and wakes every consumer. Items already queued are
    /// still handed out by `pop_wait` before it reports `Closed`.
    pub(crate) fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
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
    use std::sync::Arc;
    use std::time::Instant;

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
