#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (control plane: pure decision functions — no locks, no channels, no
// allocation; the serving workers and admission path call these inline)

//! The overload control plane, as data-in/data-out functions.
//!
//! Admission decisions and overload-state transitions are pure: they read a
//! few integers (queue depth and capacity, the current mode) and return a
//! verdict. All the policy — watermarks and hysteresis — lives here where
//! it is unit-testable without threads, while the mechanics (the atomic
//! mode, metrics, the actual shedding) stay in the server.
//!
//! The state machine has three rungs, degrading in the same spirit as the
//! query ladder (exact → approximate → typed refusal):
//!
//! * **Normal** — full settle budgets, everything admitted.
//! * **Degraded** — approximate-first: dispatched queries get a tight
//!   settle cap, trading exactness for bounded latency while the backlog
//!   drains. Entered on the degrade watermark.
//! * **Shedding** — new work is refused with [`Rejected::Overloaded`] so
//!   already-admitted requests keep their latency. Entered on the shed
//!   watermark; left through Degraded, never straight to Normal.
//!
//! Queue fill is the one signal: watermarks use hysteresis (`RECOVER_BELOW`
//! sits well under `DEGRADE_ABOVE`) so the controller cannot flap on a
//! queue hovering at one boundary. Each is a constant beside the function
//! that reads it.

use std::time::Instant;

use td_dijkstra::QueryBudget;

use crate::request::Rejected;

/// The overload state machine's rung. Stored as a `u8` in an atomic by the
/// server; the discriminants are the exported gauge values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum OverloadMode {
    /// Full budgets, everything admitted.
    Normal = 0,
    /// Approximate-first: tight settle caps on dispatched queries.
    Degraded = 1,
    /// New work refused with [`Rejected::Overloaded`].
    Shedding = 2,
}

impl OverloadMode {
    /// Decodes the atomic representation (unknown values read as Normal).
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    #[inline]
    pub fn from_u8(v: u8) -> OverloadMode {
        match v {
            1 => OverloadMode::Degraded,
            2 => OverloadMode::Shedding,
            _ => OverloadMode::Normal,
        }
    }

    /// The atomic / gauge encoding.
    #[inline]
    pub fn as_u8(self) -> u8 {
        self as u8
    }
}

/// The admission verdict, decided in O(µs) before the request touches the
/// queue: shutdown and expired deadlines are always typed refusals;
/// shedding mode refuses everything else. Queue capacity is enforced by the
/// bounded queue itself (the push is the only race-free check).
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#[inline]
pub fn admission_decision(
    shutting_down: bool,
    deadline: Option<Instant>,
    now: Instant,
    mode: OverloadMode,
) -> Option<Rejected> {
    if shutting_down {
        return Some(Rejected::ShuttingDown);
    }
    if let Some(d) = deadline {
        if now >= d {
            return Some(Rejected::DeadlineExpired);
        }
    }
    if matches!(mode, OverloadMode::Shedding) {
        return Some(Rejected::Overloaded);
    }
    None
}

/// Queue fill fraction at which Normal degrades.
const DEGRADE_ABOVE: f64 = 0.5;
/// Queue fill fraction at which the server starts shedding.
const SHED_ABOVE: f64 = 0.85;
/// Fill fraction the queue must fall to before stepping one rung back
/// toward Normal — the hysteresis band.
const RECOVER_BELOW: f64 = 0.25;

/// One transition of the overload state machine, evaluated by a serving
/// worker after every batch.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub fn next_mode(mode: OverloadMode, depth: usize, capacity: usize) -> OverloadMode {
    let fill = depth as f64 / capacity.max(1) as f64;
    if fill >= SHED_ABOVE {
        return OverloadMode::Shedding;
    }
    match mode {
        OverloadMode::Normal => {
            if fill >= DEGRADE_ABOVE {
                OverloadMode::Degraded
            } else {
                OverloadMode::Normal
            }
        }
        OverloadMode::Degraded => {
            if fill <= RECOVER_BELOW {
                OverloadMode::Normal
            } else {
                OverloadMode::Degraded
            }
        }
        // Shedding steps back through Degraded once the backlog drains,
        // never straight to Normal: the rung below re-examines the queue
        // before full budgets return.
        OverloadMode::Shedding => {
            if fill <= RECOVER_BELOW {
                OverloadMode::Degraded
            } else {
                OverloadMode::Shedding
            }
        }
    }
}

/// How many requests a serving worker takes in one grab, the one it
/// blocked for included: an even share of what the queue holds
/// (`depth` is what the blocking pop left behind), so an idle worker is
/// never left out of a burst, and batches grow by themselves while every
/// worker is busy. Never 0, never more than `max_batch`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#[inline]
pub fn grab_size(depth: usize, workers: usize, max_batch: usize) -> usize {
    (depth + 1)
        .div_ceil(workers.max(1))
        .clamp(1, max_batch.max(1))
}

/// Settle cap per query in Normal mode: uncapped.
const NORMAL_SETTLES: u64 = u64::MAX;
/// Settle cap per query in Degraded/Shedding mode — the approximate-first
/// budget.
const DEGRADED_SETTLES: u64 = 20_000;

/// The settle cap dispatched queries run under in `mode`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#[inline]
pub fn settle_cap(mode: OverloadMode) -> u64 {
    match mode {
        OverloadMode::Normal => NORMAL_SETTLES,
        // Shedding applies the degraded cap too: the backlog being drained
        // is exactly the work that must finish fast.
        OverloadMode::Degraded | OverloadMode::Shedding => DEGRADED_SETTLES,
    }
}

/// The per-slot budget for one dispatched request: the mode's settle cap,
/// tightened (never loosened) by the request's own client deadline.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#[inline]
pub fn slot_budget(mode: OverloadMode, deadline: Option<Instant>) -> QueryBudget {
    QueryBudget::settles(settle_cap(mode)).tightened_to(deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn admission_orders_its_refusals() {
        let now = Instant::now();
        let past = now - Duration::from_millis(1);
        let future = now + Duration::from_secs(1);
        // Shutdown wins over everything.
        assert_eq!(
            admission_decision(true, Some(past), now, OverloadMode::Normal),
            Some(Rejected::ShuttingDown)
        );
        // An expired deadline is typed even while shedding.
        assert_eq!(
            admission_decision(false, Some(past), now, OverloadMode::Shedding),
            Some(Rejected::DeadlineExpired)
        );
        assert_eq!(
            admission_decision(false, Some(future), now, OverloadMode::Shedding),
            Some(Rejected::Overloaded)
        );
        assert_eq!(
            admission_decision(false, Some(future), now, OverloadMode::Normal),
            None
        );
        assert_eq!(
            admission_decision(false, None, now, OverloadMode::Degraded),
            None
        );
    }

    #[test]
    fn watermarks_walk_the_state_machine_with_hysteresis() {
        let m = OverloadMode::Normal;
        // Below the degrade watermark nothing happens.
        assert_eq!(next_mode(m, 49, 100), OverloadMode::Normal);
        let m = next_mode(m, 50, 100);
        assert_eq!(m, OverloadMode::Degraded);
        // Inside the hysteresis band the rung holds.
        assert_eq!(next_mode(m, 40, 100), OverloadMode::Degraded);
        assert_eq!(next_mode(m, 26, 100), OverloadMode::Degraded);
        // Draining below recover_below steps back to Normal.
        assert_eq!(next_mode(m, 25, 100), OverloadMode::Normal);
        // The shed watermark fires from any rung.
        let m = next_mode(OverloadMode::Normal, 85, 100);
        assert_eq!(m, OverloadMode::Shedding);
        assert_eq!(next_mode(m, 84, 100), OverloadMode::Shedding);
        // Shedding exits through Degraded, never straight to Normal.
        let m = next_mode(m, 10, 100);
        assert_eq!(m, OverloadMode::Degraded);
        assert_eq!(next_mode(m, 10, 100), OverloadMode::Normal);
    }

    #[test]
    fn grab_size_splits_the_queue_evenly_and_never_takes_nothing() {
        // Never 0 — not on an empty queue, not with nonsense knobs.
        assert_eq!(grab_size(0, 4, 64), 1);
        assert_eq!(grab_size(0, 0, 0), 1);
        // Fewer queued than workers: one each, the rest is for the others.
        for depth in 0..4 {
            assert_eq!(grab_size(depth, 4, 64), 1, "depth {depth}");
        }
        // An even split, rounded up so nothing is left for a fifth grab.
        assert_eq!(grab_size(7, 4, 64), 2);
        assert_eq!(grab_size(8, 4, 64), 3);
        assert_eq!(grab_size(31, 2, 64), 16);
        // Capped by max_batch.
        assert_eq!(grab_size(1000, 4, 64), 64);
        // One worker takes everything up to max_batch.
        for depth in 0..200 {
            assert_eq!(grab_size(depth, 1, 64), (depth + 1).min(64));
        }
    }

    #[test]
    fn budgets_follow_the_mode_and_the_deadline() {
        assert_eq!(settle_cap(OverloadMode::Normal), u64::MAX);
        assert_eq!(settle_cap(OverloadMode::Degraded), DEGRADED_SETTLES);
        assert_eq!(settle_cap(OverloadMode::Shedding), DEGRADED_SETTLES);
        let d = Instant::now() + Duration::from_millis(5);
        let b = slot_budget(OverloadMode::Degraded, Some(d));
        assert_eq!(b.max_settles(), DEGRADED_SETTLES);
        assert_eq!(b.deadline(), Some(d));
        let b = slot_budget(OverloadMode::Normal, None);
        assert_eq!(b.max_settles(), u64::MAX);
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn mode_round_trips_through_u8() {
        for m in [
            OverloadMode::Normal,
            OverloadMode::Degraded,
            OverloadMode::Shedding,
        ] {
            assert_eq!(OverloadMode::from_u8(m.as_u8()), m);
        }
        assert_eq!(OverloadMode::from_u8(7), OverloadMode::Normal);
    }
}
