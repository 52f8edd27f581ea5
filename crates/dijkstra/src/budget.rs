#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! Query budgets: cooperative cancellation for the frozen hot loops.
//!
//! A [`QueryBudget`] caps how much work a single query may spend — a settle
//! count and/or a wall-clock deadline — and is checked at checkpoints the
//! hot loops already pass through. The settle cap costs one integer compare
//! per settle; the clock is read only once every [`DEADLINE_STRIDE`]
//! settles, so an unlimited budget adds a single predictable branch and no
//! syscalls to the 52 µs A\*-CH path (`benches/budget_overhead.rs` guards
//! the bill).
//!
//! When the budget runs out the search does not fail — it reports what it
//! already proved. The minimum heap key at the stop is an admissible lower
//! bound on the destination's arrival (plain Dijkstra orders by arrival;
//! A\* keys add a consistent potential with `h(d) = 0`), and the tentative
//! target label, when a path has been found, is an upper bound. The caller
//! gets a bracketing [`BoundedCost::Exhausted`] interval instead of a wrong
//! answer — bounded-quality answers as a first-class oracle product
//! (Kontogiannis et al.), with the bracket produced by the frontier the
//! same way the Strasser–Wagner–Zeitz line gets it from CH bounds.

use std::time::{Duration, Instant};

/// The wall clock is read once every this many settles (a power of two, so
/// the checkpoint is a mask + compare). A thousand settles is tens of
/// microseconds of work on the frozen layout, keeping deadline overshoot
/// well under a millisecond without paying a clock read per settle.
pub const DEADLINE_STRIDE: u64 = 1024;

/// A per-query work cap: maximum number of settled vertices and/or a
/// wall-clock deadline. `Copy`, lock-free, and shareable across threads —
/// one budget value can serve a whole batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryBudget {
    max_settles: u64,
    deadline: Option<Instant>,
}

impl QueryBudget {
    /// No cap at all: the search runs to completion and never reads the
    /// clock.
    pub const UNLIMITED: QueryBudget = QueryBudget {
        max_settles: u64::MAX,
        deadline: None,
    };

    /// Cap the number of settled vertices (0 stops before the first settle).
    pub fn settles(max_settles: u64) -> QueryBudget {
        QueryBudget {
            max_settles,
            deadline: None,
        }
    }

    /// Add an absolute wall-clock deadline, keeping the settle cap.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> QueryBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Add a deadline `timeout` from now, keeping the settle cap.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> QueryBudget {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Deadline-only budget: no settle cap, stop `timeout` from now.
    pub fn timeout(timeout: Duration) -> QueryBudget {
        QueryBudget::UNLIMITED.with_timeout(timeout)
    }

    /// Tightens the budget with an optional second deadline, keeping the
    /// *earlier* of the two (and the settle cap). This is the deadline
    /// propagation primitive: a serving layer merges each request's client
    /// deadline into the batch's policy budget without ever loosening it.
    #[must_use]
    pub fn tightened_to(mut self, deadline: Option<Instant>) -> QueryBudget {
        self.deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// The settle cap (`u64::MAX` = uncapped).
    pub fn max_settles(&self) -> u64 {
        self.max_settles
    }

    /// The wall-clock deadline, if armed.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True iff this budget can never exhaust a search.
    pub fn is_unlimited(&self) -> bool {
        *self == QueryBudget::UNLIMITED
    }

    /// True when the wall-clock deadline (if any) has already passed.
    #[inline]
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The checkpoint the hot loops run before settling vertex number
    /// `settles` (0-based): one integer compare, plus a clock read every
    /// [`DEADLINE_STRIDE`] settles when a deadline is armed. The stride
    /// includes 0, so an already-expired deadline exhausts the search
    /// before any work happens.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    #[inline]
    pub fn exhausted(&self, settles: u64) -> bool {
        settles >= self.max_settles
            || (settles & (DEADLINE_STRIDE - 1) == 0 && self.deadline_passed())
    }
}

impl Default for QueryBudget {
    fn default() -> QueryBudget {
        QueryBudget::UNLIMITED
    }
}

/// Outcome of a budget-bounded frozen search, in travel-cost space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BoundedCost {
    /// The search ran to completion: the exact answer, bit-identical
    /// whatever the budget (`None` = destination proven unreachable).
    Exact(Option<f64>),
    /// The budget ran out first. If the destination is reachable, its exact
    /// travel cost lies in `[lower, upper]`. `upper` is finite iff a
    /// concrete path to the destination was already found, so a finite
    /// upper bound also proves reachability; an infinite one leaves it
    /// open. Exhaustion never claims unreachability.
    Exhausted {
        /// Admissible lower bound on the travel cost (≥ 0).
        lower: f64,
        /// Upper bound witnessed by a found path, or `f64::INFINITY`.
        upper: f64,
    },
}

impl BoundedCost {
    /// Builds the bracketing interval from arrival space: `frontier_key` is
    /// the minimum heap key at the stop (an admissible lower bound on the
    /// destination's arrival), `upper_arrival` the tentative target label
    /// (`INFINITY` when no path has been found yet), `t` the departure.
    pub(crate) fn exhausted_from_arrivals(
        frontier_key: f64,
        upper_arrival: f64,
        t: f64,
    ) -> BoundedCost {
        BoundedCost::Exhausted {
            // The frontier key never exceeds the tentative target key (the
            // target's own heap entry is part of the frontier), but clamp
            // anyway so the interval is well-formed by construction.
            lower: (frontier_key.min(upper_arrival) - t).max(0.0),
            upper: upper_arrival - t,
        }
    }

    /// True for [`BoundedCost::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, BoundedCost::Exact(_))
    }
}

// Compile-time pin: one budget value is shared across a whole batch's
// worker threads.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<QueryBudget>()
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = QueryBudget::UNLIMITED;
        assert!(b.is_unlimited());
        for settles in [0, 1, 1023, 1024, u64::MAX - 1] {
            assert!(!b.exhausted(settles));
        }
        assert!(!b.deadline_passed());
    }

    #[test]
    fn settle_cap_is_exact() {
        let b = QueryBudget::settles(10);
        assert!(!b.exhausted(9));
        assert!(b.exhausted(10));
        assert!(b.exhausted(11));
        assert!(QueryBudget::settles(0).exhausted(0));
    }

    #[test]
    fn expired_deadline_fires_at_stride_zero() {
        let b = QueryBudget::UNLIMITED.with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(b.deadline_passed());
        assert!(b.exhausted(0));
        // Off-stride settles skip the clock read entirely.
        assert!(!b.exhausted(1));
        assert!(b.exhausted(DEADLINE_STRIDE));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let b = QueryBudget::timeout(Duration::from_secs(3600));
        assert!(!b.exhausted(0));
        assert!(!b.exhausted(DEADLINE_STRIDE));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn tightened_to_keeps_the_earlier_deadline() {
        let near = Instant::now() + Duration::from_millis(10);
        let far = near + Duration::from_secs(10);
        let b = QueryBudget::settles(100).with_deadline(far);
        assert_eq!(b.tightened_to(Some(near)).deadline(), Some(near));
        // Tightening never loosens: an earlier armed deadline survives.
        let b = QueryBudget::settles(100).with_deadline(near);
        assert_eq!(b.tightened_to(Some(far)).deadline(), Some(near));
        // None leaves the budget untouched; a deadline lands on a bare cap.
        assert_eq!(b.tightened_to(None), b);
        assert_eq!(
            QueryBudget::settles(100)
                .tightened_to(Some(near))
                .deadline(),
            Some(near)
        );
        assert_eq!(b.tightened_to(Some(far)).max_settles(), 100);
    }

    #[test]
    fn exhausted_interval_is_well_formed() {
        // No path found yet: upper stays infinite, lower comes from the key.
        let c = BoundedCost::exhausted_from_arrivals(130.0, f64::INFINITY, 100.0);
        assert_eq!(
            c,
            BoundedCost::Exhausted {
                lower: 30.0,
                upper: f64::INFINITY
            }
        );
        // Path found: the frontier key bounds below, the label above.
        let c = BoundedCost::exhausted_from_arrivals(120.0, 150.0, 100.0);
        assert_eq!(
            c,
            BoundedCost::Exhausted {
                lower: 20.0,
                upper: 50.0
            }
        );
        assert!(!c.is_exact());
        // Degenerate key below departure clamps to 0.
        match BoundedCost::exhausted_from_arrivals(90.0, f64::INFINITY, 100.0) {
            BoundedCost::Exhausted { lower, upper } => {
                assert_eq!(lower, 0.0);
                assert!(upper.is_infinite());
            }
            other => panic!("{other:?}"),
        }
    }
}
