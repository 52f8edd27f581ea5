//! Arrival-function utilities.
//!
//! The arrival function of a travel-cost function `w` is `A(t) = t + w(t)`.
//! Under FIFO it is non-decreasing; several algorithms reason about it
//! directly (profile search dominance, `compound` pre-images, upper-bound
//! pruning in Algo. 6).

use crate::plf::Plf;
use crate::view::PlfView;

impl Plf {
    /// Latest departure time `t ≥ from` whose arrival `t + w(t)` is at most
    /// `deadline`, or `None` if no such departure exists at or after `from`
    /// (found by bisection on the arrival function; requires FIFO for
    /// correctness).
    ///
    /// Used by the departure-time-optimisation example and by tests.
    pub fn latest_departure_before(&self, deadline: f64, from: f64) -> Option<f64> {
        // Under FIFO, arrival is non-decreasing, so we binary-search the
        // largest t with arrival(t) ≤ deadline and return it if ≥ from.
        let mut lo = from;
        if self.arrival(lo) > deadline {
            return None;
        }
        // Exponential search for an upper bracket.
        let mut step = 1.0;
        let mut hi = from + step;
        let span_end = self.last().t + (deadline - self.last().v).max(0.0) + 1.0;
        while self.arrival(hi) <= deadline && hi < span_end {
            step *= 2.0;
            hi = from + step;
        }
        if self.arrival(hi) <= deadline {
            return Some(hi);
        }
        for _ in 0..128 {
            let mid = 0.5 * (lo + hi);
            if self.arrival(mid) <= deadline {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    #[test]
    fn latest_departure_simple() {
        let f = plf(&[(0.0, 10.0), (100.0, 10.0)]); // constant 10
        let d = f.latest_departure_before(50.0, 0.0).unwrap();
        assert!((d - 40.0).abs() < 1e-6, "d={d}");
    }

    #[test]
    fn latest_departure_none_when_too_late() {
        let f = plf(&[(0.0, 10.0), (100.0, 10.0)]);
        assert!(f.latest_departure_before(5.0, 0.0).is_none());
    }

    #[test]
    fn latest_departure_respects_from() {
        let f = Plf::constant(10.0);
        assert!(f.latest_departure_before(25.0, 20.0).is_none());
        let d = f.latest_departure_before(45.0, 20.0).unwrap();
        assert!((d - 35.0).abs() < 1e-6);
    }
}
