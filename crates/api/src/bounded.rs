//! Bounded queries: the serving layer's typed error taxonomy and the
//! graceful-degradation answer a query returns when its budget runs out.
//!
//! The degradation ladder is **exact → bounded → error**, and every rung is
//! explicit in the types:
//!
//! * [`BoundedAnswer::Exact`] — the search completed; the value is
//!   bit-identical to [`RoutingIndex::query_cost`].
//! * [`BoundedAnswer::Approximate`] — the budget ran out but the search
//!   frontier proves a bracketing `[lower, upper]` interval (search
//!   backends always have one — for TD-A\*-CH it comes from the CH
//!   potential keys). A flagged interval is never a wrong exact claim.
//! * [`QueryError`] — nothing trustworthy could be produced: the inputs
//!   were invalid, a label backend's deadline had already passed at entry,
//!   or the query panicked inside a batch.

use std::fmt;
use td_dijkstra::BoundedCost;
use td_graph::VertexId;

#[allow(unused_imports)] // rustdoc links
use crate::index::RoutingIndex;

/// Why a query produced no answer at all.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The inputs never reached a search: out-of-range vertex id, or a
    /// non-finite / negative departure time.
    InvalidQuery(String),
    /// The budget was spent and this backend had no bounds to degrade to
    /// (label backends), or the deadline had already passed at entry.
    BudgetExhausted,
    /// The query panicked and was contained by
    /// [`crate::ParallelExecutor::query_batch_bounded_into`]; the payload is the
    /// panic message. The rest of the batch is unaffected.
    Panicked(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            QueryError::BudgetExhausted => write!(f, "query budget exhausted"),
            QueryError::Panicked(msg) => write!(f, "query panicked: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A query answer that is allowed to be inexact — but never silently wrong.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BoundedAnswer {
    /// The exact answer, bit-identical to the unbounded query (`None` =
    /// destination proven unreachable).
    Exact(Option<f64>),
    /// Budget exhausted mid-search. If the destination is reachable its
    /// exact travel cost lies in `[lower, upper]`; a finite `upper` was
    /// witnessed by a concrete path and therefore proves reachability,
    /// while `upper == INFINITY` leaves reachability open. Exhaustion
    /// never claims unreachability.
    Approximate {
        /// Admissible lower bound on the travel cost (≥ 0).
        lower: f64,
        /// Witnessed upper bound, or `f64::INFINITY`.
        upper: f64,
    },
}

impl BoundedAnswer {
    /// True for [`BoundedAnswer::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, BoundedAnswer::Exact(_))
    }

    /// True when this answer is consistent with the known exact answer —
    /// the invariant the conformance suite checks for every backend: an
    /// exact claim must match (to `eps`), an interval must be well-formed
    /// (a finite lower bound, `lower <= upper`), must bracket a reachable
    /// cost, and must not rule out an unreachable pair by claiming a
    /// witnessed (finite) upper bound.
    pub fn is_consistent_with(&self, exact: Option<f64>, eps: f64) -> bool {
        match (self, exact) {
            (BoundedAnswer::Exact(a), e) => match (a, e) {
                (Some(a), Some(e)) => (a - e).abs() <= eps,
                (None, None) => true,
                _ => false,
            },
            (BoundedAnswer::Approximate { lower, upper }, Some(c)) => {
                lower.is_finite() && *lower <= *upper && *lower <= c + eps && c <= *upper + eps
            }
            (BoundedAnswer::Approximate { lower, upper }, None) => {
                lower.is_finite() && *lower <= *upper && upper.is_infinite()
            }
        }
    }
}

impl From<BoundedCost> for BoundedAnswer {
    fn from(c: BoundedCost) -> BoundedAnswer {
        match c {
            BoundedCost::Exact(v) => BoundedAnswer::Exact(v),
            BoundedCost::Exhausted { lower, upper } => BoundedAnswer::Approximate { lower, upper },
        }
    }
}

/// The answer of a search run under [`td_dijkstra::QueryBudget::UNLIMITED`].
pub(crate) fn unbudgeted(c: BoundedCost) -> Option<f64> {
    match c {
        BoundedCost::Exact(v) => v,
        // An unlimited budget never exhausts.
        BoundedCost::Exhausted { .. } => None,
    }
}

/// Input validation every bounded query runs before touching the index:
/// vertex ids must be in range and the departure time finite and
/// non-negative. Invalid inputs are a caller bug surfaced as a typed
/// error, never a panic or a garbage answer.
pub(crate) fn validate_query(
    num_vertices: usize,
    s: VertexId,
    d: VertexId,
    t: f64,
) -> Result<(), QueryError> {
    if (s as usize) >= num_vertices {
        return Err(QueryError::InvalidQuery(format!(
            "source vertex {s} out of range (graph has {num_vertices} vertices)"
        )));
    }
    if (d as usize) >= num_vertices {
        return Err(QueryError::InvalidQuery(format!(
            "destination vertex {d} out of range (graph has {num_vertices} vertices)"
        )));
    }
    if !t.is_finite() {
        return Err(QueryError::InvalidQuery(format!(
            "departure time {t} is not finite"
        )));
    }
    if t < 0.0 {
        return Err(QueryError::InvalidQuery(format!(
            "departure time {t} is negative"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_each_bad_input() {
        assert!(validate_query(10, 0, 9, 0.0).is_ok());
        assert!(matches!(
            validate_query(10, 10, 0, 0.0),
            Err(QueryError::InvalidQuery(_))
        ));
        assert!(matches!(
            validate_query(10, 0, 10, 0.0),
            Err(QueryError::InvalidQuery(_))
        ));
        assert!(matches!(
            validate_query(10, 0, 0, f64::NAN),
            Err(QueryError::InvalidQuery(_))
        ));
        assert!(matches!(
            validate_query(10, 0, 0, f64::INFINITY),
            Err(QueryError::InvalidQuery(_))
        ));
        assert!(matches!(
            validate_query(10, 0, 0, -1.0),
            Err(QueryError::InvalidQuery(_))
        ));
    }

    #[test]
    fn consistency_predicate_matches_its_doc() {
        let eps = 1e-9;
        assert!(BoundedAnswer::Exact(Some(5.0)).is_consistent_with(Some(5.0), eps));
        assert!(!BoundedAnswer::Exact(Some(5.0)).is_consistent_with(Some(6.0), eps));
        assert!(BoundedAnswer::Exact(None).is_consistent_with(None, eps));
        assert!(!BoundedAnswer::Exact(None).is_consistent_with(Some(1.0), eps));
        let approx = BoundedAnswer::Approximate {
            lower: 1.0,
            upper: 4.0,
        };
        assert!(approx.is_consistent_with(Some(2.5), eps));
        assert!(!approx.is_consistent_with(Some(5.0), eps));
        assert!(!approx.is_consistent_with(None, eps)); // finite upper claims reachability
        let open = BoundedAnswer::Approximate {
            lower: 1.0,
            upper: f64::INFINITY,
        };
        assert!(open.is_consistent_with(None, eps));
        assert!(open.is_consistent_with(Some(9.0), eps));
    }

    #[test]
    fn errors_render_their_taxonomy() {
        let e = QueryError::InvalidQuery("source vertex 9 out of range".into());
        assert!(e.to_string().contains("invalid query"));
        assert!(QueryError::BudgetExhausted.to_string().contains("budget"));
        assert!(QueryError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
    }
}
