//! Epsilon-tolerant floating-point comparisons.
//!
//! All geometry in this crate (segment intersections, collinearity tests,
//! pre-images under arrival functions) runs on `f64`. A single, shared tolerance
//! discipline keeps the operators closed: two breakpoints closer than
//! [`EPS_TIME`] are considered the same instant, and two costs within
//! [`EPS_COST`] are considered equal.

/// Tolerance for comparing time coordinates (seconds).
pub const EPS_TIME: f64 = 1e-7;

/// Tolerance for comparing cost values (seconds of travel time).
pub const EPS_COST: f64 = 1e-7;

/// `a == b` within `eps`.
#[inline]
pub fn feq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// `a < b` by more than `eps`.
#[inline]
pub fn flt(a: f64, b: f64, eps: f64) -> bool {
    a < b - eps
}

/// `a ≤ b` within `eps`.
#[inline]
pub fn fle(a: f64, b: f64, eps: f64) -> bool {
    a <= b + eps
}

/// Linear interpolation of `(x0, y0) – (x1, y1)` at `x`.
///
/// Degenerate segments (`x1 ≈ x0`) return `y0`; callers never create them, but
/// the guard keeps intersection math total.
#[inline]
pub fn lerp(x0: f64, y0: f64, x1: f64, y1: f64, x: f64) -> f64 {
    let dx = x1 - x0;
    if dx.abs() <= f64::EPSILON {
        return y0;
    }
    y0 + (x - x0) * (y1 - y0) / dx
}

/// Value of a clamped PLF on the segment whose breakpoint `(t0, v0)` serves
/// `t` (the largest breakpoint with time ≤ `t`).
///
/// `next` is the following breakpoint, or `None` when `(t0, v0)` is the last
/// one — the **right ray**, which clamps to `v0` per Eq. 1. The one scalar
/// evaluator ([`crate::PlfView::eval`], which `Plf::eval` and
/// `PlfSlice::eval` run) and the batch kernels in [`crate::batch`] route
/// their past-last-breakpoint clamp through this one helper, so the
/// extrapolation semantics cannot drift apart between scalar and batched
/// evaluation.
#[inline]
pub fn clamped_segment_value(t0: f64, v0: f64, next: Option<(f64, f64)>, t: f64) -> f64 {
    match next {
        None => v0,
        Some((t1, v1)) => lerp(t0, v0, t1, v1, t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feq_within_eps() {
        assert!(feq(1.0, 1.0 + 1e-9, 1e-7));
        assert!(!feq(1.0, 1.1, 1e-7));
    }

    #[test]
    fn flt_is_strict() {
        assert!(flt(1.0, 2.0, 1e-7));
        assert!(!flt(1.0, 1.0 + 1e-9, 1e-7));
        assert!(!flt(2.0, 1.0, 1e-7));
    }

    #[test]
    fn fle_admits_equality() {
        assert!(fle(1.0, 1.0, 1e-7));
        assert!(fle(1.0, 1.0 + 1e-9, 1e-7));
        assert!(fle(1.0 + 1e-9, 1.0, 1e-7));
        assert!(!fle(1.1, 1.0, 1e-7));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp(0.0, 0.0, 10.0, 20.0, 0.0), 0.0);
        assert_eq!(lerp(0.0, 0.0, 10.0, 20.0, 10.0), 20.0);
        assert_eq!(lerp(0.0, 0.0, 10.0, 20.0, 5.0), 10.0);
    }

    #[test]
    fn lerp_degenerate_segment() {
        assert_eq!(lerp(3.0, 7.0, 3.0, 9.0, 3.0), 7.0);
    }

    #[test]
    fn lerp_extrapolates_linearly() {
        // Callers clamp before calling; lerp itself is a straight line.
        assert_eq!(lerp(0.0, 0.0, 1.0, 2.0, 2.0), 4.0);
    }
}
