//! The [`Plf`] type: interpolation points, evaluation (Eq. 1) and validation.
//!
//! `&Plf` is a [`PlfView`], so it is evaluated, and read by every operator,
//! through the same bodies as a function frozen in an arena: a single
//! evaluation is a binary search ([`Plf::eval`]), and the operators
//! (`minimum`, `compound`, [`Plf::approx_eq`]) probe at ascending times
//! through one private forward cursor, walking each input once:
//! O(|f| + |g|) per operation. The cursor binary-searches only when a probe
//! lands before the segment it stands on, which needs a non-FIFO first leg
//! inside `compound` (a decreasing arrival time).

use crate::approx::{feq, EPS_COST, EPS_TIME};
use crate::view::{Cursor, PlfView};

/// Witness attached to a segment: the intermediate vertex through which the
/// cost on that segment is achieved (Def. 2: "the intermediate vertex is also
/// recorded in the function"), or [`NO_VIA`] for a direct edge / trivial path.
pub type Via = u32;

/// Sentinel witness meaning "no intermediate vertex" (a direct original edge).
pub const NO_VIA: Via = u32::MAX;

/// One interpolation point `(t, v)` plus the witness of the segment that
/// *starts* at this point (and, for the last point, of the right ray).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pt {
    /// Departure time.
    pub t: f64,
    /// Travel cost when departing at `t`.
    pub v: f64,
    /// Witness for departures in `[t, next.t)`; the first point's witness also
    /// covers the left ray `(-∞, t)`.
    pub via: Via,
}

impl Pt {
    /// A point with no witness.
    #[inline]
    pub fn new(t: f64, v: f64) -> Self {
        Pt { t, v, via: NO_VIA }
    }

    /// A point with an explicit witness.
    #[inline]
    pub fn with_via(t: f64, v: f64, via: Via) -> Self {
        Pt { t, v, via }
    }
}

/// Errors rejected by [`Plf::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlfError {
    /// The point list was empty.
    Empty,
    /// Two consecutive points share (within [`EPS_TIME`]) the same time, or
    /// times are not strictly increasing. Holds the offending index.
    NotIncreasing(usize),
    /// A time or value was NaN/infinite. Holds the offending index.
    NotFinite(usize),
    /// A value was negative (travel costs are non-negative per Def. 1).
    /// Holds the offending index.
    Negative(usize),
}

impl std::fmt::Display for PlfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlfError::Empty => write!(f, "a PLF needs at least one interpolation point"),
            PlfError::NotIncreasing(i) => {
                write!(
                    f,
                    "interpolation point {i} does not strictly increase in time"
                )
            }
            PlfError::NotFinite(i) => write!(f, "interpolation point {i} is not finite"),
            PlfError::Negative(i) => write!(f, "interpolation point {i} has a negative cost"),
        }
    }
}

impl std::error::Error for PlfError {}

/// A piecewise-linear travel-cost function (Eq. 1 of the paper).
///
/// Invariants (enforced by [`Plf::new`], preserved by every operator):
/// * at least one point;
/// * times strictly increasing (separated by more than [`EPS_TIME`]);
/// * all coordinates finite;
/// * all values non-negative.
///
/// Evaluation clamps outside `[first.t, last.t]` (constant extrapolation), so a
/// single-point PLF is a constant function.
#[derive(Clone, Debug, PartialEq)]
pub struct Plf {
    pts: Vec<Pt>,
}

impl Plf {
    /// Builds a PLF from interpolation points, validating the invariants.
    pub fn new(pts: Vec<Pt>) -> Result<Self, PlfError> {
        if pts.is_empty() {
            return Err(PlfError::Empty);
        }
        for (i, p) in pts.iter().enumerate() {
            if !p.t.is_finite() || !p.v.is_finite() {
                return Err(PlfError::NotFinite(i));
            }
            if p.v < 0.0 {
                return Err(PlfError::Negative(i));
            }
            if i > 0 && p.t - pts[i - 1].t <= EPS_TIME {
                return Err(PlfError::NotIncreasing(i));
            }
        }
        Ok(Plf { pts })
    }

    /// Builds a PLF from `(t, v)` pairs with no witnesses.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Result<Self, PlfError> {
        Self::new(pairs.iter().map(|&(t, v)| Pt::new(t, v)).collect())
    }

    /// Internal constructor for operator results; `debug_assert`s the
    /// invariants instead of re-validating on every op.
    #[inline]
    pub(crate) fn from_raw(pts: Vec<Pt>) -> Self {
        debug_assert!(!pts.is_empty());
        debug_assert!(pts.windows(2).all(|w| w[1].t - w[0].t > EPS_TIME));
        debug_assert!(pts.iter().all(|p| p.t.is_finite() && p.v.is_finite()));
        Plf { pts }
    }

    /// The constant function `w(t) = v` (a single interpolation point at `t = 0`).
    pub fn constant(v: f64) -> Self {
        Plf {
            pts: vec![Pt::new(0.0, v)],
        }
    }

    /// The zero function (useful as the unit of `compound`).
    pub fn zero() -> Self {
        Self::constant(0.0)
    }

    /// The interpolation points.
    #[inline]
    pub fn points(&self) -> &[Pt] {
        &self.pts
    }

    /// Number of interpolation points — the paper's `|I|`, used as the
    /// *weight* of a shortcut (Def. 7).
    #[inline]
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// Always false: a valid `Plf` has at least one point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First (earliest) interpolation point.
    #[inline]
    pub fn first(&self) -> Pt {
        self.pts[0]
    }

    /// Last (latest) interpolation point.
    #[inline]
    pub fn last(&self) -> Pt {
        *self.pts.last().expect("non-empty by invariant")
    }

    /// Evaluates the function at departure time `t` per Eq. (1):
    /// [`PlfView::eval`].
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        PlfView::eval(self, t)
    }

    /// True iff the FIFO (non-overtaking) property holds: every segment slope
    /// is ≥ −1 within tolerance, i.e. the arrival function is non-decreasing.
    pub fn is_fifo(&self) -> bool {
        self.pts.windows(2).all(|w| {
            let dt = w[1].t - w[0].t;
            let dv = w[1].v - w[0].v;
            dv >= -dt - EPS_COST
        })
    }

    /// True iff `self` and `other` describe the same function within `tol`,
    /// compared at the union of their breakpoints (sufficient for PLFs):
    /// one forward walk of both functions per breakpoint list.
    pub fn approx_eq(&self, other: &Plf, tol: f64) -> bool {
        let agree_at = |probes: &[Pt]| {
            let (mut f, mut g) = (Cursor::new(self), Cursor::new(other));
            probes.iter().all(|p| feq(f.value(p.t), g.value(p.t), tol))
        };
        agree_at(&self.pts) && agree_at(&other.pts)
    }

    /// Replaces every witness with `via`. Used when a whole function is known
    /// to route through one bridge vertex.
    pub fn stamp_via(&mut self, via: Via) {
        for p in &mut self.pts {
            p.via = via;
        }
    }

    /// Returns a copy with every witness replaced by `via`.
    pub fn with_via(&self, via: Via) -> Plf {
        let mut c = self.clone();
        c.stamp_via(via);
        c
    }

    /// Heap footprint in bytes (points only) — used by the memory-accounting
    /// experiments (Table 3/4, Fig. 9, Fig. 11).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.pts.capacity() * std::mem::size_of::<Pt>()
    }

    /// Drops the point buffer's spare capacity. An operator's result keeps
    /// the buffer it was made in — a compound's is its breakpoint list,
    /// simplified in place — so a function that is stored rather than
    /// folded into is sized exactly first.
    pub fn shrink_to_fit(&mut self) {
        self.pts.shrink_to_fit();
    }

    /// Mutable access for the operator modules in this crate.
    #[inline]
    pub(crate) fn pts_mut(&mut self) -> &mut Vec<Pt> {
        &mut self.pts
    }

    /// Consumes the PLF and returns its points.
    pub fn into_points(self) -> Vec<Pt> {
        self.pts
    }
}

impl PlfView for &Plf {
    #[inline]
    fn len(self) -> usize {
        self.pts.len()
    }

    #[inline]
    fn t(self, i: usize) -> f64 {
        self.pts[i].t
    }

    #[inline]
    fn v(self, i: usize) -> f64 {
        self.pts[i].v
    }

    #[inline]
    fn via(self, i: usize) -> Via {
        self.pts[i].via
    }

    fn vias(self) -> impl Iterator<Item = Via> {
        self.pts.iter().map(|p| p.via)
    }

    #[inline]
    fn partition_point(self, mut pred: impl FnMut(f64) -> bool) -> usize {
        self.pts.partition_point(|p| pred(p.t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FALLBACKS;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Plf::new(vec![]), Err(PlfError::Empty));
    }

    #[test]
    fn new_rejects_unsorted() {
        let r = Plf::from_pairs(&[(10.0, 1.0), (5.0, 2.0)]);
        assert_eq!(r, Err(PlfError::NotIncreasing(1)));
    }

    #[test]
    fn new_rejects_duplicate_times() {
        let r = Plf::from_pairs(&[(10.0, 1.0), (10.0, 2.0)]);
        assert_eq!(r, Err(PlfError::NotIncreasing(1)));
    }

    #[test]
    fn new_rejects_nan() {
        let r = Plf::from_pairs(&[(0.0, f64::NAN)]);
        assert_eq!(r, Err(PlfError::NotFinite(0)));
    }

    #[test]
    fn new_rejects_negative_cost() {
        let r = Plf::from_pairs(&[(0.0, -1.0)]);
        assert_eq!(r, Err(PlfError::Negative(0)));
    }

    #[test]
    fn eval_matches_paper_example() {
        // Edge e_{1,2} of Fig. 1b: {(0,10), (20,10), (60,15)}.
        let w12 = plf(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]);
        assert_eq!(w12.eval(0.0), 10.0); // pair (0, 10) of Example 2.1
        assert_eq!(w12.eval(10.0), 10.0);
        assert_eq!(w12.eval(20.0), 10.0);
        assert_eq!(w12.eval(40.0), 12.5); // halfway up the ramp
        assert_eq!(w12.eval(60.0), 15.0);
    }

    #[test]
    fn eval_clamps_outside_domain() {
        let f = plf(&[(10.0, 3.0), (20.0, 7.0)]);
        assert_eq!(f.eval(-100.0), 3.0);
        assert_eq!(f.eval(9.9), 3.0);
        assert_eq!(f.eval(20.1), 7.0);
        assert_eq!(f.eval(1e9), 7.0);
    }

    #[test]
    fn constant_function_evaluates_everywhere() {
        let c = Plf::constant(42.0);
        for t in [-1e6, 0.0, 1.0, 86_400.0, 1e9] {
            assert_eq!(c.eval(t), 42.0);
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn arrival_adds_departure() {
        let f = plf(&[(0.0, 5.0), (100.0, 10.0)]);
        assert_eq!(f.arrival(0.0), 5.0);
        assert_eq!(f.arrival(100.0), 110.0);
    }

    #[test]
    fn min_max_values() {
        let f = plf(&[(0.0, 5.0), (50.0, 2.0), (100.0, 9.0)]);
        assert_eq!(f.min_value(), 2.0);
        assert_eq!(f.max_value(), 9.0);
    }

    #[test]
    fn fifo_detection() {
        // Slope -1 exactly is still FIFO.
        let ok = plf(&[(0.0, 10.0), (10.0, 0.0)]);
        assert!(ok.is_fifo());
        // Slope -2 is not.
        let bad = plf(&[(0.0, 30.0), (10.0, 10.0)]);
        assert!(!bad.is_fifo());
    }

    #[test]
    fn eval_with_via_tracks_segments() {
        let f = Plf::new(vec![
            Pt::with_via(0.0, 10.0, 4),
            Pt::with_via(50.0, 20.0, 2),
        ])
        .unwrap();
        assert_eq!(f.eval_with_via(-5.0).1, 4);
        assert_eq!(f.eval_with_via(10.0).1, 4);
        assert_eq!(f.eval_with_via(50.0).1, 2);
        assert_eq!(f.eval_with_via(500.0).1, 2);
    }

    #[test]
    fn approx_eq_spots_differences() {
        let f = plf(&[(0.0, 1.0), (10.0, 2.0)]);
        let g = plf(&[(0.0, 1.0), (5.0, 1.5), (10.0, 2.0)]); // same function, extra point
        let h = plf(&[(0.0, 1.0), (10.0, 3.0)]);
        assert!(f.approx_eq(&g, 1e-9));
        assert!(!f.approx_eq(&h, 1e-9));
    }

    #[test]
    fn forward_cursors_never_fall_back_on_fifo_inputs() {
        // The linear-time claim as an assertion: over FIFO functions (slopes
        // of exactly −1 included) no operator sends a cursor backwards, so
        // none of them runs a binary search.
        use proptest::prelude::*;
        let fifo = || {
            collection::vec((0.1f64..3000.0, 0u8..4, 0.0f64..1.0), 0..40).prop_map(|segs| {
                let mut pts = vec![Pt::new(0.0, 1800.0)];
                for (dt, kind, u) in segs {
                    let prev = *pts.last().unwrap();
                    let lo = (prev.v - dt).max(0.0);
                    let v = if kind == 0 {
                        lo
                    } else {
                        lo + u * (prev.v + dt - lo)
                    };
                    pts.push(Pt::new(prev.t + dt, v));
                }
                Plf::new(pts).unwrap()
            })
        };
        let mut runner = proptest::TestRunner::from_name("fifo_cursor_fallbacks");
        for _ in 0..500 {
            let (f, g) = (fifo().generate(&mut runner), fifo().generate(&mut runner));
            assert!(f.is_fifo() && g.is_fifo());
            let before = FALLBACKS.with(|c| c.get());
            let h = f.compound(&g, 3).minimum(&g.compound(&f, 4));
            let _ = h.approx_eq(&f.minimum(&g), 1e-9);
            // The relaxation's walks: against `f`, which lies below
            // `Compound(f, g)` (the pre-build walk runs to the end), and
            // against a constant the compound may cross (built, walked,
            // merged).
            for acc in [f.clone(), Plf::constant(1800.0)] {
                crate::ops::min_compound_into(&mut Some(acc), &f, &g, 5);
            }
            assert_eq!(FALLBACKS.with(|c| c.get()), before, "f={f:?}\ng={g:?}");
        }
        // The counter does count: an overtaking first leg probes backwards.
        let before = FALLBACKS.with(|c| c.get());
        let f = plf(&[(0.0, 50.0), (10.0, 10.0), (20.0, 10.0)]);
        let _ = f.compound(&plf(&[(0.0, 1.0), (30.0, 9.0), (45.0, 3.0)]), 1);
        assert!(FALLBACKS.with(|c| c.get()) > before);
    }

    #[test]
    fn a_cursor_at_a_breakpoint_returns_its_value_bit_for_bit() {
        // `ops::pointwise_winner` reads a function's own breakpoint values
        // instead of evaluating them: `lerp` at `x0` returns `y0`.
        use proptest::prelude::*;
        let wild = collection::vec((1e-6f64..3000.0, 0.0f64..5000.0), 1..30).prop_map(|segs| {
            let mut t = -7_000.0;
            let pts = segs.into_iter().map(|(dt, v)| {
                t += dt;
                Pt::new(t, v)
            });
            Plf::new(pts.collect()).unwrap()
        });
        let mut runner = proptest::TestRunner::from_name("cursor_at_breakpoints");
        for _ in 0..300 {
            let f = wild.generate(&mut runner);
            let mut c = Cursor::new(&f);
            for p in f.points() {
                assert_eq!(c.at(p.t).0.to_bits(), p.v.to_bits(), "f={f:?}");
            }
        }
    }

    #[test]
    fn cursor_seek_boundaries() {
        let f = plf(&[(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]);
        let mut c = Cursor::new(&f);
        for (t, n) in [(-1.0, 0), (0.0, 1), (9.999, 1), (10.0, 2), (25.0, 3)] {
            assert_eq!(c.seek(t), n, "forwards to t={t}");
        }
        for (t, n) in [(10.0, 2), (9.999, 1), (-1.0, 0), (0.0, 1)] {
            assert_eq!(c.seek(t), n, "backwards to t={t}");
        }
    }
}
