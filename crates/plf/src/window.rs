//! Per-window value bounds, and the test that decides from them alone that
//! `min{acc, Compound(f, g)}` keeps `acc`.
//!
//! The day splits into [`WINDOWS`] departure windows of [`WINDOW_WIDTH`]
//! seconds: window `w` is `[w·W, (w+1)·W]`, except that the first reaches
//! down over the left ray and the last up over the right ray, so together
//! they cover every time. A function's [`Windows`] hold, per window, the
//! least and the greatest value it takes there: between its breakpoints it
//! is linear, so those are among its breakpoints inside the window and its
//! values at the window's two cuts.
//!
//! For a departure `t` in window `w`, the first leg of `Compound(f, g)(t) =
//! f(t) + g(t + f(t))` costs at least `f.lo[w]` and arrives inside
//! `[w·W + f.lo[w], (w+1)·W + f.hi[w]]`; there `g` costs at least the least
//! `g.lo[v]` of the windows `v` that range meets. When an accumulator's
//! `hi[w]` is at or below that sum in every window, it lies at or below the
//! compound at every departure, and [`crate::ops::min_compound_into`]'s walk
//! would keep it. [`Windows::under_compound`] decides that without making a
//! single breakpoint of the compound. It adds no tolerance, so it decides
//! only keeps the walk's `EPS_COST` rule makes too. This is CATCHUp's
//! per-window `Bounds` test, which decides a merge before linking
//! (Strasser–Wagner–Zeitz).
//!
//! The same windows decide takes once a candidate is built: when its window
//! maxima lie below the accumulator's window minima by more than `EPS_COST`
//! (and a margin for interpolation rounding) in every window,
//! [`Windows::over`] holds and the candidate replaces the accumulator as the
//! pointwise walk would have replaced it, without that walk.

use crate::approx::EPS_COST;
use crate::view::PlfView;
use crate::DAY;

/// Number of departure windows over the day.
pub const WINDOWS: usize = 32;

/// Width of one window in seconds (45 min).
pub const WINDOW_WIDTH: f64 = DAY / WINDOWS as f64;

/// The last window, which takes the right ray.
const LAST: usize = WINDOWS - 1;

/// Per-window `(min, max)` value bounds of one function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windows {
    /// `lo[w]` ≤ the function's value at every time in window `w`.
    pub lo: [f64; WINDOWS],
    /// `hi[w]` ≥ the function's value at every time in window `w`.
    pub hi: [f64; WINDOWS],
}

impl Default for Windows {
    /// All-zero bounds: a placeholder to be overwritten by [`Windows::of`].
    fn default() -> Self {
        Windows {
            lo: [0.0; WINDOWS],
            hi: [0.0; WINDOWS],
        }
    }
}

impl Windows {
    /// The windows of `f`, in one forward pass over its breakpoints that
    /// closes each window at its right cut: a cut on a breakpoint takes the
    /// point's value, one inside a segment the segment's (its slope found
    /// once for all the cuts it spans), one on a ray the ray's. An owned and
    /// a stored function holding the same points get the same bits.
    pub fn of(f: impl PlfView) -> Windows {
        let mut out = Windows::default();
        let (mut w, mut cut) = (0, WINDOW_WIDTH); // the open window, its right cut
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut close = |w: usize, lo: &mut f64, hi: &mut f64, v: f64| {
            out.lo[w] = lo.min(v);
            out.hi[w] = hi.max(v);
            (*lo, *hi) = (v, v);
        };
        let mut prev: Option<(f64, f64)> = None;
        for (t, v) in (0..f.len()).map(|i| (f.t(i), f.v(i))) {
            if w < LAST && cut < t {
                // The segment ending at `(t, v)`, or the left ray, flat at `v`.
                let ((at, av), slope) = match prev {
                    Some((at, av)) => ((at, av), (v - av) / (t - at)),
                    None => ((t, v), 0.0),
                };
                while w < LAST && cut < t {
                    close(w, &mut lo, &mut hi, av + (cut - at) * slope);
                    (w, cut) = (w + 1, cut + WINDOW_WIDTH);
                }
            }
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
            prev = Some((t, v));
        }
        let right = prev.map_or(0.0, |(_, v)| v); // the right ray
        while w < LAST {
            close(w, &mut lo, &mut hi, right);
            w += 1;
        }
        out.lo[LAST] = lo;
        out.hi[LAST] = hi;
        out
    }

    /// True when `self`, an accumulator's windows, is at or below the lower
    /// bound `Compound(f, g)` has in every window (module docs): then the
    /// accumulator is nowhere above the compound. Windows of `g` are taken
    /// one index wider on each side of the arrival range, against rounding
    /// at a cut.
    pub fn under_compound(&self, f: &Windows, g: &Windows) -> bool {
        (0..WINDOWS).all(|w| self.hi[w] <= compound_floor(f, g, w))
    }

    /// True when `cand`, the windows of a built candidate, lies below
    /// `self`, an accumulator's, by more than [`EPS_COST`] plus a rounding
    /// margin in every window: then the candidate is below the accumulator
    /// by more than [`EPS_COST`] at every breakpoint of either, and
    /// [`crate::ops`]'s pointwise walk would take it. `scale` is at least
    /// every value either function takes.
    ///
    /// The margin covers interpolation: a cut value here and a walk's value
    /// between two breakpoints each round a `lerp` of the segment's ends, a
    /// few ulps of the larger end; `1e-12 · scale` is thousands of those.
    pub fn over(&self, cand: &Windows, scale: f64) -> bool {
        let margin = EPS_COST + 1e-12 * scale;
        (0..WINDOWS).all(|w| cand.hi[w] + margin < self.lo[w])
    }
}

/// A lower bound on `Compound(f, g)` over window `w`, from the windows of
/// `f` and `g` (module docs).
#[inline]
pub fn compound_floor(f: &Windows, g: &Windows, w: usize) -> f64 {
    let first = match w {
        0 => 0,
        _ => window_of(w as f64 * WINDOW_WIDTH + f.lo[w]).saturating_sub(1),
    };
    let last = match w {
        LAST => LAST,
        _ => (window_of((w + 1) as f64 * WINDOW_WIDTH + f.hi[w]) + 1).min(LAST),
    };
    let mut least = g.lo[first];
    for &v in &g.lo[first + 1..=last] {
        if v < least {
            least = v;
        }
    }
    f.lo[w] + least
}

/// The window holding time `t ≥ 0` (the last one past the day), give or
/// take one at a cut: the callers widen by one.
#[inline]
fn window_of(t: f64) -> usize {
    ((t * (1.0 / WINDOW_WIDTH)) as i32).clamp(0, LAST as i32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plf;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    #[test]
    fn a_constant_is_its_value_in_every_window() {
        let w = Windows::of(&Plf::constant(7.0));
        assert!(w.lo.iter().chain(&w.hi).all(|&v| v == 7.0));
    }

    #[test]
    fn windows_take_breakpoints_cuts_and_rays() {
        // One ramp across the first two cuts, then the right ray at 50.
        let f = plf(&[(-100.0, 10.0), (2.0 * WINDOW_WIDTH, 50.0)]);
        let w = Windows::of(&f);
        let at_cut = f.eval(WINDOW_WIDTH);
        assert_eq!((w.lo[0], w.hi[0]), (10.0, at_cut));
        assert_eq!((w.lo[1], w.hi[1]), (at_cut, 50.0));
        assert!((2..WINDOWS).all(|k| (w.lo[k], w.hi[k]) == (50.0, 50.0)));
    }

    #[test]
    fn the_test_keeps_what_lies_below_and_walks_what_crosses() {
        let f = plf(&[(0.0, 300.0), (DAY, 900.0)]);
        let g = plf(&[(0.0, 60.0), (DAY / 2.0, 600.0), (DAY, 60.0)]);
        let (fw, gw) = (Windows::of(&f), Windows::of(&g));
        // Compound(f, g) ≥ 360 everywhere.
        assert!(Windows::of(&Plf::constant(360.0)).under_compound(&fw, &gw));
        // `f` itself: the compound adds at least 60, more than `f` rises
        // across one window (18.75).
        assert!(Windows::of(&f).under_compound(&fw, &gw));
        // A constant above the compound's morning values is not kept.
        assert!(!Windows::of(&Plf::constant(400.0)).under_compound(&fw, &gw));
    }
}
