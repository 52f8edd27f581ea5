//! The paper's `Compound()` operator (Def. 2).
//!
//! `Compound(f, g)(t) = f(t) + g(t + f(t))`: travel the first leg departing at
//! `t`, then the second leg departing at the arrival time `t + f(t)`.
//!
//! The result is again piecewise linear. Its breakpoints are
//! * every breakpoint of `f`, plus
//! * every departure time `t` at which the arrival function `A(t) = t + f(t)`
//!   crosses a breakpoint of `g` (including on the clamped rays of `f`, where
//!   `A` has slope exactly 1).
//!
//! Between two consecutive such times, `f` is linear and `A(t)` stays inside a
//! single segment of `g`, so the composition is linear — making the operator
//! exact on the representation. Under FIFO (`A` non-decreasing) each breakpoint
//! of `g` contributes at most one pre-image and the result has at most
//! `|f| + |g|` points before simplification; non-FIFO inputs are still handled
//! exactly (segments with decreasing `A` are scanned in reverse).
//!
//! Under FIFO every scan ascends — the breakpoint times, the arrival times
//! `A(t)` at which `g` is probed, and the windows of `g`'s breakpoints that
//! each segment of `f` pre-images — so the operator walks `f` and `g` once
//! through forward cursors: O(|f| + |g|). Only a non-FIFO `f` sends a
//! cursor backwards (it then re-seeks by binary search); the result is the
//! same either way.
//!
//! Most breakpoints need no evaluation at all. At a pre-image `t` of `g`'s
//! breakpoint `(s, g_s)` the arrival is `s` by construction, so the value is
//! `(s − t) + g_s`; at one of `f`'s breakpoints `f(t)` is the point's own
//! value and only `g` is probed. `breakpoints` emits every `(t, value)` in
//! that one walk, and [`crate::ops::min_compound_into`] walks the list
//! against an accumulator before it builds the function from it.

use crate::approx::EPS_TIME;
use crate::plf::{Plf, Pt, Via};
use crate::view::{Cursor, PlfView};

impl Plf {
    /// `Compound(self, g)` with the bridge vertex `via` stamped on every
    /// segment of the result (Def. 2 records the intermediate vertex).
    ///
    /// Exactness: for every `t ∈ ℝ`,
    /// `result.eval(t) == self.eval(t) + g.eval(t + self.eval(t))`
    /// up to floating-point rounding.
    pub fn compound(&self, g: &Plf, via: Via) -> Plf {
        from_breakpoints(breakpoints(self, g, via))
    }
}

/// `Compound(f, g)` from its [`breakpoints`]: the points, simplified.
pub(crate) fn from_breakpoints(pts: Vec<Pt>) -> Plf {
    let mut out = Plf::from_raw(pts);
    out.simplify();
    out
}

/// The unsimplified breakpoints of `Compound(f, g)`, ascending, each with
/// the witness `via`: `f`'s breakpoints merged with the pre-images of `g`'s
/// breakpoints under `A(t) = t + f(t)`. A time within [`EPS_TIME`] after the
/// last one kept is the same instant.
///
/// One walk emits each time with its value. A pre-image strictly inside a
/// segment where `A` increases, or on one of `f`'s rays, takes its value
/// from `g`'s breakpoint `(s, g_s)`: `f(t) = s − t` there, and `g(A(t)) =
/// g_s`. A breakpoint `p` of `f` is worth `p.v + g(p.t + p.v)`. Only a
/// pre-image rounded onto a segment end and every pre-image on a non-FIFO
/// segment evaluate `f` and `g` at their time.
///
/// The walk emits its times in ascending order, non-FIFO inputs included,
/// so the same-instant test runs as each point is emitted. The left ray's
/// pre-images fall before `f`'s first breakpoint and the right ray's after
/// its last. Each segment's pre-images are clamped into it, and they ascend
/// within it: the pre-image is monotone in `s`, its rounding is too, and a
/// segment where `A` decreases is enumerated in reverse.
pub(crate) fn breakpoints(f: impl PlfView, g: impl PlfView, via: Via) -> Vec<Pt> {
    let (nf, ng) = (f.len(), g.len());
    let mut out: Vec<Pt> = Vec::with_capacity(nf + ng);
    let mut emit = |t: f64, v: f64| match out.last() {
        Some(p) if t - p.t <= EPS_TIME => debug_assert!(t >= p.t, "time {t} emitted after {}", p.t),
        _ => out.push(Pt::with_via(t, v, via)),
    };
    // g's breakpoints `(s, g_s)` from the `lo`-th on.
    let g_from = |lo: usize| (lo..ng).map(move |i| (g.t(i), g.v(i)));

    // Left ray of f: A(t) = t + v_first, slope 1, covering (-∞, A(t_first)).
    let (t_first, v_first) = (f.t(0), f.v(0));
    let a_first = t_first + v_first;
    for (s, gs) in g_from(0).take_while(|&(s, _)| s < a_first) {
        emit(s - v_first, v_first + gs);
    }

    // Interior segments of f. `window` stands at the start of each segment's
    // window of g breakpoints; consecutive FIFO windows ascend, and so do
    // the arrival times `arrival` probes g at.
    let (mut window, mut arrival) = (Cursor::new(g), Cursor::new(g));
    let mut fc = Cursor::new(f);
    let eval = |fc: &mut Cursor<_>, arrival: &mut Cursor<_>, t: f64| {
        let fv = fc.value(t);
        fv + arrival.value(t + fv)
    };
    for i in 1..nf {
        let (t0, v0, t1, v1) = (f.t(i - 1), f.v(i - 1), f.t(i), f.v(i));
        emit(t0, v0 + arrival.value(t0 + v0));
        let a0 = t0 + v0;
        let a1 = t1 + v1;
        let pre_image = |s: f64| t0 + (s - a0) * (t1 - t0) / (a1 - a0);
        if a1 > a0 + EPS_TIME {
            // A strictly increasing on this segment: pre-image of each g
            // breakpoint strictly inside (a0, a1).
            let lo = window.seek(a0 + EPS_TIME);
            for (s, gs) in g_from(lo).take_while(|&(s, _)| s < a1 - EPS_TIME) {
                let t = pre_image(s);
                if t0 < t && t < t1 {
                    // `s − t` is f(t), which rounding must not take below 0.
                    emit(t, (s - t).max(0.0) + gs);
                } else {
                    let t = t.clamp(t0, t1);
                    emit(t, eval(&mut fc, &mut arrival, t));
                }
            }
        } else if a1 < a0 - EPS_TIME {
            // Non-FIFO segment: A decreasing; enumerate in reverse so emitted
            // times still ascend within the segment.
            let lo = g.partition_point(|s| s <= a1 + EPS_TIME);
            let hi = g.partition_point(|s| s < a0 - EPS_TIME);
            for j in (lo..hi).rev() {
                let t = pre_image(g.t(j)).clamp(t0, t1);
                emit(t, eval(&mut fc, &mut arrival, t));
            }
        }
        // Flat arrival (a0 ≈ a1): g∘A constant on the segment, no crossings.
    }
    let (t_last, v_last) = (f.t(nf - 1), f.v(nf - 1));
    let a_last = t_last + v_last;
    emit(t_last, v_last + arrival.value(a_last));

    // Right ray of f: A(t) = t + v_last, slope 1, covering (A(t_last), ∞).
    let lo = window.seek(a_last + EPS_TIME);
    for (s, gs) in g_from(lo) {
        emit(s - v_last, v_last + gs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plf::NO_VIA;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    /// Brute-force reference: evaluate the mathematical definition.
    fn reference(f: &Plf, g: &Plf, t: f64) -> f64 {
        let fv = f.eval(t);
        fv + g.eval(t + fv)
    }

    fn assert_compound_exact(f: &Plf, g: &Plf) {
        let h = f.compound(g, NO_VIA);
        assert!(h.is_fifo() || !f.is_fifo() || !g.is_fifo());
        // Dense probe over an interval generously covering all breakpoints.
        let lo = f.first().t.min(g.first().t) - 50.0;
        let hi = f.last().t.max(g.last().t) + 50.0;
        let n = 400;
        for i in 0..=n {
            let t = lo + (hi - lo) * i as f64 / n as f64;
            let want = reference(f, g, t);
            let got = h.eval(t);
            assert!(
                (want - got).abs() < 1e-6,
                "compound mismatch at t={t}: want {want}, got {got}\nf={f:?}\ng={g:?}\nh={h:?}"
            );
        }
    }

    #[test]
    fn paper_example_2_2_path_1_4_9() {
        // Fig. 1b: w_{1,4} = {(0,5),(30,15),(60,25)}, w_{4,9} = {(0,5),(60,15)}.
        let w14 = plf(&[(0.0, 5.0), (30.0, 15.0), (60.0, 25.0)]);
        let w49 = plf(&[(0.0, 5.0), (60.0, 15.0)]);
        let h = w14.compound(&w49, 4);
        // Departing v1 at time 0: reach v4 at 5, edge (4,9) costs 5 + 5/6 ≈ 5.833…
        let want0 = 5.0 + w49.eval(5.0);
        assert!((h.eval(0.0) - want0).abs() < 1e-9);
        assert_compound_exact(&w14, &w49);
        // Bridge witness recorded (Def. 2).
        assert!(h.points().iter().all(|p| p.via == 4));
    }

    #[test]
    fn paper_example_2_2_path_1_2_9() {
        let w12 = plf(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]);
        let w29 = plf(&[(0.0, 5.0), (30.0, 10.0), (60.0, 15.0)]);
        assert_compound_exact(&w12, &w29);
    }

    #[test]
    fn constant_then_varying() {
        let f = Plf::constant(10.0);
        let g = plf(&[(0.0, 5.0), (30.0, 20.0), (60.0, 5.0)]);
        // h(t) = 10 + g(t + 10): g's shape shifted left by 10.
        let h = f.compound(&g, NO_VIA);
        assert!((h.eval(-10.0) - 15.0).abs() < 1e-9);
        assert!((h.eval(20.0) - 30.0).abs() < 1e-9);
        assert!((h.eval(50.0) - 15.0).abs() < 1e-9);
        assert_compound_exact(&f, &g);
    }

    #[test]
    fn varying_then_constant() {
        let f = plf(&[(0.0, 5.0), (30.0, 15.0)]);
        let g = Plf::constant(7.0);
        let h = f.compound(&g, NO_VIA);
        for t in [-10.0, 0.0, 15.0, 30.0, 100.0] {
            assert!((h.eval(t) - (f.eval(t) + 7.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn both_constant() {
        let h = Plf::constant(3.0).compound(&Plf::constant(4.0), NO_VIA);
        assert_eq!(h.len(), 1);
        assert_eq!(h.eval(123.0), 7.0);
    }

    #[test]
    fn zero_is_left_and_right_unit() {
        let f = plf(&[(0.0, 5.0), (30.0, 15.0), (60.0, 8.0)]);
        let z = Plf::zero();
        assert!(z.compound(&f, NO_VIA).approx_eq(&f, 1e-9));
        assert!(f.compound(&z, NO_VIA).approx_eq(&f, 1e-9));
    }

    #[test]
    fn fifo_slope_minus_one_flat_arrival() {
        // f has slope exactly -1: arrival is flat, every departure in the
        // segment arrives simultaneously.
        let f = plf(&[(0.0, 20.0), (10.0, 10.0), (20.0, 10.0)]);
        assert!(f.is_fifo());
        let g = plf(&[(0.0, 1.0), (15.0, 4.0), (40.0, 2.0)]);
        assert_compound_exact(&f, &g);
    }

    #[test]
    fn non_fifo_input_still_exact() {
        let f = plf(&[(0.0, 50.0), (10.0, 10.0)]); // slope -4 — overtaking
        assert!(!f.is_fifo());
        let g = plf(&[(0.0, 1.0), (20.0, 9.0), (45.0, 3.0)]);
        assert_compound_exact(&f, &g);
    }

    #[test]
    fn associativity_on_fifo_functions() {
        let f = plf(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]);
        let g = plf(&[(0.0, 5.0), (30.0, 10.0), (60.0, 15.0)]);
        let h = plf(&[(0.0, 8.0), (40.0, 2.0), (80.0, 12.0)]);
        let left = f.compound(&g, NO_VIA).compound(&h, NO_VIA);
        let right = f.compound(&g.compound(&h, NO_VIA), NO_VIA);
        assert!(
            left.approx_eq(&right, 1e-6),
            "left={left:?}\nright={right:?}"
        );
    }

    #[test]
    fn result_size_is_linear_in_inputs() {
        let f: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 10.0, 5.0 + (i % 7) as f64))
            .collect();
        let g: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 9.0, 3.0 + (i % 5) as f64))
            .collect();
        let f = plf(&f);
        let g = plf(&g);
        let h = f.compound(&g, NO_VIA);
        assert!(h.len() <= f.len() + g.len() + 2, "got {}", h.len());
        assert_compound_exact(&f, &g);
    }
}
