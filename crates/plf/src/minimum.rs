//! Pointwise minimum of two travel-cost functions.
//!
//! Used everywhere the paper takes `min{…}`: the reduction operator (Algo. 1
//! lines 6-8), query relaxation (Algo. 3 line 7, Algo. 6 line 17), shortcut
//! assembly (Fact 1) and the final cut combination (Algo. 3 line 14).
//!
//! The result's breakpoints are the union of the inputs' breakpoints plus the
//! intersection points of crossing segments; between consecutive candidates
//! both inputs are linear, so the minimum is linear and the representation is
//! exact. Each output segment keeps the **winning side's witness**, which is
//! how `min{Compound(…), Compound(…)}` ends up recording the right
//! intermediate vertex (Example 2.3).
//!
//! Both passes — values over the merged breakpoint grid, witnesses at the
//! segment midpoints — probe at ascending times, so each walks the two
//! inputs once through forward cursors: O(|f| + |g|), no binary search.
//! Callers that fold candidates into an accumulator go through
//! [`crate::ops::min_into`] / [`crate::ops::min_compound_into`], which let
//! the value bounds and then one pointwise walk decide, and call this only
//! for a pair where neither side wins everywhere.

use crate::approx::{EPS_COST, EPS_TIME};
use crate::plf::{Plf, Pt};
use crate::view::{Cursor, PlfView};

/// The merged breakpoint grid of `a` and `b`, ascending; a breakpoint of `b`
/// within [`EPS_TIME`] after one of `a` is the same instant.
fn merged_times(a: impl PlfView, b: impl PlfView) -> impl Iterator<Item = f64> {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        match ((i < a.len()).then(|| a.t(i)), (j < b.len()).then(|| b.t(j))) {
            (Some(p), Some(q)) if p <= q => {
                i += 1;
                if q - p <= EPS_TIME {
                    j += 1;
                }
                Some(p)
            }
            (Some(p), None) => {
                i += 1;
                Some(p)
            }
            (_, Some(q)) => {
                j += 1;
                Some(q)
            }
            (None, None) => None,
        }
    })
}

impl Plf {
    /// The pointwise minimum `t ↦ min(self(t), other(t))`, witnesses taken
    /// from whichever side is smaller on each segment: [`minimum`].
    pub fn minimum(&self, other: &Plf) -> Plf {
        minimum(self, other)
    }
}

/// The pointwise minimum `t ↦ min(a(t), b(t))` of two functions in either
/// layout, witnesses taken from whichever side is smaller on each segment
/// (ties favour `a`).
pub fn minimum(a: impl PlfView, b: impl PlfView) -> Plf {
    // Every merged time emits one point and at most one crossing.
    let mut pts: Vec<Pt> = Vec::with_capacity(2 * (a.len() + b.len()));
    let push = |t: f64, v: f64, pts: &mut Vec<Pt>| {
        if let Some(last) = pts.last() {
            if t - last.t <= EPS_TIME {
                return;
            }
        }
        pts.push(Pt::new(t, v.max(0.0)));
    };

    // Emit min at every merged time, plus crossings inside sub-segments.
    let (mut f, mut g) = (Cursor::new(a), Cursor::new(b));
    let mut times = merged_times(a, b);
    let mut ta = times.next().expect("non-empty by invariant");
    let (mut fa, mut ga) = (f.value(ta), g.value(ta));
    loop {
        push(ta, fa.min(ga), &mut pts);
        let Some(tb) = times.next() else { break };
        let (fb, gb) = (f.value(tb), g.value(tb));
        let da = fa - ga;
        let db = fb - gb;
        if (da > EPS_COST && db < -EPS_COST) || (da < -EPS_COST && db > EPS_COST) {
            // Strict crossing inside (ta, tb).
            let s = da / (da - db);
            let tx = ta + s * (tb - ta);
            if tx - ta > EPS_TIME && tb - tx > EPS_TIME {
                let vx = fa + s * (fb - fa); // == ga + s*(gb-ga)
                push(tx, vx, &mut pts);
            }
        }
        (ta, fa, ga) = (tb, fb, gb);
    }

    // Witness pass: each segment takes the winner's witness, probed at the
    // segment midpoint (ties favour `a`).
    let (mut f, mut g) = (Cursor::new(a), Cursor::new(b));
    let n = pts.len();
    for k in 0..n {
        let probe = if k + 1 < n {
            0.5 * (pts[k].t + pts[k + 1].t)
        } else {
            pts[k].t + 1.0 // right ray: both sides constant beyond
        };
        let (fv, fvia) = f.at(probe);
        let (gv, gvia) = g.at(probe);
        pts[k].via = if fv <= gv + EPS_COST { fvia } else { gvia };
    }

    let mut out = Plf::from_raw(pts);
    out.simplify();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plf::NO_VIA;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    fn assert_min_exact(f: &Plf, g: &Plf) {
        let h = f.minimum(g);
        let lo = f.first().t.min(g.first().t) - 20.0;
        let hi = f.last().t.max(g.last().t) + 20.0;
        let n = 500;
        for i in 0..=n {
            let t = lo + (hi - lo) * i as f64 / n as f64;
            let want = f.eval(t).min(g.eval(t));
            let got = h.eval(t);
            assert!(
                (want - got).abs() < 1e-6,
                "min mismatch at t={t}: want {want}, got {got}\nf={f:?}\ng={g:?}\nh={h:?}"
            );
        }
    }

    #[test]
    fn paper_fig2_shape_crossover() {
        // Example 2.3: path (e1,4 , e4,9) is best early, (e1,2 , e2,9) later;
        // the min must switch paths at the crossover.
        let via4 = plf(&[(0.0, 10.0), (30.0, 30.0), (60.0, 40.0)]).with_via(4);
        let via2 = plf(&[(0.0, 16.0), (30.0, 20.0), (60.0, 30.0)]).with_via(2);
        let h = via4.minimum(&via2);
        assert_eq!(h.eval_with_via(0.0).1, 4);
        assert_eq!(h.eval_with_via(59.0).1, 2);
        assert_min_exact(&via4, &via2);
    }

    #[test]
    fn disjoint_domains() {
        let f = plf(&[(0.0, 5.0), (10.0, 6.0)]);
        let g = plf(&[(100.0, 2.0), (110.0, 3.0)]);
        assert_min_exact(&f, &g);
        // g's clamped constant 2 < f everywhere ⇒ min is g's shape.
        let h = f.minimum(&g);
        assert!((h.eval(0.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn identical_functions() {
        let f = plf(&[(0.0, 5.0), (10.0, 9.0), (20.0, 3.0)]);
        let h = f.minimum(&f);
        assert!(h.approx_eq(&f, 1e-9));
    }

    #[test]
    fn constant_vs_varying() {
        let f = Plf::constant(10.0);
        let g = plf(&[(0.0, 5.0), (30.0, 20.0), (60.0, 5.0)]);
        assert_min_exact(&f, &g);
        let h = f.minimum(&g);
        // Crossings at g(t)=10: t=10 (rising) and t=50 (falling).
        assert!((h.eval(10.0) - 10.0).abs() < 1e-9);
        assert!((h.eval(30.0) - 10.0).abs() < 1e-9);
        assert!((h.eval(0.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn commutative_in_value() {
        let f = plf(&[(0.0, 5.0), (25.0, 14.0), (60.0, 2.0)]);
        let g = plf(&[(0.0, 9.0), (30.0, 3.0), (60.0, 11.0)]);
        let a = f.minimum(&g);
        let b = g.minimum(&f);
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn idempotent() {
        let f = plf(&[(0.0, 5.0), (25.0, 14.0)]);
        assert!(f.minimum(&f).approx_eq(&f, 1e-9));
    }

    #[test]
    fn multiple_crossings() {
        let f = plf(&[
            (0.0, 0.0),
            (10.0, 10.0),
            (20.0, 0.0),
            (30.0, 10.0),
            (40.0, 0.0),
        ]);
        let g = Plf::constant(5.0);
        assert_min_exact(&f, &g);
        let h = f.minimum(&g);
        // Kinks at the four crossings + valley points.
        assert!(h.len() >= 7, "h={h:?}");
    }

    #[test]
    fn witness_none_for_direct_edges() {
        let f = plf(&[(0.0, 5.0), (10.0, 6.0)]);
        let g = plf(&[(0.0, 7.0), (10.0, 4.0)]);
        let h = f.minimum(&g);
        assert_eq!(h.eval_with_via(0.0).1, NO_VIA);
    }

    #[test]
    fn fifo_closed_under_min() {
        let f = plf(&[(0.0, 30.0), (30.0, 10.0), (60.0, 25.0)]);
        let g = plf(&[(0.0, 12.0), (30.0, 28.0), (60.0, 8.0)]);
        assert!(f.is_fifo() && g.is_fifo());
        assert!(f.minimum(&g).is_fifo());
    }

    #[test]
    fn near_tangent_segments_do_not_duplicate_points() {
        let f = plf(&[(0.0, 5.0), (10.0, 5.0 + 1e-12)]);
        let g = plf(&[(0.0, 5.0 + 1e-12), (10.0, 5.0)]);
        let h = f.minimum(&g);
        // Effectively identical constants; simplification collapses them.
        assert!(h.len() <= 2, "h={h:?}");
    }
}
