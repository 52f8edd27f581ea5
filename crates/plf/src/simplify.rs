//! Collinear-point elimination.
//!
//! `compound` and `minimum` emit every candidate breakpoint; many turn out to
//! lie exactly on the line through their neighbours. Dropping them keeps the
//! interpolation-point count `|I|` — the paper's space currency (Def. 7) — at
//! the true complexity of the function instead of growing with every operator
//! application.
//!
//! A point is only removed when its **witness matches its predecessor's**:
//! witnesses are valid per departure time, and extending one across a segment
//! where a *different* predecessor achieved the minimum would make path
//! recovery return non-shortest paths even though the cost values agree.
//!
//! The pass compacts a function's own point list in place. A compound's
//! breakpoint list (`compound::breakpoints`) therefore becomes the stored
//! function with no second buffer and no copy: nothing in this file above
//! its tests allocates.

use crate::approx::{lerp, EPS_COST, EPS_TIME};
use crate::plf::Plf;

impl Plf {
    /// Removes interior points that are collinear (within `tol`) with their
    /// neighbours and share the preceding segment's witness; also collapses
    /// flat, same-witness head/tail segments into the clamped rays. Exact up
    /// to `tol` in value and exact in witnesses.
    ///
    /// Compacts the points in place, so a freshly made point list becomes
    /// the function without a second buffer: the kept points are a prefix
    /// that never overtakes the point being read.
    pub fn simplify_with(&mut self, tol: f64) {
        let pts = self.pts_mut();
        if pts.len() <= 1 {
            return;
        }
        let mut kept = 1; // pts[..kept] is the simplified prefix
        for i in 1..pts.len() {
            let p = pts[i];
            while kept >= 2 {
                let (a, b) = (pts[kept - 2], pts[kept - 1]);
                // b is droppable iff value-collinear on a–p and the witness of
                // [b, p) equals the witness of [a, b).
                let on_line = (lerp(a.t, a.v, p.t, p.v, b.t) - b.v).abs() <= tol;
                if on_line && a.via == b.via {
                    kept -= 1;
                } else {
                    break;
                }
            }
            pts[kept] = p;
            kept += 1;
        }
        pts.truncate(kept);
        // Trailing flat segment with matching witness collapses into the
        // right ray.
        if let [.., a, b] = pts[..] {
            if (a.v - b.v).abs() <= tol && a.via == b.via {
                pts.pop();
            }
        }
        // Leading flat segment with matching witness collapses into the left
        // ray.
        if let [a, b, ..] = pts[..] {
            if (a.v - b.v).abs() <= tol && a.via == b.via {
                pts.remove(0);
            }
        }
        // A single surviving point is the constant function; its anchor time
        // is semantically meaningless (both rays clamp to the same value), so
        // pin it to t = 0 like `Plf::constant`. Without this, two searches
        // reaching the same constant through different merge orders would
        // disagree on the leftover anchor even though the functions are equal.
        if let [only] = &mut pts[..] {
            only.t = 0.0;
        }
        debug_assert!(pts.windows(2).all(|w| w[1].t - w[0].t > EPS_TIME));
    }

    /// [`Plf::simplify_with`] at the default cost tolerance.
    pub fn simplify(&mut self) {
        self.simplify_with(EPS_COST);
    }

    /// Returns a simplified copy.
    pub fn simplified(&self) -> Plf {
        let mut c = self.clone();
        c.simplify();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plf::{Pt, NO_VIA};
    use crate::view::PlfView;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    #[test]
    fn drops_interior_collinear_point() {
        let mut f = plf(&[(0.0, 0.0), (5.0, 5.0), (10.0, 10.0)]);
        f.simplify();
        assert_eq!(f.len(), 2);
        assert_eq!(f.eval(5.0), 5.0);
    }

    #[test]
    fn keeps_genuine_kinks() {
        let mut f = plf(&[(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)]);
        f.simplify();
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn collapses_constant_function_to_one_point() {
        let mut f = plf(&[(0.0, 7.0), (10.0, 7.0), (20.0, 7.0), (30.0, 7.0)]);
        f.simplify();
        assert_eq!(f.len(), 1);
        assert_eq!(f.eval(-5.0), 7.0);
        assert_eq!(f.eval(15.0), 7.0);
        assert_eq!(f.eval(100.0), 7.0);
    }

    #[test]
    fn constant_collapse_anchor_is_canonical() {
        // Two constants with different time grids must collapse to the *same*
        // representation — the anchor is pinned to t = 0 like `Plf::constant`.
        let mut a = plf(&[(-100.0, 7.0), (40.0, 7.0)]);
        let mut b = plf(&[(3.0, 7.0), (8.0, 7.0), (12.0, 7.0)]);
        a.simplify();
        b.simplify();
        assert_eq!(a, b);
        assert_eq!(a.first().t, 0.0);
        assert_eq!(a.eval(-200.0), 7.0);
    }

    #[test]
    fn drops_flat_tail_and_head() {
        let mut f = plf(&[(0.0, 3.0), (10.0, 3.0), (20.0, 9.0), (30.0, 9.0)]);
        let orig = f.clone();
        f.simplify();
        assert_eq!(f.len(), 2);
        for t in [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 40.0] {
            assert!(
                (f.eval(t) - orig.eval(t)).abs() < 1e-9,
                "diverged at t={t}: {} vs {}",
                f.eval(t),
                orig.eval(t)
            );
        }
    }

    #[test]
    fn chain_of_collinear_points_collapses() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let mut f = plf(&pts);
        f.simplify();
        assert_eq!(f.len(), 2);
        assert_eq!(f.eval(33.5), 67.0);
    }

    #[test]
    fn preserves_single_point() {
        let mut f = Plf::constant(5.0);
        f.simplify();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn simplify_value_preserving_on_random_like_shape() {
        let mut f = plf(&[
            (0.0, 10.0),
            (10.0, 10.0),
            (20.0, 15.0),
            (25.0, 17.5),
            (30.0, 20.0),
            (40.0, 12.0),
            (60.0, 12.0),
        ]);
        let orig = f.clone();
        f.simplify();
        assert!(f.len() < orig.len());
        for i in 0..=120 {
            let t = i as f64 * 0.5;
            assert!((f.eval(t) - orig.eval(t)).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn witness_boundary_is_never_merged() {
        // Value-collinear across the witness switch at t=10: the point must
        // survive, otherwise path recovery would extend witness 4 into the
        // region where only witness 2 achieves the minimum.
        let mut f = Plf::new(vec![
            Pt::with_via(0.0, 0.0, 4),
            Pt::with_via(10.0, 10.0, 2),
            Pt::with_via(20.0, 20.0, 2),
            Pt::with_via(30.0, 30.0, 2),
        ])
        .unwrap();
        f.simplify();
        // (20,20) merges into (10,10)'s segment (same witness); (10,10) must
        // survive because it is the witness switch.
        assert_eq!(f.len(), 3, "f={f:?}");
        assert_eq!(f.eval_with_via(5.0).1, 4);
        assert_eq!(f.eval_with_via(15.0).1, 2);
        assert_eq!(f.eval_with_via(25.0).1, 2);
    }

    #[test]
    fn same_witness_collinear_points_merge() {
        let mut f = Plf::new(vec![
            Pt::with_via(0.0, 0.0, 4),
            Pt::with_via(10.0, 10.0, 4),
            Pt::with_via(20.0, 20.0, 4),
        ])
        .unwrap();
        f.simplify();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn flat_head_with_differing_witness_is_kept() {
        let mut f = Plf::new(vec![
            Pt::with_via(0.0, 3.0, 9),
            Pt::with_via(10.0, 3.0, NO_VIA),
            Pt::with_via(20.0, 8.0, NO_VIA),
        ])
        .unwrap();
        f.simplify();
        assert_eq!(f.len(), 3);
        assert_eq!(f.eval_with_via(5.0).1, 9);
        assert_eq!(f.eval_with_via(15.0).1, NO_VIA);
    }
}
