//! The accumulator forms of [`Plf::minimum`] — `min{acc, f}` and
//! `min{acc, Compound(f, g)}` — each decided before anything is built.
//!
//! Almost every relaxation of a query sweep or of the shortcut DFS ends with
//! one input winning everywhere. Both functions here find that out first,
//! in the order of what it costs: the two functions' value bounds (O(1) past
//! a scan), then one forward walk over every breakpoint of either function.
//! Between consecutive breakpoints both are linear, so a side that wins at
//! every breakpoint wins everywhere, and [`Plf::minimum`] would return that
//! side's values and witnesses: only a mixed pair is merged.

use crate::approx::{lerp, EPS_COST};
use crate::compound::{build, candidate_times, raw_values};
use crate::plf::{Cursor, Plf, Pt, Via};

/// Minimum of an optional accumulator and a new function — the
/// `cost[u] = min{cost[u], Compound(…)}` pattern of Algo. 3 lines 6-9 and
/// Algo. 6 lines 16-19, with `None` playing the role of `+∞`. Returns
/// whether the accumulator changed.
///
/// The accumulator is kept when `acc(t) ≤ f(t)` everywhere — ties keep it,
/// as [`Plf::minimum`] keeps `self` — and replaced by `f` when `f(t)` is
/// below `acc(t)` by more than [`EPS_COST`] everywhere (the tolerance inside
/// which `minimum`'s witness pass still prefers `self`). The value bounds
/// try first, the pointwise walk second; either way the result is one input
/// unchanged and equals `minimum`'s in value and in witness. Everything else
/// is merged.
pub fn min_into(acc: &mut Option<Plf>, f: Plf) -> bool {
    let Some(a) = acc else {
        *acc = Some(f);
        return true;
    };
    let (f_min, f_max) = f.value_bounds();
    let (a_min, a_max) = a.value_bounds();
    if f_min >= a_max {
        return false;
    }
    *a = if f_max < a_min - EPS_COST {
        f
    } else {
        match pointwise_winner(a, &f) {
            Some(Side::Acc) => return false,
            Some(Side::Candidate) => f,
            None => a.minimum(&f),
        }
    };
    true
}

/// `acc = min{acc, Compound(f, g, via)}` — [`min_into`] of
/// [`Plf::compound`], without building a compound the accumulator already
/// lies at or below. Returns whether the accumulator changed.
///
/// The compound's candidate times are computed once. Its values at those
/// times are walked against `acc` through forward cursors, the compound
/// interpolated between them exactly as its unsimplified point list would
/// be; the walk stops at the first time the candidate gets below `acc`, and
/// only then is the compound built — from the same times — and folded in by
/// [`min_into`].
pub fn min_compound_into(acc: &mut Option<Plf>, f: &Plf, g: &Plf, via: Via) -> bool {
    let times = candidate_times(f, g);
    if acc
        .as_ref()
        .is_some_and(|a| at_or_below(a, raw_values(f, g, &times)))
    {
        return false;
    }
    min_into(acc, build(f, g, &times, via))
}

/// The input [`Plf::minimum`] returns as it stands.
enum Side {
    Acc,
    Candidate,
}

/// Which side wins at every breakpoint of either function (see
/// [`min_into`] for the two rules), or `None` as soon as neither can.
fn pointwise_winner(acc: &Plf, f: &Plf) -> Option<Side> {
    let (mut keep, mut take) = (true, true);
    let mut agree_at = |probes: &[Pt]| {
        let (mut ac, mut fc) = (Cursor::new(acc), Cursor::new(f));
        probes.iter().all(|p| {
            let (av, fv) = (ac.at(p.t).0, fc.at(p.t).0);
            keep &= av <= fv;
            take &= fv < av - EPS_COST;
            keep || take
        })
    };
    if !(agree_at(acc.points()) && agree_at(f.points())) {
        return None;
    }
    Some(if keep { Side::Acc } else { Side::Candidate })
}

/// True iff `acc(t) ≤ c(t)` at every breakpoint of either function, where
/// `c` is the function through the ascending points `raw` with `Plf`'s
/// clamped rays — hence everywhere.
fn at_or_below(acc: &Plf, raw: impl Iterator<Item = (f64, f64)>) -> bool {
    let ap = acc.points();
    let mut ac = Cursor::new(acc);
    let mut i = 0; // acc's breakpoints before here are checked
    let mut prev: Option<(f64, f64)> = None;
    for (t, c) in raw {
        // acc's breakpoints before `t` meet `c` on its segment ending at
        // `(t, c)`, or on its left ray.
        while let Some(p) = ap.get(i).filter(|p| p.t < t) {
            let cv = prev.map_or(c, |(t0, c0)| lerp(t0, c0, t, c, p.t));
            if p.v > cv {
                return false;
            }
            i += 1;
        }
        if ac.at(t).0 > c {
            return false;
        }
        prev = Some((t, c));
    }
    // The rest meet `c`'s right ray.
    prev.is_some_and(|(_, c)| ap[i..].iter().all(|p| p.v <= c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plf::NO_VIA;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    #[test]
    fn min_into_from_infinity() {
        let mut acc = None;
        assert!(min_into(&mut acc, Plf::constant(5.0)));
        assert_eq!(acc.as_ref().unwrap().eval(0.0), 5.0);
        assert!(min_into(&mut acc, Plf::constant(3.0)));
        assert_eq!(acc.as_ref().unwrap().eval(0.0), 3.0);
        assert!(!min_into(&mut acc, Plf::constant(9.0)));
        assert_eq!(acc.as_ref().unwrap().eval(0.0), 3.0);
    }

    #[test]
    fn the_walk_decides_what_overlapping_bounds_cannot() {
        // Value ranges overlap, yet one side is below at every breakpoint.
        let low = plf(&[(0.0, 5.0), (100.0, 20.0)]);
        let high = plf(&[(0.0, 10.0), (50.0, 30.0), (100.0, 25.0)]);
        let mut acc = Some(low.clone());
        assert!(!min_into(&mut acc, high.clone()));
        assert_eq!(acc.as_ref(), Some(&low));
        let mut acc = Some(high);
        assert!(min_into(&mut acc, low.clone()));
        assert_eq!(acc.as_ref(), Some(&low));
    }

    #[test]
    fn min_compound_into_skips_a_candidate_it_never_builds() {
        // Compound(f, g) ≥ 12 everywhere; a 10-constant accumulator stays.
        let f = plf(&[(0.0, 5.0), (100.0, 8.0)]);
        let g = plf(&[(0.0, 7.0), (60.0, 9.0)]);
        let mut acc = Some(Plf::constant(10.0));
        assert!(!min_compound_into(&mut acc, &f, &g, 3));
        assert_eq!(acc, Some(Plf::constant(10.0)));
        // Against an accumulator it crosses, it is built and merged.
        let mut acc = Some(plf(&[(0.0, 30.0), (100.0, 0.0)]));
        assert!(min_compound_into(&mut acc, &f, &g, 3));
        let want = plf(&[(0.0, 30.0), (100.0, 0.0)]).minimum(&f.compound(&g, 3));
        assert_eq!(acc, Some(want));
        // From +∞ it is the compound itself.
        let mut acc = None;
        assert!(min_compound_into(&mut acc, &f, &g, NO_VIA));
        assert_eq!(acc, Some(f.compound(&g, NO_VIA)));
    }
}
