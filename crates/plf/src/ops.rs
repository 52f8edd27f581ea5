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
//!
//! [`min_compound_into`] walks the compound's breakpoint list, made in one
//! pass by the compound operator, and builds the compound only when it
//! must — by simplifying that same list in place, so the list becomes the
//! function. Its walk keeps the accumulator unless the compound gets below
//! it by more than [`EPS_COST`] somewhere: the tolerance of [`min_into`]'s
//! take rule and of `minimum`'s witness rule. Without it, a last-ulp
//! difference between two ways of computing one value would count as a
//! change, and a label-correcting loop that requeues on changes would not
//! settle.
//!
//! Each function is made once. [`fold_into`] and [`fold_compound_into`]
//! are the same folds for a caller that keeps the accumulator's `(min,
//! max)` beside it: they read those bounds instead of rescanning, and leave
//! them the new accumulator's (a take's are the candidate's, found once).
//! A caller that also keeps the accumulator's per-window bounds hands them
//! in: a built candidate whose window maxima lie below them by more than
//! [`EPS_COST`] everywhere is taken without the pointwise walk
//! ([`Windows::over`]), and its windows become the accumulator's. The
//! [`Merge`] they return says what decided.
//!
//! A caller that keeps per-window bounds of its accumulator can decide most
//! keeps before calling here, without making the compound's breakpoints:
//! [`crate::window::Windows::under_compound`] adds no tolerance, so it only
//! keeps where this walk would.

use crate::approx::{lerp, EPS_COST};
use crate::compound::{breakpoints, from_breakpoints};
use crate::plf::{Plf, Pt, Via};
use crate::view::{Cursor, PlfView};
use crate::window::Windows;

/// The `(min, max)` of an empty accumulator (`+∞`): nothing is dominated by
/// it.
pub const EMPTY_BOUNDS: (f64, f64) = (f64::INFINITY, f64::INFINITY);

/// How a fold into an accumulator ended, and what decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The accumulator stays, bit for bit.
    Kept,
    /// The accumulator was empty (`+∞`) and now holds the candidate.
    Filled,
    /// The candidate replaced the accumulator, decided by per-window
    /// bounds ([`Windows::over`]) before any walk.
    WindowTake,
    /// The candidate replaced the accumulator, decided by the value bounds
    /// or by the pointwise walk.
    WalkTake,
    /// Neither side wins everywhere: the accumulator holds their
    /// [`Plf::minimum`].
    Merged,
}

impl Merge {
    /// Whether the accumulator changed.
    #[inline]
    pub fn changed(self) -> bool {
        self != Merge::Kept
    }

    /// Whether windows handed to [`fold_into`] are still the accumulator's
    /// afterwards: a keep leaves them, a take replaces them by the
    /// candidate's; a fill or a merge leaves them stale.
    #[inline]
    pub fn windows_fresh(self) -> bool {
        matches!(self, Merge::Kept | Merge::WindowTake | Merge::WalkTake)
    }
}

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
/// is merged. [`fold_into`] is the same fold for a caller that keeps the
/// accumulator's bounds.
pub fn min_into(acc: &mut Option<Plf>, f: Plf) -> bool {
    let mut bounds = acc.as_ref().map_or(EMPTY_BOUNDS, PlfView::value_bounds);
    fold_into(acc, &mut bounds, None, f).changed()
}

/// [`min_into`] for a caller that keeps the accumulator's `(min, max)`
/// beside it ([`EMPTY_BOUNDS`] while empty), and perhaps its [`Windows`]:
/// neither is rescanned, and `bounds` is left the new accumulator's.
///
/// With `windows`, a candidate that is not kept by the bounds has its own
/// windows made first, and [`Windows::over`] may take it before the walk.
/// After a take the windows are the candidate's, so
/// [`Merge::windows_fresh`] tells the caller whether they still describe
/// the accumulator. Debug builds check every window take against the walk.
pub fn fold_into(
    acc: &mut Option<Plf>,
    bounds: &mut (f64, f64),
    windows: Option<&mut Windows>,
    f: Plf,
) -> Merge {
    let f_bounds = f.value_bounds();
    let Some(a) = acc else {
        *acc = Some(f);
        *bounds = f_bounds;
        return Merge::Filled;
    };
    let (a_min, a_max) = *bounds;
    debug_assert_eq!((a_min, a_max), a.value_bounds(), "stale accumulator bounds");
    if f_bounds.0 >= a_max {
        return Merge::Kept;
    }
    let fw = windows.as_ref().map(|_| Windows::of(&f));
    let by_windows = (windows.as_deref().zip(fw.as_ref()))
        .is_some_and(|(aw, fw)| aw.over(fw, a_max + f_bounds.1));
    let how = if by_windows {
        Merge::WindowTake
    } else if f_bounds.1 < a_min - EPS_COST {
        Merge::WalkTake
    } else {
        match pointwise_winner(&*a, &f) {
            Some(Side::Acc) => return Merge::Kept,
            Some(Side::Candidate) => Merge::WalkTake,
            None => Merge::Merged,
        }
    };
    debug_assert!(
        how != Merge::WindowTake || matches!(pointwise_winner(&*a, &f), Some(Side::Candidate)),
        "a window take the walk would not make"
    );
    if how == Merge::Merged {
        *a = a.minimum(&f);
        *bounds = a.value_bounds();
        return how;
    }
    if let (Some(aw), Some(fw)) = (windows, fw) {
        *aw = fw;
    }
    *a = f;
    *bounds = f_bounds;
    how
}

/// `acc = min{acc, Compound(f, g, via)}` — [`min_into`] of
/// [`Plf::compound`], without building a compound the accumulator already
/// lies at or below within [`EPS_COST`]. Returns whether the accumulator
/// changed.
///
/// The compound's unsimplified breakpoints are made once, with their
/// values, and walked against `acc` through a forward cursor, the compound
/// interpolated between them as its point list would be. The accumulator
/// stays, unchanged and reported so, unless the compound gets below it by
/// more than [`EPS_COST`] at some breakpoint of either; it may therefore
/// stay up to [`EPS_COST`] above the compound in places. Otherwise the walk
/// stops at that breakpoint, the same list is simplified in place into the
/// compound, and that is folded in by [`min_into`].
pub fn min_compound_into(
    acc: &mut Option<Plf>,
    f: impl PlfView,
    g: impl PlfView,
    via: Via,
) -> bool {
    compound_unless_kept(acc, f, g, via).is_some_and(|c| min_into(acc, c))
}

/// [`min_compound_into`] through [`fold_into`]: for a caller that keeps the
/// accumulator's bounds, and perhaps its windows, beside it.
pub fn fold_compound_into(
    acc: &mut Option<Plf>,
    bounds: &mut (f64, f64),
    windows: Option<&mut Windows>,
    f: impl PlfView,
    g: impl PlfView,
    via: Via,
) -> Merge {
    match compound_unless_kept(acc, f, g, via) {
        Some(c) => fold_into(acc, bounds, windows, c),
        None => Merge::Kept,
    }
}

/// `Compound(f, g, via)`, unless its breakpoints' walk finds it nowhere
/// below `acc` by more than [`EPS_COST`].
fn compound_unless_kept(
    acc: &Option<Plf>,
    f: impl PlfView,
    g: impl PlfView,
    via: Via,
) -> Option<Plf> {
    let pts = breakpoints(f, g, via);
    if acc.as_ref().is_some_and(|a| never_below(a, &pts)) {
        return None;
    }
    Some(from_breakpoints(pts))
}

/// The input [`Plf::minimum`] returns as it stands.
enum Side {
    Acc,
    Candidate,
}

/// Which side wins at every breakpoint of either function (see
/// [`min_into`] for the two rules), or `None` as soon as neither can.
///
/// At its own breakpoint a function is worth the point's value (a cursor
/// there returns `p.v` bit for bit), so only the other side is evaluated.
fn pointwise_winner(acc: impl PlfView, f: impl PlfView) -> Option<Side> {
    let (mut keep, mut take) = (true, true);
    let mut agree = |av: f64, fv: f64| {
        keep &= av <= fv;
        take &= fv < av - EPS_COST;
        keep || take
    };
    let (mut ac, mut fc) = (Cursor::new(acc), Cursor::new(f));
    if !((0..acc.len()).all(|i| agree(acc.v(i), fc.value(acc.t(i))))
        && (0..f.len()).all(|i| agree(ac.value(f.t(i)), f.v(i))))
    {
        return None;
    }
    Some(if keep { Side::Acc } else { Side::Candidate })
}

/// True iff `acc(t) ≤ c(t) + EPS_COST` at every breakpoint of either
/// function, where `c` is the function through the ascending points `cp`
/// with `Plf`'s clamped rays — hence everywhere.
fn never_below(acc: impl PlfView, cp: &[Pt]) -> bool {
    let mut ac = Cursor::new(acc);
    let mut i = 0; // acc's breakpoints before here are checked
    let mut prev: Option<&Pt> = None;
    for q in cp {
        // acc's breakpoints before `q` meet `c` on its segment ending at
        // `q`, or on its left ray.
        while i < acc.len() && acc.t(i) < q.t {
            let cv = prev.map_or(q.v, |o| lerp(o.t, o.v, q.t, q.v, acc.t(i)));
            if acc.v(i) > cv + EPS_COST {
                return false;
            }
            i += 1;
        }
        if ac.value(q.t) > q.v + EPS_COST {
            return false;
        }
        prev = Some(q);
    }
    // The rest meet `c`'s right ray.
    prev.is_some_and(|q| (i..acc.len()).all(|k| acc.v(k) <= q.v + EPS_COST))
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

    #[test]
    fn the_walk_keeps_an_accumulator_up_to_eps_above_the_compound() {
        let f = plf(&[(0.0, 5.0), (100.0, 8.0)]);
        let g = plf(&[(0.0, 7.0), (60.0, 9.0), (130.0, 4.0)]);
        let h = f.compound(&g, 3);
        let above = |delta: f64| {
            let pts = h.points().iter().map(|p| Pt::with_via(p.t, p.v + delta, 9));
            Plf::new(pts.collect()).unwrap()
        };
        // Above the compound by less than EPS_COST everywhere: no change,
        // and the accumulator keeps its own bits and witness.
        let kept = above(0.9 * EPS_COST);
        let mut acc = Some(kept.clone());
        assert!(!min_compound_into(&mut acc, &f, &g, 3));
        assert_eq!(acc, Some(kept));
        // By more than EPS_COST everywhere: `min_into` takes the compound.
        let mut acc = Some(above(1.1 * EPS_COST));
        assert!(min_compound_into(&mut acc, &f, &g, 3));
        assert_eq!(acc, Some(h));
    }
}
