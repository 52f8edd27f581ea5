//! Property-based tests for the PLF algebra — the invariants every index in
//! the workspace silently relies on.

use proptest::prelude::*;
use td_plf::approx::lerp;
use td_plf::ops::{fold_into, min_compound_into, min_into, Merge};
use td_plf::window::{compound_floor, Windows, WINDOWS, WINDOW_WIDTH};
use td_plf::{Plf, PlfArena, PlfView, Pt, EPS_COST, EPS_TIME, NO_VIA};

/// Strategy: a random FIFO travel-cost function with 1..=12 points over
/// roughly a day, values in [0, 3600].
fn fifo_plf() -> impl Strategy<Value = Plf> {
    (
        proptest::collection::vec(0.1f64..3000.0, 0..11),
        0.0f64..3600.0,
        proptest::collection::vec(0.0f64..1.0, 12),
    )
        .prop_map(|(gaps, v0, vs)| {
            let mut t = 0.0;
            let mut pts = vec![(0.0, v0)];
            for (i, gap) in gaps.iter().enumerate() {
                t += gap + 1.0;
                let prev = pts.last().unwrap().1;
                // Next value within FIFO bounds: slope ≥ -1 ⇒ v ≥ prev - dt.
                let dt = gap + 1.0;
                let lo = (prev - dt).max(0.0);
                let hi = prev + dt; // keep slopes ≤ +1 for variety
                let v = lo + vs[i] * (hi - lo);
                pts.push((t, v));
            }
            Plf::from_pairs(&pts).expect("generated points are valid")
        })
}

fn probe_times(fs: &[&Plf]) -> Vec<f64> {
    let mut ts: Vec<f64> = vec![-10.0, 0.0];
    for f in fs {
        for p in f.points() {
            ts.push(p.t);
            ts.push(p.t + 0.37);
            ts.push(p.t - 0.41);
        }
        ts.push(f.last().t + 100.0);
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn generated_functions_are_fifo(f in fifo_plf()) {
        prop_assert!(f.is_fifo());
    }

    #[test]
    fn compound_matches_pointwise_definition(f in fifo_plf(), g in fifo_plf()) {
        let h = f.compound(&g, NO_VIA);
        for t in probe_times(&[&f, &g, &h]) {
            let fv = f.eval(t);
            let want = fv + g.eval(t + fv);
            prop_assert!((h.eval(t) - want).abs() < 1e-6,
                "t={t} want={want} got={}", h.eval(t));
        }
    }

    #[test]
    fn compound_preserves_fifo(f in fifo_plf(), g in fifo_plf()) {
        prop_assert!(f.compound(&g, NO_VIA).is_fifo());
    }

    #[test]
    fn compound_is_associative(f in fifo_plf(), g in fifo_plf(), h in fifo_plf()) {
        let left = f.compound(&g, NO_VIA).compound(&h, NO_VIA);
        let right = f.compound(&g.compound(&h, NO_VIA), NO_VIA);
        prop_assert!(left.approx_eq(&right, 1e-5),
            "left={left:?}\nright={right:?}");
    }

    #[test]
    fn zero_is_identity_for_compound(f in fifo_plf()) {
        let z = Plf::zero();
        prop_assert!(z.compound(&f, NO_VIA).approx_eq(&f, 1e-7));
        prop_assert!(f.compound(&z, NO_VIA).approx_eq(&f, 1e-7));
    }

    #[test]
    fn minimum_matches_pointwise_definition(f in fifo_plf(), g in fifo_plf()) {
        let h = f.minimum(&g);
        for t in probe_times(&[&f, &g, &h]) {
            let want = f.eval(t).min(g.eval(t));
            prop_assert!((h.eval(t) - want).abs() < 1e-6,
                "t={t} want={want} got={}", h.eval(t));
        }
    }

    #[test]
    fn minimum_is_commutative(f in fifo_plf(), g in fifo_plf()) {
        prop_assert!(f.minimum(&g).approx_eq(&g.minimum(&f), 1e-7));
    }

    #[test]
    fn minimum_is_idempotent(f in fifo_plf()) {
        prop_assert!(f.minimum(&f).approx_eq(&f, 1e-7));
    }

    #[test]
    fn minimum_is_associative(f in fifo_plf(), g in fifo_plf(), h in fifo_plf()) {
        let left = f.minimum(&g).minimum(&h);
        let right = f.minimum(&g.minimum(&h));
        prop_assert!(left.approx_eq(&right, 1e-6));
    }

    #[test]
    fn minimum_preserves_fifo(f in fifo_plf(), g in fifo_plf()) {
        prop_assert!(f.minimum(&g).is_fifo());
    }

    #[test]
    fn minimum_lower_bounds_both(f in fifo_plf(), g in fifo_plf()) {
        let h = f.minimum(&g);
        for t in probe_times(&[&f, &g]) {
            prop_assert!(h.eval(t) <= f.eval(t) + 1e-7);
            prop_assert!(h.eval(t) <= g.eval(t) + 1e-7);
        }
    }

    #[test]
    fn simplify_preserves_values(f in fifo_plf()) {
        let s = f.simplified();
        prop_assert!(s.len() <= f.len());
        for t in probe_times(&[&f]) {
            prop_assert!((s.eval(t) - f.eval(t)).abs() < 1e-6,
                "t={t}: {} vs {}", s.eval(t), f.eval(t));
        }
    }

    #[test]
    fn compound_distributes_over_min_on_the_left(
        f in fifo_plf(), g in fifo_plf(), h in fifo_plf()
    ) {
        // f ∘ min(g,h) == min(f∘g, f∘h): both legs depart at the same arrival
        // time, so minimising afterwards is the same as minimising first.
        let a = f.compound(&g.minimum(&h), NO_VIA);
        let b = f.compound(&g, NO_VIA).minimum(&f.compound(&h, NO_VIA));
        prop_assert!(a.approx_eq(&b, 1e-5), "a={a:?}\nb={b:?}");
    }

    #[test]
    fn eval_is_clamped_and_bounded(f in fifo_plf()) {
        let (lo, hi) = (f.min_value(), f.max_value());
        for t in probe_times(&[&f]) {
            let v = f.eval(t);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        prop_assert!((f.eval(-1e9) - f.first().v).abs() < 1e-12);
        prop_assert!((f.eval(1e9) - f.last().v).abs() < 1e-12);
    }

    #[test]
    fn min_value_lower_bounds_compound(f in fifo_plf(), g in fifo_plf()) {
        // Used by A* and Algo. 6 pruning: min over the whole day of the
        // compound is at least the sum of the individual minima.
        let h = f.compound(&g, NO_VIA);
        prop_assert!(h.min_value() >= f.min_value() + g.min_value() - 1e-7);
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the linear-time kernels against the binary-search
// bodies they replaced, on FIFO and non-FIFO inputs — bit for bit, except
// for the compound's values, which the kernel takes from `g`'s breakpoints
// instead of evaluating (see `assert_compound_matches_oracle`).
// ---------------------------------------------------------------------------

/// Strategy: a function with none of `fifo_plf`'s manners — slopes below −1
/// (overtaking), slopes of exactly −1 (flat arrival), breakpoints barely more
/// than `EPS_TIME` apart, single-point constants, per-segment witnesses, and
/// a time base shifted so that a pair may overlap only on its clamped rays.
fn wild_plf() -> impl Strategy<Value = Plf> {
    (
        proptest::collection::vec((0u8..8, 0.0f64..1.0, 0u8..6, 0.0f64..1.0, 0u32..4), 0..12),
        0.0f64..3600.0,
        0u8..5,
    )
        .prop_map(|(segs, v0, shift)| {
            let t0 = match shift {
                0 => -40_000.0,
                1 => 50_000.0,
                _ => 0.0,
            };
            let mut pts = vec![Pt::with_via(t0, v0, 7)];
            for (gap_kind, gap, slope_kind, slope, via) in segs {
                let prev = *pts.last().unwrap();
                let dt = if gap_kind == 0 {
                    1.5e-7 + gap * 1e-6
                } else {
                    0.1 + gap * 3000.0
                };
                let slope = match slope_kind {
                    0 => -1.0 - 3.0 * slope,
                    1 => -1.0,
                    2 => 0.0,
                    _ => -1.0 + 2.0 * slope,
                };
                let via = if via == 3 { NO_VIA } else { via };
                pts.push(Pt::with_via(
                    prev.t + dt,
                    (prev.v + slope * dt).max(0.0),
                    via,
                ));
            }
            Plf::new(pts).expect("generated points are valid")
        })
}

/// Strategy: a wild pair whose second function has some breakpoints snapped
/// to within `EPS_TIME` of the first's — the merged grid's "same instant".
fn wild_pair() -> impl Strategy<Value = (Plf, Plf)> {
    (
        wild_plf(),
        wild_plf(),
        proptest::collection::vec(0.0f64..1.0, 12),
    )
        .prop_map(|(f, g, draws)| {
            let mut pts = g.into_points();
            for (k, p) in pts.iter_mut().enumerate() {
                if draws[k] < 0.3 {
                    let anchor = f.points()[k % f.len()].t;
                    p.t = anchor + (draws[k] - 0.15) * 6e-7; // ± 0.9 EPS_TIME
                }
            }
            pts.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite times"));
            let mut kept: Vec<Pt> = Vec::with_capacity(pts.len());
            for p in pts {
                if kept.last().is_none_or(|q| p.t - q.t > 2.0 * EPS_TIME) {
                    kept.push(p);
                }
            }
            (f, Plf::new(kept).expect("re-spaced points are valid"))
        })
}

fn fifo_pair() -> impl Strategy<Value = (Plf, Plf)> {
    (fifo_plf(), fifo_plf())
}

/// `(t, v, via)` of every point, as bits.
fn bits(f: &Plf) -> Vec<(u64, u64, u32)> {
    f.points()
        .iter()
        .map(|p| (p.t.to_bits(), p.v.to_bits(), p.via))
        .collect()
}

/// The operators as they stood before the forward cursor: every evaluation a
/// binary search (`Plf::eval` / `eval_with_via`), every window of `g` two
/// `partition_point`s. Kept verbatim as the reference; `None` where the old
/// body itself had no answer (see `compound`).
mod oracle {
    use td_plf::{feq, Plf, PlfView, Pt, Via, EPS_COST, EPS_TIME};

    fn finish(pts: Vec<Pt>) -> Option<Plf> {
        // The old bodies built their result unchecked; a rounding-negative
        // value is the one thing the checked constructor would refuse.
        let mut out = Plf::new(pts).ok()?;
        out.simplify();
        Some(out)
    }

    pub fn minimum(f: &Plf, other: &Plf) -> Option<Plf> {
        let mut times: Vec<f64> = Vec::new();
        let (a, b) = (f.points(), other.points());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let t = match (a.get(i), b.get(j)) {
                (Some(p), Some(q)) => {
                    if p.t <= q.t {
                        i += 1;
                        if (q.t - p.t) <= EPS_TIME {
                            j += 1;
                        }
                        p.t
                    } else {
                        j += 1;
                        q.t
                    }
                }
                (Some(p), None) => {
                    i += 1;
                    p.t
                }
                (None, Some(q)) => {
                    j += 1;
                    q.t
                }
                (None, None) => unreachable!(),
            };
            times.push(t);
        }
        let mut pts: Vec<Pt> = Vec::with_capacity(times.len() * 2);
        let push = |t: f64, v: f64, pts: &mut Vec<Pt>| {
            if let Some(last) = pts.last() {
                if t - last.t <= EPS_TIME {
                    return;
                }
            }
            pts.push(Pt::new(t, v.max(0.0)));
        };
        for k in 0..times.len() {
            let ta = times[k];
            let fa = f.eval(ta);
            let ga = other.eval(ta);
            push(ta, fa.min(ga), &mut pts);
            if k + 1 < times.len() {
                let tb = times[k + 1];
                let fb = f.eval(tb);
                let gb = other.eval(tb);
                let da = fa - ga;
                let db = fb - gb;
                if (da > EPS_COST && db < -EPS_COST) || (da < -EPS_COST && db > EPS_COST) {
                    let s = da / (da - db);
                    let tx = ta + s * (tb - ta);
                    if tx - ta > EPS_TIME && tb - tx > EPS_TIME {
                        let vx = fa + s * (fb - fa);
                        push(tx, vx, &mut pts);
                    }
                }
            }
        }
        let n = pts.len();
        for k in 0..n {
            let probe = if k + 1 < n {
                0.5 * (pts[k].t + pts[k + 1].t)
            } else {
                pts[k].t + 1.0
            };
            let (fv, fvia) = f.eval_with_via(probe);
            let (gv, gvia) = other.eval_with_via(probe);
            pts[k].via = if fv <= gv + EPS_COST { fvia } else { gvia };
        }
        finish(pts)
    }

    pub fn compound(f: &Plf, g: &Plf, via: Via) -> Option<Plf> {
        let mut times = candidate_times(f, g)?;
        if !times.windows(2).all(|w| w[0] <= w[1]) {
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        }
        let mut pts: Vec<Pt> = Vec::with_capacity(times.len());
        for t in times {
            if let Some(last) = pts.last() {
                if t - last.t <= EPS_TIME {
                    continue;
                }
            }
            let fv = f.eval(t);
            let v = fv + g.eval(t + fv);
            pts.push(Pt::with_via(t, v, via));
        }
        finish(pts)
    }

    fn candidate_times(f: &Plf, g: &Plf) -> Option<Vec<f64>> {
        let fp = f.points();
        let gp = g.points();
        let mut times = Vec::with_capacity(fp.len() + gp.len());
        let a_first = fp[0].t + fp[0].v;
        for s in gp.iter().map(|p| p.t).take_while(|&s| s < a_first) {
            times.push(s - fp[0].v);
        }
        for w in fp.windows(2) {
            let (p0, p1) = (w[0], w[1]);
            times.push(p0.t);
            let a0 = p0.t + p0.v;
            let a1 = p1.t + p1.v;
            if a1 > a0 + EPS_TIME {
                let lo = gp.partition_point(|p| p.t <= a0 + EPS_TIME);
                let hi = gp.partition_point(|p| p.t < a1 - EPS_TIME);
                // The old body indexed `gp[lo..hi]` and so panicked on an
                // arrival window narrower than 2 EPS_TIME holding a
                // breakpoint of g (`hi < lo`); no answer to compare there.
                for s in gp.get(lo..hi)?.iter().map(|p| p.t) {
                    let t = p0.t + (s - a0) * (p1.t - p0.t) / (a1 - a0);
                    times.push(t.clamp(p0.t, p1.t));
                }
            } else if a1 < a0 - EPS_TIME {
                let lo = gp.partition_point(|p| p.t <= a1 + EPS_TIME);
                let hi = gp.partition_point(|p| p.t < a0 - EPS_TIME);
                for s in gp.get(lo..hi)?.iter().rev().map(|p| p.t) {
                    let t = p0.t + (s - a0) * (p1.t - p0.t) / (a1 - a0);
                    times.push(t.clamp(p0.t, p1.t));
                }
            }
        }
        let last = fp[fp.len() - 1];
        times.push(last.t);
        let a_last = last.t + last.v;
        let lo = gp.partition_point(|p| p.t <= a_last + EPS_TIME);
        for s in gp[lo..].iter().map(|p| p.t) {
            times.push(s - last.v);
        }
        Some(times)
    }

    pub fn approx_eq(f: &Plf, other: &Plf, tol: f64) -> bool {
        let probe = |p: &Pt| p.t;
        f.points()
            .iter()
            .map(probe)
            .chain(other.points().iter().map(probe))
            .all(|t| feq(f.eval(t), other.eval(t), tol))
    }
}

/// `(magnitude, slope)` of the segments of `f` that hold `x`: the largest
/// `|t| + |v|` of their end points, and the largest slope magnitude among
/// them (0 for a constant, or on a ray). At a breakpoint both segments that
/// meet there count, unless `at_point_exact` says a value taken exactly at
/// a breakpoint carries no slope error.
fn segment_scale(f: &Plf, x: f64, at_point_exact: bool) -> (f64, f64) {
    let p = f.points();
    let lo = p.partition_point(|q| q.t < x);
    let hi = p.partition_point(|q| q.t <= x);
    let held = &p[lo.saturating_sub(1)..(hi + 1).min(p.len())];
    let magnitude = held.iter().map(|q| q.t.abs() + q.v.abs());
    let magnitude = magnitude.fold(0.0, f64::max);
    if at_point_exact && hi > lo {
        return (magnitude, 0.0);
    }
    let slopes = held
        .windows(2)
        .map(|w| ((w[1].v - w[0].v) / (w[1].t - w[0].t)).abs());
    (magnitude, slopes.fold(0.0, f64::max))
}

/// No value check is looser than this, in seconds. On the steepest segments
/// `wild_pair` draws (slopes up to ≈ 1e10) a last-ulp time puts the two
/// sides up to 2.3e-2 s apart in these tests; a wrong breakpoint value (the
/// wrong `g_s`, a lost `s − t`) is off by far more.
const MAX_ROUNDING: f64 = 0.05;

/// How far two honest computations of `Compound(f, g)(t)` may differ by
/// rounding: 4 ulps of the magnitudes the value is computed from, widened
/// by the slopes it is taken across, and at most [`MAX_ROUNDING`].
///
/// The kernel and the oracle compute a pre-image's value differently. The
/// oracle evaluates `f(t) + g(t + f(t))` at the rounded pre-image `t`; the
/// kernel takes `(s − t) + g_s` from `g`'s breakpoint `(s, g_s)`. The
/// rounding of `t`, a few ulps of its segment's end times, moves the true
/// arrival off `s`. That becomes a value error through `g`'s slope at the
/// arrival, and, because the tests run each pair in both orders, also
/// through `f`'s slope on the segment holding `t`: the oracle evaluates
/// `f` at the rounded time, the kernel does not (at one of `f`'s own
/// breakpoints both read its value exactly). On `fifo_plf` both slopes are
/// small, so the bound stays a few ulps. A wild function may hold a
/// near-vertical segment (a breakpoint snapped next to another, slopes of
/// 1e9 and more), where the oracle's own value is rounding-amplified by
/// that slope: there the bound must grow with it, or it would judge the
/// oracle's rounding instead of the kernel. Without `f`'s factor the wild
/// pairs fail (2.4e-3 s apart against a bound of 4e-11); with both, FIFO
/// pairs differ by at most 0.08 of the bound and wild ones by 0.46.
fn rounding_bound(f: &Plf, g: &Plf, t: f64, v: f64) -> f64 {
    let arrival = t + f.eval(t);
    let ((fm, fs), (gm, gs)) = (segment_scale(f, t, true), segment_scale(g, arrival, false));
    let bound = 4.0 * f64::EPSILON * (fm + gm + v.abs()) * (1.0 + fs) * (1.0 + gs);
    bound.min(MAX_ROUNDING)
}

/// `Compound(f, g)` as the kernel builds it against the oracle's: the same
/// length, times and witnesses bit for bit, and every value within the
/// [`rounding_bound`].
///
/// One exception, never on FIFO pairs (which pass `exact_shape`): where the
/// bound at a point of either exceeds `EPS_COST`, the value there is less
/// certain than `simplify`'s tolerance, and so is each side's decision to
/// keep a point next to it. That happens only beside a near-vertical
/// segment of `f` or `g`. There the shapes may differ, and the two are held
/// to the same function instead: the same value on the union grid within
/// `EPS_COST` plus the bound, and the same witness at every segment
/// midpoint and on both rays.
fn assert_compound_matches_oracle(got: &Plf, want: &Plf, f: &Plf, g: &Plf, exact_shape: bool) {
    let bound = |p: &Pt| rounding_bound(f, g, p.t, p.v);
    let shape = |h: &Plf| {
        let pts = h.points().iter();
        pts.map(|p| (p.t.to_bits(), p.via)).collect::<Vec<_>>()
    };
    if shape(got) != shape(want) {
        let mut grid: Vec<&Pt> = got.points().iter().chain(want.points()).collect();
        assert!(
            !exact_shape && grid.iter().any(|p| bound(p) > EPS_COST),
            "compound shapes differ\ngot={got:?}\nwant={want:?}\nf={f:?}\ng={g:?}"
        );
        for p in &grid {
            let (gv, wv) = (got.eval(p.t), want.eval(p.t));
            assert!(
                (gv - wv).abs() <= EPS_COST + bound(p),
                "compound at t={}: {gv} vs oracle {wv}\nf={f:?}\ng={g:?}",
                p.t
            );
        }
        grid.sort_by(|a, b| a.t.total_cmp(&b.t));
        let (first, last) = (grid[0].t, grid[grid.len() - 1].t);
        let mids = grid.windows(2).map(|w| 0.5 * (w[0].t + w[1].t));
        for t in mids.chain([first - 1.0, last + 1.0]) {
            assert_eq!(
                got.eval_with_via(t).1,
                want.eval_with_via(t).1,
                "compound witness at t={t}\nf={f:?}\ng={g:?}"
            );
        }
        return;
    }
    for (p, q) in got.points().iter().zip(want.points()) {
        assert!(
            (p.v - q.v).abs() <= bound(q),
            "compound at t={}: {} vs oracle {} (bound {:e})\nf={f:?}\ng={g:?}",
            p.t,
            p.v,
            q.v,
            bound(q)
        );
    }
}

/// All three operators on one pair, both operand orders, against the oracle:
/// `minimum` and `approx_eq` bit for bit, `compound` as
/// [`assert_compound_matches_oracle`] holds it. Returns how many operator
/// results were compared.
fn assert_kernels_match_oracle(f: &Plf, g: &Plf, exact_shape: bool) -> usize {
    let mut compared = 0;
    for (f, g) in [(f, g), (g, f)] {
        if let Some(want) = oracle::minimum(f, g) {
            assert_eq!(
                bits(&f.minimum(g)),
                bits(&want),
                "minimum\nf={f:?}\ng={g:?}"
            );
            compared += 1;
        }
        if let Some(want) = oracle::compound(f, g, 5) {
            assert_compound_matches_oracle(&f.compound(g, 5), &want, f, g, exact_shape);
            compared += 1;
        }
        for tol in [0.0, 1e-9, 1e-3, 50.0] {
            assert_eq!(
                f.approx_eq(g, tol),
                oracle::approx_eq(f, g, tol),
                "approx_eq at {tol}"
            );
        }
        // Equal and nearly-equal operands: the `true` half of approx_eq.
        let h = g.minimum(g);
        assert_eq!(g.approx_eq(&h, 1e-9), oracle::approx_eq(g, &h, 1e-9));
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    #[test]
    fn kernels_match_the_binary_search_oracle_on_fifo_pairs((f, g) in fifo_pair()) {
        prop_assert_eq!(assert_kernels_match_oracle(&f, &g, true), 4);
    }

    #[test]
    fn kernels_match_the_binary_search_oracle_on_wild_pairs((f, g) in wild_pair()) {
        // ≥ 3 of 4: the oracle may have no answer for one narrow window.
        prop_assert!(assert_kernels_match_oracle(&f, &g, false) >= 3);
    }

    #[test]
    fn kernels_match_the_oracle_on_operator_outputs(
        (f, g) in wild_pair(), (h, k) in fifo_pair()
    ) {
        // Operator results as inputs: crossings, simplified grids, mixed
        // witnesses — shapes no generator draws directly.
        let a = f.compound(&h, 1).minimum(&g);
        let b = k.minimum(&h).compound(&g, 2);
        assert_kernels_match_oracle(&a, &b, false);
    }
}

// ---------------------------------------------------------------------------
// `min_into`: bound dominance returns one input unchanged, and that input is
// what `minimum` would have computed.
// ---------------------------------------------------------------------------

/// `f` shifted in value so that the level `from` lands exactly on `to`
/// (witnesses and times kept).
fn rebased(f: &Plf, from: f64, to: f64) -> Plf {
    let pts = f.points().iter();
    let pts = pts.map(|p| Pt::with_via(p.t, (p.v - from) + to, p.via));
    Plf::new(pts.collect()).expect("rebased values stay non-negative")
}

/// `got` is `want` as a function: same value within [`EPS_COST`] at every
/// breakpoint of the two and of `inputs`, same witness at every segment
/// midpoint and on both rays.
fn assert_same_function(got: &Plf, want: &Plf, inputs: [&Plf; 2]) {
    // Both sides are linear between consecutive breakpoints of the two, so
    // the union grid bounds the difference everywhere.
    let grid = [got, want, inputs[0], inputs[1]].map(Plf::points).concat();
    for t in grid.iter().map(|p| p.t) {
        assert!(
            (got.eval(t) - want.eval(t)).abs() <= EPS_COST,
            "t={t}: {} vs {}",
            got.eval(t),
            want.eval(t)
        );
    }
    for h in [got, want] {
        let p = h.points();
        let mids = p.windows(2).map(|w| 0.5 * (w[0].t + w[1].t));
        for t in mids.chain([h.first().t - 1.0, h.last().t + 1.0]) {
            assert_eq!(
                got.eval_with_via(t).1,
                want.eval_with_via(t).1,
                "witness at t={t}"
            );
        }
    }
}

// (Unsnapped pairs: a snapped breakpoint makes a near-vertical segment, over
// which `minimum`'s EPS_TIME de-duplication is itself only value-exact up to
// the jump.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn min_into_keeps_the_accumulator_against_a_dominated_candidate(
        a in wild_plf(), g in wild_plf(), gap in 0.0f64..2.0
    ) {
        // gap < 1 ⇒ exactly equal bounds (f_min == acc_max): the tie keeps acc.
        let gap = (gap - 1.0).max(0.0);
        let f = rebased(&g, g.min_value(), a.max_value() + gap);
        prop_assert!(f.min_value() >= a.max_value());
        let mut acc = Some(a.clone());
        min_into(&mut acc, f.clone());
        let got = acc.expect("min_into leaves a function");
        prop_assert_eq!(bits(&got), bits(&a));
        assert_same_function(&got, &a.minimum(&f), [&a, &f]);
    }

    #[test]
    fn min_into_replaces_the_accumulator_by_a_dominating_candidate(
        a in wild_plf(), g in wild_plf(), gap in 0.0f64..2.0
    ) {
        let a = rebased(&a, 0.0, 100_000.0);
        let f = rebased(&g, g.max_value(), a.min_value() - EPS_COST * (1.0 + gap) - 1e-9);
        prop_assert!(f.max_value() < a.min_value() - EPS_COST);
        let mut acc = Some(a.clone());
        min_into(&mut acc, f.clone());
        let got = acc.expect("min_into leaves a function");
        prop_assert_eq!(bits(&got), bits(&f));
        assert_same_function(&got, &a.minimum(&f), [&a, &f]);
    }

    #[test]
    fn min_into_merges_only_what_bounds_and_walk_leave_undecided(
        a in wild_plf(), g in wild_plf(), within in 0.0f64..1.0
    ) {
        // Overlapping value ranges; a candidate below the accumulator by
        // less than EPS_COST, where `minimum` still prefers self's witness,
        // so it must not count as dominating; and the accumulator itself
        // shifted by 0 and ±EPS_COST/2 — ties at every breakpoint.
        let high = rebased(&a, 0.0, 100_000.0);
        let barely = rebased(&g, g.max_value(), high.min_value() - EPS_COST * within * 0.99);
        prop_assert!(barely.max_value() >= high.min_value() - EPS_COST);
        let mut pairs = vec![(a.clone(), g), (high, barely)];
        for shift in [0.0, 0.5 * EPS_COST, -0.5 * EPS_COST, -2.0 * EPS_COST] {
            pairs.push((a.clone(), shifted(&a, shift, 9)));
        }
        for (a, f) in pairs {
            let want = a.minimum(&f);
            let mut acc = Some(a.clone());
            let changed = min_into(&mut acc, f.clone());
            let got = acc.expect("min_into leaves a function");
            // The walk's two rules, restated at every breakpoint of either.
            let grid = || a.points().iter().chain(f.points()).map(|p| p.t);
            if grid().all(|t| a.eval(t) <= f.eval(t)) {
                prop_assert!(!changed);
                prop_assert_eq!(bits(&got), bits(&a));
                assert_same_function(&got, &want, [&a, &f]);
            } else if grid().all(|t| f.eval(t) < a.eval(t) - EPS_COST) {
                prop_assert!(changed);
                prop_assert_eq!(bits(&got), bits(&f));
                assert_same_function(&got, &want, [&a, &f]);
            } else {
                prop_assert!(changed);
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// `min_compound_into`: `min_into` of the compound, without building it when
// the accumulator already lies at or below it.
// ---------------------------------------------------------------------------

/// `f` with every value moved by `delta` (clamped at 0) and every witness
/// set to `via`.
fn shifted(f: &Plf, delta: f64, via: u32) -> Plf {
    let pts = f.points().iter();
    let pts = pts.map(|p| Pt::with_via(p.t, (p.v + delta).max(0.0), via));
    Plf::new(pts.collect()).expect("shifted values stay valid")
}

/// Every accumulator the relaxation is checked against for `Compound(f, g)`:
/// `+∞`, an unrelated function, and the compound itself under another
/// witness shifted by 0, ±EPS_COST/2 and ±1 — ties, near-ties and plain
/// dominance both ways.
fn accumulators(h: &Plf, other: &Plf) -> Vec<Option<Plf>> {
    let mut accs = vec![None, Some(other.clone())];
    for delta in [0.0, 0.5 * EPS_COST, -0.5 * EPS_COST, 1.0, -1.0] {
        accs.push(Some(shifted(h, delta, 9)));
    }
    accs
}

/// `min_compound_into(acc, f, g)` equals `min_into(acc, f.compound(g))`
/// equals `acc.minimum(&f.compound(g))`: the same value on the union grid,
/// the same witness at every segment midpoint and on both rays — and an
/// accumulator reported unchanged is its own bits.
///
/// The change report follows the walk's ε keep rule: an accumulator at or
/// below the compound at every breakpoint of either is never changed, and
/// one above it by more than `2 · EPS_COST` somewhere always is (the
/// compound's own simplification accounts for the second `EPS_COST`).
fn assert_relaxation_is_min_of_compound(f: &Plf, g: &Plf, other: &Plf) {
    let h = f.compound(g, 5);
    for acc in accumulators(&h, other) {
        let mut got = acc.clone();
        let changed = min_compound_into(&mut got, f, g, 5);
        let got = got.expect("a relaxation leaves a function");
        let mut folded = acc.clone();
        min_into(&mut folded, h.clone());
        let folded = folded.expect("min_into leaves a function");
        let want = acc.as_ref().map_or_else(|| h.clone(), |a| a.minimum(&h));
        let a = acc.as_ref().unwrap_or(&h);
        assert_same_function(&got, &folded, [a, &h]);
        assert_same_function(&got, &want, [a, &h]);
        if !changed {
            assert_eq!(bits(&got), bits(a), "unchanged yet rewritten");
        }
        if acc.is_some() {
            let grid = || a.points().iter().chain(h.points()).map(|p| p.t);
            if grid().all(|t| a.eval(t) <= h.eval(t)) {
                assert!(!changed, "an accumulator at or below the compound changed");
            }
            if grid().any(|t| a.eval(t) > h.eval(t) + 2.0 * EPS_COST) {
                assert!(changed, "an accumulator above the compound was kept");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn min_compound_into_is_min_into_of_the_compound_on_wild_inputs(
        f in wild_plf(), g in wild_plf(), other in wild_plf()
    ) {
        // Non-FIFO first legs, constants, breakpoints barely EPS_TIME apart
        // and pairs whose domains overlap only on their clamped rays.
        assert_relaxation_is_min_of_compound(&f, &g, &other);
    }

    #[test]
    fn min_compound_into_is_min_into_of_the_compound_on_fifo_inputs(
        f in fifo_plf(), g in fifo_plf(), other in fifo_plf()
    ) {
        assert_relaxation_is_min_of_compound(&f, &g, &other);
    }
}

// ---------------------------------------------------------------------------
// Per-window bounds (`td_plf::window`): each window's `(min, max)` brackets
// every value the function takes there, and a keep the windows decide is a
// keep `min_compound_into`'s walk makes, bit for bit.
// ---------------------------------------------------------------------------

/// The windows holding `t`: one, or both neighbours at an inner cut.
fn windows_at(t: f64) -> Vec<usize> {
    let k = (t / WINDOW_WIDTH).floor().clamp(0.0, (WINDOWS - 1) as f64) as usize;
    let mut out = vec![k];
    if k > 0 && t == k as f64 * WINDOW_WIDTH {
        out.push(k - 1);
    }
    out
}

/// Dense probes: every 97 s from well before the day to well past it, every
/// cut, and every breakpoint with its close neighbours.
fn window_probes(f: &Plf) -> Vec<f64> {
    let mut ts: Vec<f64> = (0..1200).map(|i| -20_000.0 + 97.0 * i as f64).collect();
    ts.extend((0..=WINDOWS).map(|k| k as f64 * WINDOW_WIDTH));
    for p in f.points() {
        ts.extend([p.t, p.t - 1e-6, p.t + 1e-6, p.t - 0.5, p.t + 0.5]);
    }
    ts.extend([-1e7, 1e7]);
    ts
}

fn assert_windows_bracket(f: &Plf) {
    let w = Windows::of(f);
    for t in window_probes(f) {
        let v = f.eval(t);
        // Exact at breakpoints and cuts; an interpolated value may round
        // past its segment's ends by an ulp or so.
        let tol = 1e-9 * v.abs().max(1.0);
        for k in windows_at(t) {
            assert!(
                w.lo[k] - tol <= v && v <= w.hi[k] + tol,
                "t={t} window {k}: {v} outside [{}, {}]\nf={f:?}",
                w.lo[k],
                w.hi[k]
            );
        }
    }
}

/// Accumulators at or just under the windows' floor of `Compound(f, g)`:
/// a constant at its least window, a staircase touching each window's floor
/// (the tightest shape the test still keeps), and the compound itself
/// lowered by its largest rise above a window's floor.
fn floor_accumulators(f: &Windows, g: &Windows, h: &Plf) -> Vec<Plf> {
    let floor: Vec<f64> = (0..WINDOWS).map(|w| compound_floor(f, g, w)).collect();
    let least = floor.iter().fold(f64::INFINITY, |m, &v| m.min(v));
    let mut stairs = Vec::new();
    for w in 0..WINDOWS {
        let m = floor[w.saturating_sub(1)..=(w + 1).min(WINDOWS - 1)]
            .iter()
            .fold(f64::INFINITY, |a, &v| a.min(v))
            .max(0.0);
        let lo = w as f64 * WINDOW_WIDTH;
        stairs.push(Pt::new(lo + 1.0, m));
        stairs.push(Pt::new(lo + WINDOW_WIDTH - 1.0, m));
    }
    let hw = Windows::of(h);
    let slack = (0..WINDOWS).fold(0.0f64, |s, w| s.max(hw.hi[w] - floor[w]));
    vec![
        Plf::constant(least.max(0.0)),
        Plf::new(stairs).expect("staircase points ascend"),
        shifted(h, -slack, 9),
        shifted(h, -slack - 1.0, 9),
    ]
}

/// Returns how many accumulators the windows kept.
fn assert_window_keeps_are_walk_keeps(f: &Plf, g: &Plf, other: &Plf) -> usize {
    let (fw, gw) = (Windows::of(f), Windows::of(g));
    let h = f.compound(g, 5);
    let mut accs: Vec<Plf> = accumulators(&h, other).into_iter().flatten().collect();
    accs.extend(floor_accumulators(&fw, &gw, &h));
    let mut kept = 0;
    for acc in accs {
        if !Windows::of(&acc).under_compound(&fw, &gw) {
            continue;
        }
        kept += 1;
        let mut got = Some(acc.clone());
        assert!(
            !min_compound_into(&mut got, f, g, 5),
            "a window keep the walk changes\nacc={acc:?}\nf={f:?}\ng={g:?}"
        );
        assert_eq!(
            bits(got.as_ref().unwrap()),
            bits(&acc),
            "kept yet rewritten"
        );
    }
    kept
}

/// Strategy: a FIFO function over the whole day with rush-hour ramps, up to
/// 20× steeper than `fifo_plf`'s, so that one window's departures arrive
/// across several windows of the second leg.
fn steep_plf() -> impl Strategy<Value = Plf> {
    (
        proptest::collection::vec((300.0f64..6000.0, 0u8..4, 0.0f64..1.0), 1..24),
        0.0f64..3600.0,
    )
        .prop_map(|(segs, v0)| {
            let mut pts = vec![Pt::new(-1000.0, v0)];
            for (dt, kind, u) in segs {
                let prev = *pts.last().unwrap();
                let slope = if kind == 0 { 20.0 * u } else { 2.0 * u - 1.0 };
                pts.push(Pt::new(
                    prev.t + dt,
                    (prev.v + slope * dt).clamp(0.0, 40_000.0),
                ));
            }
            Plf::new(pts).expect("generated points are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn window_bounds_bracket_every_value(f in wild_plf(), g in fifo_plf(), h in steep_plf()) {
        // Non-FIFO segments, constants, times before 0 and past DAY.
        assert_windows_bracket(&f);
        assert_windows_bracket(&g);
        assert_windows_bracket(&h);
        assert_windows_bracket(&f.compound(&g, 1));
    }
}

#[test]
fn window_keeps_are_walk_keeps() {
    let mut runner = proptest::TestRunner::from_name("window_keeps_are_walk_keeps");
    let (mut kept, mut tried) = (0, 0);
    for _ in 0..400 {
        let (f, g) = fifo_pair().generate(&mut runner);
        let other = fifo_plf().generate(&mut runner);
        kept += assert_window_keeps_are_walk_keeps(&f, &g, &other);
        let (f, g) = wild_pair().generate(&mut runner);
        let other = wild_plf().generate(&mut runner);
        kept += assert_window_keeps_are_walk_keeps(&f, &g, &other);
        // A steep first leg spreads a window's arrivals over several of the
        // second leg's windows.
        let (f, g) = (
            steep_plf().generate(&mut runner),
            steep_plf().generate(&mut runner),
        );
        let other = fifo_plf().generate(&mut runner);
        kept += assert_window_keeps_are_walk_keeps(&f, &g, &other);
        tried += 3;
    }
    // The floor accumulators are built to be kept: most pairs must decide.
    assert!(
        kept >= 2 * tried,
        "only {kept} window keeps over {tried} pairs"
    );
}

// ---------------------------------------------------------------------------
// Window takes (`Windows::over`): a candidate the windows take is one the
// pointwise walk takes, bit for bit, down to margins within an ulp of
// `EPS_COST`.
// ---------------------------------------------------------------------------

/// The gaps a near-tie candidate is put below its accumulator by: `EPS_COST`
/// and its neighbouring floats (the walk's own boundary), the window test's
/// margin `EPS_COST + 1e-12 · scale` and its neighbours, and clear wins.
fn near_tie_gaps(scale: f64) -> Vec<f64> {
    let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
    let edge = EPS_COST + 1e-12 * scale;
    vec![
        ulp_down(EPS_COST),
        EPS_COST,
        ulp_up(EPS_COST),
        ulp_down(edge),
        edge,
        ulp_up(edge),
        2.0 * edge,
        1e-3,
        1.0,
    ]
}

/// Candidates against `acc`: `acc` itself lowered by every near-tie gap
/// (under another witness), `other` lowered below `acc`'s least value, and
/// `other` lowered to `acc`'s least value (bounds overlap; the windows may
/// still separate them window by window).
fn take_candidates(acc: &Plf, other: &Plf) -> Vec<Plf> {
    let scale = 2.0 * acc.max_value().max(other.max_value());
    let mut out: Vec<Plf> = near_tie_gaps(scale)
        .into_iter()
        .filter(|&gap| acc.min_value() >= gap)
        .map(|gap| {
            let pts = acc.points().iter();
            Plf::new(pts.map(|p| Pt::with_via(p.t, p.v - gap, 9)).collect())
                .expect("lowered values stay non-negative")
        })
        .collect();
    for gap in [2.0 * EPS_COST, 1.0] {
        if acc.min_value() >= other.max_value() - other.min_value() + gap {
            out.push(rebased(other, other.max_value(), acc.min_value() - gap));
        }
    }
    if acc.min_value() >= 1.0 {
        out.push(rebased(other, other.min_value(), acc.min_value() - 1.0));
    }
    out
}

/// Returns whether the windows took `cand`: if they did, so does the walk
/// (restated at every breakpoint of either), `fold_into` without windows
/// takes it by the walk, and with windows reports a window take, leaves the
/// same bits and bounds, and hands back the candidate's windows.
fn assert_window_take_is_walk_take(acc: &Plf, cand: &Plf) -> bool {
    let (aw, cw) = (Windows::of(acc), Windows::of(cand));
    let (a_bounds, c_bounds) = (acc.value_bounds(), cand.value_bounds());
    if !aw.over(&cw, a_bounds.1 + c_bounds.1) {
        return false;
    }
    let grid = acc.points().iter().chain(cand.points()).map(|p| p.t);
    for t in grid {
        assert!(
            cand.eval(t) < acc.eval(t) - EPS_COST,
            "a window take the walk would not make at t={t}\nacc={acc:?}\ncand={cand:?}"
        );
    }
    let (mut plain, mut plain_bounds) = (Some(acc.clone()), a_bounds);
    let how = fold_into(&mut plain, &mut plain_bounds, None, cand.clone());
    assert_eq!(how, Merge::WalkTake, "acc={acc:?}\ncand={cand:?}");
    let (mut windowed, mut bounds, mut windows) = (Some(acc.clone()), a_bounds, aw);
    let how = fold_into(&mut windowed, &mut bounds, Some(&mut windows), cand.clone());
    assert_eq!(how, Merge::WindowTake);
    let (plain, windowed) = (plain.expect("a take"), windowed.expect("a take"));
    assert_eq!(bits(&windowed), bits(cand));
    assert_eq!(bits(&plain), bits(cand));
    assert_eq!((bounds, plain_bounds), (c_bounds, c_bounds));
    assert_eq!(windows, cw, "a take hands back the candidate's windows");
    true
}

#[test]
fn window_takes_are_walk_takes() {
    let mut runner = proptest::TestRunner::from_name("window_takes_are_walk_takes");
    let (mut taken, mut accs) = (0, 0);
    let mut check = |acc: &Plf, other: &Plf| {
        accs += 1;
        for cand in take_candidates(acc, other) {
            taken += usize::from(assert_window_take_is_walk_take(acc, &cand));
        }
    };
    for _ in 0..300 {
        // Accumulators lifted above every generated value, so that every
        // gap can be taken off them and `other` lowered under them.
        let lift = |f: Plf| rebased(&f, 0.0, 50_000.0);
        let (f, g) = fifo_pair().generate(&mut runner);
        check(&lift(f), &g);
        let (f, g) = wild_pair().generate(&mut runner);
        check(&lift(f), &g);
        let (f, g) = (
            steep_plf().generate(&mut runner),
            fifo_plf().generate(&mut runner),
        );
        check(&lift(f), &g);
        // Built compounds, as the sweeps fold them.
        let (f, g) = fifo_pair().generate(&mut runner);
        let other = wild_plf().generate(&mut runner);
        check(&lift(f.compound(&g, 5)), &other);
        // Flat and near-flat accumulators at everyday costs, where the
        // rounding margin is far below `EPS_COST`: only on these can a
        // candidate lowered by a near-tie gap lie below in every window.
        let (f, c) = (
            wild_plf().generate(&mut runner),
            (1.0f64..5000.0).generate(&mut runner),
        );
        check(&Plf::constant(c), &f);
        let pts = f
            .points()
            .iter()
            .map(|p| Pt::with_via(p.t, c + 1e-13 * p.v, p.via));
        check(&Plf::new(pts.collect()).expect("valid points"), &f);
    }
    // Each accumulator meets `other` a whole second under its least value,
    // which the windows must take; near ties add more.
    assert!(
        taken > accs,
        "only {taken} window takes over {accs} accumulators"
    );
}

// ---------------------------------------------------------------------------
// `simplify_with` compacts in place: bit for bit what the two-buffer pass it
// replaced returned.
// ---------------------------------------------------------------------------

/// `simplify_with` as it stood with a second buffer, kept verbatim as the
/// reference.
fn simplified_two_buffers(pts: &[Pt], tol: f64) -> Vec<Pt> {
    if pts.len() <= 1 {
        return pts.to_vec();
    }
    let mut out: Vec<Pt> = Vec::with_capacity(pts.len());
    out.push(pts[0]);
    for &p in &pts[1..] {
        loop {
            let n = out.len();
            if n < 2 {
                break;
            }
            let a = out[n - 2];
            let b = out[n - 1];
            let on_line = (lerp(a.t, a.v, p.t, p.v, b.t) - b.v).abs() <= tol;
            if on_line && a.via == b.via {
                out.pop();
            } else {
                break;
            }
        }
        out.push(p);
    }
    if out.len() >= 2 {
        let n = out.len();
        let a = out[n - 2];
        let b = out[n - 1];
        if (a.v - b.v).abs() <= tol && a.via == b.via {
            out.pop();
        }
    }
    if out.len() >= 2 && (out[0].v - out[1].v).abs() <= tol && out[0].via == out[1].via {
        out.remove(0);
    }
    if out.len() == 1 {
        out[0].t = 0.0;
    }
    out
}

/// Strategy: runs of points on one line, each nudged off it by nothing, a
/// fraction of the tolerance, the tolerance itself or one ulp past it, with
/// the witness switching between runs or inside one — the inputs on which
/// the collinearity test and the witness rule decide.
fn near_collinear_plf() -> impl Strategy<Value = Plf> {
    (
        proptest::collection::vec((0.5f64..900.0, 0u8..7, 0u8..4, -1.0f64..1.0), 0..30),
        0.0f64..3600.0,
        -1.0f64..2.0,
    )
        .prop_map(|(steps, v0, slope)| {
            let mut pts = vec![Pt::with_via(0.0, v0 + 1.0, 1)];
            let (mut t, mut line) = (0.0, v0 + 1.0);
            for (dt, nudge, via, bend) in steps {
                t += dt;
                // A bend starts a new line through the last point.
                let slope = if bend.abs() > 0.8 {
                    slope + bend
                } else {
                    slope
                };
                line = (line + slope * dt).max(1.0);
                let off = match nudge {
                    0..=2 => 0.0,
                    3 => 0.5 * EPS_COST,
                    4 => EPS_COST,
                    5 => f64::from_bits(EPS_COST.to_bits() + 1),
                    _ => -EPS_COST,
                };
                let via = if via == 3 { NO_VIA } else { u32::from(via) };
                pts.push(Pt::with_via(t, line + off, via));
            }
            Plf::new(pts).expect("generated points are valid")
        })
}

/// Strategy: integer times and values on a quarter grid, two witnesses:
/// differences and interpolations come out exact, so at a tolerance of a
/// quarter the tests' `≤ tol` boundary is met exactly.
fn grid_plf() -> impl Strategy<Value = Plf> {
    proptest::collection::vec((1u8..4, 0u8..6, 1u32..3), 0..16).prop_map(|steps| {
        let mut pts = vec![Pt::with_via(0.0, 1.0, 1)];
        for (dt, quarters, via) in steps {
            let prev = *pts.last().unwrap();
            pts.push(Pt::with_via(
                prev.t + f64::from(dt),
                0.25 * f64::from(quarters),
                via,
            ));
        }
        Plf::new(pts).expect("generated points are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn simplify_in_place_matches_the_two_buffer_pass(
        f in near_collinear_plf(), g in wild_plf(), h in fifo_plf(), q in grid_plf(),
        tol_kind in 0u8..3
    ) {
        let tol = [EPS_COST, 0.0, 1e-3][tol_kind as usize];
        let cases = [(f, tol), (g.clone(), tol), (h.clone(), tol), (g.compound(&h, 5), tol), (q, 0.25)];
        for (f, tol) in cases {
            let want = simplified_two_buffers(f.points(), tol);
            let mut got = f.clone();
            got.simplify_with(tol);
            let want: Vec<_> = want.iter().map(|p| (p.t.to_bits(), p.v.to_bits(), p.via)).collect();
            prop_assert_eq!(bits(&got), want);
        }
    }

    #[test]
    fn chained_value_bounds_equal_the_fold(
        f in wild_plf(), g in fifo_plf(), h in steep_plf(), n in near_collinear_plf()
    ) {
        // Lengths 1..=31 cover every remainder of the four chains. Signed
        // zeros compare equal to each other, so they are read as +0.
        let unsigned = |(lo, hi): (f64, f64)| ((lo + 0.0).to_bits(), (hi + 0.0).to_bits());
        let mut arena = PlfArena::new();
        for f in [f, g, h, n] {
            let fold = (f.min_value(), f.max_value());
            prop_assert_eq!(unsigned(f.value_bounds()), unsigned(fold));
            let id = arena.push(&f);
            prop_assert_eq!(unsigned((arena.min_cost(id), arena.max_cost(id))), unsigned(fold));
        }
    }
}
