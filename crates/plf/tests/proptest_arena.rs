//! Property-based agreement between the frozen [`PlfArena`]/[`PlfSlice`]
//! representation and the owned [`Plf`] it was frozen from: every index in
//! the workspace now evaluates slices on its hot path, so exact agreement
//! (not approximate!) with the `Plf` semantics is load-bearing.

use proptest::prelude::*;
use td_plf::minimum::minimum;
use td_plf::ops::{fold_compound_into, min_compound_into, Merge};
use td_plf::persist::{read_plf_arena, write_plf_list};
use td_plf::{Plf, PlfArena, PlfId, PlfSlice, PlfView, Pt, Windows, EPS_TIME, NO_VIA};

/// Strategy: a random FIFO travel-cost function with 1..=12 points over
/// roughly a day, values in [0, 3600] (same generator as `proptest_plf.rs`).
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
                let dt = gap + 1.0;
                let lo = (prev - dt).max(0.0);
                let hi = prev + dt;
                let v = lo + vs[i] * (hi - lo);
                pts.push((t, v));
            }
            Plf::from_pairs(&pts).expect("generated points are valid")
        })
}

/// Random query times spanning the domain, including far outside it.
fn query_times() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-500.0f64..40_000.0, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn slice_eval_agrees_exactly_with_plf(f in fifo_plf(), ts in query_times()) {
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        for t in ts {
            // Bit-for-bit: both run the same partition_point + lerp.
            prop_assert_eq!(s.eval(t), f.eval(t), "t={}", t);
            let (v, via) = s.eval_with_via(t);
            let (wv, wvia) = f.eval_with_via(t);
            prop_assert_eq!(v, wv);
            prop_assert_eq!(via, wvia);
        }
    }

    #[test]
    fn bounds_bound_all_sampled_evaluations(f in fifo_plf(), ts in query_times()) {
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        let (lo, hi) = (arena.min_cost(id), arena.max_cost(id));
        prop_assert!(lo <= hi);
        for t in ts {
            let v = s.eval(t);
            prop_assert!(v >= lo, "eval({}) = {} below min_cost {}", t, v, lo);
            prop_assert!(v <= hi, "eval({}) = {} above max_cost {}", t, v, hi);
        }
        // The bounds are attained at breakpoints, so they are tight.
        prop_assert_eq!(lo, s.min_value());
        prop_assert_eq!(hi, s.max_value());
    }

    #[test]
    fn arena_holds_many_functions_without_crosstalk(
        fs in proptest::collection::vec(fifo_plf(), 1..8),
        ts in query_times(),
    ) {
        let mut arena = PlfArena::new();
        let ids: Vec<_> = fs.iter().map(|f| arena.push(f)).collect();
        for (f, &id) in fs.iter().zip(&ids) {
            prop_assert_eq!(arena.slice(id).len(), f.len());
            for &t in &ts {
                prop_assert_eq!(arena.slice(id).eval(t), f.eval(t));
            }
        }
    }
}

/// Strategy: a function with witnesses that may break FIFO — slopes down to
/// −4, flat runs, gaps down to just over `EPS_TIME` — starting before, at or
/// after the day.
fn any_plf() -> impl Strategy<Value = Plf> {
    (
        proptest::collection::vec((0u8..6, 0.0f64..1.0, 0u8..4, 0.0f64..1.0, 0u32..4), 0..10),
        0.0f64..3600.0,
        0u8..4,
    )
        .prop_map(|(segs, v0, shift)| {
            let t0 = [-40_000.0, 50_000.0, 0.0, 0.0][shift as usize];
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
                    1 => 0.0,
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

/// Strategy: [`any_plf`] or [`fifo_plf`], evenly.
fn mixed_plf() -> impl Strategy<Value = Plf> {
    (0u8..2, any_plf(), fifo_plf()).prop_map(|(k, wild, fifo)| if k == 0 { wild } else { fifo })
}

/// `(t, v, via)` of every point, as bits.
type Bits = Vec<(u64, u64, u32)>;

/// The [`Bits`] of `f`.
fn bits(f: &Plf) -> Bits {
    (f.points().iter())
        .map(|p| (p.t.to_bits(), p.v.to_bits(), p.via))
        .collect()
}

/// Every window bound, as bits.
fn window_bits(w: &Windows) -> Vec<u64> {
    w.lo.iter().chain(&w.hi).map(|x| x.to_bits()).collect()
}

/// What every kernel makes of `f` and `g` (and of an accumulator `acc`), as
/// bits: a bit-for-bit record to compare across input layouts.
#[derive(Debug, PartialEq)]
struct Outcome {
    compound: Bits,
    minimum: Bits,
    min_compound: (bool, Bits),
    fold_compound: (Merge, Bits, [u64; 2], Vec<u64>),
    windows: [Vec<u64>; 2],
    evals: Vec<(u64, u32, u64)>,
    bounds: [u64; 4],
}

fn outcome(f: impl PlfView, g: impl PlfView, acc: &Plf, via: u32) -> Outcome {
    let held = |a: Option<Plf>| bits(&a.expect("an accumulator holds a function"));
    let mut compound = None;
    min_compound_into(&mut compound, f, g, via);
    let mut min_acc = Some(acc.clone());
    let changed = min_compound_into(&mut min_acc, f, g, via);
    let (mut fold_acc, mut bounds, mut windows) =
        (Some(acc.clone()), acc.value_bounds(), Windows::of(acc));
    let merge = fold_compound_into(&mut fold_acc, &mut bounds, Some(&mut windows), f, g, via);
    // Every breakpoint of `f`, `EPS_TIME` either side of each, and both rays.
    let probes = (0..f.len()).flat_map(|i| [f.t(i) - EPS_TIME, f.t(i), f.t(i) + EPS_TIME]);
    let rays = [f.t(0) - 1_000.0, f.t(f.len() - 1) + 1_000.0];
    let evals = (probes.chain(rays))
        .map(|t| {
            let (v, w) = f.eval_with_via(t);
            (f.eval(t).to_bits(), w, v.to_bits())
        })
        .collect();
    let ((f_lo, f_hi), (g_lo, g_hi)) = (f.value_bounds(), g.value_bounds());
    Outcome {
        compound: held(compound),
        minimum: bits(&minimum(f, g)),
        min_compound: (changed, held(min_acc)),
        fold_compound: (
            merge,
            held(fold_acc),
            [bounds.0.to_bits(), bounds.1.to_bits()],
            window_bits(&windows),
        ),
        windows: [window_bits(&Windows::of(f)), window_bits(&Windows::of(g))],
        evals,
        bounds: [f_lo, f_hi, g_lo, g_hi].map(f64::to_bits),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every kernel reads an owned function and one stored in an arena
    /// through the same body, so every owned/stored pairing of the inputs
    /// gives the all-owned result point for point, witnesses included.
    #[test]
    fn owned_and_stored_inputs_give_the_same_bits(
        f in any_plf(),
        g in mixed_plf(),
        acc in mixed_plf(),
        via in 0u32..50,
    ) {
        let mut arena = PlfArena::new();
        arena.push(&acc); // the inputs do not start at id 0
        let (fi, gi) = (arena.push(&f), arena.push(&g));
        let (fs, gs) = (arena.slice(fi), arena.slice(gi));
        let owned = outcome(&f, &g, &acc, via);
        prop_assert_eq!(&outcome(fs, &g, &acc, via), &owned);
        prop_assert_eq!(&outcome(&f, gs, &acc, via), &owned);
        prop_assert_eq!(&outcome(fs, gs, &acc, via), &owned);
    }
}

/// Strategy: a function with several witness runs, as the index stores
/// them — the `minimum` of two compounds through different bridges — with
/// the first point and the last one sometimes alone in a run of their own,
/// so that runs also break at point 1 and at the last point.
fn witnessed_plf() -> impl Strategy<Value = Plf> {
    (
        (fifo_plf(), fifo_plf(), fifo_plf(), fifo_plf()),
        0u32..40,
        0u8..4,
    )
        .prop_map(|((f1, g1, f2, g2), via, ends)| {
            let h = f1.compound(&g1, via).minimum(&f2.compound(&g2, via + 1));
            let mut pts = h.into_points();
            let last = pts.len() - 1;
            if ends & 1 != 0 {
                pts[0].via = 100;
            }
            if ends & 2 != 0 {
                pts[last].via = 101;
            }
            Plf::new(pts).expect("a minimum's points are valid")
        })
}

/// The witness runs of `f`: one more than the witness changes between
/// neighbouring points.
fn runs(f: &Plf) -> usize {
    1 + f
        .points()
        .windows(2)
        .filter(|w| w[0].via != w[1].via)
        .count()
}

/// Asserts that `s` holds `f`: every point (witness included) through
/// `pt`, the copy back, the `==` against the owned function, and
/// `eval_with_via` at every point, at every midpoint and on both rays.
fn assert_holds(s: PlfSlice<'_>, f: &Plf) {
    prop_assert_eq!(s.len(), f.len());
    for i in 0..f.len() {
        prop_assert_eq!(s.pt(i), f.pt(i), "point {}", i);
    }
    prop_assert_eq!(&s.to_plf(), f);
    prop_assert!(s == *f);
    let pts = f.points();
    let mids = pts.windows(2).map(|w| 0.5 * (w[0].t + w[1].t));
    let rays = [pts[0].t - 100.0, pts[pts.len() - 1].t + 100.0];
    for t in pts.iter().map(|p| p.t).chain(mids).chain(rays) {
        let (v, via) = s.eval_with_via(t);
        let (wv, wvia) = f.eval_with_via(t);
        prop_assert_eq!(v.to_bits(), wv.to_bits(), "t={}", t);
        prop_assert_eq!(via, wvia, "t={}", t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A stored function keeps its witnesses as runs: pushed, compacted by
    /// `remove_functions` and concatenated by `append`, every function
    /// reads back with the owned function's witness at every point and at
    /// every time, with exactly one run per stretch of equal witnesses.
    #[test]
    fn witnesses_survive_storage(
        fs in proptest::collection::vec(witnessed_plf(), 1..6),
        gone in proptest::collection::vec(0u8..2, 6),
    ) {
        let mut arena = PlfArena::new();
        let ids: Vec<_> = fs.iter().map(|f| arena.push(f)).collect();
        prop_assert_eq!(arena.total_runs(), fs.iter().map(runs).sum::<usize>());
        for (f, &id) in fs.iter().zip(&ids) {
            assert_holds(arena.slice(id), f);
        }

        // Remove some, then append a copy of the whole original arena.
        let full = arena.clone();
        let removed: Vec<PlfId> = ids.iter().copied().filter(|&id| gone[id as usize] == 1).collect();
        arena.remove_functions(&removed);
        let kept: Vec<&Plf> = fs.iter().zip(&gone).filter(|(_, &g)| g == 0).map(|(f, _)| f).collect();
        prop_assert_eq!(arena.len(), kept.len());
        let first = arena.append(&full);
        prop_assert_eq!(first as usize, kept.len());
        let all = kept.into_iter().chain(&fs);
        prop_assert_eq!(arena.total_runs(), all.clone().map(runs).sum::<usize>());
        for (id, f) in all.enumerate() {
            assert_holds(arena.slice(id as PlfId), f);
        }
    }

    /// On disk a list keeps one witness a point: an arena writes the owned
    /// functions' bytes, and reading them back folds the witnesses into the
    /// same runs, which write the same bytes again.
    #[test]
    fn witnesses_survive_the_list_encoding(
        fs in proptest::collection::vec(witnessed_plf(), 1..6),
    ) {
        let mut arena = PlfArena::new();
        let ids: Vec<_> = fs.iter().map(|f| arena.push(f)).collect();
        let slots = || ids.iter().map(|&id| Some(arena.slice(id)));
        let (mut owned, mut stored) = (Vec::new(), Vec::new());
        write_plf_list(&mut owned, fs.iter().map(Some)).unwrap();
        write_plf_list(&mut stored, slots()).unwrap();
        prop_assert_eq!(&stored, &owned);

        let (back, back_ids) = read_plf_arena(&mut stored.as_slice()).unwrap();
        prop_assert_eq!(back.total_runs(), arena.total_runs());
        arena.shrink_to_fit();
        prop_assert_eq!(back.heap_bytes(), arena.heap_bytes(), "sized exactly");
        for (f, &id) in fs.iter().zip(&back_ids) {
            assert_holds(back.slice(id), f);
        }
        let mut again = Vec::new();
        write_plf_list(&mut again, back_ids.iter().map(|&id| Some(back.slice(id)))).unwrap();
        prop_assert_eq!(&again, &owned);
    }
}
