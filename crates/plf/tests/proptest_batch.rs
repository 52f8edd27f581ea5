//! Property-based pins for the batch kernels (`td_plf::batch`) and the PLF
//! edge-case sweep of ISSUE 8:
//!
//! * `eval_times_into` ≡ repeated `eval`, **bit-for-bit**, on sorted (fast
//!   path) and unsorted (fallback path) departure vectors;
//! * `eval_ids_at` ≡ per-slice `eval` across whole arenas;
//! * every eval entry point (`Plf::eval`, `Plf::eval_with_via`,
//!   `PlfSlice::eval`, `eval_with_via`, both batch kernels) agrees at the
//!   right-ray boundary
//!   `t ∈ {last_bp − ε, last_bp, last_bp + ε, 1e12}` — the shared
//!   `clamped_segment_value` helper makes divergence structurally
//!   impossible, and this test keeps it that way;
//! * `eval_times_into`'s gallop hand-off boundaries: the segment cursor
//!   parked exactly at/past the 8-step gallop threshold before a jump, `t`
//!   landing on and beside breakpoints.

use proptest::prelude::*;
use td_plf::{eval_ids_at, eval_times_into, Plf, PlfArena, PlfView, NO_PLF};

/// Same FIFO generator as `proptest_arena.rs`: 1..=12 points over roughly a
/// day, values in [0, 3600].
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
    proptest::collection::vec(-500.0f64..40_000.0, 1..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn batch_sorted_is_bit_identical_to_repeated_eval(f in fifo_plf(), ts in query_times()) {
        let mut sorted = ts;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        let mut out = vec![0.0; sorted.len()];
        eval_times_into(s, &sorted, &mut out);
        for (&t, &got) in sorted.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), s.eval(t).to_bits(), "t={}", t);
            prop_assert_eq!(got.to_bits(), f.eval(t).to_bits(), "t={}", t);
        }
    }

    #[test]
    fn batch_unsorted_fallback_is_bit_identical(f in fifo_plf(), ts in query_times()) {
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        let mut out = vec![0.0; ts.len()];
        eval_times_into(s, &ts, &mut out);
        for (&t, &got) in ts.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), s.eval(t).to_bits(), "t={}", t);
        }
    }

    #[test]
    fn batch_ids_matches_per_slice_eval(
        fs in proptest::collection::vec(fifo_plf(), 1..8),
        t in -500.0f64..40_000.0,
    ) {
        let mut arena = PlfArena::new();
        let mut ids: Vec<u32> = fs.iter().map(|f| arena.push(f)).collect();
        ids.push(NO_PLF); // gap entries evaluate to "unreachable"
        let mut out = vec![0.0; ids.len()];
        eval_ids_at(&arena, &ids, t, &mut out);
        for (&id, &got) in ids.iter().zip(&out) {
            if id == NO_PLF {
                prop_assert!(got.is_infinite());
            } else {
                prop_assert_eq!(got.to_bits(), arena.slice(id).eval(t).to_bits());
            }
        }
    }

    #[test]
    fn all_entry_points_agree_at_the_right_ray_boundary(f in fifo_plf()) {
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        let last = f.last().t;
        // Probes straddling the last breakpoint, plus deep extrapolation.
        let eps = 1e-9 * last.abs().max(1.0);
        let probes = [last - eps, last, last + eps, 1e12];
        let mut batch = [0.0; 4];
        eval_times_into(s, &probes, &mut batch);
        let mut single = [0.0; 1];
        for (&t, &b) in probes.iter().zip(&batch) {
            let want = f.eval(t).to_bits();
            prop_assert_eq!(f.eval_with_via(t).0.to_bits(), want, "t={}", t);
            prop_assert_eq!(s.eval(t).to_bits(), want, "t={}", t);
            prop_assert_eq!(s.eval_with_via(t).0.to_bits(), want, "t={}", t);
            prop_assert_eq!(b.to_bits(), want, "t={}", t);
            eval_ids_at(&arena, &[id], t, &mut single);
            prop_assert_eq!(single[0].to_bits(), want, "t={}", t);
        }
    }
}

/// Deterministic gallop hand-off boundaries: on a 64-segment staircase the
/// first query parks the segment cursor, the second jumps it by exactly,
/// just under, and past the 8-step gallop threshold, landing between and
/// exactly **on** breakpoints.
#[test]
fn gallop_handoff_boundaries_are_bit_identical() {
    let pts: Vec<(f64, f64)> = (0..64).map(|i| (i as f64 * 10.0, (i % 7) as f64)).collect();
    let mut arena = PlfArena::new();
    let id = arena.push(&Plf::from_pairs(&pts).unwrap());
    let s = arena.slice(id);
    let mut out = [0.0; 2];
    for start in [0usize, 1, 7, 8, 9, 16, 62, 63] {
        for jump in [0usize, 1, 7, 8, 9, 10, 20, 63] {
            let Some(&(bp, _)) = pts.get(start + jump) else {
                continue;
            };
            for t in [bp - 0.5, bp, bp + 0.5] {
                let ts = [pts[start].0.min(t), t];
                eval_times_into(s, &ts, &mut out);
                assert_eq!(
                    out[1].to_bits(),
                    s.eval(t).to_bits(),
                    "start={start} jump={jump} t={t}"
                );
            }
        }
    }
}

/// A NaN departure time has no breakpoint at or before it, so every
/// evaluator answers it with the left ray's value, bit for bit, as
/// `Plf::eval` always has: the scalar evaluator (owned and stored), the
/// per-id kernel, and the time-batch kernel on its forward path (`[NaN]`,
/// sorted) and on its fallback (`[0, NaN]`, `[NaN, 5]`, which NaN leaves
/// unsorted). The time-batch kernel once spun forever on `[NaN]`, so it
/// runs on a thread of its own and a hang fails the test after 5 s.
#[test]
fn nan_times_take_the_left_ray_in_every_evaluator() {
    use std::sync::mpsc;
    use std::time::Duration;

    let functions = [
        Plf::from_pairs(&[(10.0, 7.0), (20.0, 9.0), (30.0, 4.0)]).unwrap(),
        Plf::from_pairs(&[(-100.0, 3.0), (2.0, 8.0), (40.0, 1.0)]).unwrap(),
        Plf::constant(5.5),
    ];
    let mut arena = PlfArena::new();
    let ids: Vec<_> = functions.iter().map(|f| arena.push(f)).collect();
    // What each evaluator must return at `t`: the left ray for NaN, else
    // `Plf::eval`.
    let want = |f: &Plf, t: f64| {
        if t.is_nan() {
            f.points()[0].v.to_bits()
        } else {
            f.eval(t).to_bits()
        }
    };
    for (f, &id) in functions.iter().zip(&ids) {
        let s = arena.slice(id);
        let mut one = [0.0];
        assert_eq!(f.eval(f64::NAN).to_bits(), want(f, f64::NAN));
        assert_eq!(f.eval_with_via(f64::NAN).0.to_bits(), want(f, f64::NAN));
        assert_eq!(s.eval(f64::NAN).to_bits(), want(f, f64::NAN));
        eval_ids_at(&arena, &[id], f64::NAN, &mut one);
        assert_eq!(one[0].to_bits(), want(f, f64::NAN));
    }

    let (tx, rx) = mpsc::channel();
    let batch_arena = arena.clone();
    let batch_ids = ids.clone();
    std::thread::spawn(move || {
        for id in batch_ids {
            for ts in [&[f64::NAN][..], &[0.0, f64::NAN], &[f64::NAN, 5.0]] {
                let mut out = vec![-1.0; ts.len()];
                eval_times_into(batch_arena.slice(id), ts, &mut out);
                tx.send((id, ts.to_vec(), out)).unwrap();
            }
        }
    });
    for _ in 0..3 * ids.len() {
        let (id, ts, out) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("eval_times_into returns on NaN times");
        let f = &functions[ids.iter().position(|&i| i == id).unwrap()];
        for (&t, &o) in ts.iter().zip(&out) {
            assert_eq!(o.to_bits(), want(f, t), "ts={ts:?}");
        }
    }
}
