#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! Batched PLF evaluation kernels over the SoA [`PlfArena`] layout.
//!
//! Two shapes cover every hot sweep in the suite:
//!
//! * [`eval_times_into`] — **one function, many departure times**: the
//!   customization/profile shape. When the times are sorted ascending the
//!   kernel makes a single forward pass over the function's
//!   `times`/`values` arrays: it walks the segment cursor forward (8-step
//!   walk, then gallop), finds the *run* of query times served by the
//!   current segment, and interpolates the whole run with explicit
//!   lane-width loops (`[f64; 8]` chunks) that auto-vectorize. Unsorted
//!   inputs fall back to per-element
//!   [`PlfSlice::eval`] — same bits, no sorting requirement, just slower.
//! * [`eval_ids_at`] — **many functions, one departure time**: the settled-
//!   node relaxation shape (all out-edge weights of one vertex at its arrival
//!   time) and the border-matrix row sweep. Ids equal to [`NO_PLF`] produce
//!   `f64::INFINITY`, so gap-carrying id tables can be swept directly.
//!
//! **Contract:** every value written is **bit-identical** to the scalar
//! `eval` at the same time — the kernels use the same segment-location rule
//! (largest breakpoint with time ≤ `t`), the same interpolation expression
//! (operation-for-operation the [`crate::approx::lerp`] body, including the
//! degenerate-segment guard), and the same shared right-ray clamp
//! ([`crate::approx::clamped_segment_value`]). Proptests in
//! `tests/proptest_batch.rs` and the interleaved A/B bench
//! (`benches/plf_batch.rs`) pin this down. Neither kernel allocates; callers
//! own the output buffers.

use crate::approx::clamped_segment_value;
use crate::arena::{PlfArena, PlfId, PlfSlice, NO_PLF};

/// Lane width of the chunked interpolation loops. Eight `f64`s span two
/// AVX2 registers (or one AVX-512 register); the compiler unrolls the fixed
/// `0..LANES` inner loop into straight-line vector code.
const LANES: usize = 8;

/// Evaluates one function at every time in `ts`, writing `out[j] =
/// f.eval(ts[j])` bit-for-bit. `ts` and `out` must have equal lengths.
///
/// Sorted-ascending `ts` (ties allowed) takes the one-pass forward-cursor fast
/// path; anything else is detected by a linear scan and falls back to
/// per-element binary-search `eval`. Performs no heap allocation either way.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub fn eval_times_into(f: PlfSlice<'_>, ts: &[f64], out: &mut [f64]) {
    debug_assert_eq!(ts.len(), out.len());
    assert!(ts.len() == out.len(), "ts/out length mismatch");
    if !is_sorted_ascending(ts) {
        // Out-of-order fallback: same bits via the scalar entry point.
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = f.eval(t);
        }
        return;
    }
    let times = f.times();
    let values = f.values();
    let n = times.len();
    debug_assert!(n > 0, "a PLF slice always has at least one point");

    // Left ray: every query no breakpoint is at or before — a lone NaN
    // included, as in scalar `eval` — clamps to values[0]. `partition_point`
    // is exact here because ts is sorted (a NaN among several is not).
    let mut k = ts.partition_point(|&t| t < times[0] || t.is_nan());
    // debug_assert-documented indexing: k ≤ ts.len() == out.len(), 0 < n.
    debug_assert!(k <= out.len() && !values.is_empty());
    for o in &mut out[..k] {
        *o = values[0];
    }

    let mut seg = 0usize;
    while k < ts.len() {
        let t = ts[k];
        // Advance the segment cursor to the largest i with times[i] ≤ t:
        // a bounded walk for near-sorted sweeps, a gallop into binary search
        // when the jump is large.
        let mut steps = 0usize;
        while seg + 1 < n && times[seg + 1] <= t {
            seg += 1;
            steps += 1;
            if steps == 8 {
                seg += times[seg + 1..].partition_point(|&x| x <= t);
                break;
            }
        }
        debug_assert!(seg < n);
        if seg + 1 == n {
            // Right ray: this and (by sortedness) every remaining query
            // clamps through the shared helper.
            for (o, &tt) in out[k..].iter_mut().zip(&ts[k..]) {
                *o = clamped_segment_value(times[seg], values[seg], None, tt);
            }
            return;
        }
        // The run of queries served by this segment: ts[k..end] all lie in
        // [times[seg], times[seg+1]). Exact because ts is sorted.
        let t0 = times[seg];
        let v0 = values[seg];
        let t1 = times[seg + 1];
        let v1 = values[seg + 1];
        let end = k + ts[k..].partition_point(|&x| x < t1);
        debug_assert!(k < end && end <= ts.len());
        let run_ts = &ts[k..end];
        let run_out = &mut out[k..end];
        let dx = t1 - t0;
        if dx.abs() <= f64::EPSILON {
            // Degenerate-segment guard of `lerp`, hoisted out of the run.
            for o in run_out.iter_mut() {
                *o = v0;
            }
        } else {
            // Chunked lane loop. `v0 + (t - t0) * dv / dx` is
            // operation-for-operation the `lerp` tail, so each lane's result
            // is bit-identical to the scalar path.
            let dv = v1 - v0;
            let mut chunks_out = run_out.chunks_exact_mut(LANES);
            let mut chunks_ts = run_ts.chunks_exact(LANES);
            for (co, ct) in (&mut chunks_out).zip(&mut chunks_ts) {
                let mut acc = [0.0f64; LANES];
                for l in 0..LANES {
                    // debug_assert-documented indexing: chunks_exact
                    // guarantees both chunks have exactly LANES elements.
                    debug_assert!(l < co.len() && l < ct.len());
                    acc[l] = v0 + (ct[l] - t0) * dv / dx;
                }
                co.copy_from_slice(&acc);
            }
            for (o, &tt) in chunks_out
                .into_remainder()
                .iter_mut()
                .zip(chunks_ts.remainder())
            {
                *o = v0 + (tt - t0) * dv / dx;
            }
        }
        k = end;
    }
}

/// Evaluates many functions of one `arena` at a single departure time `t` —
/// the settled-node relaxation shape. Writes `out[j] =
/// arena.slice(ids[j]).eval(t)` bit-for-bit, or `f64::INFINITY` where
/// `ids[j] == NO_PLF` (absent table entries evaluate to "unreachable").
///
/// `ids` and `out` must have equal lengths. Performs no heap allocation.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#[inline]
pub fn eval_ids_at(arena: &PlfArena, ids: &[PlfId], t: f64, out: &mut [f64]) {
    debug_assert_eq!(ids.len(), out.len());
    assert!(ids.len() == out.len(), "ids/out length mismatch");
    for (o, &id) in out.iter_mut().zip(ids) {
        *o = if id == NO_PLF {
            f64::INFINITY
        } else {
            arena.slice(id).eval(t)
        };
    }
}

/// True iff `ts` is sorted ascending (ties allowed). A NaN beside another
/// time compares false and forces the fallback path, so it gets scalar
/// `eval`'s answer, the left ray; a lone NaN takes the fast path's left ray.
#[inline]
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
fn is_sorted_ascending(ts: &[f64]) -> bool {
    ts.windows(2).all(|w| {
        // debug_assert-documented indexing: windows(2) yields 2-element slices.
        debug_assert!(w.len() == 2);
        w[0] <= w[1]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plf::Plf;

    fn arena_with(pairs: &[&[(f64, f64)]]) -> PlfArena {
        let mut arena = PlfArena::new();
        for p in pairs {
            arena.push(&Plf::from_pairs(p).unwrap());
        }
        arena
    }

    #[test]
    fn sorted_sweep_is_bit_identical_to_eval() {
        let arena = arena_with(&[&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]]);
        let f = arena.slice(0);
        let ts: Vec<f64> = (-10..80).map(|i| i as f64 * 1.3).collect();
        let mut out = vec![0.0; ts.len()];
        eval_times_into(f, &ts, &mut out);
        for (&t, &got) in ts.iter().zip(&out) {
            assert_eq!(got.to_bits(), f.eval(t).to_bits(), "t={t}");
        }
    }

    #[test]
    fn unsorted_fallback_is_bit_identical_to_eval() {
        let arena = arena_with(&[&[(0.0, 5.0), (10.0, 7.0), (20.0, 3.0)]]);
        let f = arena.slice(0);
        let ts = [25.0, 5.0, 19.9, -1.0, 10.0, 3.0];
        let mut out = [0.0; 6];
        eval_times_into(f, &ts, &mut out);
        for (&t, &got) in ts.iter().zip(&out) {
            assert_eq!(got.to_bits(), f.eval(t).to_bits(), "t={t}");
        }
    }

    #[test]
    fn long_runs_cross_the_lane_boundary() {
        // 23 queries inside one segment: 2 full lanes + 7 remainder.
        let arena = arena_with(&[&[(0.0, 1.0), (100.0, 3.0)]]);
        let f = arena.slice(0);
        let ts: Vec<f64> = (0..23).map(|i| i as f64 * 4.0 + 0.5).collect();
        let mut out = vec![0.0; ts.len()];
        eval_times_into(f, &ts, &mut out);
        for (&t, &got) in ts.iter().zip(&out) {
            assert_eq!(got.to_bits(), f.eval(t).to_bits(), "t={t}");
        }
    }

    #[test]
    fn all_left_ray_and_all_right_ray() {
        let arena = arena_with(&[&[(10.0, 3.0), (20.0, 7.0)]]);
        let f = arena.slice(0);
        let left = [-5.0, 0.0, 9.9];
        let right = [20.0, 21.0, 1e12];
        let mut out = [0.0; 3];
        eval_times_into(f, &left, &mut out);
        assert!(out.iter().all(|&v| v == 3.0));
        eval_times_into(f, &right, &mut out);
        assert!(out.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn single_point_function_clamps_everywhere() {
        let arena = arena_with(&[&[(5.0, 42.0)]]);
        let f = arena.slice(0);
        let ts = [-1e9, 0.0, 5.0, 6.0, 1e9];
        let mut out = [0.0; 5];
        eval_times_into(f, &ts, &mut out);
        assert!(out.iter().all(|&v| v == 42.0));
    }

    #[test]
    fn breakpoint_times_hit_exactly() {
        let pts: Vec<(f64, f64)> = (0..40).map(|i| (i as f64, (i % 7) as f64)).collect();
        let arena = arena_with(&[&pts]);
        let f = arena.slice(0);
        let ts: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut out = vec![0.0; ts.len()];
        eval_times_into(f, &ts, &mut out);
        for (&t, &got) in ts.iter().zip(&out) {
            assert_eq!(got.to_bits(), f.eval(t).to_bits(), "t={t}");
        }
    }

    #[test]
    fn eval_ids_at_matches_per_slice_eval() {
        let arena = arena_with(&[
            &[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)],
            &[(5.0, 3.0)],
            &[(0.0, 5.0), (50.0, 2.0), (100.0, 9.0)],
        ]);
        let ids = [2, NO_PLF, 0, 1];
        let mut out = [0.0; 4];
        for t in [-5.0, 0.0, 30.0, 200.0] {
            eval_ids_at(&arena, &ids, t, &mut out);
            for (&id, &got) in ids.iter().zip(&out) {
                if id == NO_PLF {
                    assert!(got.is_infinite());
                } else {
                    assert_eq!(got.to_bits(), arena.slice(id).eval(t).to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_query_vector_is_a_noop() {
        let arena = arena_with(&[&[(0.0, 1.0)]]);
        eval_times_into(arena.slice(0), &[], &mut []);
        eval_ids_at(&arena, &[], 0.0, &mut []);
    }
}
