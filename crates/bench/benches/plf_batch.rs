//! Batched-PLF gates (ISSUE 8): two interleaved A/B comparisons.
//!
//! **Kernel**: repeated scalar [`PlfSlice::eval`] versus the batched
//! [`eval_times_into`] over sorted departure runs on a dense arena. Before
//! timing, every lane is cross-checked **bit-identically** against the
//! scalar entry point, and the kernel is asserted to perform **zero** heap
//! allocations per batch — it walks borrowed SoA slices only.
//!
//! **Corridor**: dense profile-search A/B on targeted `s → d` queries —
//! the unbounded one-to-all frozen search versus
//! [`profile_search_frozen_corridor_to`] (what TD-Dijkstra and TD-A\*-CH
//! profile queries run), whose backward min-rail from `d` plus the forward
//! `s → d` upper bound kills whole off-corridor subgraphs at their entry
//! edge. Answers are cross-checked first via the conformance step-10
//! contract (value-identical envelopes on the union probe grid), then
//! timed interleaved.
//!
//! Acceptance bar (ISSUE 8): corridor ≥ 1.3× on the dense profile
//! workload; a miss is fatal.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;
use td_dijkstra::{profile_search_frozen, profile_search_frozen_corridor_to};
use td_gen::random_graph::{random_profile, seeded_graph};
use td_plf::{eval_times_into, PlfArena, DAY};

#[path = "../support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocs;

/// Interleaved A/B timing: mean ns per rep of each side after a warm-up.
fn compare2(mut a: impl FnMut(), mut b: impl FnMut(), budget_ms: u128) -> (f64, f64) {
    a();
    b();
    let (mut ta, mut tb, mut reps) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    while start.elapsed().as_millis() < budget_ms {
        let s = Instant::now();
        a();
        ta += s.elapsed().as_nanos();
        let s = Instant::now();
        b();
        tb += s.elapsed().as_nanos();
        reps += 1;
    }
    let r = reps as f64;
    (ta as f64 / r, tb as f64 / r)
}

fn main() {
    // ---- Kernel A/B: repeated eval vs eval_times_into -------------------
    let mut rng = StdRng::seed_from_u64(17);
    let mut arena = PlfArena::new();
    let nf = 512usize;
    for _ in 0..nf {
        arena.push(&random_profile(&mut rng, 24, 5.0, 500.0));
    }
    // One sorted departure run per function (hint-chained fast path). Dense
    // runs — many departures per segment — are the kernel's target regime
    // (customization sweeps and border-matrix batches), and where the
    // lane-width loops engage.
    let run_len = 512usize;
    let mut runs: Vec<Vec<f64>> = (0..nf)
        .map(|_| {
            let mut ts: Vec<f64> = (0..run_len)
                .map(|_| rng.gen_range(-1000.0..DAY + 1000.0))
                .collect();
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            ts
        })
        .collect();
    // A couple of unsorted runs keep the fallback path honest too.
    runs[0].reverse();
    runs[1].swap(3, 40);

    // Correctness gate before any timing: batched == scalar, bit for bit.
    let mut out = vec![0.0f64; run_len];
    for (id, ts) in runs.iter().enumerate() {
        let s = arena.slice(id as u32);
        eval_times_into(s, ts, &mut out);
        for (&t, &got) in ts.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                s.eval(t).to_bits(),
                "kernel diverges at id={id} t={t}"
            );
        }
    }

    // Allocation gate: the kernel touches no heap at all.
    let kernel_allocs = allocs(|| {
        for (id, ts) in runs.iter().enumerate() {
            eval_times_into(arena.slice(id as u32), ts, &mut out);
            black_box(&out);
        }
    });
    println!("allocations/batch (kernel, {nf} batches): {kernel_allocs}");
    assert_eq!(kernel_allocs, 0, "batch kernel must not allocate");

    let mut out_b = vec![0.0f64; run_len];
    let (ta, tb) = compare2(
        || {
            for (id, ts) in runs.iter().enumerate() {
                let s = arena.slice(id as u32);
                for (o, &t) in out.iter_mut().zip(ts) {
                    *o = s.eval(t);
                }
                black_box(&out);
            }
        },
        || {
            for (id, ts) in runs.iter().enumerate() {
                eval_times_into(arena.slice(id as u32), ts, &mut out_b);
                black_box(&out_b);
            }
        },
        800,
    );
    println!(
        "kernel: scalar {:.0} ns/sweep, batched {:.0} ns/sweep, speedup {:.2}x",
        ta,
        tb,
        ta / tb
    );

    // ---- Corridor A/B: targeted s→d profile queries ---------------------
    // Correctness gate on the *adversarial* generator first: fully random
    // profiles spanning [5, 500] (≈100× per-edge min/max spread) make the
    // scalar rails as loose as they can get — the shape that flushes out
    // soundness bugs, reusing the conformance step-10 contract verbatim
    // (value-identical envelopes on the union probe grid).
    {
        let adversarial = seeded_graph(42, 160, 1200, 6);
        let q: Vec<(u32, u32, f64)> = (0..8u32)
            .map(|i| (i * 19 % 160, (i * 53 + 80) % 160, 0.0))
            .collect();
        td_api::conformance::check_corridor_profiles(&adversarial, &q);
    }

    // Timing runs on the *road-like* generator — the paper's structural band
    // (m/n ≈ 2.4, grid + arterials) with daily congestion profiles whose
    // per-edge spread is ≤ peak × noise ≈ 2.2×. Bounded relative amplitude
    // is the regime corridor pruning targets (and what real travel-time
    // functions look like); the adversarial 100× spread above deliberately
    // defeats scalar rails and is kept for correctness only.
    let net = td_gen::RoadNetwork::generate(&td_gen::RoadNetworkConfig {
        rows: 24,
        cols: 24,
        ..Default::default()
    });
    let g = td_gen::profiles::apply_profiles(
        &net,
        &td_gen::ProfileConfig {
            points_per_edge: 6,
            ..Default::default()
        },
    );
    let fg = g.freeze();
    let n = g.num_vertices() as u32;
    // Spread s across the grid, d roughly diagonal-opposite: long queries.
    let pairs: Vec<(u32, u32)> = (0..8u32)
        .map(|i| (i * 73 % n, (n - 1 + i * 41) % n))
        .collect();
    let queries: Vec<(u32, u32, f64)> = pairs.iter().map(|&(s, d)| (s, d, 0.0)).collect();
    td_api::conformance::check_corridor_profiles(&g, &queries);
    let (mut t_skipped, mut t_relaxed) = (0u64, 0u64);
    for &(s, d) in &pairs {
        let (_, stats) = profile_search_frozen_corridor_to(&g, &fg, s, d);
        t_skipped += stats.corridor_kills;
        t_relaxed += stats.relaxed;
    }
    println!(
        "corridor targeted (s → d):   skipped {t_skipped} / {} compounds ({:.1}%)",
        t_skipped + t_relaxed,
        100.0 * t_skipped as f64 / (t_skipped + t_relaxed) as f64
    );

    let (tu, tc) = compare2(
        || {
            for &(s, d) in &pairs {
                let r = profile_search_frozen(&g, &fg, s);
                black_box(&r.dist[d as usize]);
            }
        },
        || {
            for &(s, d) in &pairs {
                black_box(profile_search_frozen_corridor_to(&g, &fg, s, d));
            }
        },
        2_000,
    );
    let speedup = tu / tc;
    println!(
        "profile s→d: unbounded {:.2} ms/batch, corridor {:.2} ms/batch, speedup {:.2}x",
        tu / 1e6,
        tc / 1e6,
        speedup
    );
    assert!(
        speedup >= 1.3,
        "corridor profile search speedup {speedup:.2}x below the 1.3x bar"
    );
}
