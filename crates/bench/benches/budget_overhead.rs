//! Budget-checkpoint overhead gate: the same exact TD-A\*-CH query path
//! with (A) the frozen unbounded entry point versus (B) the bounded entry
//! point carrying a huge-but-finite [`QueryBudget`] (settle cap + far
//! deadline, so both checkpoint branches stay live and nothing degrades),
//! on the CAL-sized medium network.
//!
//! Timings are interleaved (one A rep, one B rep, repeat) so thermal and
//! scheduler drift cancels. Before timing, every query is cross-checked
//! **bit-identically** between the two entry points, and the bounded path
//! is asserted to perform **zero** heap allocations per query on a warmed
//! scratch — the budget lives in two registers, not in memory.
//!
//! Acceptance bar (ISSUE 7): the bounded path costs ≤ 2% over the frozen
//! unbounded path; a miss is fatal.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use td_api::{AStarChIndex, AStarChScratch, ParallelExecutor};
use td_dijkstra::{BoundedCost, QueryBudget};
use td_gen::Dataset;
use td_plf::DAY;
use td_server::{FaultPlan, HostileIndex};

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
    let g = Dataset::Cal.spec().build_scaled(3, 1.0, 42); // ~5.2k vertices
    let n = g.num_vertices();
    let index = AStarChIndex::new(g);

    let mut rng = StdRng::seed_from_u64(7);
    let qs: Vec<(u32, u32, f64)> = (0..64)
        .map(|_| {
            (
                rng.gen_range(0..n) as u32,
                rng.gen_range(0..n) as u32,
                rng.gen_range(0.0..DAY),
            )
        })
        .collect();

    // Huge but *finite* budget: both checkpoint branches (settle compare +
    // strided clock read) stay live, and no query degrades.
    let budget = QueryBudget::settles(u64::MAX / 2).with_timeout(Duration::from_secs(3600));

    // Correctness gate before any timing: bounded == unbounded, bit for bit.
    let mut sc_a = AStarChScratch::default();
    let mut sc_b = AStarChScratch::default();
    for &(s, d, t) in &qs {
        let want = index.query_cost_with(&mut sc_a, s, d, t);
        match index.query_cost_bounded_with(&mut sc_b, s, d, t, &budget) {
            BoundedCost::Exact(got) => assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "s={s} d={d} t={t}"
            ),
            other => panic!("s={s} d={d} t={t}: huge budget degraded to {other:?}"),
        }
    }

    // Allocation gate: zero allocations per bounded query on warm scratch.
    let per_query = allocs(|| {
        for &(s, d, t) in &qs {
            black_box(index.query_cost_bounded_with(&mut sc_b, s, d, t, &budget));
        }
    }) as f64
        / qs.len() as f64;
    println!("allocations/query (bounded, warmed scratch): {per_query:.2}");
    assert_eq!(
        per_query, 0.0,
        "budget checkpoints must not add allocations to the query path"
    );

    // Post-panic allocation gate: a panicked slot's scratch is sanitized
    // in place during containment itself (generation stamps make the torn
    // state unreachable; the warmed capacity survives), so the first clean
    // batch *after* a panic storm allocates exactly what a clean batch
    // always allocates — recovery is not a slow path.
    {
        let _quiet = td_server::silence_contained_panics();
        let plan = FaultPlan {
            seed: 0xa110c,
            panic_per_million: 500_000,
            transient_panics: false,
            ..FaultPlan::none()
        };
        let g = Dataset::Cal.spec().build_scaled(1, 1.0, 43);
        let pn = g.num_vertices();
        let hostile = HostileIndex::new(AStarChIndex::new(g), &plan);
        let mut clean_qs: Vec<((u32, u32, f64), QueryBudget)> = Vec::new();
        let mut hot_qs: Vec<((u32, u32, f64), QueryBudget)> = Vec::new();
        for _ in 0..512 {
            let q = (
                rng.gen_range(0..pn) as u32,
                rng.gen_range(0..pn) as u32,
                rng.gen_range(0.0..DAY),
            );
            if hostile.would_fault(q.0, q.1, q.2) {
                if hot_qs.len() < 8 {
                    hot_qs.push((q, budget));
                }
            } else if clean_qs.len() < 32 {
                clean_qs.push((q, budget));
            }
        }
        assert!(!hot_qs.is_empty() && clean_qs.len() == 32);
        let mut exec = ParallelExecutor::new(&hostile, 1);
        // Warm the executor's scratch pool, then take the clean baseline.
        let mut out = Vec::new();
        exec.query_batch_bounded_into(&clean_qs, &mut out);
        exec.query_batch_bounded_into(&clean_qs, &mut out);
        let baseline = allocs(|| {
            exec.query_batch_bounded_into(&clean_qs, &mut out);
        });
        // The storm: every one of these slots panics (persistent faults)
        // and the worker's scratch is replaced + pre-warmed in place.
        exec.query_batch_bounded_into(&hot_qs, &mut out);
        let post = allocs(|| {
            exec.query_batch_bounded_into(&clean_qs, &mut out);
        });
        println!("allocations/clean-batch: baseline {baseline}, post-panic {post}");
        assert_eq!(
            post, baseline,
            "post-panic batches must not allocate beyond the clean baseline"
        );
    }

    // Interleaved overhead measurement over the whole workload.
    let (ta, tb) = compare2(
        || {
            for &(s, d, t) in &qs {
                black_box(index.query_cost_with(&mut sc_a, s, d, t));
            }
        },
        || {
            for &(s, d, t) in &qs {
                black_box(index.query_cost_bounded_with(&mut sc_b, s, d, t, &budget));
            }
        },
        1_500,
    );
    let overhead = (tb - ta) / ta;
    println!(
        "unbounded {:.0} ns/batch, bounded {:.0} ns/batch, overhead {:+.2}%",
        ta,
        tb,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "budget checkpoints cost {:.2}% on the TD-A*-CH path (bar: <= 2%)",
        overhead * 100.0
    );
}
