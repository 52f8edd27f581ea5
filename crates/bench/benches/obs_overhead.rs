//! Telemetry overhead gate: the same exact TD-A\*-CH query path with (A)
//! the plain [`RoutingIndex::query_cost_in`] entry point versus (B) the
//! traced entry point — [`RoutingIndex::query_cost_traced_in`] plus a full
//! [`td_obs::Metrics::record_query`] export — on the CAL-sized medium
//! network.
//!
//! Timings are interleaved (one A rep, one B rep, repeat) so thermal and
//! scheduler drift cancels. Before timing, every query is cross-checked
//! **bit-identically** between the two entry points, and the traced path is
//! asserted to perform **zero** heap allocations per query on a warmed
//! scratch — counters are scratch-resident `u64`s and the export is relaxed
//! atomics onto pre-registered families.
//!
//! Acceptance bar (ISSUE 9): tracing + export costs ≤ 2% over the plain
//! path; a miss is fatal.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;
use td_api::{AStarChIndex, RoutingIndex, SessionScratch};
use td_gen::Dataset;
use td_plf::DAY;

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

    // Force catalog registration outside the timed/counted regions.
    let metrics = td_obs::metrics();

    // Correctness gate before any timing: traced == plain, bit for bit, and
    // the trace actually carries counters.
    let mut sc_a = SessionScratch::none();
    let mut sc_b = SessionScratch::none();
    for &(s, d, t) in &qs {
        let want = index.query_cost_in(&mut sc_a, s, d, t);
        let (got, trace) = index.query_cost_traced_in(&mut sc_b, s, d, t);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "s={s} d={d} t={t}"
        );
        if want.is_some() {
            assert!(trace.stats.settled > 0, "s={s} d={d} t={t}: empty trace");
            assert!(trace.nanos > 0, "s={s} d={d} t={t}: no latency");
        }
    }

    // Allocation gate: zero allocations per traced-and-exported query on a
    // warmed scratch and a registered catalog.
    let per_query = allocs(|| {
        for &(s, d, t) in &qs {
            let (cost, trace) = index.query_cost_traced_in(&mut sc_b, s, d, t);
            metrics.record_query(0, &trace);
            black_box(cost);
        }
    }) as f64
        / qs.len() as f64;
    println!("allocations/query (traced + exported, warmed scratch): {per_query:.2}");
    assert_eq!(
        per_query, 0.0,
        "telemetry must not add allocations to the query path"
    );

    // Interleaved overhead measurement over the whole workload.
    let (ta, tb) = compare2(
        || {
            for &(s, d, t) in &qs {
                black_box(index.query_cost_in(&mut sc_a, s, d, t));
            }
        },
        || {
            for &(s, d, t) in &qs {
                let (cost, trace) = index.query_cost_traced_in(&mut sc_b, s, d, t);
                metrics.record_query(0, &trace);
                black_box(cost);
            }
        },
        1_500,
    );
    let overhead = (tb - ta) / ta;
    println!(
        "plain {:.0} ns/batch, traced {:.0} ns/batch, overhead {:+.2}%",
        ta,
        tb,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "telemetry costs {:.2}% on the TD-A*-CH path (bar: <= 2%)",
        overhead * 100.0
    );
}
