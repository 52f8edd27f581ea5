//! Parallel serving bench: `ParallelExecutor::query_batch_into` versus the
//! single-threaded `QuerySession` baseline on the medium generated network.
//!
//! Timings are interleaved (one baseline batch, one parallel batch, repeat)
//! so thermal and scheduler drift cancels. Three things are measured and
//! printed before the criterion lines:
//!
//! * thread scaling: batch throughput at 1/2/4/8 workers relative to the
//!   session baseline (the acceptance bar is ≥ 2x at 4 workers, asserted
//!   when the machine actually has ≥ 4 cores);
//! * allocation discipline: on warmed worker scratches with a reused output
//!   buffer, growing the batch must not grow the allocation count — i.e.
//!   **zero allocations per query** in every worker, exactly like the
//!   single-threaded session (a fixed per-batch cost for the scoped spawns
//!   remains and is printed).
//!
//! Both sides run through `dyn RoutingIndex` dispatch — the form a server
//! actually holds (`Box`/`Arc<dyn RoutingIndex>`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use td_api::{build_index, Backend, IndexConfig, ParallelExecutor, QuerySession, RoutingIndex};
use td_gen::Dataset;
use td_plf::DAY;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// contract (layout validity, pointer provenance) is forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.dealloc`; `ptr` came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's layout/size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Interleaved A/B timing: mean ns per rep of each side after a warm-up rep.
fn compare(mut a: impl FnMut(), mut b: impl FnMut(), budget_ms: u128) -> (f64, f64) {
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
    (ta as f64 / reps as f64, tb as f64 / reps as f64)
}

fn bench_parallel_query(criterion: &mut Criterion) {
    // The medium CAL analogue (~1.6k vertices) — big enough that a batch
    // dwarfs the scoped-spawn overhead, small enough to build quickly.
    let g = Dataset::Cal.spec().build_scaled(3, 0.3, 42);
    let n = g.num_vertices();
    let budget = Dataset::Cal.spec().budget_at(0.3) as u64;
    let index: Box<dyn RoutingIndex> = build_index(
        g,
        Backend::TdAppro,
        &IndexConfig {
            budget,
            ..Default::default()
        },
    );
    let index = index.as_ref();
    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<(u32, u32, f64)> = (0..4096)
        .map(|_| {
            (
                rng.gen_range(0..n) as u32,
                rng.gen_range(0..n) as u32,
                rng.gen_range(0.0..DAY),
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "medium network: {n} vertices, batch {} queries, {cores} cores",
        queries.len()
    );

    // ---- Allocation discipline on warmed workers ----
    let mut exec = ParallelExecutor::new(index, 4);
    let mut out = Vec::new();
    let half = &queries[..queries.len() / 2];
    exec.query_batch_into(&queries, &mut out); // warm scratches + buffer
    exec.query_batch_into(half, &mut out);
    let full_allocs = allocs(|| exec.query_batch_into(&queries, &mut out));
    let half_allocs = allocs(|| exec.query_batch_into(half, &mut out));
    let marginal = full_allocs.saturating_sub(half_allocs);
    println!(
        "allocations: full batch {full_allocs}, half batch {half_allocs} \
         (fixed spawn cost), marginal for {} extra queries: {marginal}",
        queries.len() / 2
    );
    assert!(
        marginal <= 8,
        "warmed workers must not allocate per query (got {marginal} over {} queries)",
        queries.len() / 2
    );

    // ---- Thread scaling, interleaved against the session baseline ----
    let mut session = QuerySession::new(index);
    let mut session_out = Vec::new();
    session.query_many_into(queries.iter().copied(), &mut session_out);
    let mut speedup_at_4 = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let mut exec = ParallelExecutor::new(index, threads);
        let mut out = Vec::new();
        exec.query_batch_into(&queries, &mut out);
        let (base_ns, par_ns) = compare(
            || {
                session.query_many_into(queries.iter().copied(), &mut session_out);
                black_box(&session_out);
            },
            || {
                exec.query_batch_into(&queries, &mut out);
                black_box(&out);
            },
            600,
        );
        let speedup = base_ns / par_ns;
        if threads == 4 {
            speedup_at_4 = speedup;
        }
        println!(
            "scaling: {threads} workers {:>10.0} ns/batch vs session {:>10.0} ns/batch — {speedup:.2}x",
            par_ns, base_ns
        );
    }
    if cores >= 4 {
        assert!(
            speedup_at_4 >= 2.0,
            "4 workers on {cores} cores must be ≥ 2x the single-thread session \
             (got {speedup_at_4:.2}x)"
        );
    } else {
        println!("(≥ 2x @ 4 workers assertion skipped: only {cores} cores available)");
    }

    // ---- Criterion record ----
    let mut group = criterion.benchmark_group("parallel_query");
    {
        let mut session = QuerySession::new(index);
        let mut out = Vec::new();
        group.bench_function("session_batch", |b| {
            b.iter(|| {
                session.query_many_into(queries.iter().copied(), &mut out);
                black_box(out.len())
            })
        });
    }
    for threads in [2usize, 4] {
        let mut exec = ParallelExecutor::new(index, threads);
        let mut out = Vec::new();
        group.bench_function(format!("executor_{threads}_threads"), |b| {
            b.iter(|| {
                exec.query_batch_into(&queries, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_query);
criterion_main!(benches);
