//! The traced stack run (`--trace 1`): every layer measured from outside.
//!
//! The request path is replayed at each depth on its own — `td-server`
//! submit→reply, `td-api` batches of 64 at two workers, a `td-api` session,
//! the index's own `query_cost_in` — with one span per call; a layer's self
//! time is its depth's median minus the next depth's. The PLF and search
//! kernels cannot be seen from outside a query, so they are measured by
//! replaying sampled inputs through their public functions and by the public
//! search counters. Last, the run's own workload is measured for a short
//! window with and without span recording: the difference is the tracing
//! overhead. No end-to-end metric is ever taken from this run.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Arena, BackendKind, EdgeChange, Executor, Graph, Index, Profile, Query, Server,
    ServerCounts, Session, TreeIndex, SERVER_MAX_BATCH,
};
use crate::catalog::LADDER;
use crate::inputs::{self, Mix, AXES_SCALE, GRAPH_SEED};
use crate::loadgen::{self, clamp_ns, Rung, Slo, Stop};
use crate::report::Report;
use crate::run::RunOpts;
use crate::stats::{self, Latencies};
use crate::trace::{depth_self_times, self_times_ns, SpanBuffer};
use crate::workloads::serve_live::{push_request_spans, BURST, CLIENTS, R_REF};
use crate::workloads::{
    agrees, count_wrong, oracle_answers, the_budget, the_graph, Inputs, SliceQuantiles,
    BUILD_THREADS, WORKERS,
};

/// Queries of the mix replayed at each depth of the request path.
const REPLAY: usize = 2000;
/// The serving SLO of the rate ladder.
const SLO: Slo = Slo {
    p99_us: 5000.0,
    failed_share: 0.001,
    outstanding: 2 * SERVER_MAX_BATCH,
};
/// Spans of one name written to the span file (all are kept in memory).
const SPAN_FILE_CAP: usize = 5000;

/// Median seconds of `reps` runs of `pass`.
fn median_secs(reps: usize, mut pass: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&mut secs)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn p50_us(samples: Vec<u32>) -> f64 {
    Latencies::new(samples).quantile_us(0.5)
}

/// Requests per executor batch between two readings of the server's counters.
fn mean_batch_size(before: &ServerCounts, after: &ServerCounts) -> f64 {
    (after.admitted - before.admitted) as f64 / (after.batches - before.batches).max(1) as f64
}

pub fn traced(opts: &RunOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = SpanBuffer::with_capacity(1 << 16);
    let inputs = Inputs::generate(opts.seed);
    let graph = the_graph();
    let updates = inputs::update_stream(&graph, opts.seed);
    report.set("bench.oracle_s", inputs.oracle_s);
    report.set(
        "bench.workload_hash",
        inputs::workload_hash(&graph, &inputs.mix, &updates),
    );

    report.set(
        "td-gen.graph_s",
        median_secs(5, || drop(black_box(the_graph()))),
    );
    let tree = probe_tree_build(&mut report, &graph);
    probe_plf(&mut report, &graph, &tree, &inputs);
    probe_search(&mut report, &graph, &inputs, &updates[0]);
    probe_request_path(&mut report, &mut spans, &tree, &inputs);
    probe_store(&mut report, &tree, &opts.out_dir)?;
    probe_axes(&mut report, opts.seed);
    probe_updates(&mut report, &tree, &updates);
    probe_server(
        &mut report,
        &mut spans,
        tree,
        &graph,
        &inputs,
        &updates,
        opts.seconds,
    );
    probe_own_workload(&mut report, &mut spans, opts, &inputs);

    report.set(
        "bench.failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let path = opts
        .out_dir
        .join(format!("trace-{}.jsonl", opts.workload.name()));
    spans
        .write_jsonl(&path, SPAN_FILE_CAP)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "{} spans recorded; span file {}",
        spans.spans().len(),
        path.display()
    );
    Ok(report)
}

/// `td-treedec.*` and the build half of `td-core.*`: TD-appro with support
/// lists (what the live workload serves), stage by stage.
fn probe_tree_build(report: &mut Report, graph: &Graph) -> TreeIndex {
    let ((height, width), secs) = timed(|| adapter::tree_decomposition(graph));
    report.set("td-treedec.build_s", secs);
    report.set("td-treedec.height", height as f64);
    report.set("td-treedec.width", width as f64);
    let tree = adapter::build_tree(graph.clone(), the_budget(), BUILD_THREADS, true);
    let stages = adapter::tree_build_stages(&tree);
    if (stages.height, stages.width) != (height, width) {
        report.problem("td-core built a different decomposition than td-treedec alone");
    }
    report.set("td-core.decompose_s", stages.decompose_s);
    report.set("td-core.weigh_s", stages.weigh_s);
    report.set("td-core.select_s", stages.select_s);
    report.set("td-core.shortcut_build_s", stages.shortcut_build_s);
    report.set("td-core.selected_pairs", stages.selected_pairs as f64);
    tree
}

/// `td-plf.*`: the six kernels on inputs sampled with the seed — edge
/// weights of the workload graph (3 breakpoints: the relaxation shape) and
/// TD-appro profile results (tens to hundreds: the label shape).
fn probe_plf(report: &mut Report, graph: &Graph, tree: &TreeIndex, inputs: &Inputs) {
    const EDGES: usize = 512;
    const RESULTS: usize = 64;
    const POINTS: usize = 64;
    const REPS: usize = 7;
    let mut rng = inputs.seed ^ 0x0070_6c66;
    let all_edges = adapter::edge_profiles(graph);
    let edges: Vec<&Profile> = (0..EDGES)
        .map(|_| all_edges[inputs::below(&mut rng, all_edges.len())])
        .collect();
    let mut scratch = adapter::new_scratch(tree);
    let results: Vec<Profile> = inputs
        .mix
        .pairs
        .iter()
        .filter_map(|&(s, d)| adapter::query_profile(tree, &mut scratch, s, d))
        .take(RESULTS)
        .collect();
    let edge_arena = Arena::from_profiles(edges.iter().copied());
    let result_arena = Arena::from_profiles(results.iter());
    let times: Vec<f64> = (0..4096)
        .map(|_| inputs::unit(&mut rng) * adapter::DAY)
        .collect();
    let mut sorted = times[..POINTS].to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = vec![0.0f64; EDGES.max(POINTS)];

    // eval: one binary search + interpolation, on the long functions.
    let n = result_arena.len();
    let evals = n * times.len();
    let secs = median_secs(REPS, || {
        let mut acc = 0.0;
        for i in 0..n {
            for &t in &times {
                acc += result_arena.eval(i, t);
            }
        }
        black_box(acc);
    });
    report.set("td-plf.eval_ns", secs * 1e9 / evals as f64);

    // eval_times_into: 64 sorted departures through each long function.
    let secs = median_secs(REPS, || {
        for _ in 0..64 {
            for i in 0..n {
                result_arena.eval_times_into(i, &sorted, &mut out[..POINTS]);
            }
            black_box(&out);
        }
    });
    report.set(
        "td-plf.eval_times_into_ns",
        secs * 1e9 / (64 * n * POINTS) as f64,
    );

    // eval_ids_at: many short functions at one departure time.
    let secs = median_secs(REPS, || {
        for &t in &times[..1024] {
            edge_arena.eval_ids_at(0, EDGES, t, &mut out[..EDGES]);
            black_box(&out);
        }
    });
    report.set("td-plf.eval_ids_at_ns", secs * 1e9 / (1024 * EDGES) as f64);

    // compound / minimum / simplify: consecutive profile results in pairs.
    let pairs: Vec<(&Profile, &Profile)> = results.windows(2).map(|w| (&w[0], &w[1])).collect();
    let mut compounded: Vec<Profile> = Vec::new();
    let secs = median_secs(REPS, || {
        compounded = pairs
            .iter()
            .map(|(f, g)| adapter::plf_compound(f, g))
            .collect();
    });
    report.set("td-plf.compound_us", secs * 1e6 / pairs.len() as f64);
    report.set(
        "td-plf.compound_out_points",
        compounded.iter().map(adapter::plf_points).sum::<usize>() as f64,
    );
    let secs = median_secs(REPS, || {
        for (f, g) in &pairs {
            black_box(adapter::plf_minimum(f, g));
        }
    });
    report.set("td-plf.minimum_us", secs * 1e6 / pairs.len() as f64);
    let mut simplify_secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut copies = compounded.clone();
            let t0 = Instant::now();
            copies.iter_mut().for_each(adapter::plf_simplify);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    report.set(
        "td-plf.simplify_us",
        stats::median(&mut simplify_secs) * 1e6 / compounded.len() as f64,
    );
}

/// `td-dijkstra.*` and `td-ch.*`: the scalar search through the oracle, the
/// A\* loop through TD-A\*-CH with its public work counters, and the
/// Dijkstra-rank split (terciles of the oracle's settle count).
fn probe_search(report: &mut Report, graph: &Graph, inputs: &Inputs, batch: &[EdgeChange]) {
    let prefix = &inputs.mix.queries[..REPLAY];
    let expected = &inputs.expected[..REPLAY];

    let oracle = adapter::build(graph.clone(), BackendKind::Dijkstra, 0, 1);
    let mut scratch = adapter::new_scratch(oracle.as_ref());
    let mut rank: Vec<u64> = Vec::with_capacity(REPLAY);
    let (_, secs) = timed(|| {
        for &q in prefix {
            rank.push(
                adapter::query_cost_counted(oracle.as_ref(), &mut scratch, q)
                    .1
                    .settled,
            );
        }
    });
    let settled: u64 = rank.iter().sum();
    report.set("td-dijkstra.scalar_us", secs * 1e6 / REPLAY as f64);
    report.set(
        "td-dijkstra.scalar_ns_per_settle",
        secs * 1e9 / settled.max(1) as f64,
    );

    let pairs = &inputs.mix.pairs[..5];
    let (_, secs) = timed(|| {
        for &(s, d) in pairs {
            black_box(adapter::query_profile(oracle.as_ref(), &mut scratch, s, d));
        }
    });
    report.set("td-dijkstra.profile_ms", secs * 1e3 / pairs.len() as f64);
    drop(oracle);

    let (mut astar, secs) = timed(|| adapter::build_astar_ch(graph.clone()));
    report.set("td-ch.build_s", secs);
    {
        let index: &Index = &astar;
        let mut scratch = adapter::new_scratch(index);
        for &q in &prefix[..256] {
            adapter::query_cost(index, &mut scratch, q);
        }
        let mut totals = adapter::SearchCounts::default();
        let mut nanos: Vec<u64> = Vec::with_capacity(REPLAY);
        let mut wrong = 0u64;
        for (&q, want) in prefix.iter().zip(expected) {
            let t0 = Instant::now();
            let (cost, counts) = adapter::query_cost_counted(index, &mut scratch, q);
            nanos.push(t0.elapsed().as_nanos() as u64);
            wrong += u64::from(!agrees(*want, cost));
            totals.settled += counts.settled;
            totals.relaxed += counts.relaxed;
            totals.plf_evals += counts.plf_evals;
            totals.minbound_prunes += counts.minbound_prunes;
        }
        report.count(REPLAY as u64, wrong);
        let per_query = |n: u64| n as f64 / REPLAY as f64;
        let total_ns: u64 = nanos.iter().sum();
        report.set(
            "td-dijkstra.astar_ns_per_settle",
            total_ns as f64 / totals.settled.max(1) as f64,
        );
        report.set(
            "td-dijkstra.astar_settled_per_query",
            per_query(totals.settled),
        );
        report.set(
            "td-dijkstra.astar_relaxed_per_query",
            per_query(totals.relaxed),
        );
        report.set(
            "td-dijkstra.astar_plf_evals_per_query",
            per_query(totals.plf_evals),
        );
        report.set(
            "td-dijkstra.astar_prune_share",
            totals.minbound_prunes as f64 / totals.relaxed.max(1) as f64,
        );
        // Dijkstra rank: order the queries by the oracle's settle count and
        // cut into thirds; report A*'s median time in each.
        let mut by_rank: Vec<usize> = (0..REPLAY).collect();
        by_rank.sort_by_key(|&i| (rank[i], i));
        for (tercile, label) in by_rank.chunks(REPLAY.div_ceil(3)).zip(["lo", "mid", "hi"]) {
            let samples = tercile.iter().map(|&i| clamp_ns(nanos[i])).collect();
            report.set(
                &format!("td-dijkstra.astar_us.rank_{label}"),
                p50_us(samples),
            );
        }
    }
    let (_, secs) = timed(|| adapter::update_edges(&mut astar, batch));
    report.set("td-ch.update_ms", secs * 1e3);
}

/// The request path below the server, depth by depth, plus the `td-api`
/// executor numbers and the query half of `td-core.*`.
fn probe_request_path(
    report: &mut Report,
    spans: &mut SpanBuffer,
    tree: &TreeIndex,
    inputs: &Inputs,
) {
    let index: &Index = tree;
    let mix = &inputs.mix.queries;
    let prefix = &mix[..REPLAY];
    let mut answers: Vec<Option<f64>> = Vec::new();

    // Innermost two depths, interleaved pass by pass so that drift hits
    // both alike: their difference is a few nanoseconds of dispatch.
    let mut scratch = adapter::new_scratch(index);
    let mut session = Session::new(index);
    for &q in prefix {
        adapter::query_cost(index, &mut scratch, q);
        session.query_cost(q);
    }
    for _ in 0..3 {
        for (i, &q) in prefix.iter().enumerate() {
            spans.record("td-core.query_cost_in", i as u64, || {
                adapter::query_cost(index, &mut scratch, q)
            });
        }
        for (i, &q) in prefix.iter().enumerate() {
            spans.record("td-api.session", i as u64, || session.query_cost(q));
        }
    }
    let index_p50 = p50_us(spans.durations_ns("td-core.query_cost_in"));
    let session_p50 = p50_us(spans.durations_ns("td-api.session"));

    // Batches of 64 at two workers: the shape the server's coalescer hands
    // to the executor. Every request of a batch waits for the whole batch.
    let mut exec2 = Executor::new(index, WORKERS);
    exec2.query_batch_into(prefix, &mut answers);
    for _ in 0..10 {
        for (b, chunk) in prefix.chunks(SERVER_MAX_BATCH).enumerate() {
            spans.record("td-api.batch64", b as u64, || {
                exec2.query_batch_into(chunk, &mut answers)
            });
        }
    }
    let batch64_p50 = p50_us(spans.durations_ns("td-api.batch64"));

    report.set("td-core.cost_us", index_p50);
    report.set("stack.td-api-session_us_p50", session_p50);
    report.set("stack.td-api-batch64_us_p50", batch64_p50);
    let selfs = depth_self_times(&[batch64_p50, session_p50, index_p50]);
    report.set("td-api.batch64_self_us_p50", selfs[0]);
    report.set("td-api.session_self_us_p50", selfs[1]);

    // Cost-function queries on the same index.
    let pairs = &inputs.mix.pairs[..100];
    let profile_ns: Vec<u32> = pairs
        .iter()
        .map(|&(s, d)| {
            let t0 = Instant::now();
            black_box(adapter::query_profile(index, &mut scratch, s, d));
            clamp_ns(t0.elapsed().as_nanos() as u64)
        })
        .collect();
    report.set("td-core.profile_us", p50_us(profile_ns));

    // Executor throughput shapes over the whole mix: mean per query.
    let per_query_us = |secs: f64| secs * 1e6 / mix.len() as f64;
    let session_us = per_query_us(median_secs(5, || {
        for &q in mix {
            black_box(session.query_cost(q));
        }
    }));
    let mut exec1 = Executor::new(index, 1);
    exec1.query_batch_into(mix, &mut answers);
    let w1 = per_query_us(median_secs(5, || exec1.query_batch_into(mix, &mut answers)));
    report.count(mix.len() as u64, count_wrong(&inputs.expected, &answers));
    exec2.query_batch_into(mix, &mut answers);
    let w2 = per_query_us(median_secs(5, || exec2.query_batch_into(mix, &mut answers)));
    report.count(mix.len() as u64, count_wrong(&inputs.expected, &answers));
    let batch64 = per_query_us(median_secs(5, || {
        for chunk in mix.chunks(SERVER_MAX_BATCH) {
            exec2.query_batch_into(chunk, &mut answers);
        }
    }));
    report.set("td-api.session_us", session_us);
    report.set("td-api.batch_us_per_query.w1", w1);
    report.set("td-api.batch_us_per_query.w2", w2);
    report.set("td-api.batch64_us_per_query.w2", batch64);
    report.set("td-api.executor_overhead_us", w1 - session_us);
    report.set("td-api.scaling_w2", w1 / w2);
}

/// `td-store.*`: the restart cost beside `setup_s`.
fn probe_store(report: &mut Report, tree: &TreeIndex, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("td-appro-{}.tdx", std::process::id()));
    let (saved, save_s) = timed(|| adapter::save(tree, &path));
    saved?;
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    let (loaded, load_s) = timed(|| adapter::load(&path));
    let removed = std::fs::remove_file(&path);
    let loaded = loaded?;
    removed.map_err(|e| format!("removing {}: {e}", path.display()))?;
    if adapter::memory_bytes(loaded.as_ref()) != adapter::memory_bytes(tree) {
        report.problem("td-store: the reloaded index reports another size");
    }
    report.set("td-store.save_s", save_s);
    report.set("td-store.load_s", load_s);
    report.set("td-store.snapshot_bytes", bytes as f64);
    Ok(())
}

/// `axes.*`: the paper's table for all seven backends, at the small scale.
/// Only `td-appro` and `td-astar-ch` have a gating workload; the other five
/// are reported so that a regression in them is at least visible.
fn probe_axes(report: &mut Report, seed: u64) {
    const QUERIES: usize = 1000;
    const PAIRS: usize = 10;
    let graph = adapter::cal_graph(AXES_SCALE, GRAPH_SEED);
    let budget = adapter::cal_budget(AXES_SCALE);
    let mix = Mix::generate(graph.num_vertices(), seed);
    let queries: &[Query] = &mix.queries[..QUERIES];
    let expected = oracle_answers(graph.clone(), queries);
    for kind in BackendKind::ALL {
        let b = kind.label();
        let (index, build_s) = timed(|| adapter::build(graph.clone(), kind, budget, BUILD_THREADS));
        let index = index.as_ref();
        let mut scratch = adapter::new_scratch(index);
        let mut answers: Vec<Option<f64>> = vec![None; QUERIES];
        let cost_secs = median_secs(3, || {
            for (a, &q) in answers.iter_mut().zip(queries) {
                *a = adapter::query_cost(index, &mut scratch, q);
            }
        });
        report.count(QUERIES as u64, count_wrong(&expected, &answers));
        let (_, profile_secs) = timed(|| {
            for &(s, d) in &mix.pairs[..PAIRS] {
                black_box(adapter::query_profile(index, &mut scratch, s, d));
            }
        });
        report.set(
            &format!("axes.{b}.cost_us"),
            cost_secs * 1e6 / QUERIES as f64,
        );
        report.set(
            &format!("axes.{b}.profile_us"),
            profile_secs * 1e6 / PAIRS as f64,
        );
        report.set(&format!("axes.{b}.build_s"), build_s);
        report.set(
            &format!("axes.{b}.index_bytes"),
            adapter::memory_bytes(index) as f64,
        );
    }
    let batch = adapter::update_batch(&graph, inputs::UPDATE_EDGES, seed);
    let mut tree = adapter::build_tree(graph.clone(), budget, BUILD_THREADS, true);
    let (_, secs) = timed(|| adapter::update_edges(&mut tree, &batch));
    report.set("axes.td-appro.update_ms", secs * 1e3);
    let mut astar = adapter::build_astar_ch(graph);
    let (_, secs) = timed(|| adapter::update_edges(&mut astar, &batch));
    report.set("axes.td-astar-ch.update_ms", secs * 1e3);
}

/// The update half of `td-core.*`: the seeded batches applied straight to a
/// clone. (`LiveIndex::apply` adds the levelling of the retired copy; the
/// write phase of `probe_server` pays for both, as `td-server.update_total_s`.)
fn probe_updates(report: &mut Report, tree: &TreeIndex, updates: &[Vec<EdgeChange>]) {
    let mut copy = tree.clone();
    let mut rebuilt = 0usize;
    let mut millis: Vec<f64> = updates
        .iter()
        .map(|batch| {
            let (nodes, secs) = timed(|| adapter::update_edges(&mut copy, batch));
            rebuilt += nodes;
            secs * 1e3
        })
        .collect();
    drop(copy);
    report.set("td-core.update_edges_ms_p50", stats::median(&mut millis));
    report.set("td-core.update_rebuilt_nodes", rebuilt as f64);
}

/// `td-server.*`: the reference rate, saturation, writes beside reads, and
/// the rate ladder, on one live server. The timed phases add up to about
/// `seconds`.
#[allow(clippy::too_many_arguments)]
fn probe_server(
    report: &mut Report,
    spans: &mut SpanBuffer,
    tree: TreeIndex,
    graph: &Graph,
    inputs: &Inputs,
    updates: &[Vec<EdgeChange>],
    seconds: f64,
) {
    let queries = &inputs.mix.queries;
    let expected = &inputs.expected;
    let check = |i: usize, got: Option<f64>| agrees(expected[i], got);
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let live = adapter::live_new(tree);
    const SNAPSHOTS: usize = 100_000;
    let (_, secs) = timed(|| {
        for _ in 0..SNAPSHOTS {
            black_box(adapter::live_snapshot(&live));
        }
    });
    report.set("td-api.live_snapshot_ns", secs * 1e9 / SNAPSHOTS as f64);
    let server = Server::start(Arc::clone(&live), WORKERS);

    // Reference rate: the outermost depth of the stack replay, taken slice
    // by slice with the same estimator as the untraced `serve_live` run, so
    // that the two medians can be compared.
    const R_REF_SLICES: u32 = 8;
    let before = server.counts();
    let mut at_r_ref = SliceQuantiles::default();
    let mut records: Vec<loadgen::Record> = Vec::new();
    let mut request_spans = SpanBuffer::with_capacity(1 << 14);
    for slice in 0..R_REF_SLICES {
        let run = loadgen::open_loop(
            &server,
            queries,
            records.len(),
            R_REF,
            share(0.2) / R_REF_SLICES,
            &check,
        );
        at_r_ref.add(run.latencies_ns(), 1.0);
        push_request_spans(&mut request_spans, run.origin, &run.records);
        if slice == 0 {
            push_request_spans(spans, run.origin, &run.records);
        }
        records.extend(run.records);
    }
    let after = server.counts();
    report.count_served(loadgen::tally(&records));
    // NaN (slices too short for the estimator) fails the run: lengthen --seconds.
    let server_p50 = at_r_ref.finish("r_ref").map_or(f64::NAN, |(p50, _, _)| p50);
    report.set("stack.td-server_us_p50", server_p50);
    report.set(
        "td-server.overhead_us_p50",
        server_p50
            - report
                .get("stack.td-api-batch64_us_p50")
                .expect("request path probed first"),
    );
    let of = |f: &dyn Fn(&loadgen::Record) -> u64| -> Vec<u32> {
        records.iter().map(|r| clamp_ns(f(r))).collect()
    };
    report.set(
        "td-server.submit_ns_p50",
        p50_us(of(&|r| r.submitted_ns - r.sent_ns)) * 1e3,
    );
    report.set(
        "td-server.reply_wait_us_p50",
        p50_us(of(&|r| r.done_ns - r.submitted_ns)),
    );
    // A request span (due → reply) has two children, the `submit` call and
    // the wait for the reply; what neither covers — the span's self time —
    // is the time the request waited for the generator to send it.
    let lag_ns: Vec<u32> = request_spans
        .spans()
        .iter()
        .zip(self_times_ns(request_spans.spans()))
        .filter(|(span, _)| span.parent.is_none())
        .map(|(_, self_ns)| clamp_ns(self_ns))
        .collect();
    report.set(
        "td-server.generator_lag_us_p99",
        Latencies::new(lag_ns).quantile_us(0.99),
    );
    report.set(
        "td-server.mean_batch_size.r_ref",
        mean_batch_size(&before, &after),
    );
    let mut rungs: Vec<Rung> = Vec::new();

    // Saturation.
    let before = server.counts();
    let closed = loadgen::closed_loop(
        &server,
        queries,
        0,
        CLIENTS,
        BURST,
        Stop::After(share(0.15)),
        &check,
    );
    let after = server.counts();
    report.count_served(loadgen::tally(&closed.records));
    report.set(
        "td-server.mean_batch_size.sat",
        mean_batch_size(&before, &after),
    );

    // Writes beside reads: the update batches go in through the update lane
    // while reads continue at the reference rate. A read may be answered
    // from any epoch that was visible while it was in flight, so each reply
    // must equal the oracle's answer on one of the epochs' graphs.
    let subset = &queries[..1000];
    let mut epoch_graph = graph.clone();
    let mut by_epoch: Vec<Vec<Option<f64>>> = vec![expected[..subset.len()].to_vec()];
    for batch in updates {
        epoch_graph = adapter::graph_with(&epoch_graph, batch);
        by_epoch.push(oracle_answers(epoch_graph.clone(), subset));
    }
    let any_epoch = |i: usize, got: Option<f64>| by_epoch.iter().any(|e| agrees(e[i], got));
    // All batches are in the lane within half a second: the server's update
    // watchdog (2 s by default) declares the lane stuck and sheds *later*
    // submissions when one repair runs longer, and a 10-edge repair of this
    // index takes 0.2–1.7 s plus the levelling of the retired copy.
    let spacing = Duration::from_millis(250);
    let write_cap = Duration::from_secs(60);
    let mut update_total_s = f64::NAN;
    let mut write_runs: Vec<loadgen::OpenLoopRun> = Vec::new();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let start = Instant::now();
            for (k, batch) in updates.iter().enumerate() {
                if let Some(wait) = (spacing * k as u32).checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                // Shed batches show up in `updates_shed` and fail the run.
                server.submit_update(batch.clone());
            }
            while adapter::live_epoch(&live) < updates.len() as u64 && start.elapsed() < write_cap {
                std::thread::sleep(Duration::from_millis(2));
            }
            start.elapsed().as_secs_f64()
        });
        // Reads run in slices so that they stop soon after the last epoch
        // is visible.
        while !writer.is_finished() {
            write_runs.push(loadgen::open_loop(
                &server,
                subset,
                0,
                R_REF,
                share(0.05),
                &any_epoch,
            ));
        }
        update_total_s = writer.join().expect("writer thread");
    });
    let write_ns: Vec<u32> = write_runs.iter().flat_map(|r| r.latencies_ns()).collect();
    for run in &write_runs {
        report.count_served(loadgen::tally(&run.records));
    }
    let write = Latencies::new(write_ns);
    report.set(
        "td-server.write_phase_latency_p50_us",
        write.quantile_us(0.5),
    );
    report.set(
        "td-server.write_phase_latency_p99_us",
        write.quantile_us(0.99),
    );
    report.set("td-server.update_total_s", update_total_s);
    let counts = server.counts();
    report.set("td-server.updates_shed", counts.updates_shed as f64);
    // (The server counts a batch as applied only once the retired copy has
    // been levelled too, up to a second after its epoch is visible, so the
    // epoch is what is checked here.)
    let epoch = adapter::live_epoch(&live);
    if counts.updates_shed != 0 || epoch != updates.len() as u64 {
        report.problem(format!(
            "write phase: epoch {epoch} after {} update batches, {} shed",
            updates.len(),
            counts.updates_shed
        ));
    }
    // Replay after the last update: now only the final epoch is right.
    let last = by_epoch.last().expect("epoch 0 exists");
    let final_epoch = |i: usize, got: Option<f64>| agrees(last[i], got);
    let replay = loadgen::closed_loop(
        &server,
        subset,
        0,
        1,
        BURST,
        Stop::OncePerQuery,
        &final_epoch,
    );
    report.count_served(loadgen::tally(&replay.records));

    // The ladder. Above capacity, rejections are the measured outcome, not
    // a failure of the run; a wrong or non-exact reply still is one.
    let final_expected = oracle_answers(epoch_graph, queries);
    let check = |i: usize, got: Option<f64>| agrees(final_expected[i], got);
    let mut reject_ns: Vec<u32> = Vec::new();
    for (rate, label) in LADDER {
        let run = loadgen::open_loop(&server, queries, 0, rate, share(0.06), &check);
        let (attempted, failed, wrong) = loadgen::tally(&run.records);
        let rejected: Vec<&loadgen::Record> = run
            .records
            .iter()
            .filter(|r| r.verdict == loadgen::Verdict::Rejected)
            .collect();
        report.count_served((attempted, failed - rejected.len() as u64, wrong));
        reject_ns.extend(
            rejected
                .iter()
                .map(|r| clamp_ns(r.submitted_ns - r.sent_ns)),
        );
        if label == "r48k" {
            report.set(
                "td-server.rejected_share.r48k",
                rejected.len() as f64 / attempted.max(1) as f64,
            );
        }
        let rung = rung_of(rate, &run);
        // NaN (too few samples for a p99) fails the run: lengthen --seconds.
        report.set(
            &format!("td-server.latency_p99_us.{label}"),
            rung.p99_us.unwrap_or(f64::NAN),
        );
        rungs.push(rung);
    }
    report.set(
        "td-server.max_rate_in_slo_qps",
        loadgen::max_rate_in_slo(&rungs, &SLO),
    );
    // No rejection anywhere on the ladder means the probe has nothing to
    // time; 0 then says "none seen", which the stderr note spells out.
    if reject_ns.is_empty() {
        eprintln!("note: the ladder saw no rejection; td-server.reject_ns_p50 reported as 0");
        report.set("td-server.reject_ns_p50", 0.0);
    } else {
        report.set("td-server.reject_ns_p50", p50_us(reject_ns) * 1e3);
    }
    let counts = server.counts();
    report.set(
        "td-server.approximate_share",
        counts.approximate as f64 / counts.admitted.max(1) as f64,
    );
    server.shutdown();
}

fn rung_of(rate_per_s: f64, run: &loadgen::OpenLoopRun) -> Rung {
    Rung {
        rate_per_s,
        p99_us: Latencies::new(run.latencies_ns())
            .quantile_ns(0.99)
            .map(|ns| ns / 1e3),
        failed_share: run.failed() as f64 / run.records.len().max(1) as f64,
        outstanding_at_end: run.outstanding_at_end,
    }
}

/// `bench.trace_overhead_pct` and `bench.samples`: this run's own workload,
/// a short window without and then with one span per call.
fn probe_own_workload(
    report: &mut Report,
    spans: &mut SpanBuffer,
    opts: &RunOpts,
    inputs: &Inputs,
) {
    let window = Duration::from_secs_f64(opts.seconds * 0.15);
    let mut workload = opts.workload.set_up(inputs);
    let plain = workload.measure(window, None);
    let traced = workload.measure(window, Some(spans));
    for m in [&plain, &traced] {
        report.count_served((m.attempted, m.failed, m.wrong));
        report.problems.extend(m.problems.iter().cloned());
    }
    report.set(
        "bench.trace_overhead_pct",
        (plain.throughput_ops_s - traced.throughput_ops_s) / plain.throughput_ops_s * 100.0,
    );
    report.set("bench.samples", traced.latencies.samples() as f64);
}
