//! The four workloads. Each is set up from generated inputs only, measures a
//! fixed window, and checks every answer against the TD-Dijkstra oracle.

use std::time::{Duration, Instant};

use crate::adapter::{self, BackendKind, Executor, Graph, Query};
use crate::inputs::{Mix, GRAPH_SCALE, GRAPH_SEED};
use crate::stats::{self, Latencies, Quiet};
use crate::trace::SpanBuffer;

mod search_batch;
pub mod serve_live;
mod tree_cost;
mod tree_profile;

/// Threads of index construction and of the oracle pass. A literal, not
/// "all cores": the box this benchmark was sized on has two.
pub const BUILD_THREADS: usize = 2;
/// Executor and server workers under test.
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    TreeCost,
    TreeProfile,
    SearchBatch,
    ServeLive,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::TreeCost,
        WorkloadKind::TreeProfile,
        WorkloadKind::SearchBatch,
        WorkloadKind::ServeLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TreeCost => "tree_cost",
            WorkloadKind::TreeProfile => "tree_profile",
            WorkloadKind::SearchBatch => "search_batch",
            WorkloadKind::ServeLive => "serve_live",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many times an untraced run sets up (the median is `setup_s`).
    /// A TD-appro build takes ~2 s on two threads and is the least steady
    /// thing measured here (the reference kernel reads one core), so five;
    /// TD-A\*-CH sets up in 35 ms and can afford nine.
    pub fn setups(self) -> usize {
        match self {
            WorkloadKind::SearchBatch => 9,
            _ => 5,
        }
    }

    /// Generates the graph, builds the index under test and whatever the
    /// workload serves it through — everything a deployment pays before its
    /// first query.
    pub fn set_up(self, inputs: &Inputs) -> Box<dyn Workload + '_> {
        match self {
            WorkloadKind::TreeCost => Box::new(tree_cost::TreeCost::set_up(inputs)),
            WorkloadKind::TreeProfile => Box::new(tree_profile::TreeProfile::set_up(inputs)),
            WorkloadKind::SearchBatch => Box::new(search_batch::SearchBatch::set_up(inputs)),
            WorkloadKind::ServeLive => Box::new(serve_live::ServeLive::set_up(inputs)),
        }
    }
}

/// What a workload is given: generated inputs and the oracle's answers.
pub struct Inputs {
    pub seed: u64,
    pub mix: Mix,
    /// The oracle's answer to `mix.queries[i]`.
    pub expected: Vec<Option<f64>>,
    /// Seconds the oracle pass took (`bench.oracle_s`; never part of
    /// `setup_s`).
    pub oracle_s: f64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let graph = the_graph();
        let mix = Mix::generate(graph.num_vertices(), seed);
        let start = Instant::now();
        let expected = oracle_answers(graph, &mix.queries);
        Inputs {
            seed,
            mix,
            expected,
            oracle_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// The fixed road network (see `inputs`).
pub fn the_graph() -> Graph {
    adapter::cal_graph(GRAPH_SCALE, GRAPH_SEED)
}

pub fn the_budget() -> u64 {
    adapter::cal_budget(GRAPH_SCALE)
}

/// One TD-Dijkstra pass over `queries` on [`BUILD_THREADS`] threads.
pub fn oracle_answers(graph: Graph, queries: &[Query]) -> Vec<Option<f64>> {
    let oracle = adapter::build(graph, BackendKind::Dijkstra, 0, 1);
    let mut out = Vec::new();
    Executor::new(oracle.as_ref(), BUILD_THREADS).query_batch_into(queries, &mut out);
    out
}

/// Equal within the conformance tolerance, or both unreachable.
pub fn agrees(want: Option<f64>, got: Option<f64>) -> bool {
    match (want, got) {
        (Some(a), Some(b)) => (a - b).abs() < adapter::COST_EPS,
        (None, None) => true,
        _ => false,
    }
}

/// How many of `got` disagree with `want`.
pub fn count_wrong(want: &[Option<f64>], got: &[Option<f64>]) -> u64 {
    assert_eq!(want.len(), got.len());
    want.iter()
        .zip(got)
        .filter(|(w, g)| !agrees(**w, **g))
        .count() as u64
}

/// Latency quantiles taken slice by slice: each slice of a window gives its
/// own p50 and p90, and the window reports the quiet quartile over slices
/// (see [`stats::quiet_quartile`]), so a stretch of interference that covers
/// even half of the slices cannot set the numbers.
#[derive(Default)]
pub struct SliceQuantiles {
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    samples: usize,
}

impl SliceQuantiles {
    /// Adds one slice's per-operation latencies, each multiplied by `speed`
    /// (1.0 = unscaled). A slice too small to support a p90 (fewer than 100
    /// samples: 10 must lie beyond it) only contributes its p50.
    pub fn add(&mut self, slice_ns: Vec<u32>, speed: f64) {
        let slice = Latencies::new(slice_ns);
        self.samples += slice.count();
        if let Some(ns) = slice.quantile_ns(0.5) {
            self.p50_us.push(ns * speed / 1e3);
        }
        if let Some(ns) = slice.quantile_ns(0.9) {
            self.p90_us.push(ns * speed / 1e3);
        }
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    /// `(p50, p90, samples)`; an error when no slice could support a p90.
    pub fn finish(mut self, what: &str) -> Result<(f64, f64, usize), String> {
        if self.p50_us.is_empty() || self.p90_us.is_empty() {
            return Err(format!(
                "{what}: {} samples in {} slices cannot support a p90 ({} samples must lie beyond \
                 it in a slice); lengthen --seconds",
                self.samples,
                self.p50_us.len(),
                stats::MIN_BEYOND
            ));
        }
        Ok((
            stats::quiet_quartile(&mut self.p50_us, Quiet::Low),
            stats::quiet_quartile(&mut self.p90_us, Quiet::Low),
            self.samples,
        ))
    }
}

/// What one timed window measured.
#[derive(Default)]
pub struct Measured {
    /// Per-operation latencies at the workload's outermost call.
    pub latencies: SliceQuantiles,
    /// Correct operations per second.
    pub throughput_ops_s: f64,
    /// The reference-speed reading of every drift-compensated slice (empty
    /// for a workload that is not scaled); printed beside the result so a
    /// reader can see how far the box was from the reference speed.
    pub speeds: Vec<f64>,
    pub attempted: u64,
    /// Errors + rejections + non-exact + wrong answers.
    pub failed: u64,
    /// Of `failed`, the exact answers that disagree with the oracle. A
    /// typed refusal or a flagged interval is a failed operation; only a
    /// wrong answer is an incorrect output.
    pub wrong: u64,
    /// Broken invariants other than a failed operation (they make the run
    /// incorrect whatever `failed` says).
    pub problems: Vec<String>,
}

impl Measured {
    /// Adds the requests of one run through the server.
    pub fn add_served(&mut self, records: &[crate::loadgen::Record]) {
        let (attempted, failed, wrong) = crate::loadgen::tally(records);
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
    }
}

pub trait Workload {
    /// Measures for `window`. With a span buffer, every call into the layer
    /// under test is also recorded as a span (the traced run); without one
    /// nothing but the latency stamps is taken.
    fn measure(&mut self, window: Duration, spans: Option<&mut SpanBuffer>) -> Measured;

    /// `memory_bytes()` of the index under test.
    fn index_bytes(&self) -> usize;
}

/// `VmHWM` of this process in MB: the peak resident set since it started.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_within_tolerance_and_reachability_must_match() {
        assert!(agrees(Some(10.0), Some(10.0 + adapter::COST_EPS / 2.0)));
        assert!(!agrees(Some(10.0), Some(10.0 + adapter::COST_EPS * 2.0)));
        assert!(agrees(None, None));
        assert!(!agrees(None, Some(1.0)));
        assert!(!agrees(Some(1.0), None));
        assert_eq!(count_wrong(&[Some(1.0), None], &[Some(2.0), None]), 1);
    }

    #[test]
    fn slice_quantiles_report_the_quiet_quartile_over_slices() {
        let mut q = SliceQuantiles::default();
        // Four slices of 1 000 samples; two sit in a stretch of interference.
        for base in [0u32, 100, 8500, 20_000] {
            q.add((1..=1000).map(|i| base + i).collect(), 1.0);
        }
        let (p50, p90, samples) = q.finish("x").unwrap();
        assert_eq!((p50, p90, samples), (0.5, 0.9, 4000));
        // Scaling by the reference speed multiplies the times.
        let mut q = SliceQuantiles::default();
        q.add((1..=1000).collect(), 0.5);
        assert_eq!(q.finish("x").unwrap().0, 0.25);
        // A window whose slices are all too small has no p90.
        let mut q = SliceQuantiles::default();
        q.add((1..=99).collect(), 1.0);
        assert!(q.finish("x").unwrap_err().contains("99 samples"));
    }

    #[test]
    fn workload_names_round_trip_and_match_the_catalog() {
        for (kind, spec) in WorkloadKind::ALL
            .into_iter()
            .zip(&crate::catalog::WORKLOADS)
        {
            assert_eq!(kind.name(), spec.name);
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
