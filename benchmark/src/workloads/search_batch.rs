//! `search_batch`: the search stack on TD-A\*-CH. Phase A (35 % of the
//! window): one thread, `query_cost_in`, every query timed, quantiles per
//! slice of [`SLICE`] queries → latency. Phase B (65 %): the whole mix as
//! one `ParallelExecutor::query_batch_into` batch at two workers, repeated
//! → throughput. Both report the quiet quartile over slices / batches.
//! Phase B's answers must equal phase A's bit for bit. Slices and batches
//! are drift-compensated (see `calibrate`).

use std::time::{Duration, Instant};

use super::{agrees, count_wrong, the_graph, Inputs, Measured, Workload, WORKERS};
use crate::adapter::{self, BackendKind, Executor, Index, Query};
use crate::calibrate::SpeedGauge;
use crate::loadgen::clamp_ns;
use crate::stats::{self, Quiet};
use crate::trace::SpanBuffer;

const PHASE_A_SHARE: f64 = 0.35;
/// Queries per latency slice (about 30 ms; 200 samples beyond its p90).
const SLICE: usize = 2000;
/// Queries of the executor warm-up that set-up pays for.
const WARM_UP: usize = 1024;

pub struct SearchBatch<'a> {
    inputs: &'a Inputs,
    index: Box<Index>,
}

impl<'a> SearchBatch<'a> {
    pub fn set_up(inputs: &'a Inputs) -> SearchBatch<'a> {
        let index = adapter::build(the_graph(), BackendKind::AStarCh, 0, 1);
        // A deployment warms its executor before taking traffic.
        let mut out = Vec::new();
        Executor::new(index.as_ref(), WORKERS)
            .query_batch_into(&inputs.mix.queries[..WARM_UP], &mut out);
        SearchBatch { inputs, index }
    }
}

fn bit_identical(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

impl Workload for SearchBatch<'_> {
    fn measure(&mut self, window: Duration, mut spans: Option<&mut SpanBuffer>) -> Measured {
        let queries: &[Query] = &self.inputs.mix.queries;
        let expected = &self.inputs.expected;
        let index = self.index.as_ref();
        let mut out = Measured::default();

        // Phase A: per-query latency on one thread. At least one whole pass,
        // so that phase B has every answer to compare with.
        let mut scratch = adapter::new_scratch(index);
        let mut single: Vec<Option<f64>> = vec![None; queries.len()];
        for (a, q) in single.iter_mut().zip(queries).take(WARM_UP) {
            *a = adapter::query_cost(index, &mut scratch, *q);
        }
        let phase_a = window.mul_f64(PHASE_A_SHARE);
        let start = Instant::now();
        let mut asked = 0usize;
        let mut gauge = SpeedGauge::start();
        while start.elapsed() < phase_a || asked < queries.len() {
            let mut slice_ns: Vec<u32> = Vec::with_capacity(SLICE);
            for _ in 0..SLICE {
                let i = asked % queries.len();
                let t0 = Instant::now();
                single[i] = adapter::query_cost(index, &mut scratch, queries[i]);
                let t1 = Instant::now();
                slice_ns.push(clamp_ns((t1 - t0).as_nanos() as u64));
                if let Some(buf) = spans.as_deref_mut() {
                    buf.push("search_batch.query_cost_in", t0, t1, None, i as u64);
                }
                out.failed += u64::from(!agrees(expected[i], single[i]));
                asked += 1;
            }
            let speed = gauge.lap();
            out.speeds.push(speed);
            out.latencies.add(slice_ns, speed);
        }
        out.attempted += asked as u64;

        // Phase B: whole-mix batches on the executor.
        let mut exec = Executor::new(index, WORKERS);
        let mut batch: Vec<Option<f64>> = Vec::new();
        exec.query_batch_into(queries, &mut batch);
        let phase_b = window.saturating_sub(phase_a);
        let mut batch_rates: Vec<f64> = Vec::new();
        let start = Instant::now();
        let mut gauge = SpeedGauge::start();
        while start.elapsed() < phase_b {
            let t0 = Instant::now();
            exec.query_batch_into(queries, &mut batch);
            let t1 = Instant::now();
            let speed = gauge.lap();
            out.speeds.push(speed);
            if let Some(buf) = spans.as_deref_mut() {
                buf.push(
                    "search_batch.query_batch_into",
                    t0,
                    t1,
                    None,
                    batch_rates.len() as u64,
                );
            }
            if !bit_identical(&single, &batch) {
                out.problems.push(
                    "search_batch: a 2-worker batch differs from the 1-thread answers".into(),
                );
            }
            let wrong = count_wrong(expected, &batch);
            out.attempted += queries.len() as u64;
            out.failed += wrong;
            batch_rates
                .push((queries.len() as u64 - wrong) as f64 / ((t1 - t0).as_secs_f64() * speed));
        }
        if batch_rates.is_empty() {
            out.problems
                .push("search_batch: window too short for one batch".into());
        } else {
            out.throughput_ops_s = stats::quiet_quartile(&mut batch_rates, Quiet::High);
        }
        out.wrong = out.failed;
        out
    }

    fn index_bytes(&self) -> usize {
        adapter::memory_bytes(self.index.as_ref())
    }
}
