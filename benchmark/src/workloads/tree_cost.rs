//! `tree_cost`: the paper's Fig. 8 travel-cost query on the paper's own
//! index. Closed loop, one thread: the whole mix through `query_cost_in` on
//! TD-appro, alternating a pass that times every query (latency quantiles
//! per pass) with a pass that times only itself (throughput per pass); the
//! window reports the quiet quartile over passes. Each pass is one
//! drift-compensation slice (see `calibrate`).

use std::time::{Duration, Instant};

use super::{count_wrong, the_budget, the_graph, Inputs, Measured, Workload, BUILD_THREADS};
use crate::adapter::{self, BackendKind, Index, Scratch};
use crate::calibrate::SpeedGauge;
use crate::loadgen::clamp_ns;
use crate::stats::{self, Quiet};
use crate::trace::SpanBuffer;

pub struct TreeCost<'a> {
    inputs: &'a Inputs,
    index: Box<Index>,
    scratch: Scratch,
}

impl<'a> TreeCost<'a> {
    pub fn set_up(inputs: &'a Inputs) -> TreeCost<'a> {
        let index = adapter::build(
            the_graph(),
            BackendKind::TdAppro,
            the_budget(),
            BUILD_THREADS,
        );
        let scratch = adapter::new_scratch(index.as_ref());
        TreeCost {
            inputs,
            index,
            scratch,
        }
    }
}

impl Workload for TreeCost<'_> {
    fn measure(&mut self, window: Duration, mut spans: Option<&mut SpanBuffer>) -> Measured {
        let queries = &self.inputs.mix.queries;
        let index = self.index.as_ref();
        let scratch = &mut self.scratch;
        let mut answers: Vec<Option<f64>> = vec![None; queries.len()];
        let mut out = Measured::default();
        let mut pass_rates: Vec<f64> = Vec::new();

        // One discarded pass sizes the scratch and warms the caches.
        for (a, q) in answers.iter_mut().zip(queries) {
            *a = adapter::query_cost(index, scratch, *q);
        }

        let start = Instant::now();
        let mut per_query_pass = true;
        let mut gauge = SpeedGauge::start();
        while start.elapsed() < window {
            let mut pass_ns: Vec<u32> = Vec::new();
            let pass_start = Instant::now();
            if per_query_pass || spans.is_some() {
                pass_ns.reserve(queries.len());
                for (i, (a, q)) in answers.iter_mut().zip(queries).enumerate() {
                    let t0 = Instant::now();
                    *a = adapter::query_cost(index, scratch, *q);
                    let t1 = Instant::now();
                    pass_ns.push(clamp_ns((t1 - t0).as_nanos() as u64));
                    if let Some(buf) = spans.as_deref_mut() {
                        buf.push("tree_cost.query_cost_in", t0, t1, None, i as u64);
                    }
                }
            } else {
                for (a, q) in answers.iter_mut().zip(queries) {
                    *a = adapter::query_cost(index, scratch, *q);
                }
            }
            let pass_secs = pass_start.elapsed().as_secs_f64();
            let speed = gauge.lap();
            out.speeds.push(speed);
            let pass_secs = pass_secs * speed;
            let wrong = count_wrong(&self.inputs.expected, &answers);
            out.attempted += queries.len() as u64;
            out.failed += wrong;
            if per_query_pass {
                out.latencies.add(pass_ns, speed);
            } else {
                pass_rates.push((queries.len() as u64 - wrong) as f64 / pass_secs);
            }
            per_query_pass = !per_query_pass;
        }
        if pass_rates.is_empty() {
            out.problems
                .push("tree_cost: window too short for one throughput pass".into());
        } else {
            out.throughput_ops_s = stats::quiet_quartile(&mut pass_rates, Quiet::High);
        }
        out.wrong = out.failed;
        out
    }

    fn index_bytes(&self) -> usize {
        adapter::memory_bytes(self.index.as_ref())
    }
}
