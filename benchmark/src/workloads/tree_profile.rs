//! `tree_profile`: the paper's cost-function query. Closed loop, one thread:
//! the mix's 1 000 distinct pairs through `query_profile_in` on TD-appro,
//! every call timed; each returned function is evaluated at that pair's ten
//! departure times and compared with the oracle. Calls are grouped into
//! drift-compensation slices of [`SLICE`] (see `calibrate`). A call takes
//! milliseconds and its cost depends on the pair, so slices differ by
//! content, not only by interference: the quantiles are taken over the
//! window's pooled (scaled) samples and throughput is all correct calls over
//! all scaled time.

use std::time::{Duration, Instant};

use super::{agrees, the_budget, the_graph, Inputs, Measured, Workload, BUILD_THREADS};
use crate::adapter::{self, BackendKind, Index, Scratch};
use crate::calibrate::SpeedGauge;
use crate::inputs::MIX_TIMES;
use crate::loadgen::clamp_ns;
use crate::trace::SpanBuffer;

/// Calls per slice (about 0.1 s).
const SLICE: usize = 25;

pub struct TreeProfile<'a> {
    inputs: &'a Inputs,
    /// For pair `p`, where its ten queries sit in `inputs.mix.queries`.
    pair_queries: Vec<[u32; MIX_TIMES]>,
    index: Box<Index>,
    scratch: Scratch,
}

impl<'a> TreeProfile<'a> {
    pub fn set_up(inputs: &'a Inputs) -> TreeProfile<'a> {
        let index = adapter::build(
            the_graph(),
            BackendKind::TdAppro,
            the_budget(),
            BUILD_THREADS,
        );
        let scratch = adapter::new_scratch(index.as_ref());
        TreeProfile {
            inputs,
            pair_queries: inputs.mix.pair_query_indices(),
            index,
            scratch,
        }
    }

    /// One operation: the profile of pair `p`, checked at its ten times.
    /// Returns `(call start, call end, correct)`.
    fn one(&mut self, p: usize) -> (Instant, Instant, bool) {
        let (s, d) = self.inputs.mix.pairs[p];
        let t0 = Instant::now();
        let profile = adapter::query_profile(self.index.as_ref(), &mut self.scratch, s, d);
        let t1 = Instant::now();
        let correct = self.pair_queries[p].iter().all(|&i| {
            let (_, _, depart) = self.inputs.mix.queries[i as usize];
            let got = profile.as_ref().map(|f| adapter::profile_eval(f, depart));
            agrees(self.inputs.expected[i as usize], got)
        });
        (t0, t1, correct)
    }
}

impl Workload for TreeProfile<'_> {
    fn measure(&mut self, window: Duration, mut spans: Option<&mut SpanBuffer>) -> Measured {
        let pairs = self.inputs.mix.pairs.len();
        let mut out = Measured::default();
        for p in 0..16 {
            self.one(p % pairs);
        }
        let start = Instant::now();
        let mut p = 0usize;
        let mut pooled_ns: Vec<u32> = Vec::new();
        let mut scaled_secs = 0.0f64;
        let mut gauge = SpeedGauge::start();
        while start.elapsed() < window {
            let slice_start = Instant::now();
            let mut slice_ns = [0u64; SLICE];
            for ns in &mut slice_ns {
                let (t0, t1, ok) = self.one(p % pairs);
                *ns = (t1 - t0).as_nanos() as u64;
                if let Some(buf) = spans.as_deref_mut() {
                    buf.push(
                        "tree_profile.query_profile_in",
                        t0,
                        t1,
                        None,
                        (p % pairs) as u64,
                    );
                }
                out.failed += u64::from(!ok);
                p += 1;
            }
            let slice_secs = slice_start.elapsed().as_secs_f64();
            let speed = gauge.lap();
            out.speeds.push(speed);
            pooled_ns.extend(
                slice_ns
                    .iter()
                    .map(|&ns| clamp_ns((ns as f64 * speed) as u64)),
            );
            scaled_secs += slice_secs * speed;
            out.attempted += SLICE as u64;
        }
        out.latencies.add(pooled_ns, 1.0);
        out.throughput_ops_s = (out.attempted - out.failed) as f64 / scaled_secs;
        out.wrong = out.failed;
        out
    }

    fn index_bytes(&self) -> usize {
        adapter::memory_bytes(self.index.as_ref())
    }
}
