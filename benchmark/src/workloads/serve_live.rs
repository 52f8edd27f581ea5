//! `serve_live`: `TdServer::serve_live` over `LiveIndex<TD-appro>` with
//! `ServerConfig::default()` and two workers. Phase 1 (half the window):
//! closed loop, two clients × bursts of 16 — saturation throughput. Phase 2
//! (the other half): open loop at [`R_REF`] requests per second — latency
//! from the time each request was due. Both phases run in [`SLICES`] slices
//! and report the quiet quartile over slices. A rejected, `Approximate`,
//! failed or wrong reply counts as failed. Nothing here is scaled by the
//! reference kernel: the open loop is paced by timers (the generator's and
//! the coalescer's 500 µs window) and the closed loop runs on both cores.
//! (Writes beside these reads are measured by the traced run's write phase;
//! see the README for why they are not an end-to-end metric.)

use std::sync::Arc;
use std::time::Duration;

use super::{agrees, the_budget, the_graph, Inputs, Measured, Workload, BUILD_THREADS, WORKERS};
use crate::adapter::{self, Live, Server};
use crate::loadgen::{self, Record, Stop, Verdict};
use crate::stats::{self, Quiet};
use crate::trace::SpanBuffer;

/// The reference offered load, requests per second: about a fifteenth of
/// what the server sustains on this box, so queueing comes from the
/// coalescer's window and not from overload — and the burst the generator
/// sends to catch up after a 400 ms stall of the VM still fits under the
/// admission queue's shed watermark instead of turning into rejections.
pub const R_REF: f64 = 2000.0;
pub const CLIENTS: usize = 2;
pub const BURST: usize = 16;
/// Slices per phase.
const SLICES: u32 = 20;
/// Requests of the warm-up that set-up pays for.
const WARM_UP: usize = 256;

pub struct ServeLive<'a> {
    inputs: &'a Inputs,
    live: Arc<Live>,
    server: Server,
}

impl<'a> ServeLive<'a> {
    pub fn set_up(inputs: &'a Inputs) -> ServeLive<'a> {
        let tree = adapter::build_tree(the_graph(), the_budget(), BUILD_THREADS, true);
        let live = adapter::live_new(tree);
        let server = Server::start(Arc::clone(&live), WORKERS);
        let tickets: Vec<_> = inputs.mix.queries[..WARM_UP]
            .iter()
            .filter_map(|q| server.submit(*q).ok())
            .collect();
        for t in &tickets {
            t.wait();
        }
        ServeLive {
            inputs,
            live,
            server,
        }
    }
}

/// One request as three spans: the request (due → reply) and, inside it,
/// the `submit` call and the wait for the reply.
pub fn push_request_spans(buf: &mut SpanBuffer, origin: std::time::Instant, records: &[Record]) {
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    for r in records.iter().filter(|r| r.verdict != Verdict::Rejected) {
        let id = u64::from(r.query);
        let request = buf.push("td-server.request", at(r.due_ns), at(r.done_ns), None, id);
        buf.push(
            "td-server.submit",
            at(r.sent_ns),
            at(r.submitted_ns),
            Some(request),
            id,
        );
        buf.push(
            "td-server.reply_wait",
            at(r.submitted_ns),
            at(r.done_ns),
            Some(request),
            id,
        );
    }
}

impl Workload for ServeLive<'_> {
    fn measure(&mut self, window: Duration, mut spans: Option<&mut SpanBuffer>) -> Measured {
        let queries = &self.inputs.mix.queries;
        let expected = &self.inputs.expected;
        let check = |i: usize, got: Option<f64>| agrees(expected[i], got);
        let slice = window / 2 / SLICES;
        let mut out = Measured::default();
        let mut first = 0usize;

        // Saturation first: it doubles as the warm-up of the open loop.
        let mut slice_rates: Vec<f64> = Vec::new();
        for _ in 0..SLICES {
            let stop = Stop::After(slice);
            let run =
                loadgen::closed_loop(&self.server, queries, first, CLIENTS, BURST, stop, &check);
            slice_rates.push(run.throughput());
            out.add_served(&run.records);
            first += run.records.len();
            if let Some(buf) = spans.as_deref_mut() {
                push_request_spans(buf, run.origin, &run.records);
            }
        }
        out.throughput_ops_s = stats::quiet_quartile(&mut slice_rates, Quiet::High);

        for _ in 0..SLICES {
            let run = loadgen::open_loop(&self.server, queries, first, R_REF, slice, &check);
            out.latencies.add(run.latencies_ns(), 1.0);
            out.add_served(&run.records);
            first += run.records.len();
            if let Some(buf) = spans.as_deref_mut() {
                push_request_spans(buf, run.origin, &run.records);
            }
        }

        let shed = self.server.counts().updates_shed;
        if shed != 0 {
            out.problems
                .push(format!("serve_live: {shed} updates shed"));
        }
        out
    }

    fn index_bytes(&self) -> usize {
        adapter::memory_bytes(adapter::live_snapshot(&self.live).as_ref())
    }
}
