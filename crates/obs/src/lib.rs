//! # td-obs — zero-overhead query/serving telemetry
//!
//! Bottom-of-stack observability for the time-dependent routing workspace:
//! sharded [`Counter`]s and [`Gauge`]s on relaxed atomics, a log-bucketed
//! latency [`Histogram`] with p50/p95/p99/max readout, RAII [`PhaseTimer`]
//! spans, a scratch-resident [`SearchStats`] recorder for the hot search
//! loops, and a [`Registry`] with a deterministic
//! Prometheus-text exposition ([`Registry::render_prometheus`]).
//!
//! Design rules (see `crates/obs/README.md` for the full story):
//!
//! * **No contention on the hot path.** Counters and histograms hold
//!   [`SHARDS`] cache-line-padded cells; workers write their own shard with
//!   `Relaxed` atomics (a long-lived worker claims one with
//!   [`set_thread_shard`]) and shards are merged only at scrape time.
//! * **No allocation after registration.** Handles are `Arc`s captured at
//!   startup; the write side is pure atomic arithmetic.
//! * **Nothing shared inside the tagged loops.** The frozen search loops
//!   record into plain-`u64` [`SearchStats`] fields resident in the query
//!   scratch; totals are exported to the shards once per query, outside the
//!   loop.
//! * **Always on.** There is one build: what the layer costs is what the
//!   `obs_overhead` gate measures it to cost (≤ 2 %, 0 allocations).

#![forbid(unsafe_code)]

mod catalog;
mod metric;
mod registry;
mod span;
mod stats;

pub use catalog::{metrics, phase, Metrics};
pub use metric::{
    bucket_bound, bucket_of, set_thread_shard, thread_shard, Counter, Gauge, HistSnapshot,
    Histogram, BUCKETS, SHARDS,
};
pub use registry::Registry;
pub use span::PhaseTimer;
pub use stats::{QueryTrace, SearchStats};
