//! The process-wide metric catalog.
//!
//! Every family the workspace emits is registered up front in
//! [`Metrics::new`], so a scrape's metric-*name* set is deterministic: it
//! never depends on which code paths a particular workload happened to
//! exercise. Handles are plain fields — the serving path reads them through
//! the `&'static Metrics` returned by [`metrics`] without ever touching the
//! registry lock.

use std::sync::{Arc, OnceLock};

use crate::metric::{Counter, Gauge, Histogram};
use crate::registry::Registry;
use crate::span::PhaseTimer;
use crate::stats::{QueryTrace, SearchStats};

/// Handles to every metric family the workspace emits.
pub struct Metrics {
    pub registry: Registry,

    // -- search (per-query counters, exported from `SearchStats`) --
    pub search_settled: Arc<Counter>,
    pub search_relaxed: Arc<Counter>,
    pub search_plf_evals_scalar: Arc<Counter>,
    pub search_plf_evals_batched: Arc<Counter>,
    pub search_minbound_prunes: Arc<Counter>,
    pub search_corridor_kills: Arc<Counter>,
    pub search_heap_pushes: Arc<Counter>,

    // -- queries --
    pub queries_total: Arc<Counter>,
    pub query_latency_seconds: Arc<Histogram>,

    // -- degradation ladder --
    pub ladder_exact: Arc<Counter>,
    pub ladder_approximate: Arc<Counter>,
    pub ladder_budget_exhausted: Arc<Counter>,
    pub ladder_panicked: Arc<Counter>,
    pub ladder_invalid: Arc<Counter>,

    // -- live index lifecycle --
    pub live_epoch: Arc<Gauge>,
    pub live_updates_total: Arc<Counter>,
    pub live_rollbacks_total: Arc<Counter>,
    pub live_update_seconds: Arc<Histogram>,

    // -- snapshots --
    pub snapshot_save_seconds: Arc<Histogram>,
    pub snapshot_load_seconds: Arc<Histogram>,

    // -- serving front-end (td-server) --
    pub server_admitted_total: Arc<Counter>,
    pub server_shed_expired_total: Arc<Counter>,
    pub server_batches_total: Arc<Counter>,
    pub server_batch_size: Arc<Histogram>,
    pub server_request_seconds: Arc<Histogram>,
    pub server_queue_depth: Arc<Gauge>,
    pub server_overload_state: Arc<Gauge>,
    pub server_retries_total: Arc<Counter>,
    pub server_lock_recoveries_total: Arc<Counter>,
    pub server_update_applied_total: Arc<Counter>,
    pub server_update_retries_total: Arc<Counter>,
    pub server_update_shed_total: Arc<Counter>,
}

const LADDER: &str = "td_ladder_outcomes_total";
const LADDER_HELP: &str = "Degradation-ladder outcomes of bounded queries";
const PHASE: &str = "td_phase_seconds";
const PHASE_HELP: &str = "Wall time of coarse build/customization/load phases";
const FALLBACK: &str = "td_snapshot_fallback_total";
const FALLBACK_HELP: &str =
    "Snapshot loads served from the .tdx.prev generation, by primary-load error";
const REJECTED: &str = "td_server_rejected_total";
const REJECTED_HELP: &str = "Requests refused at admission, by typed reason";

impl Metrics {
    fn new() -> Metrics {
        let r = Registry::new();
        let m = Metrics {
            search_settled: r.counter(
                "td_search_settled_total",
                "Vertices settled by search loops",
            ),
            search_relaxed: r.counter(
                "td_search_relaxed_total",
                "Edge relaxations attempted by search loops",
            ),
            search_plf_evals_scalar: r.counter(
                "td_search_plf_evals_scalar_total",
                "PLF evaluations through the scalar path",
            ),
            search_plf_evals_batched: r.counter(
                "td_search_plf_evals_batched_total",
                "PLF evaluations through the batched eval_ids_at kernel",
            ),
            search_minbound_prunes: r.counter(
                "td_search_minbound_prunes_total",
                "Arcs skipped by min-cost / potential lower-bound pruning",
            ),
            search_corridor_kills: r.counter(
                "td_search_corridor_kills_total",
                "Profile labels skipped by the corridor filter",
            ),
            search_heap_pushes: r.counter(
                "td_search_heap_pushes_total",
                "Heap pushes (successful label improvements)",
            ),
            queries_total: r.counter(
                "td_queries_total",
                "Queries answered through the query APIs",
            ),
            query_latency_seconds: r
                .histogram_seconds("td_query_latency_seconds", "End-to-end per-query wall time"),
            ladder_exact: r.counter_with(LADDER, LADDER_HELP, "outcome", "exact"),
            ladder_approximate: r.counter_with(LADDER, LADDER_HELP, "outcome", "approximate"),
            ladder_budget_exhausted: r.counter_with(
                LADDER,
                LADDER_HELP,
                "outcome",
                "budget_exhausted",
            ),
            ladder_panicked: r.counter_with(LADDER, LADDER_HELP, "outcome", "panicked"),
            ladder_invalid: r.counter_with(LADDER, LADDER_HELP, "outcome", "invalid"),
            live_epoch: r.gauge("td_live_epoch", "Epoch of the most recent LiveIndex update"),
            live_updates_total: r.counter(
                "td_live_updates_total",
                "LiveIndex updates applied successfully",
            ),
            live_rollbacks_total: r.counter(
                "td_live_rollbacks_total",
                "LiveIndex updates discarded after a panic (published snapshot kept)",
            ),
            live_update_seconds: r.histogram_seconds(
                "td_live_update_seconds",
                "Wall time of LiveIndex try_apply (clone + repair + publish)",
            ),
            snapshot_save_seconds: r.histogram_seconds(
                "td_snapshot_save_seconds",
                "Wall time of crash-consistent snapshot saves",
            ),
            snapshot_load_seconds: r.histogram_seconds(
                "td_snapshot_load_seconds",
                "Wall time of snapshot loads (including fallback probing)",
            ),
            server_admitted_total: r.counter(
                "td_server_admitted_total",
                "Requests accepted into the admission queue",
            ),
            server_shed_expired_total: r.counter(
                "td_server_shed_expired_total",
                "Admitted requests shed before dispatch because their deadline expired",
            ),
            server_batches_total: r.counter(
                "td_server_batches_total",
                "Batches served (one per serving-worker grab from the queue)",
            ),
            server_batch_size: r.histogram(
                "td_server_batch_size",
                "Requests per serving-worker grab (raw counts)",
            ),
            server_request_seconds: r.histogram_seconds(
                "td_server_request_seconds",
                "Admission-to-terminal-reply wall time of accepted requests",
            ),
            server_queue_depth: r.gauge(
                "td_server_queue_depth",
                "Current depth of the admission queue",
            ),
            server_overload_state: r.gauge(
                "td_server_overload_state",
                "Overload controller state (0 normal, 1 degraded, 2 shedding)",
            ),
            server_retries_total: r.counter(
                "td_server_retries_total",
                "Panicked slots re-enqueued for their single bounded retry",
            ),
            server_lock_recoveries_total: r.counter(
                "td_server_lock_recoveries_total",
                "Serving-path mutexes recovered from poisoning",
            ),
            server_update_applied_total: r.counter(
                "td_server_update_applied_total",
                "Live-update batches applied by the supervised update lane",
            ),
            server_update_retries_total: r.counter(
                "td_server_update_retries_total",
                "Live-update batches retried after rollback",
            ),
            server_update_shed_total: r.counter(
                "td_server_update_shed_total",
                "Live-update batches shed (queue full, stuck lane, or terminal failure)",
            ),
            registry: Registry::new(), // placeholder, replaced below
        };
        // Labeled families whose children attach lazily: declare them so the
        // scrape's name set does not depend on which paths (or errors) ran.
        r.declare(PHASE, PHASE_HELP, true, "phase");
        r.declare(FALLBACK, FALLBACK_HELP, false, "error");
        r.declare(REJECTED, REJECTED_HELP, false, "reason");
        Metrics { registry: r, ..m }
    }

    /// The `.tdx.prev` fallback counter child for one `StoreError` variant
    /// (the error that made the primary generation unloadable). Cold path:
    /// takes the registry lock on first use per label.
    pub fn snapshot_fallback(&self, error: &str) -> Arc<Counter> {
        self.registry
            .counter_with(FALLBACK, FALLBACK_HELP, "error", error)
    }

    /// The admission-rejection counter child for one typed reason. Cold on
    /// first use per label; servers cache the handles they need.
    pub fn server_rejected(&self, reason: &str) -> Arc<Counter> {
        self.registry
            .counter_with(REJECTED, REJECTED_HELP, "reason", reason)
    }

    /// Exports one query's search counters onto the worker's shard.
    #[inline]
    pub fn record_search(&self, shard: usize, st: &SearchStats) {
        self.search_settled.add_shard(shard, st.settled);
        self.search_relaxed.add_shard(shard, st.relaxed);
        self.search_plf_evals_scalar
            .add_shard(shard, st.plf_evals_scalar);
        self.search_plf_evals_batched
            .add_shard(shard, st.plf_evals_batched);
        self.search_minbound_prunes
            .add_shard(shard, st.minbound_prunes);
        self.search_corridor_kills
            .add_shard(shard, st.corridor_kills);
        self.search_heap_pushes.add_shard(shard, st.heap_pushes);
    }

    /// Exports one query's full trace (latency + search counters) onto the
    /// worker's shard.
    #[inline]
    pub fn record_query(&self, shard: usize, trace: &QueryTrace) {
        self.queries_total.add_shard(shard, 1);
        self.query_latency_seconds.observe_shard(shard, trace.nanos);
        self.record_search(shard, &trace.stats);
    }
}

/// The process-wide catalog. First call registers every family; later calls
/// are a single atomic load.
pub fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(Metrics::new)
}

/// Starts an RAII span that records into the labeled
/// `td_phase_seconds{phase="<name>"}` histogram on drop.
///
/// Cold paths only (build, customize, snapshot I/O): the first call per
/// label takes the registry lock to create the child.
pub fn phase(name: &'static str) -> PhaseTimer {
    let m = metrics();
    PhaseTimer::observing(
        m.registry
            .histogram_seconds_with(PHASE, PHASE_HELP, "phase", name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_every_family_up_front() {
        let text = metrics().registry.render_prometheus();
        for name in [
            "td_search_settled_total",
            "td_search_relaxed_total",
            "td_search_plf_evals_scalar_total",
            "td_search_plf_evals_batched_total",
            "td_search_minbound_prunes_total",
            "td_search_corridor_kills_total",
            "td_search_heap_pushes_total",
            "td_queries_total",
            "td_query_latency_seconds",
            "td_ladder_outcomes_total",
            "td_live_epoch",
            "td_live_updates_total",
            "td_live_rollbacks_total",
            "td_live_update_seconds",
            "td_snapshot_save_seconds",
            "td_snapshot_load_seconds",
            "td_snapshot_fallback_total",
            "td_phase_seconds",
            "td_server_admitted_total",
            "td_server_rejected_total",
            "td_server_shed_expired_total",
            "td_server_batches_total",
            "td_server_batch_size",
            "td_server_request_seconds",
            "td_server_queue_depth",
            "td_server_overload_state",
            "td_server_retries_total",
            "td_server_lock_recoveries_total",
            "td_server_update_applied_total",
            "td_server_update_retries_total",
            "td_server_update_shed_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "family {name} missing from scrape"
            );
        }
    }

    #[test]
    fn phase_span_attaches_a_labeled_child() {
        {
            let _t = phase("unit_test_phase");
        }
        let text = metrics().registry.render_prometheus();
        assert!(text.contains("td_phase_seconds_count{phase=\"unit_test_phase\"} "));
    }

    #[test]
    fn record_query_feeds_counters_and_latency() {
        let m = metrics();
        let before = m.queries_total.get();
        let trace = QueryTrace {
            stats: SearchStats {
                settled: 5,
                ..SearchStats::default()
            },
            nanos: 1_000,
        };
        m.record_query(7, &trace);
        assert_eq!(m.queries_total.get(), before + 1);
        assert!(m.search_settled.get() >= 5);
        assert!(m.query_latency_seconds.snapshot().count() >= 1);
    }
}
