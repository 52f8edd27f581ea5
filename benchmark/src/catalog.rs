//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `../BENCHMARK.json` is
//! `td-benchmark manifest` written to a file, and a test keeps the two equal.

use crate::adapter::BackendKind;
use crate::json::Json;

/// Seconds of timed window per run (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse? Negative = better.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let delta = match self {
            Better::Lower => new - base,
            Better::Higher => base - new,
        };
        if base == 0.0 {
            0.0
        } else {
            delta / base.abs()
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "tree_cost",
        why: "TD-appro travel-cost queries, 1 thread closed loop: td-core label sweeps and frozen PLF eval do all the work; a search-loop, executor or server change must not move it",
    },
    WorkloadSpec {
        name: "tree_profile",
        why: "TD-appro cost-function queries on the same index: td-core again, but through allocating Plf compound/minimum, so a PLF-kernel gain that costs the other use shows",
    },
    WorkloadSpec {
        name: "search_batch",
        why: "TD-A*-CH: td-dijkstra A* loop, td-ch potentials, batched PLF eval, then the td-api executor fan-out at 2 workers; td-core and td-server do nothing here",
    },
    WorkloadSpec {
        name: "serve_live",
        why: "TdServer over LiveIndex<TD-appro>: closed-loop saturation, then open loop at 2k req/s timed from each request's due time; td-server and td-api are ~99% of a request, the index ~1%",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload's untraced run. A bound is about three times
/// the widest inter-quartile spread any workload showed for that metric over
/// ten seeds on the sizing box, capped at the contract's 0.25 (README,
/// "Bounds").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit-for-bit for a given seed.
    pub exact: bool,
}

/// Rate ladder of the serving probe, requests per second.
pub const LADDER: [(f64, &str); 6] = [
    (3e3, "r3k"),
    (6e3, "r6k"),
    (12e3, "r12k"),
    (24e3, "r24k"),
    (48e3, "r48k"),
    (96e3, "r96k"),
];

/// Reported by every workload's traced run, layer by layer (the prefix is
/// the crate name).
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, exact: bool| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            exact,
        })
    };
    add("td-gen.graph_s", "s", Lower, false);

    add("td-plf.eval_ns", "ns", Lower, false);
    add("td-plf.eval_times_into_ns", "ns", Lower, false);
    add("td-plf.eval_ids_at_ns", "ns", Lower, false);
    add("td-plf.compound_us", "us", Lower, false);
    add("td-plf.minimum_us", "us", Lower, false);
    add("td-plf.compound_out_points", "count", Lower, true);
    add("td-plf.simplify_us", "us", Lower, false);

    add("td-dijkstra.scalar_us", "us", Lower, false);
    add("td-dijkstra.scalar_ns_per_settle", "ns", Lower, false);
    add("td-dijkstra.astar_ns_per_settle", "ns", Lower, false);
    add("td-dijkstra.astar_settled_per_query", "count", Lower, true);
    add("td-dijkstra.astar_relaxed_per_query", "count", Lower, true);
    add(
        "td-dijkstra.astar_plf_evals_per_query",
        "count",
        Lower,
        true,
    );
    add("td-dijkstra.astar_prune_share", "ratio", Higher, true);
    add("td-dijkstra.astar_us.rank_lo", "us", Lower, false);
    add("td-dijkstra.astar_us.rank_mid", "us", Lower, false);
    add("td-dijkstra.astar_us.rank_hi", "us", Lower, false);
    add("td-dijkstra.profile_ms", "ms", Lower, false);

    add("td-ch.build_s", "s", Lower, false);
    add("td-ch.update_ms", "ms", Lower, false);

    add("td-treedec.build_s", "s", Lower, false);
    add("td-treedec.height", "count", Lower, true);
    add("td-treedec.width", "count", Lower, true);

    add("td-core.decompose_s", "s", Lower, false);
    add("td-core.weigh_s", "s", Lower, false);
    add("td-core.select_s", "s", Lower, false);
    add("td-core.shortcut_build_s", "s", Lower, false);
    add("td-core.selected_pairs", "count", Higher, true);
    add("td-core.cost_us", "us", Lower, false);
    add("td-core.profile_us", "us", Lower, false);
    add("td-core.update_edges_ms_p50", "ms", Lower, false);
    add("td-core.update_rebuilt_nodes", "count", Lower, true);

    add("td-api.session_us", "us", Lower, false);
    add("td-api.batch_us_per_query.w1", "us", Lower, false);
    add("td-api.batch_us_per_query.w2", "us", Lower, false);
    add("td-api.batch64_us_per_query.w2", "us", Lower, false);
    add("td-api.executor_overhead_us", "us", Lower, false);
    add("td-api.scaling_w2", "ratio", Higher, false);
    add("td-api.live_snapshot_ns", "ns", Lower, false);
    add("td-api.batch64_self_us_p50", "us", Lower, false);
    add("td-api.session_self_us_p50", "us", Lower, false);

    add("td-server.submit_ns_p50", "ns", Lower, false);
    add("td-server.reply_wait_us_p50", "us", Lower, false);
    add("td-server.mean_batch_size.r_ref", "count", Higher, false);
    add("td-server.mean_batch_size.sat", "count", Higher, false);
    add("td-server.rejected_share.r48k", "ratio", Lower, false);
    add("td-server.reject_ns_p50", "ns", Lower, false);
    add("td-server.approximate_share", "ratio", Lower, false);
    add("td-server.overhead_us_p50", "us", Lower, false);
    for (_, label) in LADDER {
        add(
            &format!("td-server.latency_p99_us.{label}"),
            "us",
            Lower,
            false,
        );
    }
    add("td-server.max_rate_in_slo_qps", "req/s", Higher, false);
    add("td-server.write_phase_latency_p50_us", "us", Lower, false);
    add("td-server.write_phase_latency_p99_us", "us", Lower, false);
    add("td-server.update_total_s", "s", Lower, false);
    add("td-server.updates_shed", "count", Lower, false);
    add("td-server.generator_lag_us_p99", "us", Lower, false);

    add("td-store.save_s", "s", Lower, false);
    add("td-store.load_s", "s", Lower, false);
    add("td-store.snapshot_bytes", "B", Lower, true);

    for kind in BackendKind::ALL {
        let b = kind.label();
        add(&format!("axes.{b}.cost_us"), "us", Lower, false);
        add(&format!("axes.{b}.profile_us"), "us", Lower, false);
        add(&format!("axes.{b}.build_s"), "s", Lower, false);
        add(&format!("axes.{b}.index_bytes"), "B", Lower, true);
    }
    add("axes.td-appro.update_ms", "ms", Lower, false);
    add("axes.td-astar-ch.update_ms", "ms", Lower, false);

    add("stack.td-server_us_p50", "us", Lower, false);
    add("stack.td-api-batch64_us_p50", "us", Lower, false);
    add("stack.td-api-session_us_p50", "us", Lower, false);

    add("bench.oracle_s", "s", Lower, false);
    add("bench.trace_overhead_pct", "%", Lower, false);
    add("bench.workload_hash", "count", Lower, true);
    add("bench.samples", "count", Higher, false);
    add("bench.failed_share", "ratio", Lower, false);
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(&m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalog_meets_the_contract_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in &layers {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest().to_pretty(),
            "regenerate with `td-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
