//! The time-boxed fault-injection soak harness.
//!
//! [`run_soak`] wraps a real index in a [`HostileIndex`], stands up a
//! [`TdServer`] in front of it, and drives the whole [`FaultPlan`] at once:
//! client bursts (some with storm deadlines), slow consumers, periodic lock
//! poisoning, and live-update storms that include invalid batches. The
//! [`SoakReport`] carries everything the robustness claims need:
//!
//! * **exactly-once** — every admitted request got one terminal reply, no
//!   duplicates, kinds sum to replies;
//! * **no deadlocks** — all client threads finished inside the time box
//!   (`hung` stays false);
//! * **bounded tail** — the accepted-request p99, to compare against a
//!   fault-free baseline run of the same harness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use td_api::{IncrementalIndex, LiveIndex, RoutingIndex};
use td_graph::VertexId;
use td_plf::Plf;

use crate::config::ServerConfig;
use crate::fault::{splitmix64, FaultPlan, HostileIndex};
use crate::server::{ServerStats, TdServer};

/// Soak shape: how much load, for how long, under which [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Load-generation time box.
    pub duration: Duration,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client burst (clients submit a burst, then collect all
    /// its replies).
    pub burst: usize,
    /// Client deadline outside storm windows.
    pub client_deadline: Duration,
    /// The faults to inject.
    pub plan: FaultPlan,
    /// Seed for client traffic (independent of the plan's fault seed).
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            duration: Duration::from_millis(1500),
            clients: 4,
            burst: 32,
            client_deadline: Duration::from_millis(250),
            plan: FaultPlan::none(),
            seed: 0x736f_616b, // "soak"
        }
    }
}

/// What a soak run observed. All counter fields come from the server's own
/// accounting; `hung` and the client-side fields come from the harness.
#[derive(Clone, Copy, Debug)]
pub struct SoakReport {
    /// Final server counters.
    pub stats: ServerStats,
    /// Typed rejections observed by clients (submit returned `Err`).
    pub rejected_observed: u64,
    /// p99 of the time a *rejected* submit took, nanoseconds — the "typed
    /// rejection in O(µs)" claim.
    pub reject_p99_nanos: u64,
    /// p99 admission→reply latency of accepted requests, nanoseconds.
    pub p99_nanos: u64,
    /// True when any client thread failed to finish inside the grace
    /// window, or shutdown wedged — i.e. a deadlock or a lost reply.
    pub hung: bool,
}

impl SoakReport {
    /// The exactly-once invariant: no hang, no duplicate replies, every
    /// admitted request replied, and the reply kinds account for all of
    /// them.
    pub fn exactly_once(&self) -> bool {
        !self.hung
            && self.stats.duplicates == 0
            && self.stats.replied == self.stats.admitted
            && self.stats.exact + self.stats.approximate + self.stats.failed == self.stats.replied
    }
}

/// How long after the time box the harness waits for threads before
/// declaring the run hung. Generous: a 1-core CI box draining a full queue
/// of uncapped queries needs real time, and a false "hang" is worse than a
/// slow pass.
const GRACE: Duration = Duration::from_secs(30);

/// How long each client waits on one reply before declaring a hang. An
/// admitted request's reply can only be missing if a serving worker died.
const REPLY_PATIENCE: Duration = Duration::from_secs(10);

/// Runs the full soak against a live (incrementally updatable) index: the
/// update-storm lane is exercised end to end through `LiveIndex::try_apply`.
pub fn run_soak<I>(index: I, server_cfg: ServerConfig, cfg: &SoakConfig) -> SoakReport
where
    I: IncrementalIndex + Clone + 'static,
{
    let (num_vertices, edges, non_edge) = graph_shape(&index);
    let hostile = HostileIndex::new(index, &cfg.plan);
    let server = TdServer::serve_live(Arc::new(LiveIndex::new(hostile)), server_cfg);
    drive(server, num_vertices, edges, non_edge, cfg)
}

/// Runs the soak against a fixed index (no update lane; update storms, if
/// planned, exercise the typed `LaneUnavailable` shed path instead). This is
/// the entry `tdx serve` uses for snapshot-loaded `Box<dyn RoutingIndex>`
/// backends.
pub fn run_soak_fixed<I>(index: I, server_cfg: ServerConfig, cfg: &SoakConfig) -> SoakReport
where
    I: RoutingIndex + 'static,
{
    let (num_vertices, edges, non_edge) = graph_shape(&index);
    let hostile = HostileIndex::new(index, &cfg.plan);
    let server = TdServer::serve(hostile, server_cfg);
    drive(server, num_vertices, edges, non_edge, cfg)
}

/// Real edge endpoints (for valid update batches) and one absent pair (for
/// invalid ones that must roll back).
type GraphShape = (
    usize,
    Vec<(VertexId, VertexId)>,
    Option<(VertexId, VertexId)>,
);

fn graph_shape<I: RoutingIndex>(index: &I) -> GraphShape {
    let g = index.graph();
    let n = g.num_vertices();
    let edges: Vec<(VertexId, VertexId)> = g.edges().iter().map(|e| (e.from, e.to)).collect();
    let non_edge = (0..n as VertexId)
        .flat_map(|u| (0..n as VertexId).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !edges.contains(&(u, v)));
    (n, edges, non_edge)
}

fn storm_window(elapsed: Duration) -> bool {
    // A 150 ms deadline storm every 450 ms of the run (phase 1, so even the
    // shortest soak crosses at least one storm and one calm window).
    (elapsed.as_millis() / 150) % 3 == 1
}

fn drive<I: RoutingIndex + 'static>(
    server: TdServer<I>,
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    non_edge: Option<(VertexId, VertexId)>,
    cfg: &SoakConfig,
) -> SoakReport {
    // Injected panics are the workload here, not news.
    let _quiet = crate::fault::silence_contained_panics();
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let hung = Arc::new(AtomicBool::new(false));
    let reject_lat = Arc::new(td_obs::Histogram::new());
    let rejected_observed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let start = Instant::now();
    let n = num_vertices.max(1) as u64;
    let plan = cfg.plan;

    let mut clients = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let hung = Arc::clone(&hung);
        let reject_lat = Arc::clone(&reject_lat);
        let rejected_observed = Arc::clone(&rejected_observed);
        let cfg = *cfg;
        clients.push(std::thread::spawn(move || {
            let mut x = splitmix64(cfg.seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
            let slow = plan.slow_consumers && c == 0;
            loop {
                let elapsed = start.elapsed();
                if elapsed >= cfg.duration || stop.load(Ordering::Relaxed) {
                    return;
                }
                let storm = plan.deadline_storm && storm_window(elapsed);
                let mut handles = Vec::with_capacity(cfg.burst);
                for _ in 0..cfg.burst {
                    x = splitmix64(x);
                    let s = (x % n) as VertexId;
                    let d = ((x >> 17) % n) as VertexId;
                    let t = ((x >> 34) % 97) as f64;
                    let now = Instant::now();
                    let deadline = if storm {
                        // Half the storm's deadlines are already expired at
                        // submission; the rest are near-impossible.
                        if x & 1 == 0 {
                            now.checked_sub(Duration::from_millis(1))
                        } else {
                            Some(now + Duration::from_micros(200))
                        }
                    } else {
                        Some(now + cfg.client_deadline)
                    };
                    let t0 = Instant::now();
                    match server.submit(s, d, t, deadline) {
                        Ok(h) => handles.push(h),
                        Err(_) => {
                            rejected_observed.fetch_add(1, Ordering::Relaxed);
                            reject_lat
                                .observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        }
                    }
                }
                if slow {
                    // A stalled consumer: replies pile up in their slots;
                    // the serving workers must not care.
                    std::thread::sleep(Duration::from_millis(10));
                }
                for h in handles {
                    if h.wait_timeout(REPLY_PATIENCE).is_none() {
                        hung.store(true, Ordering::Relaxed);
                        stop.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }));
    }

    let mut aux = Vec::new();
    if plan.update_storm && !edges.is_empty() {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let seed = cfg.seed;
        let duration = cfg.duration;
        aux.push(std::thread::spawn(move || {
            let mut x = splitmix64(seed ^ 0xab5e_77e0);
            while start.elapsed() < duration && !stop.load(Ordering::Relaxed) {
                for k in 0..8u32 {
                    x = splitmix64(x);
                    let batch = if k % 4 == 3 {
                        match non_edge {
                            // An invalid batch: must roll back, and must
                            // not take the lane down.
                            Some((u, v)) => vec![(u, v, Plf::constant(30.0))],
                            None => continue,
                        }
                    } else {
                        let (u, v) = edges[(x % edges.len() as u64) as usize];
                        vec![(u, v, Plf::constant(30.0 + (x % 90) as f64))]
                    };
                    // Typed sheds (full/stuck lane) are expected under storm.
                    let _ = server.submit_update(batch);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }
    if plan.poison_locks {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let duration = cfg.duration;
        aux.push(std::thread::spawn(move || {
            while start.elapsed() < duration && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
                server.inject_lock_poison();
            }
        }));
    }

    // Time-boxed join: a client that cannot finish is the deadlock the
    // harness exists to catch — flag it and leak the thread rather than
    // hang the suite.
    let deadline = start + cfg.duration + GRACE;
    for t in clients {
        if !join_until(t, deadline) {
            hung.store(true, Ordering::Relaxed);
            stop.store(true, Ordering::Relaxed);
        }
    }
    for t in aux {
        if !join_until(t, deadline) {
            hung.store(true, Ordering::Relaxed);
        }
    }

    // Clients collected every reply before exiting, so the latency
    // histogram is complete here even though shutdown hasn't run yet.
    let p99_nanos = server.latency_snapshot().quantile(0.99);
    let mut report = SoakReport {
        stats: server.stats(),
        rejected_observed: rejected_observed.load(Ordering::Relaxed),
        reject_p99_nanos: reject_lat.snapshot().quantile(0.99),
        p99_nanos,
        hung: hung.load(Ordering::Relaxed),
    };
    if report.hung {
        // Leaked threads still hold the server Arc; skip shutdown.
        return report;
    }
    let server = match Arc::try_unwrap(server) {
        Ok(s) => s,
        Err(_) => {
            report.hung = true;
            return report;
        }
    };
    // Shutdown itself is time-boxed too: a wedged drain is a hang.
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let closer = std::thread::spawn(move || {
        let stats = server.shutdown();
        *out2.lock().unwrap_or_else(|p| p.into_inner()) = Some(stats);
    });
    if join_until(closer, Instant::now() + GRACE) {
        if let Some(stats) = *out.lock().unwrap_or_else(|p| p.into_inner()) {
            report.stats = stats;
        }
    } else {
        report.hung = true;
    }
    report
}

/// Polls a join handle until `deadline`; true = joined.
fn join_until(handle: std::thread::JoinHandle<()>, deadline: Instant) -> bool {
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // A client that panicked never collected its replies: treat as hung.
    handle.join().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_api::AStarChIndex;
    use td_graph::TdGraph;

    fn grid(side: u32) -> TdGraph {
        let n = side * side;
        let mut g = TdGraph::with_vertices(n as usize);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    g.add_edge(v, v + 1, Plf::constant(10.0 + ((v * 7) % 13) as f64))
                        .unwrap();
                    g.add_edge(v + 1, v, Plf::constant(10.0 + ((v * 11) % 17) as f64))
                        .unwrap();
                }
                if r + 1 < side {
                    g.add_edge(v, v + side, Plf::constant(10.0 + ((v * 3) % 19) as f64))
                        .unwrap();
                    g.add_edge(v + side, v, Plf::constant(10.0 + ((v * 5) % 23) as f64))
                        .unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn clean_soak_is_exactly_once() {
        let cfg = SoakConfig {
            duration: Duration::from_millis(300),
            clients: 2,
            burst: 8,
            ..SoakConfig::default()
        };
        let report = run_soak(AStarChIndex::new(grid(4)), ServerConfig::default(), &cfg);
        assert!(report.exactly_once(), "clean soak violated: {report:?}");
        assert!(report.stats.admitted > 0, "no load generated");
        assert_eq!(report.stats.retries, 0);
    }

    #[test]
    fn full_fault_plan_soak_holds_the_invariants() {
        let cfg = SoakConfig {
            duration: Duration::from_millis(600),
            clients: 3,
            burst: 8,
            plan: FaultPlan::full(0xdead_beef),
            ..SoakConfig::default()
        };
        let report = run_soak(AStarChIndex::new(grid(4)), ServerConfig::default(), &cfg);
        assert!(report.exactly_once(), "faulted soak violated: {report:?}");
        assert!(report.stats.admitted > 0, "no load generated");
        // The deadline storm produced typed rejections and they were fast.
        assert!(report.rejected_observed > 0, "storm produced no rejections");
    }

    #[test]
    fn fixed_soak_sheds_updates_typed() {
        let mut plan = FaultPlan::none();
        plan.update_storm = true;
        let cfg = SoakConfig {
            duration: Duration::from_millis(200),
            clients: 1,
            burst: 4,
            plan,
            ..SoakConfig::default()
        };
        let report = run_soak_fixed(AStarChIndex::new(grid(3)), ServerConfig::default(), &cfg);
        assert!(report.exactly_once(), "fixed soak violated: {report:?}");
        // No lane on a fixed server: every storm batch shed typed.
        assert_eq!(report.stats.updates_applied, 0);
        assert!(report.stats.updates_shed > 0);
    }
}
