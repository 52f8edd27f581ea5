//! Fault-injection soak gate for the serving front-end.
//!
//! Runs the time-boxed soak harness three times on the same network —
//! fault-free (the baseline), under the full [`FaultPlan`] (1% injected
//! worker panics, periodic lock poisoning, slow consumers, live-update
//! storms with invalid batches, deadline storms), and under the full plan
//! without its deadline storm — and checks the robustness claims:
//!
//! * **exactly-once**: every admitted request got one terminal reply; no
//!   duplicates; no hung client — under every run.
//! * **typed rejection latency** and **accepted-request p99 bound**:
//!   rejections stay O(µs)-grade and the faulted p99 stays within a fixed
//!   multiple of the fault-free baseline, floored against 1-core CI noise.
//! * **where approximate answers come from**: the storm's 200 µs client
//!   deadlines. Without them the overload controller, which reads queue
//!   fill alone, never leaves Normal at this load, so every answer of the
//!   third run is exact.
//!
//! Every miss is fatal.

use std::time::Duration;

use td_api::AStarChIndex;
use td_gen::Dataset;
use td_server::{run_soak, FaultPlan, ServerConfig, SoakConfig, SoakReport};

/// Accepted-request p99 may not exceed `baseline p99 × 10` (with the
/// baseline floored at 2 ms so a microsecond-fast baseline on a tiny
/// network cannot make the multiple unsatisfiable on a noisy shared core).
const P99_MULTIPLE: f64 = 10.0;
const P99_FLOOR_NANOS: u64 = 2_000_000;

/// A rejected submit must return in well under this (generous for a debug
/// CI box; the real path is two atomic loads and a refused queue push).
const REJECT_P99_CAP_NANOS: u64 = 10_000_000;

fn report(tag: &str, r: &SoakReport) {
    let s = &r.stats;
    println!(
        "{tag}: admitted {} rejected {} replied {} dup {} | exact {} approx {} failed {} \
         | shed_expired {} retries {} batches {} | updates applied {} retried {} shed {} \
         | p99 {:.3} ms, reject p99 {:.3} ms, hung {}",
        s.admitted,
        s.rejected,
        s.replied,
        s.duplicates,
        s.exact,
        s.approximate,
        s.failed,
        s.shed_expired,
        s.retries,
        s.batches,
        s.updates_applied,
        s.update_retries,
        s.updates_shed,
        r.p99_nanos as f64 / 1e6,
        r.reject_p99_nanos as f64 / 1e6,
        r.hung,
    );
}

/// Seed of the fault plans' pseudo-random decisions.
const FAULT_SEED: u64 = 0x7d5e_ed01;

/// One soak under `plan`, each on a freshly built copy of the same network,
/// printed and held to exactly-once with some load generated.
fn soak(tag: &str, plan: FaultPlan) -> SoakReport {
    let r = run_soak(
        AStarChIndex::new(Dataset::Cal.spec().build_scaled(1, 1.0, 42)),
        ServerConfig::default(),
        &SoakConfig {
            duration: Duration::from_millis(1500),
            clients: 4,
            burst: 16,
            plan,
            ..SoakConfig::default()
        },
    );
    report(tag, &r);
    assert!(
        r.exactly_once(),
        "{tag} soak broke exactly-once (or hung): {r:?}"
    );
    assert!(r.stats.admitted > 0, "{tag} soak generated no load");
    r
}

fn main() {
    let baseline = soak("baseline", FaultPlan::none());

    let faulted = soak("full-plan", FaultPlan::full(FAULT_SEED));
    assert!(
        faulted.rejected_observed > 0,
        "full plan produced no typed rejections — the deadline storm never bit"
    );
    assert!(
        faulted.stats.updates_applied > 0,
        "update storm applied nothing — the live lane never ran"
    );

    assert!(
        faulted.reject_p99_nanos <= REJECT_P99_CAP_NANOS,
        "rejected submits took p99 {:.3} ms (cap {:.3} ms)",
        faulted.reject_p99_nanos as f64 / 1e6,
        REJECT_P99_CAP_NANOS as f64 / 1e6,
    );
    let bound = (baseline.p99_nanos.max(P99_FLOOR_NANOS) as f64 * P99_MULTIPLE) as u64;
    assert!(
        faulted.p99_nanos <= bound,
        "faulted accepted-request p99 {:.3} ms exceeds {}x baseline bound {:.3} ms",
        faulted.p99_nanos as f64 / 1e6,
        P99_MULTIPLE,
        bound as f64 / 1e6,
    );

    let calm = soak(
        "no-deadline-storm",
        FaultPlan {
            deadline_storm: false,
            ..FaultPlan::full(FAULT_SEED)
        },
    );
    assert_eq!(
        calm.stats.approximate, 0,
        "approximate answers without the deadline storm: {calm:?}"
    );

    println!(
        "soak gate: ok (p99 {:.3} ms <= bound {:.3} ms)",
        faulted.p99_nanos as f64 / 1e6,
        bound as f64 / 1e6
    );
}
