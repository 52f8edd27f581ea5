//! Fault injection for the serving path, in the style of
//! `td_store::fault`: deterministic, composable, and usable from benches
//! and tests alike.
//!
//! [`FaultPlan`] names the storm to run; [`HostileIndex`] wraps any real
//! index and panics on a seeded pseudo-random fraction of queries, so the
//! containment, retry, and scratch-replacement machinery is exercised under
//! load rather than trusted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use td_api::{
    BoundedAnswer, IncrementalIndex, IndexStats, QueryError, RoutingIndex, SessionScratch,
};
use td_core::UpdateStats;
use td_dijkstra::QueryBudget;
use td_graph::{Path, TdGraph, VertexId};
use td_obs::{QueryTrace, SearchStats};
use td_plf::Plf;

/// The panic message every injected fault carries, so tests can tell
/// injected failures from real bugs.
pub const INJECTED_PANIC: &str = "injected fault: hostile index panic";

/// How many [`PanicSilence`] guards are live (see below).
static SILENCED: AtomicU64 = AtomicU64::new(0);
static SILENCE_HOOK: std::sync::Once = std::sync::Once::new();

/// Scoped suppression of panic-hook output.
///
/// A chaos run *contains* thousands of injected panics by design; letting
/// each one print a backtrace buries real failures in noise. While any
/// guard is live the process's panic hook stays quiet — real bugs still
/// propagate through `catch_unwind` and surface as assertion failures or
/// typed error replies, they just don't narrate. Output returns to normal
/// when the last guard drops.
pub struct PanicSilence(());

impl Drop for PanicSilence {
    fn drop(&mut self) {
        SILENCED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Installs (once) a panic hook that defers to the default one only when no
/// [`PanicSilence`] guard is live, and returns a new guard.
pub fn silence_contained_panics() -> PanicSilence {
    SILENCE_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCED.load(Ordering::Relaxed) == 0 {
                prev(info);
            }
        }));
    });
    SILENCED.fetch_add(1, Ordering::Relaxed);
    PanicSilence(())
}

/// SplitMix64: the workspace's standard cheap deterministic mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Which faults a chaos run injects. All deterministic given `seed`.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for every pseudo-random decision in the plan.
    pub seed: u64,
    /// Worker panic injection rate, per million queries (10_000 = 1%).
    pub panic_per_million: u32,
    /// When true, each afflicted query signature panics only the *first*
    /// time it is dispatched, so the single bounded retry succeeds. When
    /// false, panics are persistent — the retry fails too and the client
    /// gets the typed `Panicked` reply (the bit-identity soak needs this).
    pub transient_panics: bool,
    /// Periodically poison serving-path mutexes mid-run.
    pub poison_locks: bool,
    /// Some clients stall before collecting replies (reply slots must
    /// never backpressure the serving workers).
    pub slow_consumers: bool,
    /// Bursts of live-update batches, including invalid ones that roll
    /// back, racing the query path.
    pub update_storm: bool,
    /// Windows in which clients submit with near-zero (some already
    /// expired) deadlines.
    pub deadline_storm: bool,
}

impl FaultPlan {
    /// No faults at all — the baseline the chaos runs are compared against.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            panic_per_million: 0,
            transient_panics: true,
            poison_locks: false,
            slow_consumers: false,
            update_storm: false,
            deadline_storm: false,
        }
    }

    /// Everything at once: 1% transient worker panics, poisoned locks,
    /// slow consumers, update storms, deadline storms.
    pub fn full(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_per_million: 10_000,
            transient_panics: true,
            poison_locks: true,
            slow_consumers: true,
            update_storm: true,
            deadline_storm: true,
        }
    }
}

/// Bitmap size (in `u64` words) of the transient-panic filter: 4096 bits.
const FILTER_WORDS: usize = 64;

/// A [`RoutingIndex`] adapter that panics on a deterministic pseudo-random
/// fraction of queries and delegates everything else to the wrapped index.
///
/// The decision depends only on `(seed, s, d, t)`, so a given query either
/// always faults or never does — which is what lets the panic-storm soak
/// assert that *non*-panicking slots stay bit-identical to a clean run. In
/// `transient` mode a 4096-bit filter (shared across clones, so every
/// epoch's copy inside a `LiveIndex` agrees) remembers signatures that
/// already fired, making the single bounded retry succeed.
pub struct HostileIndex<I> {
    inner: I,
    seed: u64,
    panic_per_million: u32,
    /// `Some` in transient mode: the shared already-fired filter.
    fired: Option<Arc<[AtomicU64; FILTER_WORDS]>>,
}

impl<I: Clone> Clone for HostileIndex<I> {
    fn clone(&self) -> HostileIndex<I> {
        HostileIndex {
            inner: self.inner.clone(),
            seed: self.seed,
            panic_per_million: self.panic_per_million,
            fired: self.fired.clone(),
        }
    }
}

impl<I> HostileIndex<I> {
    /// Wraps `inner` according to `plan` (its `panic_per_million`,
    /// `transient_panics`, and `seed` fields).
    pub fn new(inner: I, plan: &FaultPlan) -> HostileIndex<I> {
        HostileIndex {
            inner,
            seed: plan.seed,
            panic_per_million: plan.panic_per_million,
            fired: plan
                .transient_panics
                .then(|| Arc::new(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// True when the plan would fault this query (ignoring the transient
    /// filter) — lets tests predict exactly which slots panic.
    pub fn would_fault(&self, s: VertexId, d: VertexId, t: f64) -> bool {
        self.panic_per_million > 0
            && self.signature(s, d, t) % 1_000_000 < self.panic_per_million as u64
    }

    fn signature(&self, s: VertexId, d: VertexId, t: f64) -> u64 {
        splitmix64(self.seed ^ ((s as u64) << 32) ^ (d as u64) ^ t.to_bits().rotate_left(17))
    }

    fn maybe_panic(&self, s: VertexId, d: VertexId, t: f64) {
        if !self.would_fault(s, d, t) {
            return;
        }
        if let Some(filter) = &self.fired {
            let h = self.signature(s, d, t);
            let bit = (h >> 20) as usize % (FILTER_WORDS * 64);
            let mask = 1u64 << (bit % 64);
            let prev = filter[bit / 64].fetch_or(mask, Ordering::Relaxed);
            if prev & mask != 0 {
                return; // already fired once: the retry succeeds
            }
        }
        panic!("{INJECTED_PANIC}");
    }
}

impl<I: RoutingIndex> RoutingIndex for HostileIndex<I> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn graph(&self) -> &TdGraph {
        self.inner.graph()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn build_stats(&self) -> IndexStats {
        self.inner.build_stats()
    }
    fn new_scratch(&self) -> SessionScratch {
        self.inner.new_scratch()
    }
    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        self.maybe_panic(s, d, t);
        self.inner.query_cost_in(scratch, s, d, t)
    }
    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        self.inner.query_profile_in(scratch, s, d)
    }
    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        self.inner.query_path_in(scratch, s, d, t)
    }
    fn query_cost_bounded_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> Result<BoundedAnswer, QueryError> {
        self.maybe_panic(s, d, t);
        self.inner.query_cost_bounded_in(scratch, s, d, t, budget)
    }
    fn take_search_stats(&self, scratch: &mut SessionScratch) -> Option<SearchStats> {
        self.inner.take_search_stats(scratch)
    }
    fn query_cost_traced_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> (Option<f64>, QueryTrace) {
        self.maybe_panic(s, d, t);
        self.inner.query_cost_traced_in(scratch, s, d, t)
    }
}

impl<I: IncrementalIndex> IncrementalIndex for HostileIndex<I> {
    fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
        self.inner.update_edges(changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use td_api::AStarChIndex;

    fn tiny() -> TdGraph {
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(10.0)).unwrap();
        g.add_edge(1, 2, Plf::constant(10.0)).unwrap();
        g
    }

    #[test]
    fn faults_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan {
            seed: 42,
            panic_per_million: 10_000,
            transient_panics: false,
            ..FaultPlan::none()
        };
        let h = HostileIndex::new(AStarChIndex::new(tiny()), &plan);
        let mut hits = 0u32;
        for i in 0..100_000u32 {
            let (s, d, t) = (i % 3, (i / 3) % 3, (i % 97) as f64);
            let faulted = h.would_fault(s, d, t);
            // Deterministic: asking twice agrees.
            assert_eq!(faulted, h.would_fault(s, d, t));
            if faulted {
                hits += 1;
                let r = catch_unwind(AssertUnwindSafe(|| h.query_cost(s, d, t)));
                assert!(r.is_err());
                // Persistent mode: fires every time.
                let r = catch_unwind(AssertUnwindSafe(|| h.query_cost(s, d, t)));
                assert!(r.is_err());
            }
        }
        // ~1% of the distinct signatures fault; the modular query pattern
        // only produces a few hundred distinct ones, so just sanity-bound.
        assert!(hits < 20_000, "rate far above 1%: {hits}");
    }

    #[test]
    fn transient_faults_fire_once_then_heal() {
        let plan = FaultPlan {
            seed: 7,
            panic_per_million: 1_000_000, // every query faults
            transient_panics: true,
            ..FaultPlan::none()
        };
        let h = HostileIndex::new(AStarChIndex::new(tiny()), &plan);
        let r = catch_unwind(AssertUnwindSafe(|| h.query_cost(0, 2, 5.0)));
        assert!(r.is_err(), "first dispatch faults");
        // The retry of the same signature succeeds — and agrees with the
        // clean index.
        let healed = h.query_cost(0, 2, 5.0);
        assert_eq!(healed, h.inner().query_cost(0, 2, 5.0));
        // Clones share the filter: the clone does not re-fire either.
        let c = h.clone();
        assert_eq!(c.query_cost(0, 2, 5.0), healed);
    }

    #[test]
    fn plans_compose() {
        assert_eq!(FaultPlan::none().panic_per_million, 0);
        let full = FaultPlan::full(3);
        assert!(full.poison_locks && full.update_storm && full.deadline_storm);
        assert!(full.slow_consumers && full.transient_panics);
        assert_eq!(full.panic_per_million, 10_000);
    }
}
