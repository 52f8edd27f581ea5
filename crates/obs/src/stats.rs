//! Scratch-resident search statistics.
//!
//! The frozen search loops are hot: no allocation, no locks, no shared
//! atomics. [`SearchStats`] therefore lives *inside* the
//! per-query scratch as plain `u64` fields; the loops bump them through
//! `#[inline(always)]` recorder methods, and the caller exports the totals
//! to the sharded registry counters once per query.

/// Per-query search counters, filled by the frozen scalar search, G-tree and
/// profile loops and exported once per query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices settled (popped with a final label).
    pub settled: u64,
    /// Edge relaxations attempted (out-arcs scanned at settled vertices;
    /// pruned arcs count here and under `minbound_prunes`).
    pub relaxed: u64,
    /// PLF evaluations done one breakpoint scan at a time.
    pub plf_evals_scalar: u64,
    /// PLF evaluations done through the batched `eval_ids_at` kernel.
    pub plf_evals_batched: u64,
    /// Arcs skipped by the `min_cost` / potential lower-bound prune.
    pub minbound_prunes: u64,
    /// Profile-search compounds skipped by the targeted corridor win test.
    pub corridor_kills: u64,
    /// Heap pushes (successful label improvements).
    pub heap_pushes: u64,
    /// Vertices the A\* potential's set-up search settled (TD-A\*-CH: the
    /// backward upward search of `ChPotential::init`); not in `settled`.
    pub potential_settled: u64,
    /// Potentials the A\* potential resolved on demand (TD-A\*-CH: the
    /// lazy, memoized `ChPotential::h` resolutions).
    pub potential_resolved: u64,
}

macro_rules! recorder {
    ($(#[$doc:meta])* $name:ident, $field:ident) => {
        $(#[$doc])*
        #[inline(always)]
        pub fn $name(&mut self, n: u64) {
            self.$field += n;
        }
    };
}

impl SearchStats {
    recorder!(
        /// Records `n` settled vertices.
        settle, settled);
    recorder!(
        /// Records `n` attempted relaxations.
        relax, relaxed);
    recorder!(
        /// Records `n` scalar PLF evaluations.
        eval_scalar, plf_evals_scalar);
    recorder!(
        /// Records `n` batched PLF evaluations.
        eval_batched, plf_evals_batched);
    recorder!(
        /// Records `n` lower-bound prunes.
        prune, minbound_prunes);
    recorder!(
        /// Records `n` corridor kills.
        corridor_kill, corridor_kills);
    recorder!(
        /// Records `n` heap pushes.
        heap_push, heap_pushes);
    recorder!(
        /// Records `n` vertices settled by the potential's set-up search.
        potential_settle, potential_settled);
    recorder!(
        /// Records `n` lazily resolved potentials.
        potential_resolve, potential_resolved);

    /// Resets every field (start of a query).
    #[inline(always)]
    pub fn reset(&mut self) {
        *self = SearchStats::default();
    }

    /// Returns the current totals and resets (end of a query).
    #[inline(always)]
    pub fn take(&mut self) -> SearchStats {
        std::mem::take(self)
    }

    /// Adds another query's totals into this accumulator.
    pub fn merge(&mut self, other: &SearchStats) {
        self.settled += other.settled;
        self.relaxed += other.relaxed;
        self.plf_evals_scalar += other.plf_evals_scalar;
        self.plf_evals_batched += other.plf_evals_batched;
        self.minbound_prunes += other.minbound_prunes;
        self.corridor_kills += other.corridor_kills;
        self.heap_pushes += other.heap_pushes;
        self.potential_settled += other.potential_settled;
        self.potential_resolved += other.potential_resolved;
    }
}

/// A single query's trace: its search counters plus wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    pub stats: SearchStats,
    /// Wall time of the query in nanoseconds.
    pub nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorders_accumulate_and_take_resets() {
        let mut st = SearchStats::default();
        st.settle(2);
        st.relax(10);
        st.heap_push(3);
        assert_eq!(st.settled, 2);
        assert_eq!(st.relaxed, 10);
        assert_eq!(st.heap_pushes, 3);
        let taken = st.take();
        assert_eq!(st, SearchStats::default());
        assert_eq!(taken.settled, 2);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = SearchStats {
            settled: 1,
            relaxed: 2,
            plf_evals_scalar: 3,
            plf_evals_batched: 4,
            minbound_prunes: 5,
            corridor_kills: 6,
            heap_pushes: 7,
            potential_settled: 8,
            potential_resolved: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.settled, 2);
        assert_eq!(a.corridor_kills, 12);
        assert_eq!(a.heap_pushes, 14);
        assert_eq!(a.potential_settled, 16);
        assert_eq!(a.potential_resolved, 18);
    }
}
