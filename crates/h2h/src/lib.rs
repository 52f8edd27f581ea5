#![forbid(unsafe_code)]
//! # td-h2h — the TD-H2H baseline
//!
//! TD-H2H extends the static H2H index \[21\] to time-dependent networks
//! (\[17\], used as a competitor in the paper's §5): every tree node keeps the
//! exact shortest travel-cost functions to **all** of its ancestors, in both
//! directions. Queries are then always the paper's "situation (1)": an
//! `O(w(T_G))` combination over the LCA cut — the fastest possible — but the
//! label space is `O(n · h · c)` interpolation points, which is exactly the
//! memory blow-up that motivates the paper's shortcut *selection* (Table 3:
//! TD-H2H's index is ~34× TD-G-tree's on CAL; §5.2: it cannot be built for
//! SF and larger).
//!
//! Implementation-wise this is the `td-core` machinery with the `All`
//! selection strategy; the crate exists to give the baseline its own name,
//! measurement surface and tests.

use td_core::{CostScratch, IndexOptions, ProfileScratch, SelectionStrategy, TdTreeIndex};
use td_graph::{Path, TdGraph, VertexId};
use td_plf::Plf;

/// TD-H2H construction options, mirroring the config-struct constructors of
/// the other backends.
#[derive(Clone, Copy, Debug, Default)]
pub struct H2hConfig {
    /// Worker threads for the label passes (0 = all cores).
    pub threads: usize,
}

/// The TD-H2H index: a full 2-hop label over the tree decomposition.
pub struct TdH2h {
    inner: TdTreeIndex,
}

impl TdH2h {
    /// Builds the full label (single pass, no selection).
    pub fn build(graph: TdGraph, cfg: H2hConfig) -> TdH2h {
        TdH2h {
            inner: TdTreeIndex::build(
                graph,
                IndexOptions {
                    strategy: SelectionStrategy::All,
                    threads: cfg.threads,
                    track_supports: false,
                },
            ),
        }
    }

    /// Travel cost query (always an `O(w)` label combination).
    pub fn query_cost(&self, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        self.inner.query_cost(s, d, t)
    }

    /// Shortest travel cost function query.
    pub fn query_profile(&self, s: VertexId, d: VertexId) -> Option<Plf> {
        self.inner.query_profile(s, d)
    }

    /// Travel cost and path.
    pub fn query_path(&self, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
        self.inner.query_path(s, d, t)
    }

    /// [`TdH2h::query_cost`] reusing `scratch` (allocation-free after
    /// warm-up).
    pub fn query_cost_with(
        &self,
        scratch: &mut CostScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        self.inner.query_cost_with(scratch, s, d, t)
    }

    /// [`TdH2h::query_profile`] reusing `scratch`'s sweep tables.
    pub fn query_profile_with(
        &self,
        scratch: &mut ProfileScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        self.inner.query_profile_with(scratch, s, d)
    }

    /// [`TdH2h::query_path`] reusing `scratch`'s sweep buffers.
    pub fn query_path_with(
        &self,
        scratch: &mut CostScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        self.inner.query_path_with(scratch, s, d, t)
    }

    /// Label memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    /// Number of label entries (pair instances).
    pub fn num_labels(&self) -> usize {
        self.inner.shortcuts().num_pairs()
    }

    /// Total stored interpolation points.
    pub fn total_points(&self) -> usize {
        self.inner.shortcuts().total_points()
    }

    /// Construction wall time in seconds.
    pub fn construction_secs(&self) -> f64 {
        self.inner.build_stats.total_secs()
    }

    /// Access to the underlying index (for experiments).
    pub fn inner(&self) -> &TdTreeIndex {
        &self.inner
    }
}

/// Snapshot persistence: a TD-H2H snapshot is its inner TD-tree index
/// (built with the `All` strategy); loading verifies the strategy so a
/// TD-appro body cannot masquerade as a full label.
impl td_store::Persist for TdH2h {
    fn write_into<W: std::io::Write>(&self, w: &mut W) -> Result<(), td_store::StoreError> {
        self.inner.write_into(w)
    }

    fn read_from<R: std::io::Read>(r: &mut R) -> Result<TdH2h, td_store::StoreError> {
        let inner = TdTreeIndex::read_from(r)?;
        if inner.options.strategy != SelectionStrategy::All {
            return Err(td_store::StoreError::invalid(
                "TD-H2H snapshot must hold the `All` selection strategy",
            ));
        }
        Ok(TdH2h { inner })
    }
}

// Compile-time pin: built indexes are shared read-only across query
// threads. A future `Rc`/`Cell` field fails this line instead of a test.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<TdH2h>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_dijkstra::shortest_path_cost;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    #[test]
    fn h2h_matches_the_oracle() {
        for seed in 0..3u64 {
            let g = seeded_graph(seed, 30, 20, 3);
            let h2h = TdH2h::build(g.clone(), H2hConfig { threads: 2 });
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..40 {
                let s = rng.gen_range(0..30) as u32;
                let d = rng.gen_range(0..30) as u32;
                let t = rng.gen_range(0.0..DAY);
                let want = shortest_path_cost(&g, s, d, t);
                let got = h2h.query_cost(s, d, t);
                match (want, got) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-5, "seed={seed} s={s} d={d} t={t}")
                    }
                    (None, None) => {}
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn h2h_profile_matches_basic_index() {
        let g = seeded_graph(9, 25, 15, 3);
        let h2h = TdH2h::build(g.clone(), H2hConfig { threads: 2 });
        let basic = td_core::TdTreeIndex::build(g, td_core::IndexOptions::default());
        for s in 0..25u32 {
            for d in [0u32, 7, 13, 24] {
                let a = h2h.query_profile(s, d);
                let b = basic.query_profile_basic(s, d);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        for k in 0..6 {
                            let t = k as f64 * DAY / 6.0;
                            assert!((a.eval(t) - b.eval(t)).abs() < 1e-5, "s={s} d={d} t={t}");
                        }
                    }
                    (None, None) => {}
                    other => panic!("s={s} d={d}: {:?}", other.0.map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn h2h_memory_exceeds_basic_index() {
        let g = seeded_graph(11, 40, 25, 3);
        let h2h = TdH2h::build(g.clone(), H2hConfig { threads: 2 });
        let basic = td_core::TdTreeIndex::build(g, td_core::IndexOptions::default());
        assert!(h2h.memory_bytes() > basic.memory_bytes());
        assert!(h2h.num_labels() > 0);
        assert!(h2h.total_points() > 0);
    }
}
