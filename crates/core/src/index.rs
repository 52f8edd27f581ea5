//! The [`TdTreeIndex`]: construction, configuration and accounting.

use crate::query::{CostScratch, ProfileScratch, QueryEngine};
use crate::select::{select_dp, select_greedy, Candidate, Selection};
use crate::shortcut::{build_all, build_selected, weigh_candidates, ShortcutStore};
use std::time::Instant;
use td_graph::{Path, TdGraph, VertexId};
use td_plf::Plf;
use td_treedec::{TreeDecomposition, TreeStats};

/// How shortcuts are chosen (Def. 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectionStrategy {
    /// No shortcuts: TD-basic (Algo. 3 queries only).
    Basic,
    /// Algo. 5 dual greedy (TD-appro) under a weight budget `N`
    /// (interpolation points).
    Greedy {
        /// The budget `N` of Def. 8.
        budget: u64,
    },
    /// Algo. 4 dynamic programming (TD-dp). `weight_scale` buckets weights
    /// for large budgets (`1` = exact); see `select::select_dp`.
    Dp {
        /// The budget `N` of Def. 8.
        budget: u64,
        /// Weight bucketing factor (1 = exact DP).
        weight_scale: u32,
    },
    /// Every pair: the TD-H2H baseline's label.
    All,
}

/// Index construction options.
#[derive(Clone, Copy, Debug)]
pub struct IndexOptions {
    /// Shortcut selection strategy.
    pub strategy: SelectionStrategy,
    /// Worker threads for the shortcut passes (0 = all cores). Each pass
    /// splits its DFS by estimated work into jobs of at most
    /// `1 / (2 · threads)` of it (a subtree with nothing to split at
    /// aside), packed into at most `4 · threads` outputs; the selection
    /// and every stored bit are the same for any value.
    pub threads: usize,
    /// Track support lists to enable [`TdTreeIndex::update_edges`].
    pub track_supports: bool,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            strategy: SelectionStrategy::Basic,
            threads: 0,
            track_supports: false,
        }
    }
}

/// Timings and sizes recorded during construction.
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Tree decomposition wall time (Algo. 2), seconds.
    pub decompose_secs: f64,
    /// Candidate weigh pass wall time, seconds.
    pub weigh_secs: f64,
    /// Selection wall time (Algo. 4/5), seconds.
    pub select_secs: f64,
    /// Shortcut build pass wall time (Fact 1), seconds.
    pub build_secs: f64,
    /// Number of candidate pairs weighed.
    pub candidates: usize,
    /// Number of selected pair instances.
    pub selected_pairs: usize,
    /// Total weight (interpolation points) of the selection.
    pub selected_weight: u64,
    /// Total utility of the selection.
    pub selected_utility: f64,
}

impl BuildStats {
    /// Total construction wall time, seconds.
    pub fn total_secs(&self) -> f64 {
        self.decompose_secs + self.weigh_secs + self.select_secs + self.build_secs
    }
}

/// The paper's index: TFP tree decomposition + selected shortcuts.
///
/// `Clone` produces an independent, equally-answering copy — the
/// copy-on-write building block behind `td-api`'s live-update mode, where a
/// writer repairs a private clone while readers keep querying the published
/// one.
///
/// Every fact is stored once: which pairs are selected *is* the set of
/// ancestor keys in the [`ShortcutStore`] rows (incremental updates read
/// the selection back off them), and every `Ws`/`Wd` label lives in the
/// tree's label store ([`td_treedec::Labels`]), which the query sweeps read
/// in place and an update patches in place.
#[derive(Clone)]
pub struct TdTreeIndex {
    pub(crate) graph: TdGraph,
    pub(crate) td: TreeDecomposition,
    pub(crate) store: ShortcutStore,
    /// Options the index was built with.
    pub options: IndexOptions,
    /// Construction statistics.
    pub build_stats: BuildStats,
}

// Compile-time pin: a built index is shared read-only across query threads.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<TdTreeIndex>()
};

impl TdTreeIndex {
    /// Builds the index over `graph` (which is kept inside for updates and
    /// examples; queries run purely on the index structures).
    pub fn build(graph: TdGraph, options: IndexOptions) -> TdTreeIndex {
        let mut stats = BuildStats::default();
        let t0 = Instant::now();
        let td = TreeDecomposition::build_opts(&graph, options.track_supports);
        stats.decompose_secs = t0.elapsed().as_secs_f64();
        let n = td.len();
        let width = td.stats().width;

        let store = match options.strategy {
            SelectionStrategy::Basic => ShortcutStore::empty(n),
            SelectionStrategy::All => {
                let t = Instant::now();
                let store = build_all(&td, options.threads);
                stats.build_secs = t.elapsed().as_secs_f64();
                stats.selected_pairs = store.num_pairs();
                stats.selected_weight = store.total_points() as u64;
                store
            }
            SelectionStrategy::Greedy { budget } | SelectionStrategy::Dp { budget, .. } => {
                let t = Instant::now();
                let candidates = weigh_candidates(&td, width, options.threads);
                stats.weigh_secs = t.elapsed().as_secs_f64();
                stats.candidates = candidates.len();

                let t = Instant::now();
                let selection = match options.strategy {
                    SelectionStrategy::Greedy { .. } => select_greedy(&candidates, budget),
                    SelectionStrategy::Dp { weight_scale, .. } => {
                        select_dp(&candidates, budget, weight_scale)
                    }
                    _ => unreachable!(),
                };
                stats.select_secs = t.elapsed().as_secs_f64();
                stats.selected_pairs = selection.chosen.len();
                stats.selected_weight = selection.weight;
                stats.selected_utility = selection.utility;

                let (per_node, points) = selection_per_node(n, &candidates, &selection);
                let t = Instant::now();
                let store = build_selected(&td, &per_node, &points, options.threads);
                stats.build_secs = t.elapsed().as_secs_f64();
                store
            }
        };

        TdTreeIndex {
            graph,
            td,
            store,
            options,
            build_stats: stats,
        }
    }

    /// The underlying graph (kept current across updates).
    pub fn graph(&self) -> &TdGraph {
        &self.graph
    }

    /// The tree decomposition.
    pub fn tree(&self) -> &TreeDecomposition {
        &self.td
    }

    /// The selected shortcuts.
    pub fn shortcuts(&self) -> &ShortcutStore {
        &self.store
    }

    /// A query engine borrowing this index (hot loops run on the tree's
    /// CSR/arena label store and the shortcut store's arenas).
    fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.td, &self.store)
    }

    /// Travel cost query `Q(s, d, t)` (Algo. 6 when the selected shortcuts
    /// cover the whole LCA cut, Algo. 3's sweeps otherwise) — no heap
    /// allocation on the hot path once `scratch`'s buffers are warm.
    pub fn query_cost_with(
        &self,
        scratch: &mut CostScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        self.engine().cost(scratch, s, d, t)
    }

    /// Shortest travel cost *function* query `f_{s,d}(t)`, reusing
    /// `scratch`'s sweep tables.
    pub fn query_profile_with(
        &self,
        scratch: &mut ProfileScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        self.engine().profile(scratch, s, d)
    }

    /// Travel cost and the shortest path itself, reusing `scratch`'s sweep
    /// buffers.
    pub fn query_path_with(
        &self,
        scratch: &mut CostScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        self.engine().path(scratch, s, d, t)
    }

    /// Tree statistics (`h(T_G)`, `w(T_G)`, stored points, …).
    pub fn tree_stats(&self) -> TreeStats {
        self.td.stats()
    }

    /// Index memory: the tree's label store (each `Ws`/`Wd` point once) +
    /// selected shortcuts, bytes. (The input graph is not counted — every
    /// compared method shares it.)
    pub fn memory_bytes(&self) -> usize {
        self.td.stats().bytes + self.store.bytes()
    }
}

/// Groups a selection into per-node ancestor lists, with each node's total
/// weight (the interpolation points its row will store).
pub(crate) fn selection_per_node(
    n: usize,
    candidates: &[Candidate],
    selection: &Selection,
) -> (Vec<Vec<VertexId>>, Vec<u64>) {
    let mut per_node: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut points = vec![0u64; n];
    for &i in &selection.chosen {
        let c = &candidates[i];
        per_node[c.node as usize].push(c.ancestor);
        points[c.node as usize] += u64::from(c.weight);
    }
    (per_node, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_dijkstra::shortest_path_cost;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    fn check_index(index: &TdTreeIndex, seed: u64) {
        let g = index.graph().clone();
        let n = g.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        for _ in 0..30 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let want = shortest_path_cost(&g, s, d, t);
            let got = index.query_cost_with(&mut CostScratch::default(), s, d, t);
            match (want, got) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() < 1e-5,
                    "seed={seed} s={s} d={d} t={t}: {a} vs {b}"
                ),
                (None, None) => {}
                other => panic!("seed={seed} s={s} d={d}: {other:?}"),
            }
        }
    }

    #[test]
    fn all_strategies_answer_correctly() {
        for seed in 0..3u64 {
            let g = seeded_graph(seed, 30, 20, 3);
            for strategy in [
                SelectionStrategy::Basic,
                SelectionStrategy::Greedy { budget: 500 },
                SelectionStrategy::Dp {
                    budget: 500,
                    weight_scale: 1,
                },
                SelectionStrategy::All,
            ] {
                let index = TdTreeIndex::build(
                    g.clone(),
                    IndexOptions {
                        strategy,
                        threads: 2,
                        track_supports: false,
                    },
                );
                check_index(&index, seed);
            }
        }
    }

    #[test]
    fn empty_selection_answers_bit_identically_to_basic() {
        // Budget 0 selects nothing: the index is TD-basic in all but name,
        // and must answer like one bit for bit (same sweeps, no cut scan).
        for seed in 0..3u64 {
            let g = seeded_graph(seed, 30, 20, 3);
            let basic = TdTreeIndex::build(g.clone(), IndexOptions::default());
            let empty = TdTreeIndex::build(
                g,
                IndexOptions {
                    strategy: SelectionStrategy::Greedy { budget: 0 },
                    ..Default::default()
                },
            );
            assert_eq!(empty.shortcuts().num_pairs(), 0);
            let (mut cs, mut ps) = (CostScratch::default(), ProfileScratch::default());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb0);
            for _ in 0..40 {
                let s = rng.gen_range(0..30) as u32;
                let d = rng.gen_range(0..30) as u32;
                let t = rng.gen_range(0.0..DAY);
                assert_eq!(
                    empty.query_cost_with(&mut cs, s, d, t).map(f64::to_bits),
                    basic.query_cost_with(&mut cs, s, d, t).map(f64::to_bits),
                    "seed={seed} s={s} d={d} t={t}"
                );
                assert_eq!(
                    empty.query_path_with(&mut cs, s, d, t),
                    basic.query_path_with(&mut cs, s, d, t),
                    "seed={seed} s={s} d={d} t={t}"
                );
                assert_eq!(
                    empty.query_profile_with(&mut ps, s, d),
                    basic.query_profile_with(&mut ps, s, d),
                    "seed={seed} s={s} d={d}"
                );
            }
        }
    }

    #[test]
    fn selection_respects_budget() {
        let g = seeded_graph(5, 40, 25, 3);
        for budget in [100u64, 1000, 10_000] {
            let index = TdTreeIndex::build(
                g.clone(),
                IndexOptions {
                    strategy: SelectionStrategy::Greedy { budget },
                    threads: 2,
                    track_supports: false,
                },
            );
            assert!(
                index.build_stats.selected_weight <= budget,
                "budget {budget} exceeded: {}",
                index.build_stats.selected_weight
            );
        }
    }

    /// The selection is a function of the graph and the budget alone: the
    /// pass's split into jobs and the workers' finishing order (both move
    /// with `threads`) must not reach `select_*`'s tie-breaks or its
    /// utility sum.
    #[test]
    fn selection_does_not_depend_on_threads() {
        let g = seeded_graph(11, 120, 80, 3);
        for strategy in [
            SelectionStrategy::Greedy { budget: 3_000 },
            SelectionStrategy::Dp {
                budget: 3_000,
                weight_scale: 1,
            },
        ] {
            let build = |threads| {
                TdTreeIndex::build(
                    g.clone(),
                    IndexOptions {
                        strategy,
                        threads,
                        track_supports: false,
                    },
                )
            };
            let (one, eight) = (build(1), build(8));
            assert!(one.build_stats.selected_pairs > 0);
            assert!(
                one.shortcuts().pairs().eq(eight.shortcuts().pairs()),
                "{strategy:?}: the selected pairs differ"
            );
            assert_eq!(
                one.build_stats.selected_utility.to_bits(),
                eight.build_stats.selected_utility.to_bits(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn bigger_budget_stores_more() {
        let g = seeded_graph(6, 40, 25, 3);
        let small = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 200 },
                ..Default::default()
            },
        );
        let large = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 5_000 },
                ..Default::default()
            },
        );
        assert!(large.build_stats.selected_pairs >= small.build_stats.selected_pairs);
        assert!(large.memory_bytes() >= small.memory_bytes());
    }

    #[test]
    fn dp_selects_at_least_greedy_utility() {
        let g = seeded_graph(7, 35, 20, 3);
        let budget = 800u64;
        let greedy = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget },
                ..Default::default()
            },
        );
        let dp = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Dp {
                    budget,
                    weight_scale: 1,
                },
                ..Default::default()
            },
        );
        assert!(
            dp.build_stats.selected_utility >= greedy.build_stats.selected_utility - 1e-9,
            "dp {} < greedy {}",
            dp.build_stats.selected_utility,
            greedy.build_stats.selected_utility
        );
        // And the 0.5 guarantee the other way.
        assert!(
            greedy.build_stats.selected_utility >= 0.5 * dp.build_stats.selected_utility - 1e-9
        );
    }

    #[test]
    fn memory_accounting_is_monotone_in_strategy() {
        let g = seeded_graph(8, 30, 20, 3);
        let basic = TdTreeIndex::build(g.clone(), IndexOptions::default());
        let all = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::All,
                ..Default::default()
            },
        );
        assert!(all.memory_bytes() > basic.memory_bytes());
        assert_eq!(basic.build_stats.selected_pairs, 0);
        assert!(all.build_stats.selected_pairs > 0);
    }

    #[test]
    fn build_stats_report_phases() {
        let g = seeded_graph(9, 30, 20, 3);
        let idx = TdTreeIndex::build(
            g,
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 1000 },
                ..Default::default()
            },
        );
        let st = &idx.build_stats;
        assert!(st.decompose_secs >= 0.0);
        assert!(st.candidates > 0);
        assert!(st.total_secs() >= st.decompose_secs);
    }
}
