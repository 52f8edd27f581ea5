//! Incremental edge-weight updates (§5.2, Fig. 10).
//!
//! The paper updates an index after live-traffic changes by re-deriving the
//! affected weight lists and re-building the shortcuts of the affected
//! region "based on the top-down manner in Fact 1". This module makes that
//! precise and exact:
//!
//! **Phase 1 — reduction replay.** Every recorded pair value obeys
//!
//! ```text
//! value(i,j) = min( base edge i→j,
//!                   min_{m ∈ supports(i,j)} Compound(X(m).Wd_i, X(m).Ws_j) )
//! ```
//!
//! where `supports(i,j)` are the eliminated bridges recorded during
//! construction (`td-treedec::SupportMap`) and `X(m)`'s lists are *inputs*
//! recorded exactly at `m`'s elimination. Processing dirty eliminations in
//! increasing elimination order therefore replays Algo. 2 restricted to the
//! affected cone: when a recomputed pair differs from its stored value, the
//! pair's recording node becomes dirty in turn. Both weight increases and
//! decreases are exact (no stale-minimum problem), because values are
//! recomputed from their full support lists rather than min-merged.
//!
//! The replay folds the base edge and the supports in the order the
//! reduction met them, through the reduction's own kernel
//! ([`td_plf::ops::min_compound_into`]), so a pair whose inputs kept their
//! bits replays to the bits the build recorded. "Differs" is therefore
//! plain `!=`: no tolerance hides drift, and an updated tree's `Ws`/`Wd`
//! are a fresh build's on the updated graph, bit for bit.
//!
//! The labels live in the tree's label store ([`td_treedec::Labels`]). The
//! replay reads a support's two legs through copies it refills in place,
//! and patches a changed label in the store: the new function is appended
//! with its bounds and the one it replaces is dead. When the replay ends,
//! one compaction drops the dead functions, so the store holds what a
//! fresh build stores, with nothing re-derived.
//!
//! **Phase 2 — shortcut rebuild.** Every node whose `Ws`/`Wd` changed
//! invalidates its own and its descendants' ancestor vectors, so the stored
//! rows of those vertices are rebuilt: their ancestor keys are read off (the
//! rows *are* the selection), and the store pass re-runs on those rows alone.
//! Like the build's store pass it is demand-driven — it computes the Fact-1
//! closure of the pairs it emits (`shortcut::need_closure`), not the whole
//! vectors of every descendant, and it never enters a subtree that holds no
//! stored pair of an affected vertex, and it splits that closure between
//! its workers by estimated work like every pass. The rebuilt rows' old
//! functions are dropped from their store chunks first, each chunk compacted
//! in place, and the pass's arenas join the store as chunks of their own, so
//! the store stays what a fresh pass over the same keys would build, with no
//! dead slices.

use crate::index::TdTreeIndex;
use crate::shortcut::rebuild_subtrees;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use td_graph::VertexId;
use td_plf::ops::min_compound_into;
use td_plf::{Plf, PlfId};
use td_treedec::fxhash::FxHashSet;
use td_treedec::{WD, WS};

/// Counters describing one `update_edges` call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UpdateStats {
    /// Edges whose weight actually changed.
    pub changed_edges: usize,
    /// Eliminations replayed in phase 1.
    pub replayed_eliminations: usize,
    /// Tree nodes whose stored `Ws`/`Wd` lists changed.
    pub changed_nodes: usize,
    /// Nodes whose shortcut vectors were rebuilt in phase 2.
    pub rebuilt_subtree_nodes: usize,
    /// Phase 1 wall time, seconds.
    pub replay_secs: f64,
    /// Phase 2 wall time, seconds.
    pub rebuild_secs: f64,
}

/// The replay's scratch: copies of the two legs of the compound at hand,
/// refilled in place, and per direction the ids of the labels it replaced,
/// dropped together when it ends.
struct Replay {
    legs: [Plf; 2],
    dead: [Vec<PlfId>; 2],
}

impl TdTreeIndex {
    /// Applies weight changes to existing edges and incrementally repairs
    /// the index. Requires the index to have been built with
    /// `track_supports: true`.
    ///
    /// Returns statistics; panics if supports were not tracked or an edge
    /// does not exist (updates change weights, not topology — as in the
    /// paper's experiment).
    pub fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
        assert!(
            self.td.supports.is_some(),
            "index must be built with track_supports: true to support updates"
        );
        let mut stats = UpdateStats::default();
        let t0 = std::time::Instant::now();

        // Apply to the stored graph.
        for (u, v, w) in changes {
            let e = self
                .graph
                .find_edge(*u, *v)
                .unwrap_or_else(|| panic!("updated edge {u} -> {v} does not exist"));
            if self.graph.weight(e).approx_eq(w, 1e-9) {
                continue;
            }
            self.graph.set_weight(e, w.clone()).expect("validated");
            stats.changed_edges += 1;
        }

        // Phase 1: replay. Dirty = eliminations whose *inputs* (recorded
        // pairs at that node) changed.
        let mut replay = Replay {
            legs: [Plf::zero(), Plf::zero()],
            dead: Default::default(),
        };
        let mut dirty: BinaryHeap<Reverse<(u32, VertexId)>> = BinaryHeap::new();
        let mut queued: FxHashSet<VertexId> = FxHashSet::default();
        let mut changed_nodes: FxHashSet<VertexId> = FxHashSet::default();

        // Seed: recompute the recorded values of every changed original edge.
        for (u, v, _) in changes {
            let (u, v) = (*u, *v);
            let earlier = if self.td.order[u as usize] < self.td.order[v as usize] {
                u
            } else {
                v
            };
            let other = if earlier == u { v } else { u };
            if self.refresh_pair(earlier, other, &mut replay) {
                changed_nodes.insert(earlier);
                if queued.insert(earlier) {
                    dirty.push(Reverse((self.td.order[earlier as usize], earlier)));
                }
            }
        }

        while let Some(Reverse((_, m))) = dirty.pop() {
            queued.remove(&m);
            stats.replayed_eliminations += 1;
            // Inputs of m changed ⇒ every pair among bag(m) may change.
            // Walked by position: `refresh_pair` takes `&mut self` (it
            // rewrites weight lists, never a bag).
            let width = self.td.node(m).bag.len();
            for ii in 0..width {
                for jj in ii + 1..width {
                    let bag = &self.td.node(m).bag;
                    let (i, j) = (bag[ii], bag[jj]);
                    let earlier = if self.td.order[i as usize] < self.td.order[j as usize] {
                        i
                    } else {
                        j
                    };
                    let other = if earlier == i { j } else { i };
                    if self.refresh_pair(earlier, other, &mut replay) {
                        changed_nodes.insert(earlier);
                        if queued.insert(earlier) {
                            dirty.push(Reverse((self.td.order[earlier as usize], earlier)));
                        }
                    }
                }
            }
        }
        self.td.labels_mut().compact(replay.dead);
        stats.changed_nodes = changed_nodes.len();
        stats.replay_secs = t0.elapsed().as_secs_f64();

        // Phase 2: rebuild shortcut vectors for affected subtrees.
        let t1 = std::time::Instant::now();
        let roots: Vec<VertexId> = changed_nodes.into_iter().collect();
        if !roots.is_empty() && self.store.num_pairs() > 0 {
            stats.rebuilt_subtree_nodes =
                rebuild_subtrees(&mut self.store, &self.td, &roots, self.options.threads);
        }
        stats.rebuild_secs = t1.elapsed().as_secs_f64();
        stats
    }

    /// Recomputes the recorded value of the pair `(earlier, other)` (both
    /// directions) from its base edge and support list, and patches each
    /// direction that changed into the label store. Returns true when either
    /// did.
    fn refresh_pair(&mut self, earlier: VertexId, other: VertexId, replay: &mut Replay) -> bool {
        let key = (earlier.min(other), earlier.max(other));
        let supports: &[VertexId] = self
            .td
            .supports
            .as_ref()
            .expect("checked by update_edges")
            .get(&key)
            .map_or(&[], Vec::as_slice);

        // Direction earlier → other.
        let mut fwd: Option<Plf> = self
            .graph
            .find_edge(earlier, other)
            .map(|e| self.graph.weight(e).clone());
        // Direction other → earlier.
        let mut bwd: Option<Plf> = self
            .graph
            .find_edge(other, earlier)
            .map(|e| self.graph.weight(e).clone());

        let labels = self.td.labels();
        let [leg_a, leg_b] = &mut replay.legs;
        for &m in supports {
            let (Some(se), Some(so)) = (self.td.slot(m, earlier), self.td.slot(m, other)) else {
                continue;
            };
            // `from → m → to` is `X(m).Wd_from` then `X(m).Ws_to`.
            for (acc, from, to) in [(&mut fwd, se, so), (&mut bwd, so, se)] {
                if let (Some(a), Some(b)) = (labels.get(WD, from), labels.get(WS, to)) {
                    a.copy_into(leg_a);
                    b.copy_into(leg_b);
                    min_compound_into(acc, leg_a, leg_b, m);
                }
            }
        }

        let idx = (self.td.slot(earlier, other))
            .expect("pair is recorded at the earlier endpoint's node");
        let labels = self.td.labels_mut();
        let mut changed = false;
        for (dir, f) in [(WS, fwd), (WD, bwd)] {
            let same = match (labels.get(dir, idx), &f) {
                (Some(held), Some(f)) => held == *f,
                (None, None) => true,
                _ => false,
            };
            if !same {
                replay.dead[dir].push(labels.replace(dir, idx, f.as_ref()));
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::{IndexOptions, SelectionStrategy};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_dijkstra::shortest_path_cost;
    use td_gen::random_graph::{random_profile, seeded_graph};
    use td_plf::DAY;
    use td_treedec::TreeDecomposition;

    fn verify_against_oracle(index: &TdTreeIndex, seed: u64, queries: usize) {
        let g = index.graph().clone();
        let n = g.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let mut scratch = crate::CostScratch::default();
        for _ in 0..queries {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let want = shortest_path_cost(&g, s, d, t);
            let got = index.query_cost_with(&mut scratch, s, d, t);
            match (want, got) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() < 1e-5,
                    "seed={seed} s={s} d={d} t={t}: oracle {a} vs index {b}"
                ),
                (None, None) => {}
                other => panic!("seed={seed} s={s} d={d}: {other:?}"),
            }
        }
    }

    /// After an update the label store holds exactly what a fresh build on
    /// the updated graph stores: the same slots and depths, each slot's label
    /// present or absent alike, bit-identical points, the same arena bounds
    /// — a stale bound would silently break the scalar prunes — and the
    /// same bytes, so no dead function survives.
    pub(crate) fn assert_labels_are_a_fresh_builds(index: &TdTreeIndex) {
        let fresh = TreeDecomposition::build(index.graph());
        let (got, want) = (index.tree().labels(), fresh.labels());
        let n = index.tree().len() as VertexId;
        for v in 0..n {
            assert_eq!(got.range(v), want.range(v), "v={v}");
        }
        for idx in 0..got.range(n - 1).end {
            assert_eq!(got.bag_depth(idx), want.bag_depth(idx), "slot {idx}");
            for dir in [WS, WD] {
                let ctx = format!("slot {idx}, direction {dir}");
                let (a, b) = (got.get(dir, idx), want.get(dir, idx));
                assert_eq!(a.map(|f| f.to_plf()), b.map(|f| f.to_plf()), "{ctx}");
                let bits = |x: f64| x.to_bits();
                assert_eq!(bits(got.min(dir, idx)), bits(want.min(dir, idx)), "{ctx}");
                assert_eq!(bits(got.max(dir, idx)), bits(want.max(dir, idx)), "{ctx}");
            }
        }
        assert_eq!(got.total_points(), want.total_points());
        assert_eq!(got.heap_bytes(), want.heap_bytes());
    }

    #[test]
    fn updates_keep_the_index_exact() {
        for seed in 0..4u64 {
            let g = seeded_graph(seed, 25, 15, 3);
            let mut index = TdTreeIndex::build(
                g.clone(),
                IndexOptions {
                    strategy: SelectionStrategy::Greedy { budget: 2_000 },
                    threads: 2,
                    track_supports: true,
                },
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
            for round in 0..3 {
                // Random weight changes on a few random edges (increase and
                // decrease alike).
                let m = index.graph().num_edges();
                let mut changes = Vec::new();
                for _ in 0..4 {
                    let e = rng.gen_range(0..m) as u32;
                    let edge = index.graph().edge(e);
                    let w = random_profile(&mut rng, 4, 5.0, 500.0);
                    changes.push((edge.from, edge.to, w));
                }
                let stats = index.update_edges(&changes);
                assert!(stats.changed_edges > 0, "round {round} changed nothing");
                assert_labels_are_a_fresh_builds(&index);
                verify_against_oracle(&index, seed * 10 + round, 25);
            }
        }
    }

    #[test]
    fn update_matches_full_rebuild_results() {
        let seed = 42u64;
        let g = seeded_graph(seed, 20, 12, 3);
        let mut index = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 1_500 },
                threads: 1,
                track_supports: true,
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let m = g.num_edges();
        let mut changes = Vec::new();
        for _ in 0..6 {
            let e = rng.gen_range(0..m) as u32;
            let edge = g.edge(e);
            changes.push((edge.from, edge.to, random_profile(&mut rng, 3, 10.0, 400.0)));
        }
        index.update_edges(&changes);
        assert_labels_are_a_fresh_builds(&index);

        // Rebuild from the updated graph.
        let fresh = TdTreeIndex::build(
            index.graph().clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 1_500 },
                threads: 1,
                track_supports: true,
            },
        );
        let mut scratch = crate::CostScratch::default();
        for s in 0..20u32 {
            for d in 0..20u32 {
                for t in [0.0, DAY / 4.0, DAY / 2.0] {
                    let a = index.query_cost_with(&mut scratch, s, d, t);
                    let b = fresh.query_cost_with(&mut scratch, s, d, t);
                    match (a, b) {
                        (Some(x), Some(y)) => assert!(
                            (x - y).abs() < 1e-5,
                            "s={s} d={d} t={t}: updated {x} vs fresh {y}"
                        ),
                        (None, None) => {}
                        other => panic!("s={s} d={d}: {other:?}"),
                    }
                }
            }
        }
    }

    /// What is stored is what is selected: an update rebuilds exactly the
    /// keys the rows held, to the values a fresh full label has on the
    /// updated graph — for the full label itself like for any selection.
    #[test]
    fn update_keeps_the_selected_keys_and_matches_a_fresh_full_label() {
        let g = seeded_graph(3, 30, 20, 3);
        let build = |g: td_graph::TdGraph, strategy| {
            TdTreeIndex::build(
                g,
                IndexOptions {
                    strategy,
                    threads: 2,
                    track_supports: true,
                },
            )
        };
        for strategy in [
            SelectionStrategy::All,
            SelectionStrategy::Greedy { budget: 2_000 },
        ] {
            let mut index = build(g.clone(), strategy);
            let keys_before: Vec<_> = index.shortcuts().pairs().collect();
            assert!(!keys_before.is_empty());
            let e = g.edge(0);
            let stats = index.update_edges(&[(e.from, e.to, Plf::constant(7.0))]);
            assert!(stats.changed_nodes > 0 && stats.rebuilt_subtree_nodes > 0);

            let fresh = build(index.graph().clone(), SelectionStrategy::All);
            let keys: Vec<_> = index.shortcuts().pairs().collect();
            assert_eq!(keys, keys_before, "{strategy:?}: selection drifted");
            assert_eq!(index.shortcuts().num_pairs(), keys.len());
            if strategy == SelectionStrategy::All {
                assert_eq!(keys, fresh.shortcuts().pairs().collect::<Vec<_>>());
                assert_eq!(index.shortcuts().num_pairs(), fresh.shortcuts().num_pairs());
            }
            let owned = |f: Option<td_plf::PlfSlice<'_>>| f.map(|f| f.to_plf());
            for (v, a) in keys {
                let got = index.shortcuts().get(v, a).unwrap();
                let want = fresh.shortcuts().get(v, a).unwrap();
                assert!(
                    owned(got.0) == owned(want.0) && owned(got.1) == owned(want.1),
                    "{strategy:?}: pair ({v}, {a}) differs from the fresh label"
                );
            }
            verify_against_oracle(&index, 3, 40);
        }
    }

    /// Phase 2 to the bit: after increases, decreases and an edge named twice
    /// in one batch, the rows of every vertex under a changed node are what
    /// the store pass gives for the same keys on the repaired tree, every
    /// other row keeps its bits, and `rebuilt_subtree_nodes` counts the
    /// vertices under the changed nodes.
    #[test]
    fn rebuilt_rows_are_the_store_pass_on_the_repaired_tree() {
        use crate::shortcut::build_selected;
        let g = seeded_graph(3, 30, 20, 3);
        for strategy in [
            SelectionStrategy::Greedy { budget: 2_000 },
            SelectionStrategy::Dp {
                budget: 2_000,
                weight_scale: 1,
            },
            SelectionStrategy::All,
        ] {
            let mut index = TdTreeIndex::build(
                g.clone(),
                IndexOptions {
                    strategy,
                    threads: 2,
                    track_supports: true,
                },
            );
            let edge = |e: u32| (g.edge(e).from, g.edge(e).to);
            let weight = |e: u32, factor: f64| {
                let (u, v) = edge(e);
                (u, v, Plf::constant(g.edge(e).weight.min_value() * factor))
            };
            let batches = [
                vec![weight(0, 4.0)],
                vec![weight(0, 0.25), weight(7, 0.5)],
                vec![weight(3, 3.0), weight(11, 0.5), weight(3, 0.2)],
            ];
            for (round, changes) in batches.iter().enumerate() {
                let before = index.clone();
                let stats = index.update_edges(changes);
                let what = format!("{strategy:?} round {round}");
                assert!(stats.changed_nodes > 0, "{what}: nothing changed");

                let n = index.td.len();
                let relabelled = |v: usize| {
                    let (old, new) = (before.td.labels(), index.td.labels());
                    let owned = |f: Option<td_plf::PlfSlice<'_>>| f.map(|f| f.to_plf());
                    (old.range(v as VertexId)).any(|idx| {
                        [WS, WD]
                            .iter()
                            .any(|&dir| owned(old.get(dir, idx)) != owned(new.get(dir, idx)))
                    })
                };
                let mut affected = vec![false; n];
                let mut stack: Vec<usize> = (0..n).filter(|&v| relabelled(v)).collect();
                assert_eq!(stats.changed_nodes, stack.len(), "{what}");
                while let Some(v) = stack.pop() {
                    if !std::mem::replace(&mut affected[v], true) {
                        stack.extend(index.td.nodes[v].children.iter().map(|&c| c as usize));
                    }
                }
                let affected_count = affected.iter().filter(|&&a| a).count();
                assert_eq!(stats.rebuilt_subtree_nodes, affected_count, "{what}");

                let keys: Vec<Vec<VertexId>> = (0..n as VertexId)
                    .map(|v| before.store.keys(v).to_vec())
                    .collect();
                let points: Vec<u64> = (0..n as VertexId)
                    .map(|v| before.store.row_points(v) as u64)
                    .collect();
                let want = build_selected(&index.td, &keys, &points, 1).owned_rows();
                let (rows, old) = (index.store.owned_rows(), before.store.owned_rows());
                assert_eq!(index.store.num_pairs(), before.store.num_pairs(), "{what}");
                for (v, row) in rows.iter().enumerate() {
                    assert_eq!(row, &want[v], "{what}: row {v}");
                    if !affected[v] {
                        assert_eq!(row, &old[v], "{what}: untouched row {v}");
                    }
                }
            }
        }
    }

    /// An update drops the functions it replaces instead of leaving them
    /// behind. After twenty batches — increases, decreases, and back to the
    /// original weights — on a built and on a reloaded index, the store
    /// holds what a fresh store pass over the same keys holds: every
    /// function to the bit and the same bytes, so no dead slice survives;
    /// and the chunks the updates added stay within their bound. Updated on
    /// one thread and on four in lockstep, the two stores hold the same
    /// functions and bytes after every batch: the rebuild splits its closure
    /// by work, and what it stores does not depend on the split.
    #[test]
    fn twenty_updates_leave_the_store_a_fresh_pass_would_build() {
        use crate::shortcut::{build_all, build_selected, MAX_CHUNKS};
        use td_store::Persist;
        let g = seeded_graph(5, 40, 25, 3);
        for (strategy, reload) in [
            (SelectionStrategy::Greedy { budget: 3_000 }, false),
            (SelectionStrategy::Greedy { budget: 3_000 }, true),
            (SelectionStrategy::All, false),
        ] {
            let build = |threads| {
                let options = IndexOptions {
                    strategy,
                    threads,
                    track_supports: true,
                };
                let index = TdTreeIndex::build(g.clone(), options);
                if !reload {
                    return index;
                }
                let mut buf = Vec::new();
                index.write_into(&mut buf).unwrap();
                TdTreeIndex::read_from(&mut buf.as_slice()).unwrap()
            };
            let (mut index, mut index_t4) = (build(1), build(4));
            let options = index.options;
            let what = format!("{strategy:?}, reloaded: {reload}");
            let mut rng = StdRng::seed_from_u64(20);
            let mut edges: Vec<u32> = Vec::new();
            for round in 0..20 {
                // Each three rounds: raise three edges, lower them, restore
                // them.
                if round % 3 == 0 {
                    edges = (0..3)
                        .map(|_| rng.gen_range(0..g.num_edges()) as u32)
                        .collect();
                }
                let changes: Vec<_> = (edges.iter())
                    .map(|&e| {
                        let edge = g.edge(e);
                        let w = match round % 3 {
                            0 => Plf::constant(edge.weight.max_value() * 3.0),
                            1 => Plf::constant(edge.weight.min_value() * 0.5),
                            _ => edge.weight.clone(),
                        };
                        (edge.from, edge.to, w)
                    })
                    .collect();
                index.update_edges(&changes);
                index_t4.update_edges(&changes);
                let what = format!("{what}, round {round}");
                for store in [&index.store, &index_t4.store] {
                    assert!(store.num_chunks() <= MAX_CHUNKS, "{what}");
                }
                assert_eq!(
                    index.store.owned_rows(),
                    index_t4.store.owned_rows(),
                    "{what}"
                );
                assert_eq!(index.store.bytes(), index_t4.store.bytes(), "{what}");
            }
            let fresh = match strategy {
                SelectionStrategy::All => build_all(&index.td, options.threads),
                _ => {
                    let keys: Vec<Vec<VertexId>> = (0..index.td.len() as VertexId)
                        .map(|v| index.store.keys(v).to_vec())
                        .collect();
                    let points: Vec<u64> = (0..index.td.len() as VertexId)
                        .map(|v| index.store.row_points(v) as u64)
                        .collect();
                    build_selected(&index.td, &keys, &points, options.threads)
                }
            };
            assert_eq!(index.store.owned_rows(), fresh.owned_rows(), "{what}");
            assert_eq!(index.store.bytes(), fresh.bytes(), "{what}");
            verify_against_oracle(&index, 20, 25);
        }
    }

    #[test]
    fn noop_update_changes_nothing() {
        let g = seeded_graph(3, 15, 10, 3);
        let mut index = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 1_000 },
                threads: 1,
                track_supports: true,
            },
        );
        let e = g.edge(0);
        let stats = index.update_edges(&[(e.from, e.to, e.weight.clone())]);
        assert_eq!(stats.changed_edges, 0);
        assert_eq!(stats.changed_nodes, 0);
    }

    #[test]
    #[should_panic(expected = "track_supports")]
    fn update_without_supports_panics() {
        let g = seeded_graph(4, 10, 5, 3);
        let mut index = TdTreeIndex::build(g.clone(), IndexOptions::default());
        let e = g.edge(0);
        index.update_edges(&[(e.from, e.to, Plf::constant(1.0))]);
    }
}
