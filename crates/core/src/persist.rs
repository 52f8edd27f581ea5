//! Snapshot persistence ([`td_store::Persist`]) for the TD-tree index and
//! its [`ShortcutStore`].
//!
//! The store is written in row order whatever its chunking, so a file does
//! not depend on how the pass that built it was scheduled, and it is read
//! straight back into one arena per direction list: a load never holds an
//! owned copy of a stored function.
//!
//! A [`TdTreeIndex`] snapshot holds the source-of-truth state only — graph,
//! tree decomposition (labels and support lists), selected shortcuts — so
//! loading reconstructs a query-identical index without re-running
//! elimination, candidate weighing, selection or the shortcut DFS. Which
//! pairs are selected is the shortcut rows' own ancestor keys, and the
//! tree's label lists are read straight into the arenas of its label store,
//! which the queries read as they stand: nothing derived from them sits in
//! the file, where a CRC-valid edit could desynchronise it from the labels.
//! A live-updated index loads answering bit-identically, and keeps
//! accepting further updates, patched into the adopted arenas, via the
//! persisted support lists.

use crate::index::{BuildStats, IndexOptions, SelectionStrategy, TdTreeIndex};
use crate::shortcut::{ShortcutStore, DOWN, UP};
use std::io::{Read, Write};
use td_graph::TdGraph;
use td_plf::persist::{read_plf_arena, write_plf_list};
use td_store::section::{
    check_offsets, read_f64s, read_u32s, read_u64s, tag4, write_f64s, write_u32s, write_u64s,
};
use td_store::{Persist, StoreError};
use td_treedec::TreeDecomposition;

const TAG_S_FIRST: u32 = tag4(*b"Sfst");
const TAG_S_ANC: u32 = tag4(*b"Sanc");

const TAG_I_OPTIONS: u32 = tag4(*b"Iopt");
const TAG_I_STATS_F: u32 = tag4(*b"Ibsf");
const TAG_I_STATS_U: u32 = tag4(*b"Ibsu");

impl Persist for ShortcutStore {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        let (first, anc) = self.rows();
        write_u32s(w, TAG_S_FIRST, first)?;
        write_u32s(w, TAG_S_ANC, anc)?;
        // Row order, whatever the chunking: the file is the same for every
        // schedule of the pass that built the store.
        for dir in [UP, DOWN] {
            write_plf_list(w, self.functions(dir))?;
        }
        Ok(())
    }

    fn read_from<R: Read>(r: &mut R) -> Result<ShortcutStore, StoreError> {
        let first = read_u32s(r, TAG_S_FIRST)?;
        let anc = read_u32s(r, TAG_S_ANC)?;
        let (up_arena, up) = read_plf_arena(r)?;
        let (down_arena, down) = read_plf_arena(r)?;
        check_offsets(&first, anc.len(), "shortcut rows")?;
        let n = first.len() - 1;
        if up.len() != anc.len() || down.len() != anc.len() {
            return Err(StoreError::invalid(
                "shortcut function lists disagree with pair count",
            ));
        }
        if anc.iter().any(|&a| a as usize >= n) {
            return Err(StoreError::invalid("shortcut ancestor out of range"));
        }
        // Rows must stay sorted by ancestor (lookup is a binary search).
        if (0..n).any(|v| {
            anc[first[v] as usize..first[v + 1] as usize]
                .windows(2)
                .any(|w| w[0] >= w[1])
        }) {
            return Err(StoreError::invalid("shortcut row not sorted by ancestor"));
        }
        Ok(ShortcutStore::from_lists(
            first,
            anc,
            [up, down],
            [up_arena, down_arena],
        ))
    }
}

fn strategy_code(s: SelectionStrategy) -> (u64, u64, u64) {
    match s {
        SelectionStrategy::Basic => (0, 0, 0),
        SelectionStrategy::Greedy { budget } => (1, budget, 0),
        SelectionStrategy::Dp {
            budget,
            weight_scale,
        } => (2, budget, weight_scale as u64),
        SelectionStrategy::All => (3, 0, 0),
    }
}

fn strategy_from_code(code: u64, budget: u64, scale: u64) -> Result<SelectionStrategy, StoreError> {
    Ok(match code {
        0 => SelectionStrategy::Basic,
        1 => SelectionStrategy::Greedy { budget },
        2 => SelectionStrategy::Dp {
            budget,
            weight_scale: u32::try_from(scale)
                .map_err(|_| StoreError::invalid("weight scale out of range"))?,
        },
        3 => SelectionStrategy::All,
        other => {
            return Err(StoreError::invalid(format!(
                "unknown selection strategy code {other}"
            )))
        }
    })
}

impl Persist for TdTreeIndex {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        let (code, budget, scale) = strategy_code(self.options.strategy);
        write_u64s(
            w,
            TAG_I_OPTIONS,
            &[
                code,
                budget,
                scale,
                self.options.threads as u64,
                u64::from(self.options.track_supports),
            ],
        )?;
        let st = &self.build_stats;
        write_f64s(
            w,
            TAG_I_STATS_F,
            &[
                st.decompose_secs,
                st.weigh_secs,
                st.select_secs,
                st.build_secs,
                st.selected_utility,
            ],
        )?;
        write_u64s(
            w,
            TAG_I_STATS_U,
            &[
                st.candidates as u64,
                st.selected_pairs as u64,
                st.selected_weight,
            ],
        )?;
        self.graph.write_into(w)?;
        self.td.write_into(w)?;
        self.store.write_into(w)
    }

    fn read_from<R: Read>(r: &mut R) -> Result<TdTreeIndex, StoreError> {
        let opts = read_u64s(r, TAG_I_OPTIONS)?;
        if opts.len() != 5 {
            return Err(StoreError::invalid("options section must hold 5 values"));
        }
        let strategy = strategy_from_code(opts[0], opts[1], opts[2])?;
        let options = IndexOptions {
            strategy,
            threads: opts[3] as usize,
            track_supports: opts[4] != 0,
        };
        let sf = read_f64s(r, TAG_I_STATS_F)?;
        let su = read_u64s(r, TAG_I_STATS_U)?;
        if sf.len() != 5 || su.len() != 3 {
            return Err(StoreError::invalid("build stats sections malformed"));
        }
        let build_stats = BuildStats {
            decompose_secs: sf[0],
            weigh_secs: sf[1],
            select_secs: sf[2],
            build_secs: sf[3],
            selected_utility: sf[4],
            candidates: su[0] as usize,
            selected_pairs: su[1] as usize,
            selected_weight: su[2],
        };

        let graph = TdGraph::read_from(r)?;
        let td = TreeDecomposition::read_from(r)?;
        let store = ShortcutStore::read_from(r)?;

        let n = td.len();
        if graph.num_vertices() != n {
            return Err(StoreError::invalid(
                "graph and tree disagree on vertex count",
            ));
        }
        if options.track_supports != td.supports.is_some() {
            return Err(StoreError::invalid(
                "support tracking flag disagrees with stored supports",
            ));
        }
        if store.num_vertices() != n {
            return Err(StoreError::invalid("shortcut store row count mismatch"));
        }
        // The rows are the selection `update_edges` rebuilds from, indexing
        // the DFS vectors by each key's depth: a key must be a proper
        // ancestor of its row's vertex.
        if store
            .pairs()
            .any(|(v, a)| a == v || !td.is_ancestor_of(a, v))
        {
            return Err(StoreError::invalid(
                "stored shortcut pair is not an ancestor pair",
            ));
        }
        Ok(TdTreeIndex {
            graph,
            td,
            store,
            options,
            build_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_gen::random_graph::{random_profile, seeded_graph};
    use td_plf::DAY;

    fn roundtrip(index: &TdTreeIndex) -> TdTreeIndex {
        let mut buf = Vec::new();
        index.write_into(&mut buf).unwrap();
        let mut r = buf.as_slice();
        let back = TdTreeIndex::read_from(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after index read");
        back
    }

    fn assert_bit_identical(a: &TdTreeIndex, b: &TdTreeIndex, seed: u64) {
        let n = a.graph().num_vertices();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut cs, mut ps) = Default::default();
        for _ in 0..60 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            let x = a.query_cost_with(&mut cs, s, d, t).map(f64::to_bits);
            let y = b.query_cost_with(&mut cs, s, d, t).map(f64::to_bits);
            assert_eq!(x, y, "cost s={s} d={d} t={t}");
            assert_eq!(
                a.query_profile_with(&mut ps, s, d),
                b.query_profile_with(&mut ps, s, d),
                "profile s={s} d={d}"
            );
        }
    }

    #[test]
    fn every_strategy_round_trips_bit_identically() {
        let g = seeded_graph(11, 30, 20, 3);
        for strategy in [
            SelectionStrategy::Basic,
            SelectionStrategy::Greedy { budget: 800 },
            SelectionStrategy::Dp {
                budget: 800,
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
            let back = roundtrip(&index);
            assert_eq!(back.options.strategy, index.options.strategy);
            assert_eq!(
                back.tree_stats().stored_points,
                index.tree_stats().stored_points
            );
            assert_eq!(
                back.shortcuts().total_points(),
                index.shortcuts().total_points()
            );
            // The reload reports the size the build did, though its shortcut
            // points sit in one chunk per direction instead of one per
            // planned output.
            assert_eq!(back.memory_bytes(), index.memory_bytes(), "{strategy:?}");
            assert_eq!(back.shortcuts().num_pairs(), index.shortcuts().num_pairs());
            assert_bit_identical(&index, &back, 0xfeed);
        }
    }

    #[test]
    fn updated_index_round_trips_and_stays_updatable() {
        let g = seeded_graph(4, 25, 15, 3);
        let mut index = TdTreeIndex::build(
            g,
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 1_500 },
                threads: 1,
                track_supports: true,
            },
        );
        let mut rng = StdRng::seed_from_u64(77);
        let m = index.graph().num_edges();
        let changes: Vec<_> = (0..5)
            .map(|_| {
                let e = rng.gen_range(0..m) as u32;
                let edge = index.graph().edge(e);
                (edge.from, edge.to, random_profile(&mut rng, 4, 5.0, 500.0))
            })
            .collect();
        index.update_edges(&changes);

        // The loaded label arenas answer bit-identically.
        let mut back = roundtrip(&index);
        assert_bit_identical(&index, &back, 0xabcd);

        // The loaded index accepts further updates (supports round-trip),
        // patched into the arenas the load adopted, and both copies evolve
        // identically: the same answers, bytes and labels, which are a
        // fresh build's.
        let more: Vec<_> = (0..3)
            .map(|_| {
                let e = rng.gen_range(0..m) as u32;
                let edge = index.graph().edge(e);
                (edge.from, edge.to, random_profile(&mut rng, 3, 10.0, 400.0))
            })
            .collect();
        index.update_edges(&more);
        let stats = back.update_edges(&more);
        assert!(
            stats.changed_nodes > 0,
            "the update after the load patched no label"
        );
        assert_bit_identical(&index, &back, 0x1234);
        assert_eq!(back.memory_bytes(), index.memory_bytes());
        let bytes = |index: &TdTreeIndex| {
            let mut buf = Vec::new();
            index.write_into(&mut buf).unwrap();
            buf
        };
        assert!(
            bytes(&back) == bytes(&index),
            "the updated snapshots differ"
        );
        crate::update::tests::assert_labels_are_a_fresh_builds(&back);
    }

    #[test]
    fn non_ancestor_shortcut_pair_is_rejected() {
        let g = seeded_graph(11, 30, 20, 3);
        let mut index = TdTreeIndex::build(
            g,
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget: 800 },
                ..Default::default()
            },
        );
        // A leaf is no ancestor of the root: key the root's row by one.
        let root = index.td.root;
        let leaf = (0..30u32)
            .find(|&v| v != root && index.td.node(v).children.is_empty())
            .unwrap();
        let mut rows = index.store.owned_rows();
        rows[root as usize] = vec![(leaf, None, None)];
        index.store = ShortcutStore::from_owned_rows(&rows);
        let mut buf = Vec::new();
        index.write_into(&mut buf).unwrap();
        assert!(matches!(
            TdTreeIndex::read_from(&mut buf.as_slice()),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn truncated_index_stream_errors_out() {
        let g = seeded_graph(2, 15, 10, 3);
        let index = TdTreeIndex::build(g, IndexOptions::default());
        let mut buf = Vec::new();
        index.write_into(&mut buf).unwrap();
        for cut in (0..buf.len()).step_by(211) {
            assert!(TdTreeIndex::read_from(&mut &buf[..cut]).is_err());
        }
    }
}
