//! Pins every bit of a built TD-appro index on the CAL analogue at scale
//! 0.25 — the serialized tree (every `Ws`/`Wd` label) and shortcut store
//! (every stored row), the selection's utility and weight, folded into one
//! hash — and, in an assert of its own, its `memory_bytes`, at one and at
//! two build threads. The merge kernels make every label and every stored
//! function, so a change to them that only skips work must leave the hash
//! alone; a change to the accounting moves only the byte count. The
//! snapshot's stats section is left out: it holds timings.
//!
//! The TD-G-tree baseline gets the same pair of pins on the same graph: a
//! hash of its serialized partition tree and border matrices (the trailing
//! construction-time section left out) and its `memory_bytes`.

use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::Dataset;
use td_road::gtree::{GtreeConfig, TdGtree};
use td_road::store::section::{tag4, write_f64s};
use td_road::store::Persist;

/// The hash of the built index's stored bits, recorded before the merge
/// kernels simplified in place and took candidates by window; re-pinned
/// when the stream stopped storing the tree's root, parents, depths and
/// subtree sizes (the recorded stream with exactly those sections cut out).
const INDEX_BITS: u64 = 0xaae5_05b5_fd38_bf2c;

/// `memory_bytes` of the built index, each `Ws`/`Wd` point counted once.
const MEMORY_BYTES: usize = 13_120_884;

/// The hash of the built G-tree's stored bits, recorded while every matrix
/// entry was still held twice (an owned copy beside its arena); re-pinned
/// when the stream stopped storing the partition depths and the leaf
/// assignment (the recorded stream with exactly those sections cut out).
const GTREE_BITS: u64 = 0x32a6_88d2_8eb7_b396;

/// `memory_bytes` of the built G-tree, each matrix point counted once.
const GTREE_MEMORY_BYTES: usize = 23_916_036;

/// FNV-1a over bytes.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn build(threads: usize) -> TdTreeIndex {
    let g = Dataset::Cal.build(3, 0.25, 42);
    let budget = Dataset::Cal.spec().budget_at(0.25) as u64;
    TdTreeIndex::build(
        g,
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget },
            threads,
            ..Default::default()
        },
    )
}

fn index_hash(index: &TdTreeIndex) -> u64 {
    let mut bytes = Vec::new();
    index
        .tree()
        .write_into(&mut bytes)
        .expect("a Vec takes every write");
    index
        .shortcuts()
        .write_into(&mut bytes)
        .expect("a Vec takes every write");
    let stats = &index.build_stats;
    let h = fold(0xcbf2_9ce4_8422_2325, &bytes);
    let h = fold(h, &stats.selected_utility.to_bits().to_le_bytes());
    fold(h, &stats.selected_weight.to_le_bytes())
}

#[test]
fn td_appro_index_keeps_its_bits_at_one_and_two_threads() {
    for threads in [1, 2] {
        let index = build(threads);
        let h = index_hash(&index);
        assert_eq!(
            h, INDEX_BITS,
            "index bits moved at {threads} threads: {h:#018x}"
        );
        assert_eq!(
            index.memory_bytes(),
            MEMORY_BYTES,
            "memory accounting moved at {threads} threads"
        );
    }
}

#[test]
fn gtree_index_keeps_its_bits() {
    let g = Dataset::Cal.build(3, 0.25, 42);
    let gt = TdGtree::build(g, GtreeConfig { max_leaf: 32 });
    let mut bytes = Vec::new();
    gt.write_into(&mut bytes).expect("a Vec takes every write");
    // The stream ends with the construction-time section, which holds a
    // timing: hash everything before it.
    let mut secs = Vec::new();
    write_f64s(&mut secs, tag4(*b"Gsec"), &[gt.build_secs]).expect("a Vec takes every write");
    assert!(
        bytes.ends_with(&secs),
        "the stream ends with its timing section"
    );
    let h = fold(0xcbf2_9ce4_8422_2325, &bytes[..bytes.len() - secs.len()]);
    assert_eq!(h, GTREE_BITS, "G-tree bits moved: {h:#018x}");
    assert_eq!(
        gt.memory_bytes(),
        GTREE_MEMORY_BYTES,
        "G-tree memory accounting moved"
    );
}
