//! Pins every bit of a built TD-appro index on the CAL analogue at scale
//! 0.25 — the serialized tree (every `Ws`/`Wd` label) and shortcut store
//! (every stored row), the selection's utility and weight, folded into one
//! hash — and, in an assert of its own, its `memory_bytes`, at one and at
//! two build threads. The merge kernels make every label and every stored
//! function, so a change to them that only skips work must leave the hash
//! alone; a change to the accounting moves only the byte count. The
//! snapshot's stats section is left out: it holds timings.

use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::Dataset;
use td_road::store::Persist;

/// The hash of the built index's stored bits, recorded before the merge
/// kernels simplified in place and took candidates by window.
const INDEX_BITS: u64 = 0xa371_a1b2_1f2c_e9dd;

/// `memory_bytes` of the built index, each `Ws`/`Wd` point counted once.
const MEMORY_BYTES: usize = 13_120_884;

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
