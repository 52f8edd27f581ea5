//! Pins every bit of a built TD-appro index on the CAL analogue at scale
//! 0.25: the serialized tree (every `Ws`/`Wd` label) and shortcut store
//! (every stored row), the selection's utility and weight, and
//! `memory_bytes`, folded into one hash — at one and at two build threads.
//! The merge kernels make every label and every stored function, so a
//! change to them that only skips work must leave the constant alone. The
//! snapshot's stats section is left out: it holds timings.

use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::Dataset;
use td_road::store::Persist;

/// The hash of the built index, recorded before the merge kernels simplified
/// in place and took candidates by window.
const INDEX_BITS: u64 = 0x41a3_a8e6_c02d_b48c;

/// FNV-1a over bytes.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn index_hash(threads: usize) -> u64 {
    let g = Dataset::Cal.build(3, 0.25, 42);
    let budget = Dataset::Cal.spec().budget_at(0.25) as u64;
    let index = TdTreeIndex::build(
        g,
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget },
            threads,
            ..Default::default()
        },
    );
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
    let mut h = fold(0xcbf2_9ce4_8422_2325, &bytes);
    h = fold(h, &stats.selected_utility.to_bits().to_le_bytes());
    h = fold(h, &stats.selected_weight.to_le_bytes());
    fold(h, &(index.memory_bytes() as u64).to_le_bytes())
}

#[test]
fn td_appro_index_keeps_its_bits_at_one_and_two_threads() {
    for threads in [1, 2] {
        let h = index_hash(threads);
        assert_eq!(
            h, INDEX_BITS,
            "index bits moved at {threads} threads: {h:#018x}"
        );
    }
}
