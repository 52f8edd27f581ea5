//! Pins every bit of TD-appro's cost-function answers: the times, values and
//! witnesses of the profiles for the first 200 pairs of the seed-42 mix on
//! the CAL analogue at scale 0.25, folded into one hash. A change to the
//! profile sweeps that only skips work (a prune, a keep decided early) must
//! leave the constant alone; a change that moves an answer by one ulp fails.
//!
//! The TD-G-tree baseline is pinned the same way over the same 200 pairs,
//! together with its travel costs and paths (cost and vertex count) at each
//! pair's 10 departure times.
//!
//! TD-appro's and TD-basic's travel costs and paths (cost and every vertex)
//! over all 2 000 queries of the mix are pinned as well: a change to the
//! scalar sweeps or to path recovery that moves an arrival or picks another
//! of two equal hops fails.

use td_road::api::RoutingIndex;
use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::{Dataset, Workload, WorkloadConfig};
use td_road::gtree::{GtreeConfig, TdGtree};
use td_road::plf::Plf;

/// The hash of the 200 profiles, as answered before per-window keeps.
const PROFILE_BITS: u64 = 0xc682_f842_a33b_2210;

/// The hash of G-tree's 200 profiles, 2 000 costs and 2 000 paths, as
/// answered while the profile query read owned matrix entries.
const GTREE_ANSWER_BITS: u64 = 0x57fb_26a4_1912_28ae;

/// The hash of TD-appro's and TD-basic's 2 000 costs and 2 000 paths, as
/// answered while the scalar sweeps recorded each slot's predecessor.
const TD_TREE_ANSWER_BITS: u64 = 0xdee1_bfc6_8e43_e70d;

/// FNV-1a over 64-bit words.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The first 200 pairs of the seed-42 mix, 10 departure times each.
fn mix(n: usize) -> Workload {
    Workload::generate(
        n,
        &WorkloadConfig {
            pairs: 200,
            times_per_pair: 10,
            seed: 42,
        },
    )
}

/// Folds a profile answer: its length and every point, or a marker.
fn fold_profile(h: u64, f: Option<Plf>) -> u64 {
    match f {
        None => fold(h, u64::MAX),
        Some(f) => f.points().iter().fold(fold(h, f.len() as u64), |h, p| {
            fold(
                fold(fold(h, p.t.to_bits()), p.v.to_bits()),
                u64::from(p.via),
            )
        }),
    }
}

/// The CAL-0.25 TD-tree index with the given selection.
fn td_tree(strategy: SelectionStrategy) -> TdTreeIndex {
    TdTreeIndex::build(
        Dataset::Cal.build(3, 0.25, 42),
        IndexOptions {
            strategy,
            ..Default::default()
        },
    )
}

/// TD-appro at the CAL budget for scale 0.25.
fn td_appro() -> TdTreeIndex {
    let budget = Dataset::Cal.spec().budget_at(0.25) as u64;
    td_tree(SelectionStrategy::Greedy { budget })
}

#[test]
fn td_appro_profiles_keep_their_bits() {
    let index = td_appro();
    let n = index.graph().num_vertices();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, d) in mix(n).pairs() {
        h = fold_profile(h, index.query_profile(s, d));
    }
    assert_eq!(h, PROFILE_BITS, "profile bits moved: {h:#018x}");
}

#[test]
fn td_tree_cost_and_path_answers_keep_their_bits() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for index in [td_appro(), td_tree(SelectionStrategy::Basic)] {
        for q in &mix(index.graph().num_vertices()).queries {
            let (s, d, t) = (q.source, q.destination, q.depart);
            h = fold(h, index.query_cost(s, d, t).map_or(u64::MAX, f64::to_bits));
            match index.query_path(s, d, t) {
                None => h = fold(h, u64::MAX),
                Some((cost, path)) => {
                    h = fold(fold(h, cost.to_bits()), path.vertices.len() as u64);
                    h = path.vertices.iter().fold(h, |h, &v| fold(h, u64::from(v)));
                }
            }
        }
    }
    assert_eq!(
        h, TD_TREE_ANSWER_BITS,
        "TD-tree answer bits moved: {h:#018x}"
    );
}

#[test]
fn gtree_answers_keep_their_bits() {
    let g = Dataset::Cal.build(3, 0.25, 42);
    let n = g.num_vertices();
    let gt = TdGtree::build(g, GtreeConfig { max_leaf: 32 });
    let mix = mix(n);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, d) in mix.pairs() {
        h = fold_profile(h, gt.query_profile(s, d));
    }
    for q in &mix.queries {
        let (s, d, t) = (q.source, q.destination, q.depart);
        h = fold(h, gt.query_cost(s, d, t).map_or(u64::MAX, f64::to_bits));
        match gt.query_path(s, d, t) {
            None => h = fold(h, u64::MAX),
            Some((cost, path)) => {
                h = fold(fold(h, cost.to_bits()), path.vertices.len() as u64);
            }
        }
    }
    assert_eq!(h, GTREE_ANSWER_BITS, "G-tree answer bits moved: {h:#018x}");
}
