//! Pins every bit of TD-appro's cost-function answers: the times, values and
//! witnesses of the profiles for the first 200 pairs of the seed-42 mix on
//! the CAL analogue at scale 0.25, folded into one hash. A change to the
//! profile sweeps that only skips work (a prune, a keep decided early) must
//! leave the constant alone; a change that moves an answer by one ulp fails.

use td_road::api::RoutingIndex;
use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::{Dataset, Workload, WorkloadConfig};

/// The hash of the 200 profiles, as answered before per-window keeps.
const PROFILE_BITS: u64 = 0xc682_f842_a33b_2210;

/// FNV-1a over 64-bit words.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

#[test]
fn td_appro_profiles_keep_their_bits() {
    let g = Dataset::Cal.build(3, 0.25, 42);
    let n = g.num_vertices();
    let budget = Dataset::Cal.spec().budget_at(0.25) as u64;
    let index = TdTreeIndex::build(
        g,
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget },
            ..Default::default()
        },
    );
    let mix = Workload::generate(
        n,
        &WorkloadConfig {
            pairs: 200,
            times_per_pair: 10,
            seed: 42,
        },
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, d) in mix.pairs() {
        match index.query_profile(s, d) {
            None => h = fold(h, u64::MAX),
            Some(f) => {
                h = fold(h, f.len() as u64);
                for p in f.points() {
                    h = fold(
                        fold(fold(h, p.t.to_bits()), p.v.to_bits()),
                        u64::from(p.via),
                    );
                }
            }
        }
    }
    assert_eq!(h, PROFILE_BITS, "profile bits moved: {h:#018x}");
}
