//! The allocation discipline README claims for every backend, checked where
//! CI runs it: a warmed scratch answers travel-cost queries with **zero**
//! heap allocations, alone and inside a [`ParallelExecutor`] worker. The
//! cost-function query builds functions and so allocates; what is pinned for
//! it on the four TD-tree backends is that a warmed scratch allocates the
//! same number of times on every run, and never more than the current code
//! does.
//!
//! One `#[test]` in a binary of its own, so no other test's thread can bump
//! the process-wide counter while a count is taken.

#[path = "../support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocs;

use std::hint::black_box;
use td_api::{build_index, Backend, IndexConfig, ParallelExecutor, SessionScratch};
use td_gen::{Dataset, Workload, WorkloadConfig};

/// Allocations of one pass over the mix's 40 pairs through
/// `query_profile_in` on a twice-warmed scratch, as counted with the
/// corridor-first profile query, the one-pass compound, per-window keeps and
/// takes, and compounds simplified in place (a seed copy, a first-hop label
/// copy and the breakpoint list of a walked relaxation each allocate; a
/// built compound is that list, simplified in place, so it allocates once;
/// a merge the windows keep allocates nothing). A change that re-grows any
/// of them fails here; one that shrinks them lowers the ceiling.
///
/// `(backend, release, debug)`: debug builds shadow every window keep with
/// the walk it skips, on a copy of the slot, which allocates.
const PROFILE_ALLOCS_CEILING: [(Backend, u64, u64); 4] = [
    (Backend::TdBasic, 906, 1202),
    (Backend::TdAppro, 871, 1121),
    (Backend::TdDp, 871, 1121),
    (Backend::TdH2h, 121, 121),
];

#[test]
fn warmed_cost_queries_allocate_nothing_on_any_backend() {
    let spec = Dataset::Cal.spec();
    let g = spec.build_scaled(3, 0.06, 42); // ~310 vertices
    let cfg = IndexConfig {
        budget: spec.budget_at(0.06) as u64,
        ..Default::default()
    };
    // The paper's mix: 40 pairs at 10 departure times each.
    let mix_cfg = WorkloadConfig {
        pairs: 40,
        times_per_pair: 10,
        seed: 3,
    };
    let mix: Vec<(u32, u32, f64)> = Workload::generate(g.num_vertices(), &mix_cfg)
        .queries
        .iter()
        .map(|q| (q.source, q.destination, q.depart))
        .collect();
    // The mix lists each pair's ten departure times back to back.
    let mut pairs: Vec<(u32, u32)> = mix.iter().map(|&(s, d, _)| (s, d)).collect();
    pairs.dedup();
    assert_eq!(pairs.len(), 40);
    for backend in Backend::ALL {
        let index = build_index(g.clone(), backend, &cfg);
        let index = index.as_ref();

        let mut scratch = index.new_scratch();
        let answer_mix = |scratch: &mut SessionScratch| {
            for &(s, d, t) in &mix {
                black_box(index.query_cost_in(scratch, s, d, t));
            }
        };
        answer_mix(&mut scratch);
        answer_mix(&mut scratch);
        assert_eq!(
            allocs(|| answer_mix(&mut scratch)),
            0,
            "{backend}: a warmed scratch must not allocate"
        );

        if let Some(&(_, release, debug)) =
            PROFILE_ALLOCS_CEILING.iter().find(|(b, ..)| *b == backend)
        {
            let ceiling = if cfg!(debug_assertions) {
                debug
            } else {
                release
            };
            let answer_pairs = |scratch: &mut SessionScratch| {
                for &(s, d) in &pairs {
                    black_box(index.query_profile_in(scratch, s, d));
                }
            };
            answer_pairs(&mut scratch);
            answer_pairs(&mut scratch);
            let count = allocs(|| answer_pairs(&mut scratch));
            assert_eq!(
                allocs(|| answer_pairs(&mut scratch)),
                count,
                "{backend}: a warmed profile pass must allocate the same every run"
            );
            assert!(
                count <= ceiling,
                "{backend}: 40 warmed profile queries allocate {count} times, ceiling {ceiling}"
            );
        }

        // What a batch allocates is its two scoped spawns, however many
        // queries the warmed workers answer. Which chunks a worker takes
        // varies from run to run and its scratch is warm only for the
        // queries it has met, so each size is read as its floor over a few
        // runs: scratches never shrink, so the floor is the warmed cost.
        let mut exec = ParallelExecutor::new(index, 2);
        let mut out = Vec::new();
        let half = &mix[..mix.len() / 2];
        let (mut full_batch, mut half_batch) = (u64::MAX, u64::MAX);
        for _ in 0..8 {
            full_batch = full_batch.min(allocs(|| exec.query_batch_into(&mix, &mut out)));
            half_batch = half_batch.min(allocs(|| exec.query_batch_into(half, &mut out)));
        }
        assert_eq!(
            full_batch, half_batch,
            "{backend}: warmed workers must not allocate per query"
        );
    }
}
