//! Property tests: every batch entry point — `QuerySession::query_many` and
//! `ParallelExecutor::query_batch_into` at several worker counts — agrees with
//! individual `query_cost` calls, across random workloads of random
//! departure times.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use td_api::{build_index, Backend, IndexConfig, ParallelExecutor, QuerySession, RoutingIndex};
use td_gen::random_graph::seeded_graph;
use td_plf::DAY;

fn bits(results: &[Option<f64>]) -> Vec<Option<u64>> {
    results.iter().map(|c| c.map(f64::to_bits)).collect()
}

fn check_batches_match_singles(index: &dyn RoutingIndex, queries: &[(u32, u32, f64)]) {
    let singles: Vec<Option<f64>> = queries
        .iter()
        .map(|&(s, d, t)| index.query_cost(s, d, t))
        .collect();

    let mut session = QuerySession::new(index);
    let many = session.query_many(queries.iter().copied());
    assert_eq!(
        bits(&singles),
        bits(&many),
        "{}: query_many diverges from singles",
        index.backend_name()
    );

    let mut batch = Vec::new();
    for threads in [1, 3] {
        let mut exec = ParallelExecutor::new(index, threads);
        exec.query_batch_into(queries, &mut batch);
        assert_eq!(
            bits(&singles),
            bits(&batch),
            "{}: {threads}-thread query_batch_into diverges from singles",
            index.backend_name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batch_entry_points_agree_with_singles(
        seed in 0u64..1_000,
        n in 12usize..32,
        batch_len in 1usize..48,
    ) {
        let g = seeded_graph(seed, n, n + n / 2, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let queries: Vec<(u32, u32, f64)> = (0..batch_len)
            .map(|_| {
                (
                    rng.gen_range(0..n) as u32,
                    rng.gen_range(0..n) as u32,
                    rng.gen_range(0.0..DAY),
                )
            })
            .collect();
        let cfg = IndexConfig { budget: 1_500, max_leaf: 8, ..Default::default() };
        // One sweep-based backend, one matrix-based, and the oracle: the
        // three scratch families behind the session machinery.
        for backend in [Backend::TdAppro, Backend::TdGtree, Backend::Dijkstra] {
            let index = build_index(g.clone(), backend, &cfg);
            check_batches_match_singles(index.as_ref(), &queries);
        }
    }
}
