//! Property tests for budget-bounded queries: across random graphs, random
//! workloads and random settle caps, every backend's `query_cost_bounded_in`
//! either answers **bit-identically** to the exact `query_cost`, or returns
//! a flagged interval containing the exact answer, or a typed error. It
//! never makes an unflagged wrong exact claim, and never claims
//! unreachability it hasn't proven.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use td_api::{
    build_index, Backend, BoundedAnswer, IndexConfig, QueryBudget, QueryError, RoutingIndex,
};
use td_gen::random_graph::seeded_graph;
use td_plf::DAY;

fn check_bounded_soundness(
    index: &dyn RoutingIndex,
    queries: &[(u32, u32, f64)],
    budget: &QueryBudget,
) {
    let name = index.backend_name();
    for &(s, d, t) in queries {
        let exact = index.query_cost(s, d, t);
        match index.query_cost_bounded_in(&mut index.new_scratch(), s, d, t, budget) {
            Ok(answer) => {
                assert!(
                    answer.is_consistent_with(exact, td_api::conformance::COST_EPS),
                    "{name} s={s} d={d} t={t} {budget:?}: {answer:?} vs exact {exact:?}"
                );
                if let BoundedAnswer::Exact(cost) = answer {
                    assert_eq!(
                        cost.map(f64::to_bits),
                        exact.map(f64::to_bits),
                        "{name} s={s} d={d} t={t} {budget:?}: non-bit-identical exact claim"
                    );
                }
            }
            Err(QueryError::BudgetExhausted) => {}
            Err(e) => panic!("{name} s={s} d={d} t={t}: unexpected error {e}"),
        }
        if budget.is_unlimited() {
            assert!(
                index
                    .query_cost_bounded_in(&mut index.new_scratch(), s, d, t, budget)
                    .unwrap()
                    .is_exact(),
                "{name} s={s} d={d}: unlimited budget degraded"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bounded_answers_are_sound_for_every_backend(
        seed in 0u64..1_000,
        n in 12usize..28,
        batch_len in 1usize..24,
        cap in 0u64..5_000,
    ) {
        let g = seeded_graph(seed, n, n + n / 2, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0d6e7);
        let queries: Vec<(u32, u32, f64)> = (0..batch_len)
            .map(|_| {
                (
                    rng.gen_range(0..n) as u32,
                    rng.gen_range(0..n) as u32,
                    rng.gen_range(0.0..DAY),
                )
            })
            .collect();
        let cfg = IndexConfig {
            budget: 2_000,
            max_leaf: 6,
            threads: 1,
            ..Default::default()
        };
        for backend in Backend::ALL {
            let index = build_index(g.clone(), backend, &cfg);
            for budget in [QueryBudget::settles(cap), QueryBudget::UNLIMITED] {
                check_bounded_soundness(index.as_ref(), &queries, &budget);
            }
        }
    }
}
