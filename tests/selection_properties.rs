//! Selection-quality properties through the full index pipeline (not just
//! the knapsack in isolation): budget adherence, DP-vs-greedy bounds
//! (Theorem 2), and the Fig. 11 monotonicity (more budget ⇒ more memory,
//! never slower structure).

use proptest::prelude::*;
use td_road::api::{IndexConfig, RoutingIndex};
use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::random_graph::seeded_graph;

#[test]
fn budgets_are_respected_through_the_pipeline() {
    let g = seeded_graph(15, 45, 30, 3);
    for budget in [50u64, 500, 5_000, 50_000] {
        for strategy in [
            SelectionStrategy::Greedy { budget },
            SelectionStrategy::Dp {
                budget,
                weight_scale: 1,
            },
        ] {
            let ix = TdTreeIndex::build(
                g.clone(),
                IndexOptions {
                    strategy,
                    ..Default::default()
                },
            );
            assert!(
                ix.build_stats.selected_weight <= budget,
                "{strategy:?}: weight {} > budget {budget}",
                ix.build_stats.selected_weight
            );
            // The store's actual point count equals the reported weight.
            assert_eq!(
                ix.shortcuts().total_points() as u64,
                ix.build_stats.selected_weight,
                "{strategy:?}: stored points diverge from selection weight"
            );
        }
    }
}

#[test]
fn theorem2_holds_through_the_pipeline() {
    for seed in 20..24u64 {
        let g = seeded_graph(seed, 35, 22, 3);
        let budget = 2_000u64;
        let greedy = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget },
                ..Default::default()
            },
        );
        let dp = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Dp {
                    budget,
                    weight_scale: 1,
                },
                ..Default::default()
            },
        );
        let (ug, ud) = (
            greedy.build_stats.selected_utility,
            dp.build_stats.selected_utility,
        );
        assert!(ud >= ug - 1e-9, "seed={seed}: DP {ud} below greedy {ug}");
        assert!(
            ug >= 0.5 * ud - 1e-9,
            "seed={seed}: greedy {ug} < ½·OPT {ud}"
        );
    }
}

/// Theorem 2 at the weight bucketing the `td-api` factory gives TD-dp:
/// rounding every weight up must not drop the DP below the dual greedy.
#[test]
fn theorem2_holds_at_the_factory_weight_scale() {
    for seed in 20..24u64 {
        let g = seeded_graph(seed, 120, 90, 3);
        let budget = 30_000u64;
        let weight_scale = IndexConfig {
            budget,
            ..IndexConfig::default()
        }
        .dp_weight_scale();
        assert!(weight_scale > 1, "the factory buckets this budget");
        let stats = |strategy| {
            let options = IndexOptions {
                strategy,
                ..Default::default()
            };
            TdTreeIndex::build(g.clone(), options).build_stats
        };
        let greedy = stats(SelectionStrategy::Greedy { budget });
        let dp = stats(SelectionStrategy::Dp {
            budget,
            weight_scale,
        });
        assert!(dp.selected_weight <= budget, "seed={seed}: DP overshoots");
        assert!(
            dp.selected_utility >= greedy.selected_utility,
            "seed={seed}: DP {} at scale {weight_scale} below greedy {}",
            dp.selected_utility,
            greedy.selected_utility
        );
    }
}

#[test]
fn fig11_monotonicity_memory_grows_with_budget() {
    let g = seeded_graph(30, 50, 35, 3);
    let mut prev_mem = 0usize;
    let mut prev_pairs = 0usize;
    for mult in 1..=5u64 {
        let ix = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy {
                    budget: 1_000 * mult,
                },
                ..Default::default()
            },
        );
        assert!(
            ix.memory_bytes() >= prev_mem,
            "memory shrank when budget grew (mult={mult})"
        );
        assert!(ix.build_stats.selected_pairs >= prev_pairs);
        prev_mem = ix.memory_bytes();
        prev_pairs = ix.build_stats.selected_pairs;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (seed, budget) combination yields a valid, budget-respecting,
    /// correctly-answering index.
    #[test]
    fn random_budgets_never_break_the_index(seed in 0u64..500, budget in 10u64..20_000) {
        let g = seeded_graph(seed, 25, 15, 3);
        let ix = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget },
                ..Default::default()
            },
        );
        prop_assert!(ix.build_stats.selected_weight <= budget);
        // Spot-check three queries against the basic sweep (a TD-basic
        // index over the same graph).
        let basic = TdTreeIndex::build(g, IndexOptions::default());
        for (s, d) in [(0u32, 24u32), (5, 13), (20, 2)] {
            let a = ix.query_cost(s, d, 30_000.0);
            let b = basic.query_cost(s, d, 30_000.0);
            match (a, b) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-5),
                (None, None) => {}
                other => prop_assert!(false, "disagreement: {other:?}"),
            }
        }
    }
}
