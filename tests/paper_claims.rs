//! The paper's claims as shapes of deterministic counts, never timings: each
//! test builds small CAL analogues and compares what the queries and the
//! builds *did* — the scalar census's evaluations and covered share, and
//! `memory_bytes` — across the indexes the paper compares.
//!
//! Only claims that hold today are asserted. Two that do not stay in
//! ROADMAP's claims table until a change makes them true, and that change
//! adds its assertion here: TD-appro's cost queries at the default budget
//! read the shortcut store (no LCA cut is fully covered, so they run
//! TD-basic's sweeps), and a small update batch recomputes little.

use td_road::api::IndexConfig;
use td_road::core::{CostCounts, CostScratch, IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::{Dataset, Workload, WorkloadConfig};
use td_road::graph::TdGraph;

/// CAL at a tenth of its scale: the six builds here take about two seconds
/// together in a debug build on two cores.
const SCALE: f64 = 0.1;

fn graph() -> TdGraph {
    Dataset::Cal.build(3, SCALE, 42)
}

fn build(g: TdGraph, strategy: SelectionStrategy) -> TdTreeIndex {
    TdTreeIndex::build(
        g,
        IndexOptions {
            strategy,
            threads: 2,
            ..Default::default()
        },
    )
}

/// The scalar census of one pass of the seeded mix over `index`.
fn census(index: &TdTreeIndex, mix: &Workload) -> CostCounts {
    let mut scratch = CostScratch::default();
    for q in &mix.queries {
        index.query_cost_with(&mut scratch, q.source, q.destination, q.depart);
    }
    scratch.counts
}

fn mix(n: usize) -> Workload {
    let cfg = WorkloadConfig {
        pairs: 200,
        times_per_pair: 5,
        seed: 7,
    };
    Workload::generate(n, &cfg)
}

/// Table 3: full shortcuts make a travel-cost query evaluate fewer
/// functions. TD-H2H covers every LCA cut and reads one stored pair per cut
/// vertex; TD-basic sweeps both root paths.
#[test]
fn td_h2h_evaluates_fewer_functions_than_td_basic() {
    let g = graph();
    let mix = mix(g.num_vertices());
    let basic = census(&build(g.clone(), SelectionStrategy::Basic), &mix);
    let h2h = census(&build(g, SelectionStrategy::All), &mix);
    assert!(
        h2h.evals < basic.evals,
        "TD-H2H evaluated {} functions, TD-basic {}",
        h2h.evals,
        basic.evals
    );
}

/// Fig. 11: a larger budget buys more shortcuts — the index does not shrink
/// and the share of cost queries answered from a full cover does not fall,
/// and over 1× to 8× it grows (at this scale 4× already stores every pair).
#[test]
fn td_appro_covers_no_less_and_stores_no_less_as_the_budget_grows() {
    let g = graph();
    let mix = mix(g.num_vertices());
    let budget = Dataset::Cal.spec().budget_at(SCALE) as u64;
    let mut first = None;
    let mut last = (0, 0);
    for times in [1, 2, 4, 8] {
        let index = build(
            g.clone(),
            SelectionStrategy::Greedy {
                budget: times * budget,
            },
        );
        let (covered, bytes) = (census(&index, &mix).covered, index.memory_bytes());
        assert!(
            covered >= last.0 && bytes >= last.1,
            "at {times}x the budget: {covered} covered, {bytes} B; before: {last:?}"
        );
        last = (covered, bytes);
        first.get_or_insert(last);
    }
    assert!(
        first.is_some_and(|f| last.0 > f.0),
        "8x covers no more than 1x"
    );
}

/// Theorem 2 (§5.4): TD-dp's knapsack is exact, so it selects no less
/// utility than TD-appro's dual greedy — also at the weight bucketing the
/// `td-api` factory gives TD-dp at this budget, which rounds every weight up.
#[test]
fn td_dp_selects_no_less_utility_than_td_appro() {
    let g = graph();
    let budget = Dataset::Cal.spec().budget_at(SCALE) as u64;
    let weight_scale = IndexConfig {
        budget,
        ..IndexConfig::default()
    }
    .dp_weight_scale();
    let appro = build(g.clone(), SelectionStrategy::Greedy { budget }).build_stats;
    let dp = build(
        g,
        SelectionStrategy::Dp {
            budget,
            weight_scale,
        },
    )
    .build_stats;
    assert!(
        dp.selected_utility >= appro.selected_utility && dp.selected_weight <= budget,
        "TD-dp (weight scale {weight_scale}) selected utility {} at weight {}, \
         TD-appro {} at weight {} (budget {budget})",
        dp.selected_utility,
        dp.selected_weight,
        appro.selected_utility,
        appro.selected_weight
    );
}
