//! Ablation of the paper's design choices, on real candidate sets.
//!
//! 1. **Selection strategies** (§4.4): utility-only greedy vs density-only
//!    greedy vs the paper's dual greedy (Algo. 5) vs exact DP (Algo. 4) —
//!    achieved utility under the same budget. The paper's argument that
//!    *both* greedy views are needed shows up as the dual matching DP while
//!    the single strategies fall short on some budgets.
//! 2. **Budget pressure**: the same comparison across budgets from 1% to 50%
//!    of the total candidate weight.
//!
//! Usage: `cargo run --release -p td-bench --bin exp_ablation [--scale X]`

use td_api::IndexConfig;
use td_bench::{timed, Csv, ExpArgs};
use td_core::select::{
    select_dp, select_greedy, select_greedy_density_only, select_greedy_utility_only,
};
use td_core::shortcut::weigh_candidates;
use td_gen::Dataset;
use td_treedec::TreeDecomposition;

fn main() {
    let args = ExpArgs::parse(0.2);
    let g = Dataset::Sf.spec().build_scaled(3, args.scale, args.seed);
    let td = TreeDecomposition::build(&g);
    let width = td.stats().width;
    let (candidates, secs) = timed(|| weigh_candidates(&td, width, args.threads));
    let total_weight: u64 = candidates.iter().map(|c| c.weight as u64).sum();
    println!(
        "Ablation on SF analogue: |V|={} candidates={} (weighed in {secs:.1}s), total weight={total_weight}",
        g.num_vertices(),
        candidates.len()
    );
    let mut csv = Csv::new("ablation_selection");
    let header = "budget_pct,strategy,utility,utility_vs_dp,seconds";
    println!(
        "{:>7} {:<14} {:>14} {:>9} {:>9}",
        "budget%", "strategy", "utility", "vs DP", "time(s)"
    );
    td_bench::rule(60);
    for pct in [1u64, 5, 10, 25, 50] {
        let budget = total_weight * pct / 100;
        let scale = IndexConfig {
            budget,
            ..Default::default()
        }
        .dp_weight_scale();
        let (dp, dp_secs) = timed(|| select_dp(&candidates, budget, scale));
        let runs: Vec<(&str, f64, f64)> = {
            let (u, su) = timed(|| select_greedy_utility_only(&candidates, budget));
            let (d, sd) = timed(|| select_greedy_density_only(&candidates, budget));
            let (g2, sg) = timed(|| select_greedy(&candidates, budget));
            vec![
                ("utility-only", u.utility, su),
                ("density-only", d.utility, sd),
                ("dual (Algo.5)", g2.utility, sg),
                ("DP (Algo.4)", dp.utility, dp_secs),
            ]
        };
        for (name, utility, secs) in runs {
            let ratio = if dp.utility > 0.0 {
                utility / dp.utility
            } else {
                1.0
            };
            println!(
                "{:>6}% {:<14} {:>14.1} {:>8.3} {:>9.2}",
                pct, name, utility, ratio, secs
            );
            csv.row(
                header,
                format_args!("{pct},{name},{utility},{ratio},{secs}"),
            );
        }
    }
    println!("\nWrote results/ablation_selection.csv");
}
