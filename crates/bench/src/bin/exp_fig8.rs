//! Fig. 8 — query efficiency vs the interpolation-point parameter `c`:
//!
//! * panes (a)/(b): CAL with TD-G-tree, TD-basic, TD-H2H;
//! * panes (c)–(h): SF / COL / FLA with TD-G-tree, TD-appro, TD-dp;
//! * left column = travel cost query, right column = cost function query.
//!
//! Because the same index builds also produce Fig. 9's construction-time and
//! memory series, this binary writes `results/fig8_queries.csv` *and*
//! `results/fig9_construction.csv` in one run.
//!
//! Expected shape (paper): TD-dp/TD-appro beat TD-G-tree on every dataset and
//! grow slowly with `c`; TD-basic is orders of magnitude slower than both;
//! TD-H2H is fastest on CAL but cannot scale beyond it.
//!
//! Usage: `cargo run --release -p td-bench --bin exp_fig8 [--scale X] [--pairs N]`

use td_api::Backend;
use td_bench::sweep::run_cell;
use td_bench::{Csv, ExpArgs};
use td_gen::Dataset;

fn main() {
    let args = ExpArgs::parse(0.25); // sweep default: 15 builds per dataset group
    let cost_queries = args.pairs.min(300);
    let profile_queries = 150;
    let mut q_csv = Csv::new("fig8_queries");
    let mut c_csv = Csv::new("fig9_construction");
    let qh = "dataset,c,method,cost_query_ms,profile_query_ms";
    let ch = "dataset,c,method,construction_s,memory_bytes";

    let groups: [(Dataset, &[Backend]); 4] = [
        (
            Dataset::Cal,
            &[Backend::TdGtree, Backend::TdBasic, Backend::TdH2h],
        ),
        (
            Dataset::Sf,
            &[Backend::TdGtree, Backend::TdAppro, Backend::TdDp],
        ),
        (
            Dataset::Col,
            &[Backend::TdGtree, Backend::TdAppro, Backend::TdDp],
        ),
        (
            Dataset::Fla,
            &[Backend::TdGtree, Backend::TdAppro, Backend::TdDp],
        ),
    ];

    for (dataset, methods) in groups {
        println!("\n=== {} (scale {}) ===", dataset.name(), args.scale);
        println!(
            "{:>2} {:<10} {:>16} {:>20} {:>15} {:>12}",
            "c", "method", "cost query (ms)", "function query (ms)", "construction(s)", "memory"
        );
        td_bench::rule(85);
        for c in 2..=6 {
            for &m in methods {
                let row = run_cell(
                    dataset,
                    c,
                    m,
                    args.scale,
                    args.seed,
                    args.threads,
                    cost_queries,
                    profile_queries,
                    true,
                    args.snapshot_file(&format!("{}_c{}_{}", dataset.name(), c, m.name())),
                );
                println!(
                    "{:>2} {:<10} {:>16.4} {:>20.3} {:>15.1} {:>12}",
                    c,
                    row.method,
                    row.cost_query_ms,
                    row.profile_query_ms,
                    row.construction_s,
                    td_bench::fmt_bytes(row.memory_bytes)
                );
                q_csv.row(
                    qh,
                    format_args!(
                        "{},{},{},{},{}",
                        row.dataset, row.c, row.method, row.cost_query_ms, row.profile_query_ms
                    ),
                );
                c_csv.row(
                    ch,
                    format_args!(
                        "{},{},{},{},{}",
                        row.dataset, row.c, row.method, row.construction_s, row.memory_bytes
                    ),
                );
            }
        }
    }
    println!("\nWrote results/fig8_queries.csv and results/fig9_construction.csv");
}
