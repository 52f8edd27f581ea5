//! Fig. 9 — index construction time and memory vs `c` on SF / COL / FLA for
//! TD-G-tree, TD-appro and TD-dp (construction-only: queries are skipped, so
//! this is cheaper than `exp_fig8`, which also emits this figure's data).
//!
//! Expected shape (paper): TD-appro/TD-dp construct ~2× faster than
//! TD-G-tree and stay stable as `c` grows; all memories grow with `c`, with
//! TD-dp/TD-appro comparable to TD-G-tree (the selection keeps them within
//! the budget N).
//!
//! Usage: `cargo run --release -p td-bench --bin exp_fig9 [--scale X]`

use td_api::Backend;
use td_bench::sweep::run_cell;
use td_bench::{Csv, ExpArgs};
use td_gen::Dataset;

fn main() {
    let args = ExpArgs::parse(0.25);
    let mut csv = Csv::new("fig9_construction_only");
    let header = "dataset,c,method,construction_s,memory_bytes";

    for dataset in [Dataset::Sf, Dataset::Col, Dataset::Fla] {
        println!("\n=== {} (scale {}) ===", dataset.name(), args.scale);
        println!(
            "{:>2} {:<10} {:>16} {:>12}",
            "c", "method", "construction(s)", "memory"
        );
        td_bench::rule(50);
        for c in 2..=6 {
            for m in [Backend::TdGtree, Backend::TdAppro, Backend::TdDp] {
                let row = run_cell(
                    dataset,
                    c,
                    m,
                    args.scale,
                    args.seed,
                    args.threads,
                    0,
                    0,
                    false,
                    args.snapshot_file(&format!("{}_c{}_{}", dataset.name(), c, m.name())),
                );
                println!(
                    "{:>2} {:<10} {:>16.1} {:>12}",
                    c,
                    row.method,
                    row.construction_s,
                    td_bench::fmt_bytes(row.memory_bytes)
                );
                csv.row(
                    header,
                    format_args!(
                        "{},{},{},{},{}",
                        row.dataset, row.c, row.method, row.construction_s, row.memory_bytes
                    ),
                );
            }
        }
    }
    println!("\nWrote results/fig9_construction_only.csv");
}
