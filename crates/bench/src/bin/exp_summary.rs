//! §5.4 summary numbers — the TD-dp vs TD-appro trade-off on one dataset:
//! construction-time gap (paper: TD-dp takes 0.01–0.2 h more) and query-time
//! gap (paper: TD-dp is slightly faster, by no more than 30 ms).
//!
//! Usage: `cargo run --release -p td-bench --bin exp_summary [--scale X]
//!          [--save DIR | --load DIR]`
//!
//! `--load DIR` reuses one built index per cell across repeated runs
//! (build-or-load `.tdx` snapshots); `--save DIR` forces a fresh build and
//! rewrites the snapshots.

use td_api::Backend;
use td_bench::sweep::run_cell;
use td_bench::{Csv, ExpArgs};
use td_gen::Dataset;

fn main() {
    let args = ExpArgs::parse(0.25);
    let mut csv = Csv::new("summary_dp_vs_appro");
    let header = "dataset,method,cost_query_ms,profile_query_ms,construction_s,memory_bytes";
    println!(
        "§5.4 summary: TD-dp vs TD-appro (c=3, scale {})",
        args.scale
    );
    println!(
        "{:<6} {:<10} {:>15} {:>19} {:>16} {:>12}",
        "data", "method", "cost query (ms)", "function query (ms)", "construction (s)", "memory"
    );
    td_bench::rule(85);
    for dataset in [Dataset::Col, Dataset::Fla] {
        let mut rows = Vec::new();
        for m in [Backend::TdAppro, Backend::TdDp] {
            let row = run_cell(
                dataset,
                3,
                m,
                args.scale,
                args.seed,
                args.threads,
                300,
                150,
                true,
                args.snapshot_file(&format!("{}_c3_{}", dataset.name(), m.name())),
            );
            println!(
                "{:<6} {:<10} {:>15.4} {:>19.3} {:>16.1} {:>12}",
                row.dataset,
                row.method,
                row.cost_query_ms,
                row.profile_query_ms,
                row.construction_s,
                td_bench::fmt_bytes(row.memory_bytes)
            );
            csv.row(
                header,
                format_args!(
                    "{},{},{},{},{},{}",
                    row.dataset,
                    row.method,
                    row.cost_query_ms,
                    row.profile_query_ms,
                    row.construction_s,
                    row.memory_bytes
                ),
            );
            rows.push(row);
        }
        let (appro, dp) = (&rows[0], &rows[1]);
        println!(
            "   -> dp construction overhead: {:+.1}s; dp query gain: {:+.3}ms (function query)",
            dp.construction_s - appro.construction_s,
            appro.profile_query_ms - dp.profile_query_ms
        );
    }
}
