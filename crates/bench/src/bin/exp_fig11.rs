//! Fig. 11 — effect of the selection budget N on FLA: query cost and index
//! memory of TD-appro as N sweeps 1×..5× the base budget (the paper sweeps
//! 10M–50M on the real FLA).
//!
//! Expected shape (paper): memory grows linearly with N while query time
//! falls — more shortcuts, faster queries.
//!
//! Usage: `cargo run --release -p td-bench --bin exp_fig11 [--scale X]`

use td_api::{build_index, Backend, IndexConfig, QuerySession};
use td_bench::{avg_micros, fmt_bytes, timed, Csv, ExpArgs};
use td_gen::{Dataset, Workload, WorkloadConfig};

fn main() {
    let args = ExpArgs::parse(0.25);
    let spec = Dataset::Fla.spec();
    let g = spec.build_scaled(3, args.scale, args.seed);
    let n = g.num_vertices();
    let base = spec.budget_at(args.scale) as u64;
    println!("Fig. 11: Varying N on FLA analogue (|V|={n}, base N={base})",);
    let wl = Workload::generate(
        n,
        &WorkloadConfig {
            pairs: args.pairs.min(300),
            times_per_pair: 10,
            seed: args.seed,
        },
    );
    let mut csv = Csv::new("fig11_budget");
    let header = "budget_multiplier,budget,query_ms,memory_bytes,selected_pairs,construction_s";
    println!(
        "{:>4} {:>12} {:>14} {:>12} {:>10} {:>15}",
        "N/x", "budget", "query (ms)", "memory", "#pairs", "construction(s)"
    );
    td_bench::rule(75);
    for mult in 1..=5u64 {
        let budget = base * mult;
        let cfg = IndexConfig {
            budget,
            threads: args.threads,
            ..Default::default()
        };
        let (index, build_s) = timed(|| build_index(g.clone(), Backend::TdAppro, &cfg));
        let mut session = QuerySession::new(index.as_ref());
        let q = avg_micros(&wl.queries, |q| {
            session.query_cost(q.source, q.destination, q.depart);
        });
        println!(
            "{:>4} {:>12} {:>14.4} {:>12} {:>10} {:>15.1}",
            mult,
            budget,
            q / 1000.0,
            fmt_bytes(index.memory_bytes()),
            index.build_stats().precomputed_pairs,
            build_s
        );
        csv.row(
            header,
            format_args!(
                "{mult},{budget},{},{},{},{build_s}",
                q / 1000.0,
                index.memory_bytes(),
                index.build_stats().precomputed_pairs
            ),
        );
    }
    println!("\nWrote results/fig11_budget.csv");
}
