//! Table 3 — performance on CAL: average travel-cost query time, index
//! construction time and memory for TD-G-tree, TD-H2H and TD-basic.
//!
//! Paper values (CAL, 21k vertices): TD-G-tree 0.16 ms / 0.006 h / 0.169 GB;
//! TD-H2H 0.0001 ms / 0.12 h / 3.7 GB; TD-basic 4.4 ms / 0.0002 h / 0.089 GB.
//! The expected *shape*: H2H is fastest but largest by far; basic is smallest
//! and fastest to build but slowest to query; G-tree sits in between.
//!
//! Usage: `cargo run --release -p td-bench --bin exp_table3 [--scale X] [--pairs N]`

use td_api::{build_index, Backend, IndexConfig, QuerySession};
use td_bench::{avg_micros, fmt_bytes, timed, Csv, ExpArgs};
use td_gen::{Dataset, Workload, WorkloadConfig};

fn main() {
    let args = ExpArgs::parse(1.0);
    let d = Dataset::Cal;
    let g = d.spec().build_scaled(3, args.scale, args.seed);
    let n = g.num_vertices();
    println!(
        "Table 3: Performance on CAL (|V|={n}, |E|={}, c=3)",
        g.num_edges()
    );
    let wl = Workload::generate(
        n,
        &WorkloadConfig {
            pairs: args.pairs,
            times_per_pair: 10,
            seed: args.seed,
        },
    );
    let mut csv = Csv::new("table3_cal");
    let header = "method,query_ms,construction_s,memory_bytes";
    println!(
        "{:<10} {:>14} {:>16} {:>10}   (paper: query / construction / memory)",
        "Method", "Query cost", "Construction", "Memory"
    );
    td_bench::rule(95);

    let cfg = IndexConfig {
        threads: args.threads,
        ..Default::default()
    };
    let rows: [(Backend, &str); 3] = [
        (Backend::TdGtree, "(0.16ms / 0.006h / 0.169GB)"),
        (Backend::TdH2h, "(0.0001ms / 0.12h / 3.7GB)"),
        (Backend::TdBasic, "(4.4ms / 0.0002h / 0.089GB)"),
    ];
    for (backend, paper) in rows {
        let (index, build_s) = timed(|| build_index(g.clone(), backend, &cfg));
        let mut session = QuerySession::new(index.as_ref());
        let q = avg_micros(&wl.queries, |q| {
            session.query_cost(q.source, q.destination, q.depart);
        });
        println!(
            "{:<10} {:>11.4}ms {:>15.1}s {:>10}   {paper}",
            backend.name(),
            q / 1000.0,
            build_s,
            fmt_bytes(index.memory_bytes())
        );
        csv.row(
            header,
            format_args!(
                "{},{},{},{}",
                backend.name(),
                q / 1000.0,
                build_s,
                index.memory_bytes()
            ),
        );
    }
}
