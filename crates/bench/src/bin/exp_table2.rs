//! Table 2 — dataset statistics: |V|, |E|, h(T_G), w(T_G) and the default
//! shortcut budget N, for the synthetic analogue of each paper dataset,
//! printed next to the paper's published values.
//!
//! Usage: `cargo run --release -p td-bench --bin exp_table2 [--scale X]`

use td_bench::{timed, Csv, ExpArgs};
use td_gen::Dataset;
use td_treedec::TreeDecomposition;

fn main() {
    let args = ExpArgs::parse(1.0);
    let mut csv = Csv::new("table2_datasets");
    println!(
        "Table 2: Statistics of datasets (synthetic analogues at scale {})",
        args.scale
    );
    println!(
        "{:<8} {:>9} {:>9} {:>7} {:>6} {:>12} | paper: (V, E, h, w, N)",
        "Dataset", "#Vertices", "#Edges", "h(TG)", "w(TG)", "N"
    );
    td_bench::rule(100);
    for d in Dataset::ALL {
        let spec = d.spec();
        let g = spec.build_scaled(3, args.scale, args.seed);
        let (td, secs) = timed(|| TreeDecomposition::build(&g));
        let st = td.stats();
        let budget = spec.budget_at(args.scale);
        let (pv, pe, ph, pw, pn) = d.paper_stats();
        println!(
            "{:<8} {:>9} {:>9} {:>7} {:>6} {:>12} | ({pv}, {pe}, {ph}, {pw}, {pn})  [decompose {secs:.1}s]",
            d.name(),
            g.num_vertices(),
            g.num_edges(),
            st.height,
            st.width,
            budget,
        );
        csv.row(
            "dataset,vertices,edges,height,width,budget,paper_vertices,paper_edges,paper_h,paper_w,paper_n",
            format_args!(
                "{},{},{},{},{},{},{pv},{pe},{ph},{pw},{pn}",
                d.name(),
                g.num_vertices(),
                g.num_edges(),
                st.height,
                st.width,
                budget
            ),
        );
    }
}
