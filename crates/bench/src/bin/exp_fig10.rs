//! Fig. 10 — index update cost on SF: total time to apply weight updates to
//! 10 / 100 / 1,000 / … randomly chosen edges of a TD-appro index built with
//! support tracking.
//!
//! Expected shape (paper): update time grows with the number of updated
//! edges and stays far below a full rebuild for small batches.
//!
//! Usage: `cargo run --release -p td-bench --bin exp_fig10 [--scale X]`

use rand::prelude::*;
use rand::rngs::StdRng;
use td_bench::{timed, Csv, ExpArgs};
use td_core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_gen::random_graph::random_profile;
use td_gen::Dataset;

fn main() {
    let args = ExpArgs::parse(0.25);
    let spec = Dataset::Sf.spec();
    let g = spec.build_scaled(3, args.scale, args.seed);
    let budget = spec.budget_at(args.scale) as u64;
    println!(
        "Fig. 10: Index update on SF analogue (|V|={}, |E|={})",
        g.num_vertices(),
        g.num_edges()
    );
    let (index, build_s) = timed(|| {
        TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget },
                threads: args.threads,
                track_supports: true,
            },
        )
    });
    println!("TD-appro built in {build_s:.1}s (reference: full rebuild cost)");
    let mut csv = Csv::new("fig10_updates");
    let header = "updated_edges,update_s,replay_s,rebuild_s,changed_nodes,full_rebuild_s";
    println!(
        "{:>14} {:>12} {:>10} {:>10} {:>14}",
        "#updated edges", "update (s)", "replay(s)", "rebuild(s)", "changed nodes"
    );
    td_bench::rule(70);

    let m = g.num_edges();
    let batches: Vec<usize> = [10usize, 100, 1_000, 10_000, 100_000]
        .into_iter()
        .filter(|&b| b <= m)
        .collect();
    for &batch in &batches {
        // Fresh index per batch so measurements are independent.
        let mut index = TdTreeIndex::build(
            g.clone(),
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget },
                threads: args.threads,
                track_supports: true,
            },
        );
        let mut rng = StdRng::seed_from_u64(args.seed ^ batch as u64);
        let mut picked: Vec<u32> = (0..m as u32).collect();
        picked.shuffle(&mut rng);
        let changes: Vec<_> = picked[..batch]
            .iter()
            .map(|&e| {
                let edge = index.graph().edge(e);
                (edge.from, edge.to, random_profile(&mut rng, 3, 5.0, 500.0))
            })
            .collect();
        let (stats, secs) = timed(|| index.update_edges(&changes));
        println!(
            "{:>14} {:>12.2} {:>10.2} {:>10.2} {:>14}",
            batch, secs, stats.replay_secs, stats.rebuild_secs, stats.changed_nodes
        );
        csv.row(
            header,
            format_args!(
                "{batch},{secs},{},{},{},{build_s}",
                stats.replay_secs, stats.rebuild_secs, stats.changed_nodes
            ),
        );
        let _ = index;
    }
    println!("\nWrote results/fig10_updates.csv");
    drop(index);
}
