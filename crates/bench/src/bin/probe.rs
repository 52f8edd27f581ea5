//! Calibration probe: construction cost of each index at a given scale.
//!
//! Usage: `probe [SCALE] [--save PATH] [--load PATH]`
//!
//! `--save PATH` writes the TD-appro index as a `.tdx` snapshot after
//! building it; `--load PATH` skips that build entirely and times the
//! snapshot load instead — the restart path a deployment actually takes.
//! A build also runs again on one thread, and the probe prints how much
//! faster the two shortcut passes (weigh, build) ran on all cores.
use td_bench::timed;
use td_core::{BuildStats, IndexOptions, SelectionStrategy, TdTreeIndex};
use td_gen::Dataset;

/// The construction phases' wall times.
fn phases(st: &BuildStats) -> String {
    format!(
        "decompose {:.2}s weigh {:.2}s select {:.2}s build {:.2}s",
        st.decompose_secs, st.weigh_secs, st.select_secs, st.build_secs
    )
}

fn main() {
    let mut scale: f64 = 0.25;
    let mut save: Option<String> = None;
    let mut load: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--save" => save = Some(args.next().expect("--save PATH")),
            "--load" => load = Some(args.next().expect("--load PATH")),
            s => scale = s.parse().expect("probe [SCALE] [--save P] [--load P]"),
        }
    }
    let d = Dataset::Cal;
    let spec = d.spec();
    let g = spec.build_scaled(3, scale, 42);
    println!(
        "CAL scale={scale}: |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    );
    let (td, secs) = timed(|| td_treedec::TreeDecomposition::build(&g));
    let st = td.stats();
    println!(
        "decompose: {secs:.2}s  h={} w={} points={} bytes={}MB",
        st.height,
        st.width,
        st.stored_points,
        st.bytes / (1024 * 1024)
    );
    drop(td);
    let budget = spec.budget_at(scale);
    let idx = if let Some(path) = &load {
        let (idx, secs) = timed(|| td_api::load_tree_index(path).expect("load snapshot"));
        println!(
            "TD-appro load: {secs:.3}s from {path} ({} selected pairs)",
            idx.build_stats.selected_pairs
        );
        idx
    } else {
        let build = |threads| {
            TdTreeIndex::build(
                g.clone(),
                IndexOptions {
                    strategy: SelectionStrategy::Greedy {
                        budget: budget as u64,
                    },
                    threads,
                    track_supports: false,
                },
            )
        };
        let (idx, secs) = timed(|| build(0));
        let st = &idx.build_stats;
        println!(
            "TD-appro build: {secs:.2}s ({}) candidates={} selected={} budget={budget}",
            phases(st),
            st.candidates,
            st.selected_pairs
        );
        let (one, secs) = timed(|| build(1));
        let one = &one.build_stats;
        println!("TD-appro build on 1 thread: {secs:.2}s ({})", phases(one));
        println!(
            "shortcut passes on all cores: weigh {:.2}x, build {:.2}x the 1-thread speed",
            one.weigh_secs / st.weigh_secs,
            one.build_secs / st.build_secs
        );
        idx
    };
    if let Some(path) = &save {
        let (_, secs) = timed(|| td_api::save_index(&idx, path).expect("save snapshot"));
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!("TD-appro save: {secs:.3}s -> {path} ({bytes} bytes)");
    }
    drop(idx);
    let cfg = td_api::IndexConfig::default();
    let (h2h, secs) = timed(|| td_api::build_index(g.clone(), td_api::Backend::TdH2h, &cfg));
    println!(
        "TD-H2H build: {secs:.2}s labels={} mem={}MB",
        h2h.build_stats().precomputed_pairs,
        h2h.memory_bytes() / (1024 * 1024)
    );
    let (gt, secs) =
        timed(|| td_gtree::TdGtree::build(g.clone(), td_gtree::GtreeConfig::default()));
    println!(
        "TD-G-tree build: {secs:.2}s mem={}MB",
        gt.memory_bytes() / (1024 * 1024)
    );
}
