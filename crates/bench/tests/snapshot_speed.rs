//! Acceptance check for the snapshot subsystem's whole reason to exist:
//! restarting from a CAL snapshot must cost little more than reading it.
//!
//! The yardstick is the file itself: one pass that reads every section and
//! verifies its CRC32 without interpreting anything (what `tdx verify` does
//! before it loads). A load does that same pass and decodes the index into
//! the arenas its queries read besides, so `load / checksum` is at least 1
//! and moves only with the load's own code: a faster build or a busier
//! neighbour moves both sides alike. Each bar sits about 1.4× above the ratio measured
//! with the machine to itself, so a load that really got 2× slower fails
//! while ordinary noise passes. The build-to-load ratio is printed for the
//! record and not asserted: it moves with the build's speed, not the
//! load's.
//!
//! * **TD-appro** (the paper's index): construction runs the full `O(n·h)`
//!   candidate weigh pass, then stores only the budget-bounded selection,
//!   so the snapshot stays small. Its load must stay **≤ 3×** the checksum
//!   pass (1.8–2.1× on two cores).
//! * **TD-H2H** (the full-label baseline) at CAL-0.5: a checksummed load
//!   moves hundreds of megabytes of labels back in. The snapshot must
//!   answer **bit-identically** and load in **≤ 3.7×** the checksum pass
//!   (2.6–2.7× on two cores). A one-thread and an all-cores build are
//!   printed beside it.
//!
//! Each measurement takes the best of five checksum passes and five loads,
//! in turns, and the check the best of up to three measurements, so one
//! load caught under another test's traffic does not fail it. Meaningful timings
//! need optimized code, so the assertions only run in release builds
//! (`cargo test --release -p td-bench --test snapshot_speed`, as the CI
//! snapshot job does); a debug run skips early instead of reporting a
//! meaningless ratio.

use std::io::BufReader;
use std::path::Path;
use td_api::{build_index, load_index, save_index, Backend, IndexConfig, RoutingIndex};
use td_bench::timed;
use td_gen::Dataset;
use td_store::{format::read_header, section::walk_sections};

struct Measured {
    build_secs: f64,
    load_secs: f64,
    checksum_secs: f64,
}

impl Measured {
    /// What the load costs beyond reading and checksumming the same file.
    fn load_over_checksum(&self) -> f64 {
        self.load_secs / self.checksum_secs
    }
}

/// One pass over `path` that reads every section and verifies its checksum,
/// interpreting nothing.
fn checksum(path: &Path) {
    let mut r = BufReader::new(std::fs::File::open(path).expect("open"));
    read_header(&mut r).expect("header");
    walk_sections(&mut r).expect("every checksum holds");
}

/// Builds `backend` on CAL at `scale` with `threads` workers (0 = all
/// cores), saves it, checksums and loads it back and checks the answers
/// match.
fn measure(backend: Backend, scale: f64, threads: usize) -> Measured {
    let spec = Dataset::Cal.spec();
    let graph = spec.build_scaled(3, scale, 42);
    let n = graph.num_vertices();

    let cfg = IndexConfig {
        budget: spec.budget_at(scale) as u64,
        threads,
        ..Default::default()
    };
    let (index, build_secs) = timed(|| build_index(graph, backend, &cfg));

    let dir = std::env::temp_dir().join("td-road-snapshot-speed");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("cal-{backend}-{}.tdx", std::process::id()));
    let (_, save_secs) = timed(|| save_index(index.as_ref(), &path).expect("save"));

    // Best of five of each, taken in turns so both see the same machine
    // (all but the first hit the warm page cache, like any restarting
    // service re-reading a recently written snapshot).
    let (mut checksum_secs, mut load_secs) = (f64::INFINITY, f64::INFINITY);
    let mut loaded: Option<Box<dyn RoutingIndex>> = None;
    for _ in 0..5 {
        checksum_secs = checksum_secs.min(timed(|| checksum(&path)).1);
        let (l, s) = timed(|| load_index(&path).expect("load"));
        load_secs = load_secs.min(s);
        loaded = Some(l);
    }
    let loaded = loaded.expect("three loads ran");
    std::fs::remove_file(&path).ok();

    // The loaded index answers bit-identically.
    for (s, d, t) in [
        (0u32, (n - 1) as u32, 8.0 * 3600.0),
        (3, (n / 2) as u32, 100.0),
        ((n - 5) as u32, 7, 70_000.0),
    ] {
        assert_eq!(
            index.query_cost(s, d, t).map(f64::to_bits),
            loaded.query_cost(s, d, t).map(f64::to_bits),
            "{backend} s={s} d={d} t={t}"
        );
    }

    let m = Measured {
        build_secs,
        load_secs,
        checksum_secs,
    };
    eprintln!(
        "CAL {backend} (|V|={n}, threads {threads}): build {build_secs:.3}s, \
         save {save_secs:.3}s, checksum {checksum_secs:.4}s, load {load_secs:.4}s — \
         load/checksum {:.2}x, build/load {:.2}x",
        m.load_over_checksum(),
        build_secs / load_secs
    );
    m
}

/// True in a debug build, after saying the timing assertions are skipped.
fn debug_build() -> bool {
    if cfg!(debug_assertions) {
        eprintln!("snapshot_speed: skipped in debug builds (timing assertion needs --release)");
    }
    cfg!(debug_assertions)
}

/// Asserts `backend` loads in at most `bar` times the checksum pass over
/// its own snapshot, on the best of up to three measurements.
fn assert_load_near_checksum(backend: Backend, scale: f64, threads: usize, bar: f64) {
    let mut m = measure(backend, scale, threads);
    for _ in 0..2 {
        if m.load_over_checksum() <= bar {
            break;
        }
        let again = measure(backend, scale, threads);
        if again.load_over_checksum() < m.load_over_checksum() {
            m = again;
        }
    }
    assert!(
        m.load_over_checksum() <= bar,
        "{backend} load must cost <= {bar}x a checksum pass over its snapshot: \
         load {:.4}s vs checksum {:.4}s ({:.2}x; build {:.3}s)",
        m.load_secs,
        m.checksum_secs,
        m.load_over_checksum(),
        m.build_secs
    );
}

#[test]
fn loading_cal_td_appro_costs_little_more_than_checksumming_it() {
    if debug_build() {
        return;
    }
    assert_load_near_checksum(Backend::TdAppro, 1.0, 0, 3.0);
}

#[test]
fn loading_cal_td_h2h_costs_little_more_than_checksumming_it_bit_identically() {
    if debug_build() {
        return;
    }
    assert_load_near_checksum(Backend::TdH2h, 0.5, 1, 3.7);
    // The all-cores build, for the record: printed, not asserted.
    measure(Backend::TdH2h, 0.5, 0);
}
