//! One untraced run of one workload: the end-to-end metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::calibrate::SpeedGauge;
use crate::report::Report;
use crate::stats;
use crate::workloads::{peak_rss_mb, Inputs, WorkloadKind};

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where span files, result files and the snapshot probe go.
    pub out_dir: PathBuf,
    /// Also append the result line to this file (for `compare`).
    pub record: Option<PathBuf>,
}

/// Sets `kind` up once; returns the product and the set-up time in seconds
/// at the reference speed (see `calibrate`).
fn timed_set_up<'a>(
    kind: WorkloadKind,
    inputs: &'a Inputs,
) -> (Box<dyn crate::workloads::Workload + 'a>, f64) {
    let mut gauge = SpeedGauge::start();
    let start = Instant::now();
    let workload = kind.set_up(inputs);
    let secs = start.elapsed().as_secs_f64();
    (workload, secs * gauge.lap())
}

/// Set up, measure the window, read the peak resident set — one
/// deployment's life — then set up again (each product dropped at once) so
/// that `setup_s` is a median and not a single reading.
pub fn untraced(opts: &RunOpts) -> Result<Report, String> {
    let inputs = Inputs::generate(opts.seed);
    let kind = opts.workload;
    let (mut workload, first_secs) = timed_set_up(kind, &inputs);
    let measured = workload.measure(Duration::from_secs_f64(opts.seconds), None);
    let index_bytes = workload.index_bytes();
    drop(workload);
    let peak_rss = peak_rss_mb()?;
    let mut set_up_secs = vec![first_secs];
    for _ in 1..kind.setups() {
        set_up_secs.push(timed_set_up(kind, &inputs).1);
    }

    let (p50, p90, samples) = measured.latencies.finish(kind.name())?;
    let mut report = Report::default();
    report.set("setup_s", stats::median(&mut set_up_secs));
    report.set("latency_p50_us", p50);
    report.set("latency_p90_us", p90);
    report.set("throughput_ops_s", measured.throughput_ops_s);
    report.set("index_bytes", index_bytes as f64);
    report.set("peak_rss_mb", peak_rss);
    report.count_served((measured.attempted, measured.failed, measured.wrong));
    report.problems = measured.problems;
    eprintln!(
        "{}: {samples} latency samples, oracle pass {:.3} s (not in setup_s), {} set-ups",
        kind.name(),
        inputs.oracle_s,
        kind.setups()
    );
    let mut speeds = measured.speeds;
    if !speeds.is_empty() {
        let median = stats::median(&mut speeds);
        eprintln!(
            "{}: times are at the reference speed; this box ran at {:.2}x of it (median of {} \
             slices, {:.2}x to {:.2}x) — multiply a time by {:.2} for the median wall time",
            kind.name(),
            median,
            speeds.len(),
            speeds[0],
            speeds[speeds.len() - 1],
            1.0 / median
        );
    }
    Ok(report)
}
