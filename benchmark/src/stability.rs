//! `td-benchmark stability --sets N`: runs N full sets (every workload,
//! untraced and traced, one process each), prints each end-to-end metric's
//! spread against its bound, checks that every *exact* count is
//! bit-identical across the sets, and fails if a metric leaves its bound or
//! a run is incorrect.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::catalog::{self, END_TO_END};
use crate::json::Json;
use crate::report::{self, parse_record, values_of, RunId, RunRecord};
use crate::stats;
use crate::workloads::WorkloadKind;

/// Runs one workload in a child process and parses the last line it prints.
fn run_child(id: &RunId, out_dir: &Path) -> Result<(Json, RunRecord), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &id.workload])
        .args(["--seed", &id.seed.to_string()])
        .args(["--seconds", &id.seconds.to_string()])
        .args(["--trace", if id.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {} run: {e}", id.workload))?;
    if !output.status.success() {
        return Err(format!(
            "the {} run (trace {}) exited with {}",
            id.workload, id.trace, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let line = report::record_line(id, &Json::parse(last)?);
    let record = parse_record(&line)?;
    Ok((line, record))
}

/// The largest share by which any value is worse than the values' median.
pub fn worst_excursion(values: &[f64], better: catalog::Better) -> f64 {
    let median = stats::median(&mut values.to_vec());
    values
        .iter()
        .map(|&v| better.worsening(median, v))
        .fold(0.0, f64::max)
}

pub fn main(sets: usize, seed: u64, seconds: f64, out_dir: &Path) -> Result<ExitCode, String> {
    let file = out_dir.join(format!("stability-seed{seed}.jsonl"));
    let _ = std::fs::remove_file(&file);
    let mut records: Vec<RunRecord> = Vec::new();
    for set in 0..sets {
        for kind in WorkloadKind::ALL {
            for trace in [false, true] {
                let id = RunId {
                    workload: kind.name().to_string(),
                    seed,
                    seconds,
                    trace,
                };
                eprintln!(
                    "set {}/{sets}: {} trace {}",
                    set + 1,
                    id.workload,
                    u8::from(trace)
                );
                let (line, record) = run_child(&id, out_dir)?;
                report::append_line(&file, &line)?;
                records.push(record);
            }
        }
    }

    let mut broken = 0usize;
    for r in records.iter().filter(|r| !r.correct) {
        println!(
            "INCORRECT {} trace {}: {} failed of {}",
            r.id.workload,
            u8::from(r.id.trace),
            r.failed,
            r.attempted
        );
        broken += 1;
    }
    println!(
        "{:<13} {:<20} {:>16} {:>10} {:>10} {:>7}  verdict   ({sets} sets, seed {seed})",
        "workload", "metric", "median", "spread", "worst", "bound"
    );
    let exact: Vec<_> = catalog::per_layer()
        .into_iter()
        .filter(|m| m.exact)
        .collect();
    for w in &catalog::WORKLOADS {
        for m in &END_TO_END {
            let v = values_of(&records, w.name, false, m.name);
            let worst = worst_excursion(&v, m.better);
            let ok = worst <= m.bound;
            broken += usize::from(!ok);
            println!(
                "{:<13} {:<20} {:>16.6} {:>9.2}% {:>9.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                stats::median(&mut v.clone()),
                stats::spread(&v) * 100.0,
                worst * 100.0,
                m.bound * 100.0,
                if ok { "within" } else { "LEFT ITS BOUND" }
            );
        }
        for m in &exact {
            let v = values_of(&records, w.name, true, &m.name);
            if v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
                println!("{:<13} {:<40} NOT EXACT: {v:?}", w.name, m.name);
                broken += 1;
            }
        }
    }
    println!("results in {}", file.display());
    if broken == 0 {
        println!("stable: every end-to-end metric within its bound, every exact count identical, every run correct");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{broken} problem(s)");
        Ok(ExitCode::from(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Better;

    #[test]
    fn excursion_is_measured_from_the_median_in_the_worse_direction() {
        let v = [100.0, 104.0, 96.0];
        assert!((worst_excursion(&v, Better::Lower) - 0.04).abs() < 1e-12);
        assert!((worst_excursion(&v, Better::Higher) - 0.04).abs() < 1e-12);
        assert_eq!(worst_excursion(&[5.0, 5.0, 5.0], Better::Lower), 0.0);
        // Only the worse side counts.
        assert!((worst_excursion(&[100.0, 100.0, 50.0], Better::Lower)).abs() < 1e-12);
    }
}
