//! `td-benchmark compare <a> <b>`: one row per metric × workload with both
//! medians, the delta with its base, the bound and a verdict.
//!
//! Verdicts (choosing-metrics §6): `ok`; `regressed` — b's median is worse
//! than a's by more than the bound; `unresolved` — the run-to-run spread of
//! either side is wider than the bound, so neither "changed" nor "unchanged"
//! can be claimed (unless every run of b reads better than every run of a,
//! which is `ok`). Per-layer metrics have no bound and are listed as `info`.
//! Exits non-zero on any `regressed`.

use std::path::Path;
use std::process::ExitCode;

use crate::catalog::{self, Better, END_TO_END};
use crate::report::{read_records, values_of, RunRecord};
use crate::stats;

/// `failed_share` may rise by this much, absolute, before it is a regression.
const FAILED_SHARE_BOUND: f64 = 0.001;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Info,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One side's runs of one metric on one workload.
pub struct Side {
    pub median: f64,
    /// Inter-quartile distance over the median; `None` with a single run.
    pub spread: Option<f64>,
    values: Vec<f64>,
}

impl Side {
    pub fn of(values: Vec<f64>) -> Side {
        Side {
            median: stats::median(&mut values.clone()),
            spread: (values.len() >= 2).then(|| stats::spread(&values)),
            values,
        }
    }
}

/// The verdict on an end-to-end metric with regression bound `bound`.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let widest = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    if widest > bound {
        let every_b_beats_every_a = b
            .values
            .iter()
            .all(|&vb| a.values.iter().all(|&va| better.worsening(va, vb) < 0.0));
        return if every_b_beats_every_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if better.worsening(a.median, b.median) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn failed_share(records: &[RunRecord], workload: &str) -> Option<(f64, u64, u64)> {
    let (attempted, failed) = records
        .iter()
        .filter(|r| r.id.workload == workload)
        .fold((0u64, 0u64), |(a, f), r| (a + r.attempted, f + r.failed));
    (attempted > 0).then(|| (failed as f64 / attempted as f64, failed, attempted))
}

fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

fn spread_text(s: Option<f64>) -> String {
    s.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0))
}

pub fn main(path_a: &Path, path_b: &Path) -> Result<ExitCode, String> {
    let a = read_records(path_a)?;
    let b = read_records(path_b)?;
    println!(
        "a = {} ({} runs)   b = {} ({} runs)",
        path_a.display(),
        a.len(),
        path_b.display(),
        b.len()
    );
    println!(
        "delta = how much worse b's median is than a's, as a share of a's (negative = better)"
    );
    println!(
        "{:<13} {:<40} {:>6} {:>16} {:>16} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload",
        "metric",
        "unit",
        "median(a)",
        "median(b)",
        "delta/a",
        "bound",
        "spread(a)",
        "spread(b)"
    );
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut row = |workload: &str,
                   metric: &str,
                   unit: &str,
                   cells: [String; 6],
                   verdict: Verdict| {
        let [median_a, median_b, delta, bound, spread_a, spread_b] = cells;
        println!(
            "{workload:<13} {metric:<40} {unit:>6} {median_a:>16} {median_b:>16} {delta:>9} {bound:>7} \
             {spread_a:>9} {spread_b:>9}  {}",
            verdict.word()
        );
        verdicts.push(verdict);
    };
    let sides_row = |sa: &Side, sb: &Side, better: Better, bound: Option<f64>| {
        [
            format!("{:.6}", sa.median),
            format!("{:.6}", sb.median),
            pct(better.worsening(sa.median, sb.median)),
            bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
            spread_text(sa.spread),
            spread_text(sb.spread),
        ]
    };
    let layers = catalog::per_layer();
    for w in &catalog::WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                values_of(&a, w.name, false, m.name),
                values_of(&b, w.name, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Side::of(va), Side::of(vb));
            let verdict = judge(&sa, &sb, m.better, m.bound);
            row(
                w.name,
                m.name,
                m.unit,
                sides_row(&sa, &sb, m.better, Some(m.bound)),
                verdict,
            );
        }
        if let (Some((fa, failed_a, tried_a)), Some((fb, failed_b, tried_b))) =
            (failed_share(&a, w.name), failed_share(&b, w.name))
        {
            let verdict = if fb > fa + FAILED_SHARE_BOUND {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            let cells = [
                format!("{failed_a}/{tried_a}"),
                format!("{failed_b}/{tried_b}"),
                format!("{:+.4}", fb - fa),
                format!("+{FAILED_SHARE_BOUND}"),
                "-".to_string(),
                "-".to_string(),
            ];
            row(w.name, "failed_share", "ratio", cells, verdict);
        }
        for m in &layers {
            let (va, vb) = (
                values_of(&a, w.name, true, &m.name),
                values_of(&b, w.name, true, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Side::of(va), Side::of(vb));
            row(
                w.name,
                &m.name,
                m.unit,
                sides_row(&sa, &sb, m.better, None),
                Verdict::Info,
            );
        }
    }
    let regressed = verdicts
        .iter()
        .filter(|v| **v == Verdict::Regressed)
        .count();
    let unresolved = verdicts
        .iter()
        .filter(|v| **v == Verdict::Unresolved)
        .count();
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side::of(values.to_vec())
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_regressed() {
        let a = side(&[100.0, 101.0, 99.0, 100.0]);
        assert_eq!(
            judge(
                &a,
                &side(&[105.0, 106.0, 104.0, 105.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &side(&[115.0, 116.0, 114.0, 115.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        // Direction matters: a drop in throughput is the regression.
        assert_eq!(
            judge(&a, &side(&[85.0, 86.0, 84.0, 85.0]), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                &a,
                &side(&[115.0, 116.0, 114.0, 115.0]),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = side(&[80.0, 100.0, 120.0, 140.0]);
        assert!(noisy.spread.unwrap() > 0.10);
        let b = side(&[100.0, 101.0, 102.0, 103.0]);
        assert_eq!(judge(&noisy, &b, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&b, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // Every run of b below every run of a: a resolved improvement.
        let clearly_better = side(&[50.0, 55.0, 60.0, 70.0]);
        assert_eq!(
            judge(&noisy, &clearly_better, Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn single_runs_are_judged_on_their_values() {
        assert_eq!(side(&[5.0]).spread, None);
        assert_eq!(
            judge(&side(&[100.0]), &side(&[120.0]), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&side(&[100.0]), &side(&[100.0]), Better::Lower, 0.01),
            Verdict::Ok
        );
    }
}
