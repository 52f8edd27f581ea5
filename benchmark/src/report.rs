//! A run's result: named metric values checked against the catalog, printed
//! as `name unit value` lines, and closed by the one JSON line the driver
//! reads.

use std::io::Write;
use std::path::Path;

use crate::catalog::{self, END_TO_END};
use crate::json::Json;

/// What identifies a run in a result file.
#[derive(Clone, Debug)]
pub struct RunId {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    pub attempted: u64,
    /// Operations that did not end in a correct exact answer: errors,
    /// rejections, flagged intervals and wrong answers.
    pub failed: u64,
    /// Of `failed`, the exact answers that disagree with the oracle. A typed
    /// refusal is a failed operation but a correct output of an
    /// overload-safe server (a stall of the VM can fill its queue); a wrong
    /// answer is what makes a run incorrect.
    pub wrong: u64,
    /// Broken invariants; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            !self.values.iter().any(|(n, _)| n == name),
            "metric {name} reported twice"
        );
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Adds checked operations whose only way to fail is a wrong answer.
    pub fn count(&mut self, attempted: u64, wrong: u64) {
        self.count_served((attempted, wrong, wrong));
    }

    /// Adds `(attempted, failed, wrong)` of requests sent through the server.
    pub fn count_served(&mut self, (attempted, failed, wrong): (u64, u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The `(name, unit)` list this run must report, in catalog order.
    fn expected(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            catalog::per_layer()
                .into_iter()
                .map(|m| (m.name, m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. Errors when a catalog metric is missing, an unknown one
    /// was reported, or a value is not a finite number — a harness bug must
    /// not look like a measurement.
    pub fn result(&self, trace: bool) -> Result<Json, String> {
        let expected = Report::expected(trace);
        for (name, _) in &self.values {
            if !expected.iter().any(|(n, _)| n == name) {
                return Err(format!(
                    "metric {name} is not in the catalog for this run mode"
                ));
            }
        }
        let mut metrics = Vec::with_capacity(expected.len());
        for (name, unit) in &expected {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
            metrics.push((
                name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        Ok(Json::obj([
            (
                "correct",
                Json::Bool(self.wrong == 0 && self.problems.is_empty()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// The result object plus the run's identity — one line of a result file.
pub fn record_line(id: &RunId, result: &Json) -> Json {
    let mut fields = vec![
        ("workload".to_string(), Json::str(&id.workload)),
        ("seed".to_string(), Json::Num(id.seed as f64)),
        ("seconds".to_string(), Json::Num(id.seconds)),
        ("trace".to_string(), Json::Bool(id.trace)),
    ];
    fields.extend(result.fields().iter().cloned());
    Json::Obj(fields)
}

/// Prints every metric as `name unit value`, the counts, any problem, and
/// last the result object on one line.
pub fn print(out: &mut impl Write, report: &Report, result: &Json) -> std::io::Result<()> {
    for (name, entry) in result.get("metrics").map(Json::fields).unwrap_or_default() {
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        let value = entry.get("value").map(Json::to_line).unwrap_or_default();
        writeln!(out, "{name} {unit} {value}")?;
    }
    writeln!(
        out,
        "failed_share ratio {} ({} failed of {} attempted, {} of them wrong answers)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        report.wrong
    )?;
    for p in &report.problems {
        writeln!(out, "problem: {p}")?;
    }
    writeln!(out, "{}", result.to_line())
}

pub fn append_line(path: &Path, line: &Json) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    writeln!(f, "{}", line.to_line()).map_err(io)
}

/// One parsed line of a result file.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub id: RunId,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_record(line: &Json) -> Result<RunRecord, String> {
    let text = |k: &str| {
        line.get(k)
            .and_then(Json::as_str)
            .ok_or(format!("no `{k}`"))
    };
    let num = |k: &str| {
        line.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("no `{k}`"))
    };
    let flag = |k: &str| {
        line.get(k)
            .and_then(Json::as_bool)
            .ok_or(format!("no `{k}`"))
    };
    let metrics = line
        .get("metrics")
        .ok_or("no `metrics`")?
        .fields()
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no numeric value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunRecord {
        id: RunId {
            workload: text("workload")?.to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            trace: flag("trace")?,
        },
        correct: flag("correct")?,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Every value of `metric` among `records`' runs of `workload` in one mode.
pub fn values_of(records: &[RunRecord], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.id.workload == workload && r.id.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Reads a result file: one JSON object per line, one per run.
pub fn read_records(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(n, l)| {
            Json::parse(l)
                .and_then(|j| parse_record(&j))
                .map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_untraced_report() -> Report {
        let mut r = Report::default();
        for (k, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + k as f64);
        }
        r.count(1000, 0);
        r
    }

    #[test]
    fn result_has_exactly_the_contract_keys_and_every_metric() {
        let result = full_untraced_report().result(false).unwrap();
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let names: Vec<&str> = result
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
    }

    #[test]
    fn a_missing_unknown_or_non_finite_metric_is_an_error_not_a_result() {
        let mut missing = Report::default();
        missing.set("setup_s", 1.0);
        missing.count(1, 0);
        assert!(missing.result(false).unwrap_err().contains("not measured"));

        let mut unknown = full_untraced_report();
        unknown.set("made_up", 1.0);
        assert!(unknown
            .result(false)
            .unwrap_err()
            .contains("not in the catalog"));

        let mut r = Report::default();
        for m in &END_TO_END {
            r.set(m.name, if m.name == "setup_s" { f64::NAN } else { 1.0 });
        }
        r.count(1, 0);
        assert!(r.result(false).unwrap_err().contains("finite"));

        let mut idle = full_untraced_report();
        idle.attempted = 0;
        assert!(idle.result(false).is_err());
    }

    #[test]
    fn wrong_answers_and_problems_make_a_run_incorrect_refusals_only_failed() {
        let mut r = full_untraced_report();
        r.count(10, 1);
        assert_eq!(
            r.result(false).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
        // Two rejections: failed operations, correct outputs.
        let mut r = full_untraced_report();
        r.count_served((10, 2, 0));
        let result = r.result(false).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed"), Some(&Json::Num(2.0)));
        let mut r = full_untraced_report();
        r.problem("batch differs");
        assert_eq!(
            r.result(false).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn result_file_lines_round_trip() {
        let report = full_untraced_report();
        let result = report.result(false).unwrap();
        let id = RunId {
            workload: "tree_cost".into(),
            seed: 43,
            seconds: 10.0,
            trace: false,
        };
        let path =
            std::env::temp_dir().join(format!("td-benchmark-result-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_line(&path, &record_line(&id, &result)).unwrap();
        append_line(&path, &record_line(&id, &result)).unwrap();
        let records = read_records(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(records.len(), 2);
        let r = &records[1];
        assert_eq!(
            (r.id.workload.as_str(), r.id.seed, r.id.trace),
            ("tree_cost", 43, false)
        );
        assert!(r.correct && r.attempted == 1000 && r.failed == 0);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.metrics[1], ("latency_p50_us".to_string(), 2.5));

        let mut text = Vec::new();
        print(&mut text, &report, &result).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert!(text.contains("setup_s s 1.5\n"));
        assert_eq!(Json::parse(text.lines().last().unwrap()).unwrap(), result);
    }
}
