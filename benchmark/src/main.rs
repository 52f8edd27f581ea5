//! `td-benchmark` — the repository's one seeded, layered benchmark.
//!
//! ```text
//! td-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! td-benchmark compare <a.jsonl> <b.jsonl>
//! td-benchmark stability --sets <n> [--seed <n>] [--seconds <s>]
//! td-benchmark manifest
//! ```
//!
//! One process runs one workload. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is the traced stack run that measures every layer.
//! Everything is measured from outside, through public functions, all named
//! in `adapter.rs`. See `README.md`.

#![forbid(unsafe_code)]

mod adapter;
mod calibrate;
mod catalog;
mod compare;
mod inputs;
mod json;
mod loadgen;
mod report;
mod run;
mod stability;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::RunId;
use run::RunOpts;
use workloads::WorkloadKind;

const USAGE: &str = "usage:
  td-benchmark --workload <tree_cost|tree_profile|search_batch|serve_live> \\
               [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>] [--record <file>]
  td-benchmark compare <a.jsonl> <b.jsonl>
  td-benchmark stability --sets <n> [--seed <n>] [--seconds <s>] [--out <dir>]
  td-benchmark manifest";

/// `benchmark/out`, next to this package's manifest.
fn default_out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Flags shared by a run and `stability`.
struct Flags {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    record: Option<PathBuf>,
    sets: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        out_dir: default_out_dir(),
        record: None,
        sets: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                flags.workload =
                    Some(WorkloadKind::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => flags.out_dir = PathBuf::from(value()?),
            "--record" => flags.record = Some(PathBuf::from(value()?)),
            "--sets" => flags.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn run_once(opts: &RunOpts) -> Result<(), String> {
    let report = if opts.trace {
        stack::traced(opts)?
    } else {
        run::untraced(opts)?
    };
    let result = report.result(opts.trace)?;
    let id = RunId {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
    };
    let line = report::record_line(&id, &result);
    let mode = if opts.trace { "traced" } else { "untraced" };
    let last = opts
        .out_dir
        .join(format!("result-{}-{mode}.json", id.workload));
    let _ = std::fs::remove_file(&last);
    report::append_line(&last, &line)?;
    if let Some(path) = &opts.record {
        report::append_line(path, &line)?;
    }
    report::print(&mut std::io::stdout().lock(), &report, &result)
        .map_err(|e| format!("writing the result: {e}"))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("stability") => {
            let f = parse_flags(&args[1..])?;
            if f.sets < 2 {
                return Err("stability needs --sets N with N >= 2".to_string());
            }
            stability::main(f.sets, f.seed, f.seconds, &f.out_dir)
        }
        Some("manifest") => {
            print!("{}", catalog::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => {
            let f = parse_flags(args)?;
            let workload = f.workload.ok_or("--workload is required")?;
            run_once(&RunOpts {
                workload,
                seed: f.seed,
                seconds: f.seconds,
                trace: f.trace,
                out_dir: f.out_dir,
                record: f.record,
            })?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("td-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
