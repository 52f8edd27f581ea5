//! Utilities shared by the experiment binaries.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Parses `--scale X`, `--pairs N`, `--quick`, `--full` style flags.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Dataset scale multiplier (vertex count factor).
    pub scale: f64,
    /// Seed for generators.
    pub seed: u64,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Number of query pairs (paper: 1000).
    pub pairs: usize,
    /// `--load DIR`: reuse `.tdx` index snapshots from this directory
    /// (build-or-load: missing cells are built once and saved there).
    pub snapshot_load: Option<PathBuf>,
    /// `--save DIR`: force a fresh build of every cell and (re)write its
    /// snapshot into this directory.
    pub snapshot_save: Option<PathBuf>,
}

impl ExpArgs {
    /// Parses from `std::env::args`; `default_scale` is the binary's own
    /// default, which `--scale`, `--quick` and `--full` override.
    pub fn parse(default_scale: f64) -> ExpArgs {
        Self::parse_from(default_scale, std::env::args().skip(1))
    }

    fn parse_from(default_scale: f64, mut args: impl Iterator<Item = String>) -> ExpArgs {
        let mut a = ExpArgs {
            scale: default_scale,
            seed: 42,
            threads: 0,
            pairs: 1000,
            snapshot_load: None,
            snapshot_save: None,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => a.scale = args.next().and_then(|v| v.parse().ok()).expect("--scale X"),
                "--seed" => a.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
                "--threads" => {
                    a.threads = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads N")
                }
                "--pairs" => a.pairs = args.next().and_then(|v| v.parse().ok()).expect("--pairs N"),
                "--save" => a.snapshot_save = Some(args.next().expect("--save DIR").into()),
                "--load" => a.snapshot_load = Some(args.next().expect("--load DIR").into()),
                "--quick" => {
                    a.scale = 0.25;
                    a.pairs = 200;
                }
                "--full" => {
                    a.scale = 4.0;
                }
                other => panic!("unknown flag {other}"),
            }
        }
        a
    }

    /// The snapshot file for one experiment cell, honouring `--save`
    /// (force-refresh: an existing snapshot is removed so the cell
    /// rebuilds) and `--load` (build-or-load). `None` when neither flag
    /// was given.
    ///
    /// The scale and seed are baked into the file name alongside the
    /// caller's cell key: a snapshot is only ever reused for the exact
    /// input graph it was built from — a `--load` run at a different
    /// scale or seed builds its own cells instead of serving answers
    /// about the wrong graph.
    pub fn snapshot_file(&self, cell: &str) -> Option<PathBuf> {
        let (dir, refresh) = match (&self.snapshot_save, &self.snapshot_load) {
            (Some(dir), _) => (dir, true),
            (None, Some(dir)) => (dir, false),
            (None, None) => return None,
        };
        std::fs::create_dir_all(dir).expect("create snapshot dir");
        let scale = format!("{}", self.scale).replace('.', "p");
        let path = dir.join(format!("{cell}_s{scale}_r{}.tdx", self.seed));
        if refresh {
            let _ = std::fs::remove_file(&path);
        }
        Some(path)
    }
}

/// Appends rows to `results/<name>.csv` (header written once).
pub struct Csv {
    path: PathBuf,
    wrote_header: bool,
}

impl Csv {
    /// Creates/truncates `results/<name>.csv`.
    pub fn new(name: &str) -> Csv {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        let _ = std::fs::remove_file(&path);
        Csv {
            path,
            wrote_header: false,
        }
    }

    /// Writes the header once, then rows.
    pub fn row(&mut self, header: &str, values: std::fmt::Arguments<'_>) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .expect("open csv");
        if !self.wrote_header {
            writeln!(f, "{header}").expect("write header");
            self.wrote_header = true;
        }
        writeln!(f, "{values}").expect("write row");
    }
}

/// Pretty table separator for stdout.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Average wall-clock microseconds per call of `f` over `queries`.
pub fn avg_micros<Q, F: FnMut(&Q)>(queries: &[Q], mut f: F) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for q in queries {
        f(q);
    }
    t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
}

/// Formats bytes as a human-readable string.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1024 * 1024 * 1024 {
        format!("{:.2}GB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1}KB", b as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_flags_survive_a_binary_default() {
        let scale =
            |flags: &[&str]| ExpArgs::parse_from(0.25, flags.iter().map(|f| f.to_string())).scale;
        assert_eq!(scale(&[]), 0.25);
        assert_eq!(scale(&["--full"]), 4.0);
        assert_eq!(scale(&["--quick"]), 0.25);
        assert_eq!(scale(&["--scale", "1.5", "--pairs", "20"]), 1.5);
    }
}
