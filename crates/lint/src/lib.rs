#![forbid(unsafe_code)]
//! # td-lint — in-repo static analysis for the invariants the benches prove
//!
//! The performance story of this workspace (52 µs exact queries, 0
//! allocations per warmed query, lock-free readers) rests on source-level
//! invariants the compiler does not check: frozen query loops must stay off
//! panic and allocation paths, `unsafe` stays confined and documented,
//! reader-side files never block, and the Send/Sync contracts of shared
//! index types stay pinned. `td-lint` makes those invariants machine-checked
//! with a dependency-free analyzer (hand-rolled lexer — this container has
//! no crates.io access, so no `syn`/dylint):
//!
//! ```text
//! cargo run -p td-lint --release -- check
//! ```
//!
//! Rules (R1–R5), the marker grammar, and the escape hatch are documented in
//! [`rules`] and `crates/lint/README.md`. Configuration — the Send/Sync pin
//! registry — lives in `crates/lint/pins.toml` (fixture corpora place a
//! `pins.toml` at their own root instead).

pub mod lexer;
pub mod rules;

use rules::AssertedCaps;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One violation: `path:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// `/`-separated path relative to the checked root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`hot-panic`, `unsafe-forbid`, ... — see [`rules::KNOWN_RULES`]).
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(path: &str, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Capability a pinned type must have asserted (R4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinCapability {
    Send,
    Sync,
    SendSync,
}

impl PinCapability {
    pub(crate) fn describe(self) -> &'static str {
        match self {
            PinCapability::Send => "Send",
            PinCapability::Sync => "Sync",
            PinCapability::SendSync => "Send + Sync",
        }
    }
}

/// One `Type = "send+sync"` entry of the `[pins]` table.
#[derive(Clone, Debug)]
pub struct Pin {
    pub type_name: String,
    pub capability: PinCapability,
    /// Line of the entry inside pins.toml (for diagnostics).
    pub line: u32,
}

/// Parsed pins.toml: the pin registry.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// `[pins]`: public index/scratch types requiring a `const` Send/Sync
    /// assertion somewhere in the workspace.
    pub pins: Vec<Pin>,
}

impl Config {
    /// Parses the tiny TOML subset pins.toml uses: `[section]` headers,
    /// `key = "value"` lines, `#` comments. Errors carry the offending line.
    pub fn parse(src: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("pins.toml:{lineno}: expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            match section.as_str() {
                "pins" => {
                    let cap = value.trim_matches('"');
                    let capability = match cap {
                        "send" => PinCapability::Send,
                        "sync" => PinCapability::Sync,
                        "send+sync" | "sync+send" => PinCapability::SendSync,
                        other => {
                            return Err(format!(
                                "pins.toml:{lineno}: unknown capability `{other}` (use \"send\", \"sync\" or \"send+sync\")"
                            ))
                        }
                    };
                    config.pins.push(Pin {
                        type_name: key.to_string(),
                        capability,
                        line: lineno,
                    });
                }
                other => {
                    return Err(format!(
                        "pins.toml:{lineno}: unknown section `[{other}]` or key `{key}`"
                    ))
                }
            }
        }
        Ok(config)
    }
}

/// Where a root's pins.toml may live, in priority order.
fn config_path(root: &Path) -> Option<PathBuf> {
    [root.join("crates/lint/pins.toml"), root.join("pins.toml")]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results", "node_modules"];

/// All `.rs` files under `root`, sorted, as (absolute, `/`-relative) pairs.
///
/// `fixtures/` directories are skipped everywhere: the fixture corpus under
/// `crates/lint/tests/fixtures` exists to *contain* violations.
fn discover(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((path, rel));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every rule over the workspace rooted at `root`. The returned
/// diagnostics are sorted by `(path, line, rule)`; empty means clean.
pub fn check_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let (config, pins_rel) = match config_path(root) {
        Some(path) => {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            (Config::parse(&src)?, rel)
        }
        None => (Config::default(), "pins.toml".to_string()),
    };

    let mut diagnostics = Vec::new();
    let mut asserted: HashMap<String, AssertedCaps> = HashMap::new();
    for (path, rel) in discover(root)? {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let report = rules::check_file(&rel, &src);
        diagnostics.extend(report.diagnostics);
        for (ty, caps) in report.pins {
            let entry = asserted.entry(ty).or_default();
            entry.send |= caps.send;
            entry.sync |= caps.sync;
        }
    }
    diagnostics.extend(rules::check_pins(&config, &asserted, &pins_rel));
    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(diagnostics)
}

/// The workspace root this binary was compiled in — the default `check`
/// target.
pub fn default_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_pins() {
        let cfg =
            Config::parse("# registry\n[pins]\nPlfArena = \"send+sync\"\nScratch = \"send\"\n")
                .unwrap();
        assert_eq!(cfg.pins.len(), 2);
        assert_eq!(cfg.pins[0].type_name, "PlfArena");
        assert_eq!(cfg.pins[0].capability, PinCapability::SendSync);
        assert_eq!(cfg.pins[1].capability, PinCapability::Send);
        // The unsafe-crate allowlist is gone: every crate forbids `unsafe`.
        assert!(Config::parse("[unsafe]\nallow = [\"api\"]\n").is_err());
    }

    #[test]
    fn config_rejects_unknown_capability() {
        assert!(Config::parse("[pins]\nX = \"fast\"\n").is_err());
    }

    #[test]
    fn diagnostics_render_as_file_line_rule() {
        let d = Diagnostic::new("crates/x/src/lib.rs", 7, "hot-panic", "msg".into());
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:7: hot-panic: msg");
    }
}
