//! Fixture-driven liveness tests: every rule provably fires, with the exact
//! `(file, line, rule)` it should fire at, and the real workspace stays
//! clean under a self-run.

use std::path::{Path, PathBuf};

use td_lint::{check_workspace, default_root, Diagnostic};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Vec<Diagnostic> {
    check_workspace(&fixture_root(name)).expect("fixture workspace is readable")
}

/// Asserts the fixture produces exactly `want` as `(file, line, rule)`.
fn expect(name: &str, want: &[(&str, u32, &str)]) {
    let got: Vec<(String, u32, &str)> = run(name)
        .into_iter()
        .map(|d| (d.path, d.line, d.rule))
        .collect();
    let want: Vec<(String, u32, &str)> = want
        .iter()
        .map(|&(p, l, r)| (p.to_string(), l, r))
        .collect();
    assert_eq!(got, want, "fixture `{name}`");
}

#[test]
fn hot_panic_fires() {
    expect("hot_panic", &[("demo/src/lib.rs", 5, "hot-panic")]);
}

#[test]
fn hot_alloc_fires() {
    expect("hot_alloc", &[("demo/src/lib.rs", 5, "hot-alloc")]);
}

#[test]
fn hot_index_fires() {
    expect("hot_index", &[("demo/src/lib.rs", 5, "hot-index")]);
}

#[test]
fn hot_obs_fires() {
    expect("hot_obs", &[("demo/src/lib.rs", 5, "hot-obs")]);
}

#[test]
fn unsafe_forbid_fires() {
    expect("unsafe_forbid", &[("demo/src/lib.rs", 1, "unsafe-forbid")]);
}

#[test]
fn unsafe_safety_fires() {
    // A crate that weakens `forbid` to `deny` trips the crate-root rule,
    // and its undocumented `unsafe` trips the SAFETY-comment rule too.
    expect(
        "unsafe_safety",
        &[
            ("demo/src/lib.rs", 1, "unsafe-forbid"),
            ("demo/src/lib.rs", 5, "unsafe-safety"),
        ],
    );
}

#[test]
fn reader_lock_fires() {
    expect("reader_lock", &[("demo/src/lib.rs", 4, "reader-lock")]);
}

#[test]
fn pin_missing_fires() {
    expect("pin_missing", &[("pins.toml", 2, "pin-missing")]);
}

#[test]
fn assert_policy_fires() {
    expect("assert_policy", &[("demo/src/lib.rs", 9, "assert-policy")]);
}

#[test]
fn empty_reason_allow_is_rejected_and_does_not_suppress() {
    expect(
        "allow_reason",
        &[
            ("demo/src/lib.rs", 5, "allow-reason"),
            ("demo/src/lib.rs", 6, "hot-panic"),
        ],
    );
}

#[test]
fn unknown_marker_fires() {
    expect("allow_unknown", &[("demo/src/lib.rs", 3, "allow-unknown")]);
}

#[test]
fn well_formed_allow_suppresses() {
    expect("clean_allow", &[]);
}

#[test]
fn workspace_self_run_is_clean() {
    let diags = check_workspace(&default_root()).expect("workspace is readable");
    let rendered: Vec<String> = diags.iter().map(Diagnostic::to_string).collect();
    assert!(diags.is_empty(), "workspace has violations:\n{rendered:#?}");
}
