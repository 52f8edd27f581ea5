//! The five rule families (R1–R5) plus the marker/allow grammar.
//!
//! | id             | family | fires when                                              |
//! |----------------|--------|---------------------------------------------------------|
//! | `hot-panic`    | R1     | panic path (`unwrap`, `expect`, `panic!`, `assert!`, …) in a hot region |
//! | `hot-alloc`    | R1     | allocation idiom (`Vec::new`, `.push`, `.collect`, `.clone`, `format!`, …) in a hot region |
//! | `hot-index`    | R1     | `[]` indexing in a hot function with no `debug_assert!` bound check in that function |
//! | `hot-obs`      | R1     | metrics-registry call (`metrics()`, `phase()`, `.counter()`, `.render_prometheus()`, …) in a hot region — hot code records via scratch-resident `SearchStats` only |
//! | `unsafe-forbid`| R2     | crate root missing `#![forbid(unsafe_code)]`              |
//! | `unsafe-safety`| R2     | `unsafe` with no `// SAFETY:` / `# Safety` comment nearby |
//! | `reader-lock`  | R3     | `Mutex`/`RwLock`/`mpsc`/`.lock()` in a `reader-path` file |
//! | `pin-missing`  | R4     | pinned type lacks a `const` Send/Sync assertion anywhere |
//! | `assert-policy`| R5     | non-`debug_` assert outside tests in a file with hot regions |
//! | `allow-reason` | —      | `td-lint: allow(...)` with an empty reason                |
//! | `allow-unknown`| —      | `td-lint: allow(...)` naming an unknown rule              |
//!
//! Markers are ordinary line comments, so they need no build plumbing:
//!
//! * `// td-lint: hot` — the next `fn`/`mod`/`impl` item is a hot region;
//! * `// td-lint: reader-path` — the whole file is reader-side code (R3);
//! * `// td-lint: allow(<rule>) <reason>` — suppresses `<rule>` on the same
//!   line or the line below; the reason is mandatory and non-empty.

use crate::lexer::{lex, Tok, TokKind};
use crate::{Config, Diagnostic, PinCapability};
use std::collections::HashMap;

/// Every rule id an `allow(...)` may name.
pub const KNOWN_RULES: &[&str] = &[
    "hot-panic",
    "hot-alloc",
    "hot-index",
    "hot-obs",
    "unsafe-forbid",
    "unsafe-safety",
    "reader-lock",
    "pin-missing",
    "assert-policy",
];

/// Method names whose call is a panic path in a hot region (R1).
const HOT_PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Macros that panic (R1 inside hot regions; R5 for the `assert` family
/// elsewhere in hot files).
const HOT_PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "todo",
    "unimplemented",
    "unreachable",
];
/// Method names that allocate or copy containers (R1).
const HOT_ALLOC_METHODS: &[&str] = &[
    "push",
    "collect",
    "to_vec",
    "clone",
    "to_string",
    "to_owned",
    "extend",
];
/// Macros that allocate (R1).
const HOT_ALLOC_MACROS: &[&str] = &["format", "vec"];
/// Registry-side telemetry methods banned in hot regions (R1): they take
/// the registry lock or allocate. Hot code fills scratch-resident
/// `SearchStats` recorders; exports happen per query at the serving layer.
const HOT_OBS_METHODS: &[&str] = &[
    "counter",
    "counter_with",
    "gauge",
    "histogram_seconds",
    "histogram_seconds_with",
    "declare",
    "render_prometheus",
];
/// Catalog entry points banned in hot regions (R1), called bare or
/// path-qualified (`td_obs::metrics()` / `td_obs::phase(...)`).
const HOT_OBS_FNS: &[&str] = &["metrics", "phase"];
/// Container types whose constructors are banned in hot regions (R1).
const HOT_ALLOC_TYPES: &[&str] = &[
    "Vec",
    "Box",
    "String",
    "VecDeque",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
];
/// Synchronisation identifiers banned in `reader-path` files (R3).
const READER_BANNED_TYPES: &[&str] = &["Mutex", "RwLock", "mpsc", "Condvar", "Barrier"];
/// Blocking method calls banned in `reader-path` files (R3).
const READER_BANNED_METHODS: &[&str] = &["lock", "read", "write"];

/// A half-open line/token region covered by one `td-lint: hot` marker.
#[derive(Debug)]
struct HotSpan {
    /// Code-token index range `[start, end)` of the item body.
    toks: (usize, usize),
    /// True when the region contains a `debug_assert!` family call —
    /// `hot-index` accepts `[]` indexing only then.
    has_debug_assert: bool,
}

/// One `td-lint: allow(rule) reason` comment.
struct Allow {
    rule: String,
    line: u32,
}

/// Send/Sync capabilities asserted for a type by `const` pin blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssertedCaps {
    pub send: bool,
    pub sync: bool,
}

/// Everything one file contributes: its diagnostics plus the Send/Sync pin
/// assertions it contains (merged across files for R4).
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    pub pins: HashMap<String, AssertedCaps>,
}

/// Runs all per-file rules over one source file.
///
/// `rel_path` is the `/`-separated path relative to the workspace root —
/// used verbatim in diagnostics and for the crate-root test of R2.
pub fn check_file(rel_path: &str, src: &str) -> FileReport {
    let all = lex(src);
    // Code tokens: everything the compiler would see (comments stripped).
    let code: Vec<&Tok> = all.iter().filter(|t| !t.is_comment()).collect();

    let mut diagnostics = Vec::new();

    // ---- marker & allow grammar --------------------------------------
    let mut reader_path = false;
    let mut hot_marker_toks: Vec<usize> = Vec::new(); // index into `code`
    let mut allows: Vec<Allow> = Vec::new();
    {
        // Walk the full stream so marker comments can be associated with
        // the first code token after them.
        let mut code_idx = 0usize;
        for t in &all {
            if !t.is_comment() {
                code_idx += 1;
                continue;
            }
            if t.kind != TokKind::LineComment {
                continue;
            }
            let Some(body) = marker_body(&t.text) else {
                continue;
            };
            if body == "hot" {
                hot_marker_toks.push(code_idx); // next code token
            } else if body == "reader-path" {
                reader_path = true;
            } else if let Some(rest) = body.strip_prefix("allow(") {
                match rest.split_once(')') {
                    Some((rule, reason)) => {
                        if !KNOWN_RULES.contains(&rule.trim()) {
                            diagnostics.push(Diagnostic::new(
                                rel_path,
                                t.line,
                                "allow-unknown",
                                format!("allow names unknown rule `{}`", rule.trim()),
                            ));
                        } else if reason.trim().is_empty() {
                            diagnostics.push(Diagnostic::new(
                                rel_path,
                                t.line,
                                "allow-reason",
                                format!(
                                    "allow({}) needs a non-empty reason after the `)`",
                                    rule.trim()
                                ),
                            ));
                        } else {
                            allows.push(Allow {
                                rule: rule.trim().to_string(),
                                line: t.line,
                            });
                        }
                    }
                    None => diagnostics.push(Diagnostic::new(
                        rel_path,
                        t.line,
                        "allow-unknown",
                        "malformed allow: expected `td-lint: allow(<rule>) <reason>`".to_string(),
                    )),
                }
            } else {
                diagnostics.push(Diagnostic::new(
                    rel_path,
                    t.line,
                    "allow-unknown",
                    format!("unknown td-lint marker `{body}`"),
                ));
            }
        }
    }
    let allowed = |rule: &str, line: u32| {
        allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    };

    // ---- region discovery --------------------------------------------
    let test_spans = find_test_spans(&code);
    let in_test = |i: usize| test_spans.iter().any(|&(s, e)| i >= s && i < e);

    let mut hot_spans: Vec<HotSpan> = Vec::new();
    for &start in &hot_marker_toks {
        if let Some((s, e)) = item_body_span(&code, start) {
            let has_debug_assert = (s..e).any(|i| {
                code[i].kind == TokKind::Ident
                    && code[i].text.starts_with("debug_assert")
                    && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
            });
            hot_spans.push(HotSpan {
                toks: (s, e),
                has_debug_assert,
            });
        }
    }
    let hot_span_of = |i: usize| hot_spans.iter().find(|h| i >= h.toks.0 && i < h.toks.1);
    let file_has_hot = !hot_spans.is_empty();

    // ---- R2a: crate-root unsafe attribute ----------------------------
    if let Some(crate_dir) = crate_root_dir(rel_path) {
        let found = unsafe_code_attr(&code);
        if found != Some("forbid") {
            diagnostics.push(Diagnostic::new(
                rel_path,
                1,
                "unsafe-forbid",
                match found {
                    Some(level) => format!(
                        "crate `{crate_dir}` must carry `#![forbid(unsafe_code)]`, found `#![{level}(unsafe_code)]`"
                    ),
                    None => format!("crate `{crate_dir}` is missing `#![forbid(unsafe_code)]`"),
                },
            ));
        }
    }

    // ---- token-pattern scan ------------------------------------------
    let mut pins: HashMap<String, AssertedCaps> = HashMap::new();
    let bound_fns = collect_bound_fns(&code);

    for i in 0..code.len() {
        let t = code[i];
        let line = t.line;
        match &t.kind {
            TokKind::Punct('.') => {
                // `.name(` — a method call.
                let (Some(name_tok), Some(paren)) = (code.get(i + 1), code.get(i + 2)) else {
                    continue;
                };
                if name_tok.kind != TokKind::Ident || !paren.is_punct('(') {
                    continue;
                }
                let name = name_tok.text.as_str();
                let line = name_tok.line;
                if let Some(_span) = hot_span_of(i) {
                    if HOT_PANIC_METHODS.contains(&name) && !allowed("hot-panic", line) {
                        diagnostics.push(Diagnostic::new(
                            rel_path,
                            line,
                            "hot-panic",
                            format!("`.{name}()` is a panic path inside a hot region"),
                        ));
                    } else if HOT_ALLOC_METHODS.contains(&name) && !allowed("hot-alloc", line) {
                        diagnostics.push(Diagnostic::new(
                            rel_path,
                            line,
                            "hot-alloc",
                            format!("`.{name}()` may allocate inside a hot region"),
                        ));
                    } else if HOT_OBS_METHODS.contains(&name) && !allowed("hot-obs", line) {
                        diagnostics.push(Diagnostic::new(
                            rel_path,
                            line,
                            "hot-obs",
                            format!(
                                "`.{name}()` touches the metrics registry inside a hot \
                                 region; record via scratch-resident `SearchStats` instead"
                            ),
                        ));
                    }
                }
                if reader_path
                    && !in_test(i)
                    && READER_BANNED_METHODS.contains(&name)
                    && !allowed("reader-lock", line)
                {
                    diagnostics.push(Diagnostic::new(
                        rel_path,
                        line,
                        "reader-lock",
                        format!("`.{name}()` call in a reader-path file may block readers"),
                    ));
                }
            }
            TokKind::Ident => {
                let name = t.text.as_str();
                // `name!` — a macro invocation.
                if code.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    let is_panic_macro = HOT_PANIC_MACROS.contains(&name);
                    let is_alloc_macro = HOT_ALLOC_MACROS.contains(&name);
                    if hot_span_of(i).is_some() {
                        if is_panic_macro && !allowed("hot-panic", line) {
                            diagnostics.push(Diagnostic::new(
                                rel_path,
                                line,
                                "hot-panic",
                                format!("`{name}!` is a panic path inside a hot region"),
                            ));
                        } else if is_alloc_macro && !allowed("hot-alloc", line) {
                            diagnostics.push(Diagnostic::new(
                                rel_path,
                                line,
                                "hot-alloc",
                                format!("`{name}!` allocates inside a hot region"),
                            ));
                        }
                    } else if file_has_hot
                        && !in_test(i)
                        && name.starts_with("assert")
                        && is_panic_macro
                        && !allowed("assert-policy", line)
                    {
                        diagnostics.push(Diagnostic::new(
                            rel_path,
                            line,
                            "assert-policy",
                            format!(
                                "`{name}!` in non-test code of a hot file: use `debug_{name}!`"
                            ),
                        ));
                    }
                }
                // `metrics(` / `td_obs::phase(` — catalog entry points lock
                // the registry or read the clock; hot code must not.
                if HOT_OBS_FNS.contains(&name)
                    && hot_span_of(i).is_some()
                    && code.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && (i == 0 || !code[i - 1].is_punct('.'))
                    && !allowed("hot-obs", line)
                {
                    diagnostics.push(Diagnostic::new(
                        rel_path,
                        line,
                        "hot-obs",
                        format!(
                            "`{name}(...)` reaches the metric catalog inside a hot region; \
                             record via scratch-resident `SearchStats` instead"
                        ),
                    ));
                }
                // `Type::ctor(` — a container constructor.
                if HOT_ALLOC_TYPES.contains(&name)
                    && hot_span_of(i).is_some()
                    && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
                {
                    if let Some(ctor) = code.get(i + 3) {
                        if ctor.kind == TokKind::Ident
                            && ["new", "with_capacity", "from", "default"]
                                .contains(&ctor.text.as_str())
                            && !allowed("hot-alloc", ctor.line)
                        {
                            diagnostics.push(Diagnostic::new(
                                rel_path,
                                ctor.line,
                                "hot-alloc",
                                format!(
                                    "`{name}::{}` constructs a container inside a hot region",
                                    ctor.text
                                ),
                            ));
                        }
                    }
                }
                // `unsafe` — R2b: SAFETY comment nearby.
                if name == "unsafe"
                    && !unsafe_is_documented(&all, line)
                    && !allowed("unsafe-safety", line)
                {
                    diagnostics.push(Diagnostic::new(
                        rel_path,
                        line,
                        "unsafe-safety",
                        "`unsafe` without a `// SAFETY:` (or `/// # Safety`) comment just above"
                            .to_string(),
                    ));
                }
                // Reader-path type bans.
                if reader_path
                    && !in_test(i)
                    && READER_BANNED_TYPES.contains(&name)
                    && !allowed("reader-lock", line)
                {
                    diagnostics.push(Diagnostic::new(
                        rel_path,
                        line,
                        "reader-lock",
                        format!("`{name}` in a reader-path file: readers must stay lock-free"),
                    ));
                }
                // Pin assertions: `bound_fn::<Type, ...>(`.
                if let Some(&caps) = bound_fns.get(name) {
                    if code.get(i + 1).is_some_and(|n| n.is_punct(':'))
                        && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
                        && code.get(i + 3).is_some_and(|n| n.is_punct('<'))
                    {
                        for ty in generic_arg_idents(&code, i + 3) {
                            let entry = pins.entry(ty).or_default();
                            entry.send |= caps.send;
                            entry.sync |= caps.sync;
                        }
                    }
                }
            }
            TokKind::Punct('[') => {
                // Index expression: `expr[...]` — previous code token is an
                // identifier, `]` or `)`. Attributes (`#[...]`) and macro
                // brackets (`vec![...]`) are preceded by `#`/`!` instead.
                let is_index = i > 0
                    && matches!(
                        code[i - 1].kind,
                        TokKind::Ident | TokKind::Punct(']') | TokKind::Punct(')')
                    );
                if !is_index {
                    continue;
                }
                if let Some(span) = hot_span_of(i) {
                    if !span.has_debug_assert && !allowed("hot-index", line) {
                        diagnostics.push(Diagnostic::new(
                            rel_path,
                            line,
                            "hot-index",
                            "`[]` indexing in a hot function with no `debug_assert!` bound check"
                                .to_string(),
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    FileReport { diagnostics, pins }
}

/// The body of a `td-lint:` marker comment, if `text` is one.
fn marker_body(text: &str) -> Option<&str> {
    let t = text.trim_start_matches('/').trim();
    t.strip_prefix("td-lint:").map(str::trim)
}

/// `Some(crate_dir)` when `rel_path` is a library crate root (`src/lib.rs`).
fn crate_root_dir(rel_path: &str) -> Option<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["src", "lib.rs"] => Some(".".to_string()),
        [.., dir, "src", "lib.rs"] => Some((*dir).to_string()),
        _ => None,
    }
}

/// The level of a crate-level `#![forbid|deny(unsafe_code)]`, if present.
fn unsafe_code_attr(code: &[&Tok]) -> Option<&'static str> {
    for i in 0..code.len() {
        if code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && code.get(i + 2).is_some_and(|t| t.is_punct('['))
            && code.get(i + 4).is_some_and(|t| t.is_punct('('))
            && code.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            if code.get(i + 3).is_some_and(|t| t.is_ident("forbid")) {
                return Some("forbid");
            }
            if code.get(i + 3).is_some_and(|t| t.is_ident("deny")) {
                return Some("deny");
            }
        }
    }
    None
}

/// Is there a `SAFETY:`/`# Safety` comment within the 10 lines above `line`
/// (or on it)?
fn unsafe_is_documented(all: &[Tok], line: u32) -> bool {
    all.iter().any(|t| {
        t.is_comment()
            && t.line <= line
            && t.line + 10 >= line
            && (t.text.contains("SAFETY:") || t.text.contains("# Safety"))
    })
}

/// Code-token spans of `#[cfg(test)]` items and `#[test]` functions.
fn find_test_spans(code: &[&Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let is_cfg_test = code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('['))
            && code.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && code.get(i + 3).is_some_and(|t| t.is_punct('('))
            && code.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && code.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && code.get(i + 6).is_some_and(|t| t.is_punct(']'));
        let is_test_attr = code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('['))
            && code.get(i + 2).is_some_and(|t| t.is_ident("test"))
            && code.get(i + 3).is_some_and(|t| t.is_punct(']'));
        if is_cfg_test || is_test_attr {
            if let Some((s, e)) = item_body_span(code, i) {
                spans.push((s, e));
                i = e;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// The `{ ... }` body span of the next `fn`/`mod`/`impl` item at or after
/// code-token `start`: `(open_brace_idx, close_brace_idx + 1)`.
fn item_body_span(code: &[&Tok], start: usize) -> Option<(usize, usize)> {
    // Find the item keyword (skipping attributes, visibility, `const`, ...).
    let mut i = start;
    while i < code.len() {
        if matches!(code[i].kind, TokKind::Ident)
            && matches!(code[i].text.as_str(), "fn" | "mod" | "impl" | "trait")
        {
            break;
        }
        i += 1;
    }
    if i >= code.len() {
        return None;
    }
    // Find the opening brace at paren depth 0 (stop at `;` — a bodyless
    // declaration such as `mod x;` or a trait method signature).
    let mut paren = 0i32;
    let mut j = i + 1;
    let open = loop {
        let t = code.get(j)?;
        match t.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('{') if paren == 0 => break j,
            TokKind::Punct(';') if paren == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    // Match braces.
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// `const fn`s whose type parameter carries `Send`/`Sync` bounds — the pin
/// helpers of R4: `const fn pin<T: Send + Sync>() {}`. Plain (non-`const`)
/// helpers do not count: a pin must fail *compilation*, not a test run.
fn collect_bound_fns(code: &[&Tok]) -> HashMap<String, AssertedCaps> {
    let mut out = HashMap::new();
    for i in 0..code.len() {
        if !code[i].is_ident("fn") || i == 0 || !code[i - 1].is_ident("const") {
            continue;
        }
        let Some(name) = code.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident || !code.get(i + 2).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        // Scan the generic parameter list for Send/Sync bounds.
        let mut caps = AssertedCaps::default();
        let mut depth = 0i32;
        for t in code.iter().skip(i + 2) {
            match t.kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if t.text == "Send" => caps.send = true,
                TokKind::Ident if t.text == "Sync" => caps.sync = true,
                _ => {}
            }
        }
        if caps.send || caps.sync {
            out.insert(name.text.clone(), caps);
        }
    }
    out
}

/// The identifiers inside a turbofish `::<A, B, ...>` starting at the `<`
/// token index (path segments included — pins match on the type name).
fn generic_arg_idents(code: &[&Tok], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for t in code.iter().skip(open) {
        match t.kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident => out.push(t.text.clone()),
            _ => {}
        }
    }
    out
}

/// R4 over the whole workspace: every type in `config.pins` must be covered
/// by merged assertions.
pub fn check_pins(
    config: &Config,
    asserted: &HashMap<String, AssertedCaps>,
    pins_path: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pin in &config.pins {
        let got = asserted.get(&pin.type_name).copied().unwrap_or_default();
        let missing = match pin.capability {
            PinCapability::Send => !got.send,
            PinCapability::Sync => !got.sync,
            PinCapability::SendSync => !got.send || !got.sync,
        };
        if missing {
            out.push(Diagnostic::new(
                pins_path,
                pin.line,
                "pin-missing",
                format!(
                    "type `{}` has no `const` {} assertion anywhere in the workspace",
                    pin.type_name,
                    pin.capability.describe()
                ),
            ));
        }
    }
    out
}
