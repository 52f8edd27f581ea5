//! `tdx` — the snapshot tool: build a `.tdx` index snapshot from a named
//! dataset, inspect its section table, or verify its integrity end to end.
//!
//! ```text
//! tdx build --dataset CAL --backend td-h2h --out cal-h2h.tdx [--scale 0.25]
//!           [--seed 42] [--c 3] [--threads 0] [--budget N] [--max-leaf 32]
//!           [--track-supports]
//! tdx inspect <path.tdx>
//! tdx verify <path.tdx> [--queries 200] [--seed 42]
//! tdx stats <path.tdx> [--queries 256] [--seed 42] [--threads 2]
//! ```
//!
//! `verify` walks every section checksum, fully reloads the index, and
//! (with `--queries N`) replays a seeded workload against a fresh
//! TD-Dijkstra oracle over the snapshot's own graph — the same agreement
//! the conformance suite demands. Every tenth probe also runs the
//! cost-function query and checks its value at the probe's departure time
//! (`profile agreement: k/k`), so the PLF kernels are checked on a loaded
//! index too. On a TD-tree-family snapshot it then prints how those profile
//! queries' merges ended, per query: kept by per-window bounds, kept by the
//! merge kernel's walk, or changed. On a search backend (TD-Dijkstra,
//! TD-A\*-CH) it prints a search census per cost query — settled,
//! relaxed, evaluations, pushes — and for TD-A\*-CH the potential's
//! backward settles and lazy resolutions and the hours its suffix windows
//! open at. `inspect` on a TD-A\*-CH snapshot also prints the shape of the
//! order it stores: chordal arcs, width and elimination-tree height.
//!
//! `stats` loads the snapshot, drives a seeded serving workload through the
//! parallel executor (exact, budget-bounded and profile queries), then
//! prints the process-wide metric catalog as a Prometheus text scrape on
//! stdout — the workload summary goes to stderr, so the scrape pipes clean.
//!
//! `build`, `inspect` and `verify` write through a locked stdout and take a
//! closed pipe (`| head`) as the end of their output, not an error: they
//! exit 0, and `build` still saves its snapshot.

use std::io::{self, Write};
use std::time::Instant;
use td_api::{
    build_index, load_index, save_index, Backend, IndexConfig, ParallelExecutor, QueryBudget,
    QuerySession,
};
use td_gen::Dataset;
use td_store::error::tag_name;
use td_store::section::{elem, walk_sections, SectionInfo};

fn usage() -> ! {
    eprintln!(
        "usage:\n  tdx build --dataset <CAL|SF|COL|FLA|W-USA> --backend <name> --out <path> \\\n            [--scale X] [--seed N] [--c N] [--threads N] [--budget N] [--max-leaf N] [--track-supports]\n  tdx inspect <path.tdx>\n  tdx verify <path.tdx> [--queries N] [--seed N]\n  tdx stats <path.tdx> [--queries N] [--seed N] [--threads N]\n  tdx serve <path.tdx> [--duration-ms N] [--clients N] [--burst N] [--deadline-ms N] [--chaos] [--seed N]"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tdx: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..], &mut PipeEnd::new(io::stdout().lock()))
            .unwrap_or_else(|e| fail(e)),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => usage(),
    }
}

fn parse_dataset(name: &str) -> Dataset {
    Dataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| fail(format!("unknown dataset `{name}`")))
}

/// `build`: generates the graph, builds the index and saves the snapshot,
/// reporting each step on `report`. A report write that fails ends the
/// command, so `main` hands it a [`PipeEnd`]: a reader that stops early
/// (`| head -1`) costs the rest of the report, never the snapshot.
fn cmd_build(args: &[String], report: &mut impl Write) -> io::Result<()> {
    let mut dataset = None;
    let mut backend = None;
    let mut out = None;
    let mut scale = 0.25f64;
    let mut seed = 42u64;
    let mut c = 3usize;
    let mut threads = 0usize;
    let mut budget = None;
    let mut max_leaf = 32usize;
    let mut track_supports = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| fail(format!("{arg} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--dataset" => dataset = Some(parse_dataset(&val())),
            "--backend" => {
                backend = Some(val().parse::<Backend>().unwrap_or_else(|e| fail(e)));
            }
            "--out" => out = Some(val()),
            "--scale" => scale = val().parse().unwrap_or_else(|_| fail("bad --scale")),
            "--seed" => seed = val().parse().unwrap_or_else(|_| fail("bad --seed")),
            "--c" => c = val().parse().unwrap_or_else(|_| fail("bad --c")),
            "--threads" => threads = val().parse().unwrap_or_else(|_| fail("bad --threads")),
            "--budget" => budget = Some(val().parse().unwrap_or_else(|_| fail("bad --budget"))),
            "--max-leaf" => max_leaf = val().parse().unwrap_or_else(|_| fail("bad --max-leaf")),
            "--track-supports" => track_supports = true,
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    let (Some(dataset), Some(backend), Some(out)) = (dataset, backend, out) else {
        usage();
    };

    let spec = dataset.spec();
    let t0 = Instant::now();
    let graph = spec.build_scaled(c, scale, seed);
    writeln!(
        report,
        "{}: |V|={} |E|={} (scale {scale}, c={c}, seed {seed}) generated in {:.2}s",
        dataset.name(),
        graph.num_vertices(),
        graph.num_edges(),
        t0.elapsed().as_secs_f64()
    )?;

    let cfg = IndexConfig {
        budget: budget.unwrap_or(spec.budget_at(scale) as u64),
        threads,
        track_supports,
        max_leaf,
        ..Default::default()
    };
    let t1 = Instant::now();
    let index = build_index(graph, backend, &cfg);
    let build_secs = t1.elapsed().as_secs_f64();
    writeln!(
        report,
        "{} built in {build_secs:.2}s ({} pairs, {} points, {})",
        index.backend_name(),
        index.build_stats().precomputed_pairs,
        index.build_stats().stored_points,
        td_bench::fmt_bytes(index.memory_bytes())
    )?;

    let t2 = Instant::now();
    save_index(index.as_ref(), &out).unwrap_or_else(|e| fail(e));
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    writeln!(
        report,
        "wrote {out}: {} in {:.3}s",
        td_bench::fmt_bytes(bytes as usize),
        t2.elapsed().as_secs_f64()
    )
}

/// A writer whose reader may stop early: once a write finds the pipe
/// closed (a reader such as `head` has gone), every later write is dropped
/// and reported done, so the command's work goes on without an audience.
/// Any other error still fails the write.
struct PipeEnd<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> PipeEnd<W> {
    fn new(inner: W) -> PipeEnd<W> {
        PipeEnd {
            inner,
            closed: false,
        }
    }

    /// Runs `io` on the inner writer unless the pipe has closed; a closed
    /// pipe turns into `done`.
    fn unless_closed<T>(
        &mut self,
        done: T,
        io: impl FnOnce(&mut W) -> io::Result<T>,
    ) -> io::Result<T> {
        if self.closed {
            return Ok(done);
        }
        match io(&mut self.inner) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(done)
            }
            other => other,
        }
    }
}

impl<W: Write> Write for PipeEnd<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.unless_closed(buf.len(), |w| w.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.unless_closed((), Write::flush)
    }
}

fn elem_name(code: u8) -> &'static str {
    match code {
        elem::END => "end",
        elem::U8 => "u8",
        elem::U32 => "u32",
        elem::U64 => "u64",
        elem::F64 => "f64",
        _ => "?",
    }
}

/// Opens a snapshot and returns its header line and the CRC-verified
/// section list.
fn walk(path: &str) -> (String, Vec<SectionInfo>) {
    let mut f = std::io::BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| fail(e)));
    let header = td_store::format::read_header(&mut f).unwrap_or_else(|e| fail(e));
    let line = format!(
        "{path}: format v{}, backend {}",
        header.version, header.backend
    );
    (line, walk_sections(&mut f).unwrap_or_else(|e| fail(e)))
}

fn cmd_inspect(args: &[String]) {
    let [path] = args else { usage() };
    let (header, infos) = walk(path);
    let written = write_inspect(&mut std::io::stdout().lock(), path, &header, &infos);
    end_of_output(written).unwrap_or_else(|e| fail(e));
}

/// A command's written output, with a closed pipe — a reader such as
/// `head` that stopped early — taken as the end of it rather than an error.
fn end_of_output(written: io::Result<()>) -> io::Result<()> {
    match written {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// `inspect`'s tables: the header line, the section table and the
/// generation table.
fn write_inspect(
    out: &mut impl Write,
    path: &str,
    header: &str,
    infos: &[SectionInfo],
) -> io::Result<()> {
    let rule = "-".repeat(65);
    writeln!(out, "{header}")?;
    writeln!(
        out,
        "{:<8} {:<5} {:>12} {:>14} {:>10} {:>10}",
        "section", "type", "count", "bytes", "crc32", "load"
    )?;
    writeln!(out, "{rule}")?;
    let mut total = 0u64;
    let mut total_secs = 0.0f64;
    for s in infos {
        writeln!(
            out,
            "{:<8} {:<5} {:>12} {:>14} {:>10x} {:>10}",
            tag_name(s.tag),
            elem_name(s.type_code),
            s.count,
            s.bytes,
            s.crc,
            format!("{:.2}ms", s.load_secs * 1e3)
        )?;
        total += s.bytes;
        total_secs += s.load_secs;
    }
    writeln!(out, "{rule}")?;
    writeln!(
        out,
        "{} sections, {} payload read in {:.2}ms (all checksums OK)",
        infos.len(),
        td_bench::fmt_bytes(total as usize),
        total_secs * 1e3
    )?;
    write_order_shape(out, path)?;

    // The crash-consistency generation pair: which generations exist, how
    // old each is, and which one a load would actually serve (`load_index`
    // tries primary first, `.prev` on any error).
    writeln!(out)?;
    writeln!(
        out,
        "{:<10} {:>14} {:>10}  status",
        "generation", "bytes", "age"
    )?;
    writeln!(out, "{rule}")?;
    let prev = format!("{path}.prev");
    let primary_ok = write_generation(out, "primary", path)?;
    let prev_ok = write_generation(out, "prev", &prev)?;
    writeln!(out, "{rule}")?;
    writeln!(
        out,
        "a load would serve: {}",
        match (primary_ok, prev_ok) {
            (true, _) => "primary",
            (false, true) => "prev (fallback)",
            (false, false) => "nothing — both generations unloadable",
        }
    )
}

/// On a TD-A\*-CH snapshot, the shape of the order it stores: its chordal
/// supergraph's arcs, its largest up-degree and its elimination-tree height
/// (a file holding the min-degree order and one holding another order tell
/// apart here). Any other file, or none, prints nothing.
fn write_order_shape(out: &mut impl Write, path: &str) -> io::Result<()> {
    let Ok(f) = std::fs::File::open(path) else {
        return Ok(());
    };
    let header = td_store::format::read_header(&mut std::io::BufReader::new(f));
    if !matches!(header, Ok(h) if h.backend == td_store::BackendTag::AStarCh) {
        return Ok(());
    }
    let index = td_api::load_astar_ch_index(path).unwrap_or_else(|e| fail(e));
    let shape = index.hierarchy().order_shape(index.frozen());
    writeln!(
        out,
        "order: {} chordal arcs, width {}, elimination-tree height {}",
        shape.arcs, shape.width, shape.height
    )
}

/// One row of the generation table; true when the file walks clean.
fn write_generation(out: &mut impl Write, label: &str, path: &str) -> io::Result<bool> {
    let Ok(meta) = std::fs::metadata(path) else {
        writeln!(out, "{label:<10} {:>14} {:>10}  absent", "-", "-")?;
        return Ok(false);
    };
    let age = meta
        .modified()
        .ok()
        .and_then(|m| m.elapsed().ok())
        .map_or_else(|| "?".to_string(), fmt_age);
    let status = check_generation(path);
    writeln!(
        out,
        "{label:<10} {:>14} {age:>10}  {status}",
        td_bench::fmt_bytes(meta.len() as usize),
    )?;
    Ok(status.starts_with("OK"))
}

/// Walks a generation's header + every section checksum (without loading
/// the index) and renders the outcome.
fn check_generation(path: &str) -> String {
    let open = std::fs::File::open(path).map_err(td_store::StoreError::from);
    let walked = open.and_then(|f| {
        let mut r = std::io::BufReader::new(f);
        td_store::format::read_header(&mut r)?;
        walk_sections(&mut r)
    });
    match walked {
        Ok(infos) => format!("OK ({} sections)", infos.len()),
        Err(e) => format!("unloadable: {e}"),
    }
}

fn fmt_age(age: std::time::Duration) -> String {
    let s = age.as_secs();
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else if s < 86_400 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else {
        format!("{}d{:02}h", s / 86_400, (s % 86_400) / 3600)
    }
}

fn cmd_verify(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let mut queries = 0usize;
    let mut seed = 42u64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| fail(format!("{arg} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--queries" => queries = val().parse().unwrap_or_else(|_| fail("bad --queries")),
            "--seed" => seed = val().parse().unwrap_or_else(|_| fail("bad --seed")),
            other => fail(format!("unknown flag `{other}`")),
        }
    }

    let (header, infos) = walk(path);
    let written = write_verify(
        &mut std::io::stdout().lock(),
        path,
        (&header, &infos),
        queries,
        seed,
    );
    end_of_output(written).unwrap_or_else(|e| fail(e));
}

/// `verify`'s report on the snapshot at `path`, whose header line and
/// section table `walked` holds: the checksums, the reload, and with
/// `queries > 0` the oracle agreement and, for the TD-tree family and the
/// search backends, the census. A disagreement fails the command; a failed
/// write ends the report.
fn write_verify(
    out: &mut impl Write,
    path: &str,
    (header, infos): (&str, &[SectionInfo]),
    queries: usize,
    seed: u64,
) -> io::Result<()> {
    // 1. Structural walk: every section checksum.
    writeln!(out, "{header}")?;
    writeln!(out, "checksums: {} sections OK", infos.len())?;

    // 2. Full reload through the typed path (validates every invariant).
    let t0 = Instant::now();
    let index = load_index(path).unwrap_or_else(|e| fail(e));
    writeln!(
        out,
        "reload: {} ({}) in {:.3}s",
        index.backend_name(),
        td_bench::fmt_bytes(index.memory_bytes()),
        t0.elapsed().as_secs_f64()
    )?;

    // 3. Optional oracle agreement over the snapshot's own graph.
    if queries > 0 && index.graph().num_vertices() == 0 {
        writeln!(
            out,
            "oracle agreement: skipped (snapshot holds an empty graph)"
        )?;
    } else if queries > 0 {
        let graph = index.graph().clone();
        let oracle = td_api::DijkstraOracle::new(graph);
        let mut oracle = QuerySession::new(&oracle);
        let n = index.graph().num_vertices() as u64;
        let mut session = QuerySession::new(index.as_ref());
        let (mut checked, mut profiles) = (0usize, 0usize);
        let agrees = |want: Option<f64>, got: Option<f64>| match (want, got) {
            (Some(a), Some(b)) => (a - b).abs() < 1e-4,
            (a, b) => a.is_none() && b.is_none(),
        };
        for i in 0..queries as u64 {
            let (s, d, t) = probe(seed, i, n);
            let want = oracle.query_cost(s, d, t);
            let got = session.query_cost(s, d, t);
            if !agrees(want, got) {
                fail(format!(
                    "oracle disagreement at s={s} d={d} t={t}: {:?}",
                    (want, got)
                ));
            }
            checked += 1;
            // Every tenth probe: the cost-function query, evaluated at `t`.
            if i % 10 == 0 {
                let got = session.query_profile(s, d).map(|f| f.eval(t));
                if !agrees(want, got) {
                    fail(format!(
                        "profile disagreement at s={s} d={d} t={t}: {:?}",
                        (want, got)
                    ));
                }
                profiles += 1;
            }
        }
        writeln!(out, "oracle agreement: {checked}/{queries} queries OK")?;
        writeln!(out, "profile agreement: {profiles}/{profiles}")?;
        if profiles > 0 && TREE_FAMILY.contains(&index.backend_name()) {
            write_census(out, path, seed, queries as u64, n)?;
        }
        if SEARCH_FAMILY.contains(&index.backend_name()) {
            write_search_census(out, path, index.as_ref(), seed, queries as u64, n)?;
        }
    }
    writeln!(out, "verify: OK")
}

/// The TD-tree family's backend names (`RoutingIndex::backend_name`).
const TREE_FAMILY: [&str; 4] = ["TD-basic", "TD-appro", "TD-dp", "TD-H2H"];

/// The search backends' names: their cost queries run `td_dijkstra::search`.
const SEARCH_FAMILY: [&str; 2] = ["TD-Dijkstra", "TD-A*-CH"];

/// Replays `verify`'s probes as cost queries on a search backend and prints
/// what one query's search did, on average: vertices settled, out-edges
/// relaxed, weight functions evaluated and heap pushes. On TD-A\*-CH, also
/// what its potential did — the vertices its backward upward search
/// settled and the potentials it resolved lazily — and the suffix windows
/// it switches between, in hours.
fn write_search_census(
    out: &mut impl Write,
    path: &str,
    index: &dyn td_api::RoutingIndex,
    seed: u64,
    queries: u64,
    n: u64,
) -> io::Result<()> {
    let mut scratch = index.new_scratch();
    let mut total = td_obs::SearchStats::default();
    for i in 0..queries {
        let (s, d, t) = probe(seed, i, n);
        index.query_cost_in(&mut scratch, s, d, t);
        total.merge(&index.take_search_stats(&mut scratch).unwrap_or_default());
    }
    let per = |x: u64| x as f64 / queries as f64;
    write!(
        out,
        "search census per query: {:.1} settled, {:.1} relaxed, {:.1} evaluations, {:.1} pushes",
        per(total.settled),
        per(total.relaxed),
        per(total.plf_evals_scalar + total.plf_evals_batched),
        per(total.heap_pushes),
    )?;
    if index.backend_name() == "TD-A*-CH" {
        write!(
            out,
            "; potential {:.1} settled, {:.1} resolved",
            per(total.potential_settled),
            per(total.potential_resolved),
        )?;
        let index = td_api::load_astar_ch_index(path).unwrap_or_else(|e| fail(e));
        let hours: Vec<String> = index
            .hierarchy()
            .window_starts()
            .iter()
            .map(|s| format!("{}", s / 3600.0))
            .collect();
        write!(out, "; windows at {} h", hours.join(", "))?;
    }
    writeln!(out)
}

/// Reloads a TD-tree snapshot as its concrete index and replays `verify`'s
/// probes. Prints the scalar census per cost query: root-path levels swept,
/// functions evaluated, min-cost prunes, and the share of queries whose cut
/// the shortcut rows' key counts ruled out as a full cover, that missed a
/// pair, or that a full cover answered. Then how the profile sweeps' merges
/// ended per query: kept by per-window bounds or by the merge kernel's
/// walk, or changed — into an empty slot (a fill), by a take the windows or
/// the walk decided, or by a merge.
fn write_census(
    out: &mut impl Write,
    path: &str,
    seed: u64,
    queries: u64,
    n: u64,
) -> io::Result<()> {
    let index = td_api::load_tree_index(path).unwrap_or_else(|e| fail(e));
    let mut cost = td_core::CostScratch::default();
    for i in 0..queries {
        let (s, d, t) = probe(seed, i, n);
        index.query_cost_with(&mut cost, s, d, t);
    }
    let c = cost.counts;
    let per = |x: u64| x as f64 / queries as f64;
    writeln!(
        out,
        "cost census per query: {:.1} levels, {:.1} evaluations, {:.1} prunes; \
         cuts {:.0} % gated out, {:.0} % missed, {:.0} % covered",
        per(c.levels),
        per(c.evals),
        per(c.prunes),
        100.0 * per(c.gated_out),
        100.0 * per(c.missed),
        100.0 * per(c.covered),
    )?;
    let mut scratch = td_core::ProfileScratch::default();
    let mut total = td_core::ProfileCounts::default();
    let mut profiles = 0u64;
    for i in (0..queries).step_by(10) {
        let (s, d, _) = probe(seed, i, n);
        index.query_profile_with(&mut scratch, s, d);
        total += scratch.counts;
        profiles += 1;
    }
    let per = |x: u64| x as f64 / profiles as f64;
    let t = total;
    let keeps = (t.window_keeps + t.walk_keeps).max(1) as f64;
    writeln!(
        out,
        "profile merges per query: {:.1} window keeps, {:.1} walk keeps ({:.0} % of keeps by windows); \
         {:.1} fills, {:.1} window takes, {:.1} walk takes, {:.1} merges",
        per(t.window_keeps),
        per(t.walk_keeps),
        100.0 * t.window_keeps as f64 / keeps,
        per(t.fills),
        per(t.window_takes),
        per(t.walk_takes),
        per(t.merges),
    )
}

/// Deterministic splitmix-style probe query `i` over an `n`-vertex graph.
fn probe(seed: u64, i: u64, n: u64) -> (u32, u32, f64) {
    let mut x = seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let s = (x % n) as u32;
    let d = ((x >> 20) % n) as u32;
    let t = ((x >> 13) % 86_400) as f64;
    (s, d, t)
}

fn cmd_stats(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let mut queries = 256usize;
    let mut seed = 42u64;
    let mut threads = 2usize;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| fail(format!("{arg} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--queries" => queries = val().parse().unwrap_or_else(|_| fail("bad --queries")),
            "--seed" => seed = val().parse().unwrap_or_else(|_| fail("bad --seed")),
            "--threads" => threads = val().parse().unwrap_or_else(|_| fail("bad --threads")),
            other => fail(format!("unknown flag `{other}`")),
        }
    }

    // The load itself feeds td_snapshot_load_seconds.
    let index = load_index(path).unwrap_or_else(|e| fail(e));
    let n = index.graph().num_vertices() as u64;
    if n > 0 && queries > 0 {
        let workload: Vec<td_api::CostQuery> =
            (0..queries as u64).map(|i| probe(seed, i, n)).collect();
        let mut exec = ParallelExecutor::new(index.as_ref(), threads);
        let mut exact = Vec::new();
        exec.query_batch_into(&workload, &mut exact);
        let reachable = exact.iter().filter(|c| c.is_some()).count();
        // The bounded rung: a tight settle budget walks the degradation
        // ladder, and one out-of-range probe exercises the error rung.
        let budget = QueryBudget::settles(16);
        let mut bounded_load: Vec<_> = workload.iter().map(|&q| (q, budget)).collect();
        bounded_load.push(((n as u32, 0, 0.0), budget));
        let mut bounded = Vec::new();
        exec.query_batch_bounded_into(&bounded_load, &mut bounded);
        let degraded = bounded
            .iter()
            .filter(|r| matches!(r, Ok(a) if !a.is_exact()))
            .count();
        // A few cost-function (profile) queries for corridor telemetry.
        let pairs: Vec<(u32, u32)> = workload.iter().take(4).map(|q| (q.0, q.1)).collect();
        let profiles = exec.profile_batch(&pairs);
        eprintln!(
            "{path}: {} over |V|={n} |E|={}; {} cost queries ({reachable} reachable), \
             {} bounded ({degraded} degraded), {} profiles, {} workers",
            index.backend_name(),
            index.graph().num_edges(),
            workload.len(),
            bounded_load.len(),
            profiles.iter().filter(|p| p.is_some()).count(),
            exec.num_workers(),
        );
    } else {
        eprintln!("{path}: empty graph or --queries 0; scrape reflects the load only");
    }
    print!("{}", td_obs::metrics().registry.render_prometheus());
}

/// `tdx serve`: loads a snapshot, stands the overload-safe serving
/// front-end up in front of it, and drives a seeded time-boxed workload
/// (optionally under the full chaos plan). The run summary goes to stderr;
/// the process-wide metric scrape — now including the `td_server_*`
/// families — goes to stdout, so it pipes clean like `tdx stats`. Exits
/// nonzero if the exactly-once serving invariant did not hold.
fn cmd_serve(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let mut duration_ms = 1500u64;
    let mut clients = 4usize;
    let mut burst = 16usize;
    let mut deadline_ms = 250u64;
    let mut chaos = false;
    let mut seed = 42u64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| fail(format!("{arg} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--duration-ms" => {
                duration_ms = val().parse().unwrap_or_else(|_| fail("bad --duration-ms"));
            }
            "--clients" => clients = val().parse().unwrap_or_else(|_| fail("bad --clients")),
            "--burst" => burst = val().parse().unwrap_or_else(|_| fail("bad --burst")),
            "--deadline-ms" => {
                deadline_ms = val().parse().unwrap_or_else(|_| fail("bad --deadline-ms"));
            }
            "--chaos" => chaos = true,
            "--seed" => seed = val().parse().unwrap_or_else(|_| fail("bad --seed")),
            other => fail(format!("unknown flag `{other}`")),
        }
    }

    let index = load_index(path).unwrap_or_else(|e| fail(e));
    eprintln!(
        "{path}: serving {} over |V|={} |E|={} ({})",
        index.backend_name(),
        index.graph().num_vertices(),
        index.graph().num_edges(),
        if chaos {
            "full fault plan"
        } else {
            "fault-free"
        },
    );
    let soak = td_server::SoakConfig {
        duration: std::time::Duration::from_millis(duration_ms),
        clients,
        burst,
        client_deadline: std::time::Duration::from_millis(deadline_ms),
        plan: if chaos {
            td_server::FaultPlan::full(seed)
        } else {
            td_server::FaultPlan::none()
        },
        seed,
    };
    // `Box<dyn RoutingIndex>` serves through the fixed-source front-end;
    // live-update storms are a td-server soak concern, not a snapshot one.
    let report = td_server::run_soak_fixed(index, td_server::ServerConfig::default(), &soak);
    let s = &report.stats;
    eprintln!(
        "admitted {} ({} exact, {} approximate, {} failed), rejected {} typed, \
         shed {} expired, {} retries over {} batches",
        s.admitted,
        s.exact,
        s.approximate,
        s.failed,
        s.rejected,
        s.shed_expired,
        s.retries,
        s.batches,
    );
    eprintln!(
        "accepted-request p99 {:.3} ms, rejected-submit p99 {:.3} ms, duplicates {}, hung {}",
        report.p99_nanos as f64 / 1e6,
        report.reject_p99_nanos as f64 / 1e6,
        s.duplicates,
        report.hung,
    );
    print!("{}", td_obs::metrics().registry.render_prometheus());
    if !report.exactly_once() {
        fail("serving invariant violated: not exactly-once (or the run hung)");
    }
    eprintln!("serve: OK (exactly-once held)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that has gone away: every write fails as a closed pipe does.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `head -n lines`: keeps what it reads up to its last line, then
    /// closes the pipe — every later write fails as a closed pipe does.
    struct Head {
        lines: usize,
        read: Vec<u8>,
    }

    impl Write for Head {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.read.iter().filter(|&&b| b == b'\n').count() >= self.lines {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.read.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_pipe_end_drops_what_follows_a_closed_pipe_and_nothing_else() {
        let mut out = PipeEnd::new(Head {
            lines: 1,
            read: Vec::new(),
        });
        writeln!(out, "first").unwrap();
        writeln!(out, "second").unwrap();
        out.flush().unwrap();
        writeln!(out, "third").unwrap();
        assert!(out.closed);
        assert_eq!(out.inner.read, b"first\n");
        // Any other error still fails the write.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut full = PipeEnd::new(Full);
        let err = writeln!(full, "line").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!full.closed);
    }

    /// `tdx build … | head -1`: the reader leaves after the first line, and
    /// the build still saves a snapshot that walks and loads. Written to a
    /// bare closed pipe instead, the report fails first and no file is
    /// left — the failure the `PipeEnd` is there to absorb.
    #[test]
    fn build_saves_its_snapshot_when_the_reader_leaves_early() {
        let path = std::env::temp_dir().join(format!("tdx-build-{}.tdx", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap();
        let args = [
            "--dataset",
            "CAL",
            "--backend",
            "td-appro",
            "--scale",
            "0.002",
            "--budget",
            "5000",
            "--out",
            path,
        ]
        .map(String::from);

        let bare = cmd_build(&args, &mut ClosedPipe).unwrap_err();
        assert_eq!(bare.kind(), io::ErrorKind::BrokenPipe);
        assert!(!std::path::Path::new(path).exists());

        let mut head = PipeEnd::new(Head {
            lines: 1,
            read: Vec::new(),
        });
        cmd_build(&args, &mut head).unwrap();
        let read = String::from_utf8(head.inner.read).unwrap();
        assert!(read.starts_with("CAL: |V|="), "{read}");
        assert_eq!(read.lines().count(), 1, "{read}");
        let (header, infos) = walk(path);
        assert!(header.contains("backend TD-appro"), "{header}");
        assert!(!infos.is_empty());
        assert_eq!(load_index(path).unwrap().backend_name(), "TD-appro");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_closed_pipe_ends_the_output_without_an_error() {
        let infos = [SectionInfo {
            tag: u32::from_le_bytes(*b"TEST"),
            type_code: elem::U32,
            count: 3,
            bytes: 12,
            crc: 0xabcd,
            load_secs: 0.0,
        }];
        let written = write_inspect(&mut ClosedPipe, "absent.tdx", "header", &infos);
        assert_eq!(
            written.as_ref().unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert!(end_of_output(written).is_ok());
        let other = Err(io::ErrorKind::PermissionDenied.into());
        assert!(
            end_of_output(other).is_err(),
            "only a closed pipe ends the output"
        );
        // The same tables into a live writer: header, both tables, verdict.
        let mut text = Vec::new();
        write_inspect(&mut text, "absent.tdx", "header", &infos).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert!(text.starts_with("header\n"), "{text}");
        assert!(text.contains("1 sections"), "{text}");
        assert!(text.ends_with("a load would serve: nothing — both generations unloadable\n"));
    }

    /// `verify` writes its report through the same writer: a closed pipe
    /// fails its first line, before the snapshot is even loaded, and ends
    /// the output without an error.
    #[test]
    fn verify_stops_at_a_closed_pipe() {
        let written = write_verify(&mut ClosedPipe, "absent.tdx", ("header", &[]), 10, 42);
        assert_eq!(
            written.as_ref().unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert!(end_of_output(written).is_ok());
    }

    /// On a TD-A\*-CH snapshot, `verify` adds the search census: per-query
    /// counts from the search loop and the hierarchy's window starts.
    #[test]
    fn verify_reports_the_search_census_of_an_astar_ch_snapshot() {
        let path = std::env::temp_dir().join(format!("tdx-verify-ch-{}.tdx", std::process::id()));
        let graph = Dataset::Cal.build(3, 0.002, 42);
        let index = td_api::AStarChIndex::new(graph);
        let starts = index.hierarchy().window_starts().to_vec();
        save_index(&index, &path).unwrap();
        let path = path.to_str().unwrap();
        let (header, infos) = walk(path);
        let mut text = Vec::new();
        write_verify(&mut text, path, (&header, &infos), 20, 42).unwrap();
        std::fs::remove_file(path).unwrap();
        let text = String::from_utf8(text).unwrap();
        for line in [
            "reload: TD-A*-CH",
            "oracle agreement: 20/20 queries OK",
            "search census per query: ",
            " settled, ",
            " relaxed, ",
            " evaluations, ",
            " pushes; potential ",
            " resolved; windows at 0, ",
        ] {
            assert!(text.contains(line), "{line} missing from {text}");
        }
        // The potential's work: every query that is not `s == d` settles
        // its destination in the backward search and resolves the source.
        assert!(!text.contains("; potential 0.0 settled"), "{text}");
        assert!(!text.contains(", 0.0 resolved"), "{text}");
        let hours: Vec<String> = starts.iter().map(|s| format!("{}", s / 3600.0)).collect();
        assert!(
            text.contains(&format!("windows at {} h\n", hours.join(", "))),
            "{text}"
        );
        assert!(!text.contains("cost census"), "{text}");
        assert!(text.ends_with("verify: OK\n"), "{text}");
    }

    /// On a TD-A\*-CH snapshot, `inspect` prints the shape of the stored
    /// order; on any other snapshot it prints none.
    #[test]
    fn inspect_reports_the_order_shape_of_an_astar_ch_snapshot() {
        let path = std::env::temp_dir().join(format!("tdx-inspect-ch-{}.tdx", std::process::id()));
        let graph = Dataset::Cal.build(3, 0.002, 42);
        let index = td_api::AStarChIndex::new(graph.clone());
        let shape = index.hierarchy().order_shape(index.frozen());
        save_index(&index, &path).unwrap();
        let path = path.to_str().unwrap();
        let inspect = |path: &str| {
            let (header, infos) = walk(path);
            let mut text = Vec::new();
            write_inspect(&mut text, path, &header, &infos).unwrap();
            String::from_utf8(text).unwrap()
        };
        let text = inspect(path);
        let line = format!(
            "\norder: {} chordal arcs, width {}, elimination-tree height {}\n",
            shape.arcs, shape.width, shape.height
        );
        assert!(
            shape.arcs > 0 && text.contains(&line),
            "{line} missing from {text}"
        );
        let oracle = td_api::DijkstraOracle::new(graph);
        save_index(&oracle, path).unwrap();
        assert!(!inspect(path).contains("chordal arcs"));
        std::fs::remove_file(path).unwrap();
        let _ = std::fs::remove_file(format!("{path}.prev"));
    }

    /// Into a live writer, `verify` reports a small TD-appro snapshot in
    /// full: the checksums, the reload, both agreements, the census lines
    /// and the verdict.
    #[test]
    fn verify_writes_its_whole_report() {
        let path = std::env::temp_dir().join(format!("tdx-verify-{}.tdx", std::process::id()));
        let graph = Dataset::Cal.build(3, 0.002, 42);
        let config = IndexConfig {
            budget: 5_000,
            ..Default::default()
        };
        save_index(
            build_index(graph, Backend::TdAppro, &config).as_ref(),
            &path,
        )
        .unwrap();
        let path = path.to_str().unwrap();
        let (header, infos) = walk(path);
        let mut text = Vec::new();
        write_verify(&mut text, path, (&header, &infos), 20, 42).unwrap();
        std::fs::remove_file(path).unwrap();
        let text = String::from_utf8(text).unwrap();
        for line in [
            "checksums:",
            "reload: TD-appro",
            "oracle agreement: 20/20 queries OK",
            "profile agreement: 2/2",
            "cost census per query:",
            "profile merges per query:",
        ] {
            assert!(text.contains(line), "{line} missing from {text}");
        }
        assert!(text.ends_with("verify: OK\n"), "{text}");
    }
}
