//! Backend-generic conformance suite.
//!
//! [`check_backend`] drives one [`Backend`] through every trait obligation
//! on a given graph and workload:
//!
//! 1. `query_cost` agrees with the TD-Dijkstra oracle;
//! 2. `query_profile` evaluated at the departure time agrees with
//!    `query_cost` (and with the oracle) — on TD-Dijkstra and TD-A\*-CH this
//!    is the targeted corridor profile search checked end to end against
//!    the scalar search;
//! 3. `query_path` returns a valid path whose replayed cost equals the
//!    reported cost, which in turn equals the oracle's;
//! 4. `memory_bytes() > 0` and `build_stats()` is sane;
//! 5. a reused [`QuerySession`] answers identically to per-call fresh
//!    sessions, for all three query kinds;
//! 6. `query_many` matches one-at-a-time `query_cost`;
//! 7. concurrent agreement: the same batch answered on 1 worker and on N
//!    worker threads (shared index, pooled scratch) is **bit-identical**
//!    ([`check_concurrent_agreement`]);
//! 8. snapshot round-trip: saving the index as a `.tdx` stream and loading
//!    it back yields an index answering cost, profile and path queries
//!    **bit-identically** ([`check_snapshot_roundtrip`]);
//! 9. bounded queries honour the degradation ladder: under every budget,
//!    `query_cost_bounded_in` either answers **bit-identically** to
//!    `query_cost`, or returns a flagged interval containing the exact
//!    answer, or a typed error — never an unflagged wrong exact claim
//!    ([`check_bounded_queries`]);
//! 10. the targeted `s → d` corridor profile search
//!     ([`check_corridor_profiles`]) and every backend's `query_profile` are
//!     **value-identical** to the unbounded one-to-all label-correcting
//!     reference search on the union probe grid.
//!
//! The suite is instantiated for every backend in this crate's tests and is
//! public so downstream crates can run it against new backends.

use crate::{
    build_index, Backend, BoundedAnswer, IndexConfig, ParallelExecutor, QueryBudget, QueryError,
    QuerySession, RoutingIndex,
};
use td_graph::{TdGraph, VertexId};
use td_plf::Plf;

/// Absolute tolerance for cost comparisons. TD-G-tree assembles answers
/// from refined PLF matrices, which accumulate slightly more float error
/// than the sweep-based backends; 1e-4 seconds is far below anything a
/// travel-time consumer can observe.
pub const COST_EPS: f64 = 1e-4;

fn assert_opt_close(name: &str, ctx: &str, want: Option<f64>, got: Option<f64>) {
    match (want, got) {
        (Some(a), Some(b)) => assert!(
            (a - b).abs() < COST_EPS,
            "{name} {ctx}: expected {a}, got {b}"
        ),
        (None, None) => {}
        other => panic!("{name} {ctx}: reachability disagreement {other:?}"),
    }
}

/// Runs the full conformance suite for `backend` over `graph` and the
/// `(source, destination, depart)` workload. Panics on any violation.
pub fn check_backend(
    backend: Backend,
    graph: &TdGraph,
    cfg: &IndexConfig,
    queries: &[(VertexId, VertexId, f64)],
) {
    let index = build_index(graph.clone(), backend, cfg);
    let oracle = crate::DijkstraOracle::new(graph.clone());
    let name = index.backend_name();

    // 4. Accounting obligations.
    assert!(
        index.memory_bytes() > 0,
        "{name}: memory_bytes() must be positive"
    );
    let stats = index.build_stats();
    assert!(
        stats.construction_secs >= 0.0,
        "{name}: negative construction time"
    );
    assert_eq!(
        index.graph().num_vertices(),
        graph.num_vertices(),
        "{name}: graph() must expose the input graph"
    );

    // 1–3. Query agreement with the oracle, via a reused session (5) and
    // fresh per-call state simultaneously.
    let mut session = QuerySession::new(index.as_ref());
    for &(s, d, t) in queries {
        let ctx = format!("s={s} d={d} t={t}");
        let want = oracle.query_cost(s, d, t);

        let fresh = index.query_cost(s, d, t);
        assert_opt_close(name, &ctx, want, fresh);
        let reused = session.query_cost(s, d, t);
        assert_opt_close(name, &ctx, fresh, reused);

        let profile = session.query_profile(s, d);
        assert_eq!(
            profile.is_some(),
            want.is_some(),
            "{name} {ctx}: profile reachability disagrees with cost"
        );
        if let Some(f) = &profile {
            assert_opt_close(name, &format!("{ctx} (profile)"), want, Some(f.eval(t)));
        }

        match (session.query_path(s, d, t), want) {
            (Some((cost, path)), Some(w)) => {
                assert!(
                    (cost - w).abs() < COST_EPS,
                    "{name} {ctx}: path cost {cost} vs oracle {w}"
                );
                assert_eq!(path.source(), s, "{name} {ctx}: path source");
                assert_eq!(path.destination(), d, "{name} {ctx}: path destination");
                assert!(path.is_valid(graph), "{name} {ctx}: invalid path");
                let replay = path.cost(graph, t).expect("valid path replays");
                assert!(
                    (replay - cost).abs() < COST_EPS,
                    "{name} {ctx}: reported {cost} vs replay {replay}"
                );
            }
            (None, None) => {}
            other => panic!(
                "{name} {ctx}: path reachability disagreement (got={}, want={})",
                other.0.is_some(),
                other.1.is_some()
            ),
        }
    }

    // 6. Batch entry point matches singles.
    let batch = session.query_many(queries.iter().copied());
    assert_eq!(batch.len(), queries.len());
    for (&(s, d, t), got) in queries.iter().zip(&batch) {
        let single = index.query_cost(s, d, t);
        assert_opt_close(name, &format!("batch s={s} d={d} t={t}"), single, *got);
    }

    // 7. Concurrent agreement across thread counts.
    check_concurrent_agreement(index.as_ref(), queries);

    // 8. Snapshot round-trip is bit-identical.
    check_snapshot_roundtrip(index.as_ref(), queries);

    // 9. Bounded queries walk the degradation ladder soundly.
    check_bounded_queries(index.as_ref(), queries);

    // 10. The targeted corridor profile search is value-exact against the
    // unbounded one-to-all search, and so is every backend's
    // `query_profile`.
    check_corridor_profiles(graph, queries);
    check_profiles_against_one_to_all(graph, queries, name, |s, d| index.query_profile(s, d));
}

/// Conformance step 10: the targeted corridor profile search
/// ([`td_dijkstra::profile_search_frozen_corridor_to`]) must return the
/// **exact** `f_{s,d}` on every `(s, d)` pair of the workload: the same
/// reachability verdict as the unbounded one-to-all reference search
/// ([`td_dijkstra::profile_search`]), and a value-identical envelope
/// at every breakpoint of *either* representation, every midpoint between
/// them, and both rays. The corridor may only skip compounds whose best
/// continuation to `d` clears the everywhere-valid `s → d` upper bound by
/// more than ε — such candidates never touch `d`'s envelope, so pruning
/// cannot change *what* the search computes there.
///
/// The reference builds every compound and merges with a plain
/// [`Plf::minimum`], so it shares no merge decision with the frozen search
/// or the indexes, which all fold through `td_plf::ops::min_compound_into`.
/// The comparison is on function **values**, not interpolation points:
/// both sides simplify with the ε-tolerant collinearity rule, and a merge
/// one side decides without building keeps a representation the other
/// re-simplifies, so near-flat regions may keep tolerance-equal but
/// differently-anchored breakpoints. [`COST_EPS`] is the assertion bound,
/// consistent with the rest of the suite.
pub fn check_corridor_profiles(graph: &TdGraph, queries: &[(VertexId, VertexId, f64)]) {
    let fg = graph.freeze();
    check_profiles_against_one_to_all(graph, queries, "targeted corridor", |s, d| {
        td_dijkstra::profile_search_frozen_corridor_to(graph, &fg, s, d).0
    });
}

/// Step 10's contract for any `s → d` profile answer: `answer(s, d)` agrees
/// in reachability with, and is value-identical to, the reference
/// one-to-all label at `d`.
fn check_profiles_against_one_to_all(
    graph: &TdGraph,
    queries: &[(VertexId, VertexId, f64)],
    name: &str,
    answer: impl Fn(VertexId, VertexId) -> Option<Plf>,
) {
    let mut sources: Vec<VertexId> = queries.iter().map(|&(s, _, _)| s).collect();
    sources.sort_unstable();
    sources.dedup();
    for s in sources {
        let want = td_dijkstra::profile_search(graph, s);
        for &(_, d, _) in queries.iter().filter(|&&(qs, _, _)| qs == s) {
            let ctx = format!("{name} s={s} d={d}");
            match (&want.dist[d as usize], &answer(s, d)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_plf_value_identical(a, b, &ctx),
                other => panic!("{ctx}: reachability disagreement {other:?}"),
            }
        }
    }
}

/// Value-identity on the union probe grid: every breakpoint of either
/// representation, every midpoint between adjacent probes, and both rays.
fn assert_plf_value_identical(a: &Plf, b: &Plf, ctx: &str) {
    let mut ts: Vec<f64> = a.points().iter().chain(b.points()).map(|p| p.t).collect();
    ts.sort_unstable_by(f64::total_cmp);
    ts.dedup();
    let mut probes = vec![ts[0] - 1.0, ts[ts.len() - 1] + 1.0];
    probes.extend_from_slice(&ts);
    probes.extend(ts.windows(2).map(|w| 0.5 * (w[0] + w[1])));
    for &t in &probes {
        let (va, vb) = (a.eval(t), b.eval(t));
        assert!(
            (va - vb).abs() < COST_EPS,
            "{ctx}: value diverges at t={t}: {va} vs {vb}"
        );
    }
}

/// Conformance step 9: [`RoutingIndex::query_cost_bounded_in`] under a sweep
/// of budgets — tiny to unlimited settle caps plus an already-expired
/// deadline — must never make an unflagged wrong claim. Exact answers are
/// **bit-identical** to `query_cost`; approximate answers are flagged
/// intervals containing the exact cost (and never claim unreachability);
/// errors are typed. Invalid inputs surface as
/// [`QueryError::InvalidQuery`], never panics.
pub fn check_bounded_queries(index: &dyn RoutingIndex, queries: &[(VertexId, VertexId, f64)]) {
    let name = index.backend_name();
    let budgets = [
        QueryBudget::UNLIMITED,
        QueryBudget::settles(0),
        QueryBudget::settles(1),
        QueryBudget::settles(16),
        QueryBudget::settles(256),
        QueryBudget::settles(4096),
        QueryBudget::timeout(std::time::Duration::ZERO),
    ];
    // Every bounded call below runs on a scratch of its own.
    let bounded = |s, d, t, budget: &QueryBudget| {
        index.query_cost_bounded_in(&mut index.new_scratch(), s, d, t, budget)
    };
    for &(s, d, t) in queries {
        let exact = index.query_cost(s, d, t);
        for (i, budget) in budgets.iter().enumerate() {
            let ctx = format!("s={s} d={d} t={t} budget#{i}");
            match bounded(s, d, t, budget) {
                Ok(answer) => {
                    assert!(
                        answer.is_consistent_with(exact, COST_EPS),
                        "{name} {ctx}: {answer:?} inconsistent with exact {exact:?}"
                    );
                    if let BoundedAnswer::Approximate { lower, upper } = answer {
                        // Interval well-formedness, independent of the
                        // exact answer: the lower bound is a finite
                        // admissible bound (a witnessed upper in
                        // particular must sit on a real interval), and
                        // the bracket is never inverted.
                        assert!(
                            lower.is_finite() && lower >= 0.0,
                            "{name} {ctx}: lower bound {lower} is not finite and non-negative"
                        );
                        assert!(
                            lower <= upper,
                            "{name} {ctx}: inverted interval [{lower}, {upper}]"
                        );
                    }
                    if let BoundedAnswer::Exact(cost) = answer {
                        assert_eq!(
                            cost.map(f64::to_bits),
                            exact.map(f64::to_bits),
                            "{name} {ctx}: exact claim diverges from query_cost"
                        );
                    }
                }
                // Label/matrix backends under an expired deadline: refusal
                // is the honest answer when they cannot degrade.
                Err(QueryError::BudgetExhausted) => {}
                Err(e) => panic!("{name} {ctx}: unexpected error: {e}"),
            }
        }
        // An unlimited budget must never degrade.
        let answer = bounded(s, d, t, &QueryBudget::UNLIMITED)
            .unwrap_or_else(|e| panic!("{name}: unlimited budget errored: {e}"));
        assert!(
            answer.is_exact(),
            "{name} s={s} d={d}: unlimited budget degraded to {answer:?}"
        );
    }
    // Out-of-range endpoints and unusable departure times are typed.
    let n = index.graph().num_vertices() as VertexId;
    for (s, d, t) in [(n, 0, 0.0), (0, n + 7, 0.0), (0, 0, f64::NAN), (0, 0, -1.0)] {
        match bounded(s, d, t, &QueryBudget::UNLIMITED) {
            Err(QueryError::InvalidQuery(_)) => {}
            other => panic!("{name} s={s} d={d} t={t}: expected InvalidQuery, got {other:?}"),
        }
    }
}

/// Conformance step 8: `load(save(index))` must answer the whole workload
/// **bit-identically** — not merely within tolerance. The snapshot carries
/// the exact frozen arrays the query loops walk, so a loaded index's float
/// operations replay the fresh index's instruction-for-instruction; any
/// divergence means the format dropped or reordered state.
pub fn check_snapshot_roundtrip(index: &dyn RoutingIndex, queries: &[(VertexId, VertexId, f64)]) {
    let name = index.backend_name();
    let mut buf = Vec::new();
    crate::save_index_to(index, &mut buf)
        .unwrap_or_else(|e| panic!("{name}: snapshot save failed: {e}"));
    let (_, loaded) = crate::load_index_from(&mut buf.as_slice())
        .unwrap_or_else(|e| panic!("{name}: snapshot load failed: {e}"));
    assert_eq!(loaded.backend_name(), name, "snapshot changed the backend");
    assert_eq!(
        loaded.build_stats(),
        index.build_stats(),
        "{name}: snapshot changed the build statistics"
    );
    assert!(loaded.memory_bytes() > 0);
    assert_eq!(
        loaded.graph().num_edges(),
        index.graph().num_edges(),
        "{name}: snapshot changed the graph"
    );
    let mut session = QuerySession::new(loaded.as_ref());
    for &(s, d, t) in queries {
        let ctx = format!("s={s} d={d} t={t}");
        assert_eq!(
            index.query_cost(s, d, t).map(f64::to_bits),
            loaded.query_cost(s, d, t).map(f64::to_bits),
            "{name} {ctx}: loaded cost diverges"
        );
        assert_eq!(
            index.query_profile(s, d),
            loaded.query_profile(s, d),
            "{name} {ctx}: loaded profile diverges"
        );
        match (index.query_path(s, d, t), loaded.query_path(s, d, t)) {
            (Some((c1, p1)), Some((c2, p2))) => {
                assert_eq!(
                    c1.to_bits(),
                    c2.to_bits(),
                    "{name} {ctx}: loaded path cost diverges"
                );
                assert_eq!(
                    p1.vertices, p2.vertices,
                    "{name} {ctx}: loaded path diverges"
                );
            }
            (None, None) => {}
            other => panic!(
                "{name} {ctx}: path reachability diverges after reload (fresh={}, loaded={})",
                other.0.is_some(),
                other.1.is_some()
            ),
        }
        // The loaded index works through sessions/scratch too.
        assert_eq!(
            loaded.query_cost(s, d, t).map(f64::to_bits),
            session.query_cost(s, d, t).map(f64::to_bits),
            "{name} {ctx}: loaded session diverges"
        );
    }
}

/// Conformance step 7: the same seeded query batch answered by one worker
/// and by N workers sharing `index` must produce **bit-identical** results
/// — not merely within tolerance. Queries read only frozen state, so thread
/// count and work-stealing order must be unobservable in the answers. The
/// contained call is held to the same standard: under an unlimited budget
/// [`ParallelExecutor::query_batch_bounded_into`] answers every slot
/// `Exact` with the bits [`ParallelExecutor::query_batch_into`] produced.
pub fn check_concurrent_agreement(index: &dyn RoutingIndex, queries: &[(VertexId, VertexId, f64)]) {
    let name = index.backend_name();
    let bits =
        |r: &[Option<f64>]| -> Vec<Option<u64>> { r.iter().map(|c| c.map(f64::to_bits)).collect() };
    let mut single = Vec::new();
    ParallelExecutor::new(index, 1).query_batch_into(queries, &mut single);
    let unlimited: Vec<_> = queries
        .iter()
        .map(|&q| (q, QueryBudget::UNLIMITED))
        .collect();
    let (mut parallel, mut contained) = (Vec::new(), Vec::new());
    for threads in [1, 2, 3, 4] {
        let mut exec = ParallelExecutor::new(index, threads);
        for round in 0..2 {
            // Round 1 reruns on warmed scratches: reuse must not change bits.
            exec.query_batch_into(queries, &mut parallel);
            assert_eq!(
                bits(&single),
                bits(&parallel),
                "{name}: {threads}-thread batch (round {round}) diverges from single-thread"
            );
            exec.query_batch_bounded_into(&unlimited, &mut contained);
            let exact: Vec<Option<f64>> = contained
                .iter()
                .map(|r| match r {
                    Ok(BoundedAnswer::Exact(cost)) => *cost,
                    other => panic!("{name}: unlimited contained slot degraded to {other:?}"),
                })
                .collect();
            assert_eq!(
                bits(&single),
                bits(&exact),
                "{name}: {threads}-thread contained batch (round {round}) diverges"
            );
        }
    }
}
