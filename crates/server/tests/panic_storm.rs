//! The sustained panic-storm soak: a hostile index panics on a
//! deterministic pseudo-random 1% of queries across thousands of bursts,
//! with periodic lock poisoning thrown in, at one, two and four serving
//! workers. The executors and every serving-path mutex must recover each
//! time, and every non-panicking slot must be bit-identical to a clean run
//! of the same query stream.

use std::time::Duration;

use td_api::{AStarChIndex, BoundedAnswer, QueryError};
use td_graph::TdGraph;
use td_plf::Plf;
use td_server::{
    splitmix64, FaultPlan, HostileIndex, Rejected, ServeError, ServerConfig, TdServer,
    INJECTED_PANIC,
};

fn grid(side: u32) -> TdGraph {
    let n = side * side;
    let mut g = TdGraph::with_vertices(n as usize);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                g.add_edge(v, v + 1, Plf::constant(10.0 + ((v * 7) % 13) as f64))
                    .unwrap();
                g.add_edge(v + 1, v, Plf::constant(10.0 + ((v * 11) % 17) as f64))
                    .unwrap();
            }
            if r + 1 < side {
                g.add_edge(v, v + side, Plf::constant(10.0 + ((v * 3) % 19) as f64))
                    .unwrap();
                g.add_edge(v + side, v, Plf::constant(10.0 + ((v * 5) % 23) as f64))
                    .unwrap();
            }
        }
    }
    g
}

#[test]
fn sustained_panic_storm_recovers_and_stays_bit_identical() {
    let _quiet = td_server::silence_contained_panics();
    // One worker retries its own panicked slots; with more, whichever
    // worker pops next takes the retry from the queue head.
    for workers in [1, 2, 4] {
        storm(workers);
    }
}

fn storm(workers: usize) {
    const SEED: u64 = 0x5701_2024;
    const BATCHES: usize = 2_000;
    const BURST: usize = 16;
    let side = 5u32;
    let n = (side * side) as u64;

    // Persistent panics: the afflicted 1% fail their bounded retry too, so
    // the client sees the typed `Panicked` reply — the storm never heals.
    let plan = FaultPlan {
        seed: SEED,
        panic_per_million: 10_000,
        transient_panics: false,
        ..FaultPlan::none()
    };
    // An oracle copy of the hostile wrapper predicts exactly which slots
    // panic (the decision is a pure function of (seed, s, d, t)).
    let oracle = HostileIndex::new(AStarChIndex::new(grid(side)), &plan);

    let cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let clean = TdServer::serve(AStarChIndex::new(grid(side)), cfg);
    let hostile = TdServer::serve(HostileIndex::new(AStarChIndex::new(grid(side)), &plan), cfg);

    let mut x = SEED;
    let mut faulted = 0u64;
    let mut clean_slots = 0u64;
    for batch in 0..BATCHES {
        // Poison the serving-path mutexes mid-storm, repeatedly: every
        // later admission and dispatch must recover.
        if batch % 97 == 96 {
            hostile.inject_lock_poison();
        }
        let mut queries = Vec::with_capacity(BURST);
        let mut expected = Vec::with_capacity(BURST);
        let mut replies = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            x = splitmix64(x);
            let s = (x % n) as u32;
            let d = ((x >> 13) % n) as u32;
            let t = ((x >> 29) % 97) as f64;
            queries.push((s, d, t));
            expected.push(clean.submit(s, d, t, None).expect("clean admission"));
            replies.push(hostile.submit(s, d, t, None).expect("hostile admission"));
        }
        for (((s, d, t), clean_h), hostile_h) in queries.into_iter().zip(expected).zip(replies) {
            let clean_reply = clean_h.wait();
            let hostile_reply = hostile_h.wait();
            if oracle.would_fault(s, d, t) {
                faulted += 1;
                match hostile_reply {
                    Err(ServeError::Query(QueryError::Panicked(msg))) => {
                        assert!(
                            msg.contains(INJECTED_PANIC),
                            "unexpected panic on ({s},{d},{t}): {msg}"
                        );
                    }
                    other => panic!("faulted slot ({s},{d},{t}) replied {other:?}"),
                }
            } else {
                clean_slots += 1;
                // Bit-identical: the same Exact answer, compared through
                // f64 bits so -0.0/NaN drift would be caught too.
                match (&clean_reply, &hostile_reply) {
                    (Ok(BoundedAnswer::Exact(a)), Ok(BoundedAnswer::Exact(b))) => {
                        assert_eq!(
                            a.map(f64::to_bits),
                            b.map(f64::to_bits),
                            "slot ({s},{d},{t}) diverged: {clean_reply:?} vs {hostile_reply:?}"
                        );
                    }
                    _ => panic!(
                        "slot ({s},{d},{t}) not exact on both: {clean_reply:?} vs {hostile_reply:?}"
                    ),
                }
            }
        }
    }
    assert!(
        faulted > 0,
        "the storm never fired — rate or stream bug ({workers} workers)"
    );
    assert!(clean_slots > 0);

    let stats = hostile.shutdown();
    // Every admitted request replied exactly once, through ~2k bursts of
    // storm, poison, and retries.
    assert_eq!(stats.admitted, (BATCHES * BURST) as u64);
    assert_eq!(stats.replied, stats.admitted);
    assert_eq!(stats.duplicates, 0);
    assert_eq!(
        stats.exact + stats.approximate + stats.failed,
        stats.replied
    );
    // Persistent panics burn their single bounded retry before the typed
    // reply: retries tracked the faulted slots.
    assert!(
        stats.retries >= faulted,
        "retries {} < faulted {faulted}",
        stats.retries
    );
    assert_eq!(stats.failed, faulted);

    let clean_stats = clean.shutdown();
    assert_eq!(clean_stats.failed, 0);
    assert_eq!(clean_stats.retries, 0);
    assert_eq!(clean_stats.duplicates, 0);
}

#[test]
fn shutdown_refuses_new_work_but_drains_admitted() {
    let server = TdServer::serve(AStarChIndex::new(grid(3)), ServerConfig::default());
    let mut handles = Vec::new();
    for i in 0..32u32 {
        handles.push(server.submit(i % 9, (i + 3) % 9, 0.0, None).unwrap());
    }
    let stats = server.shutdown();
    assert_eq!(stats.replied, stats.admitted);
    for h in handles {
        assert!(h.try_reply().is_some(), "admitted request lost its reply");
    }
}

#[test]
fn expired_deadline_is_refused_typed_at_admission() {
    let server = TdServer::serve(AStarChIndex::new(grid(3)), ServerConfig::default());
    let past = std::time::Instant::now() - Duration::from_millis(5);
    match server.submit(0, 8, 0.0, Some(past)) {
        Err(Rejected::DeadlineExpired) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 0);
}
