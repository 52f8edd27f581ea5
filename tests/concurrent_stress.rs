#![allow(clippy::print_stdout)]
//! Racing reader/writer stress: reader threads hammer
//! `ParallelExecutor::query_batch_into` on `LiveIndex` snapshots while a writer
//! pushes live-traffic batches through the copy-on-write epoch swap.
//!
//! Everything observable is deterministic and seeded: the graph, the update
//! batches, and the query workload. The thread interleaving is not — that
//! is the point — but every observation a reader records is tagged with the
//! epoch it was served from, and at the end each one is cross-checked
//! against a freshly rebuilt index over that epoch's graph. A snapshot that
//! tears (serves half-updated weights) or an epoch tag that lies cannot
//! pass the check.

use std::sync::atomic::{AtomicBool, Ordering};
use td_road::api::{LiveIndex, ParallelExecutor, QuerySession};
use td_road::core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_road::gen::random_graph::{random_profile, seeded_graph};
use td_road::plf::DAY;

use rand::prelude::*;
use rand::rngs::StdRng;

const EPOCHS: usize = 4;
const CHANGES_PER_EPOCH: usize = 6;
const READERS: usize = 3;
const QUERIES: usize = 30;
const COST_EPS: f64 = 1e-4;

fn build_opts() -> IndexOptions {
    IndexOptions {
        strategy: SelectionStrategy::Greedy { budget: 4_000 },
        track_supports: true,
        ..Default::default()
    }
}

#[test]
fn racing_readers_agree_with_per_epoch_rebuilds() {
    let g0 = seeded_graph(11, 60, 90, 3);
    let n = g0.num_vertices();
    let mut rng = StdRng::seed_from_u64(0xace);

    // Deterministic update batches, and the graph state after each epoch.
    let mut graphs = vec![g0.clone()];
    let mut batches = Vec::new();
    let mut cur = g0.clone();
    for _ in 0..EPOCHS {
        let changes: Vec<_> = (0..CHANGES_PER_EPOCH)
            .map(|_| {
                let e = rng.gen_range(0..cur.num_edges()) as u32;
                let edge = cur.edge(e);
                (edge.from, edge.to, random_profile(&mut rng, 4, 20.0, 500.0))
            })
            .collect();
        for (u, v, w) in &changes {
            let eid = cur.find_edge(*u, *v).expect("existing edge");
            cur.set_weight(eid, w.clone()).expect("valid weight");
        }
        graphs.push(cur.clone());
        batches.push(changes);
    }

    let queries: Vec<(u32, u32, f64)> = (0..QUERIES)
        .map(|_| {
            (
                rng.gen_range(0..n) as u32,
                rng.gen_range(0..n) as u32,
                rng.gen_range(0.0..DAY),
            )
        })
        .collect();

    let live = LiveIndex::new(TdTreeIndex::build(g0, build_opts()));
    let done = AtomicBool::new(false);

    let observations: Vec<Vec<(u64, Vec<Option<f64>>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let (live, done, queries) = (&live, &done, &queries);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    // Runs until the writer lands every batch (a hard cap
                    // only bounds memory on a very slow writer). The short
                    // sleep keeps readers from starving the writer when
                    // cores are scarce.
                    while !done.load(Ordering::Acquire) && seen.len() < 20_000 {
                        let (epoch, snap) = live.snapshot_with_epoch();
                        let mut exec = ParallelExecutor::new(snap.as_ref(), 2);
                        let mut answers = Vec::new();
                        exec.query_batch_into(queries, &mut answers);
                        seen.push((epoch, answers));
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    seen
                })
            })
            .collect();

        // Writer: push every batch through the live index while the
        // readers race, leaving them a little time inside each epoch.
        for batch in &batches {
            std::thread::sleep(std::time::Duration::from_millis(10));
            live.apply(batch);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        done.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });

    assert_eq!(live.epoch(), EPOCHS as u64, "every batch must land");

    // Cross-check: every recorded observation against a fresh index built
    // on the graph as of that epoch.
    let mut expected: Vec<Option<Vec<Option<f64>>>> = vec![None; EPOCHS + 1];
    let mut expect_for = |epoch: usize| -> Vec<Option<f64>> {
        expected[epoch]
            .get_or_insert_with(|| {
                let fresh = TdTreeIndex::build(graphs[epoch].clone(), build_opts());
                let mut session = QuerySession::new(&fresh);
                session.query_many(queries.iter().copied())
            })
            .clone()
    };
    let mut checked = 0usize;
    let mut epochs_seen = std::collections::BTreeSet::new();
    for (reader, seen) in observations.iter().enumerate() {
        assert!(!seen.is_empty(), "reader {reader} never got a snapshot");
        for (epoch, got) in seen {
            let want = expect_for(*epoch as usize);
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                let (s, d, t) = queries[i];
                match (w, g) {
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < COST_EPS,
                        "epoch {epoch} s={s} d={d} t={t}: rebuild {a} vs snapshot {b}"
                    ),
                    (None, None) => {}
                    other => panic!("epoch {epoch} s={s} d={d}: {other:?}"),
                }
            }
            epochs_seen.insert(*epoch);
            checked += 1;
        }
    }
    // The racing is only meaningful if snapshots actually spanned epochs.
    assert!(
        epochs_seen.len() >= 2,
        "readers observed a single epoch ({epochs_seen:?}); widen the writer sleeps"
    );

    // And the final state must equal the final rebuild exactly as above.
    let (epoch, final_snap) = live.snapshot_with_epoch();
    assert_eq!(epoch, EPOCHS as u64);
    let want = expect_for(EPOCHS);
    let mut session = QuerySession::new(final_snap.as_ref());
    let got = session.query_many(queries.iter().copied());
    for ((w, g), &(s, d, t)) in want.iter().zip(&got).zip(&queries) {
        match (w, g) {
            (Some(a), Some(b)) => {
                assert!(
                    (a - b).abs() < COST_EPS,
                    "final s={s} d={d} t={t}: {a} vs {b}"
                )
            }
            (None, None) => {}
            other => panic!("final s={s} d={d}: {other:?}"),
        }
    }
    println!("checked {checked} observations across epochs {epochs_seen:?}");
}
