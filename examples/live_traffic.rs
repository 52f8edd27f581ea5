#![allow(clippy::print_stdout)]
//! Live traffic updates under load: §5.2's index-update scenario, served
//! concurrently.
//!
//! An accident multiplies travel times on a handful of road segments during
//! the morning. The index lives inside a copy-on-write `LiveIndex`: reader
//! threads keep answering query batches from immutable snapshots the whole
//! time, while the incident is repaired incrementally (support-list replay +
//! top-down shortcut rebuild) on a private clone and published atomically.
//! No reader ever blocks on the repair or observes a half-updated index.
//!
//! Run with: `cargo run --release --example live_traffic`

use std::sync::atomic::{AtomicBool, Ordering};
use td_plf::Pt;
use td_road::prelude::*;

fn main() {
    // A production router restarts from a snapshot, not a rebuild: the
    // first run of this example builds the index (with support tracking,
    // so it accepts `update_edges`) and saves it; later runs seed the
    // `LiveIndex` from the `.tdx` file in milliseconds.
    let snap = std::env::temp_dir().join("live-traffic-td-appro.tdx");
    let index = match load_tree_index(&snap) {
        Ok(index) => {
            println!("index restored from {}", snap.display());
            index
        }
        Err(_) => {
            let graph = Dataset::Cal.build(3, 0.15, 5);
            let budget = Dataset::Cal.spec().budget_at(0.15) as u64;
            let index = TdTreeIndex::build(
                graph,
                IndexOptions {
                    strategy: SelectionStrategy::Greedy { budget },
                    track_supports: true, // enables update_edges
                    ..Default::default()
                },
            );
            println!(
                "index built in {:.2}s ({} shortcut pairs)",
                RoutingIndex::build_stats(&index).construction_secs,
                RoutingIndex::build_stats(&index).precomputed_pairs
            );
            if save_index(&index, &snap).is_ok() {
                println!("snapshot saved to {} for the next restart", snap.display());
            }
            index
        }
    };
    let n = index.graph().num_vertices() as u32;

    let (s, d) = (1u32, n - 2);
    let depart = 8.0 * 3600.0;
    // From here on readers see atomically-published snapshots while each
    // update repairs a private clone of the current one.
    let live = LiveIndex::new(index);

    let snap = live.snapshot();
    let before = snap.session().query_cost(s, d, depart).expect("connected");
    let (_, path) = snap.session().query_path(s, d, depart).expect("connected");
    println!(
        "before incident: {before:.0}s via {} vertices",
        path.vertices.len()
    );

    // Accident: the first few segments of the current best route triple in
    // cost between 7:00 and 11:00.
    let mut changes = Vec::new();
    for w in path.vertices.windows(2).take(4) {
        let e = snap.graph().find_edge(w[0], w[1]).expect("path edge");
        let old = snap.graph().weight(e).clone();
        let mut pts: Vec<Pt> = Vec::new();
        for &(t, mult) in &[
            (0.0, 1.0),
            (6.9 * 3600.0, 1.0),
            (8.0 * 3600.0, 3.0),
            (11.0 * 3600.0, 1.0),
            (DAY, 1.0),
        ] {
            pts.push(Pt::new(t, old.eval(t) * mult));
        }
        let jammed = Plf::new(pts).expect("valid incident profile");
        changes.push((w[0], w[1], jammed));
    }
    drop(snap);

    // Serve a steady query load on two reader threads while the incident is
    // applied: each batch comes from whatever snapshot is active when the
    // batch starts, tagged with its epoch.
    let queries: Vec<(u32, u32, f64)> = (0..512u32)
        .map(|i| (i * 37 % n, (i * 53 + 11) % n, (f64::from(i) * 97.0) % DAY))
        .collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (live, done, queries) = (&live, &done, &queries);
                scope.spawn(move || {
                    let (mut batches, mut answered, mut epochs_seen) = (0u64, 0u64, [false; 2]);
                    let mut out = Vec::new();
                    loop {
                        let (epoch, snap) = live.snapshot_with_epoch();
                        let mut exec = ParallelExecutor::new(snap.as_ref(), 2);
                        epochs_seen[(epoch as usize).min(1)] = true;
                        // Serve from this snapshot until the epoch advances,
                        // so the executor's workers stay warmed (zero allocs
                        // per query) across steady-state batches — and at
                        // least once, so a reader always gets to serve the
                        // epoch the writer publishes just before stopping it.
                        loop {
                            exec.query_batch_into(queries, &mut out);
                            batches += 1;
                            answered += out.iter().flatten().count() as u64;
                            if done.load(Ordering::Acquire) || live.epoch() != epoch {
                                break;
                            }
                        }
                        if done.load(Ordering::Acquire) && live.epoch() == epoch {
                            break;
                        }
                    }
                    (batches, answered, epochs_seen)
                })
            })
            .collect();

        let stats = live.apply(&changes);
        println!(
            "applied incident to {} segments: replay {:.3}s ({} eliminations, {} nodes changed), shortcut rebuild {:.3}s ({} nodes)",
            stats.changed_edges,
            stats.replay_secs,
            stats.replayed_eliminations,
            stats.changed_nodes,
            stats.rebuild_secs,
            stats.rebuilt_subtree_nodes
        );

        done.store(true, Ordering::Release);
        for (r, h) in readers.into_iter().enumerate() {
            let (batches, answered, epochs_seen) = h.join().expect("reader");
            println!(
                "reader {r}: {batches} batches, {answered} answers, served epochs {}{}",
                if epochs_seen[0] { "0 " } else { "" },
                if epochs_seen[1] { "1" } else { "" },
            );
        }
    });

    let snap = live.snapshot();
    let mut session = snap.session();
    let after = session.query_cost(s, d, depart).expect("connected");
    let (_, new_path) = session.query_path(s, d, depart).expect("connected");
    println!(
        "after incident:  {after:.0}s via {} vertices {}",
        new_path.vertices.len(),
        if new_path.vertices == path.vertices {
            "(same route, slower)"
        } else {
            "(rerouted!)"
        }
    );
    assert!(
        after >= before - 1e-6,
        "congestion cannot make the trip faster"
    );

    // Off-peak queries are unaffected by the 7-11am incident.
    let night_before = session.query_cost(s, d, 2.0 * 3600.0).expect("connected");
    println!("at 02:00 the trip still costs {night_before:.0}s (incident is time-bounded)");
}
