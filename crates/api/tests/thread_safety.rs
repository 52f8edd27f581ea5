//! Compile-time thread-safety pinning.
//!
//! The concurrent query engine shares one built index across worker threads
//! (`Arc<dyn RoutingIndex>`, `ParallelExecutor`, `LiveIndex`) and moves
//! per-worker scratch into scoped threads. These assertions pin every link
//! of that chain as `Send + Sync` (or `Send` for the per-thread state), so
//! a future `Rc`/`Cell`/raw-pointer regression anywhere in the stack fails
//! to *compile* rather than failing — or worse, racing — at runtime.

use std::sync::Arc;
use td_api::{
    AStarChIndex, AStarChScratch, DijkstraOracle, LiveIndex, ParallelExecutor, QuerySession,
    RoutingIndex, SessionScratch,
};
use td_core::{FrozenTd, TdTreeIndex};

fn assert_send_sync<T: Send + Sync + ?Sized>() {}
fn assert_send<T: Send + ?Sized>() {}

#[test]
fn frozen_views_are_send_sync() {
    // The immutable query-time mirrors every backend reads from.
    assert_send_sync::<td_plf::PlfArena>();
    assert_send_sync::<td_graph::CsrGraph>();
    assert_send_sync::<td_graph::FrozenGraph>();
    assert_send_sync::<FrozenTd>();
    assert_send_sync::<td_ch::ContractionHierarchy>();
}

#[test]
fn every_backend_is_send_sync() {
    // Concrete index types...
    assert_send_sync::<TdTreeIndex>();
    assert_send_sync::<td_gtree::TdGtree>();
    assert_send_sync::<DijkstraOracle>();
    assert_send_sync::<AStarChIndex>();
    // ...and the trait-object forms every harness actually shares. The
    // `Send + Sync` supertraits on `RoutingIndex` make these hold for any
    // future backend by construction.
    assert_send_sync::<dyn RoutingIndex>();
    assert_send_sync::<Box<dyn RoutingIndex>>();
    assert_send_sync::<Arc<dyn RoutingIndex>>();
}

#[test]
fn serving_layer_is_thread_safe() {
    // LiveIndex is shared by reference between the writer and all readers.
    assert_send_sync::<LiveIndex<TdTreeIndex>>();
    assert_send_sync::<LiveIndex<AStarChIndex>>();
    // Scratch and the session/executor wrappers move to worker threads.
    assert_send::<SessionScratch>();
    assert_send::<AStarChScratch>();
    assert_send::<QuerySession<dyn RoutingIndex>>();
    assert_send::<ParallelExecutor<dyn RoutingIndex>>();
}

/// The A\*-CH backend drives the copy-on-write `LiveIndex` like the TD-tree
/// family: per-worker potential scratch, epoch-tagged snapshots, updates by
/// re-freeze + re-customization under the kept contraction order.
#[test]
fn astar_ch_serves_through_live_index() {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_gen::random_graph::{random_profile, seeded_graph};
    use td_plf::DAY;

    let n = 30;
    let g = seeded_graph(13, n, 20, 3);
    let live = LiveIndex::new(AStarChIndex::new(g.clone()));
    let mut rng = StdRng::seed_from_u64(31);

    for round in 0..3 {
        let snapshot = live.snapshot();
        // Readers answer from the snapshot (bit-identical to a fresh build
        // on that epoch's graph, checked via the shared scratchless entry).
        let fresh = AStarChIndex::new(snapshot.graph().clone());
        for _ in 0..20 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            assert_eq!(
                snapshot.query_cost(s, d, t).map(f64::to_bits),
                fresh.query_cost(s, d, t).map(f64::to_bits),
                "round={round} s={s} d={d} t={t}"
            );
        }
        // Writer repairs a private clone and publishes it.
        let e = g.edges()[rng.gen_range(0..g.num_edges())].clone();
        let w = random_profile(&mut rng, 3, 60.0, 600.0);
        live.apply(&[(e.from, e.to, w)]);
    }
    assert_eq!(live.epoch(), 3);
}
