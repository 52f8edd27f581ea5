//! Panic containment at batch scale: one poisoned query inside a
//! 2048-query batch must come back as a typed [`QueryError::Panicked`]
//! while the other 2047 answer exactly — on every worker count, for both
//! search backends, and again on the same executor after the panicked
//! worker's scratch was sanitized in place.

use td_api::{
    build_index, Backend, BoundedAnswer, CostQuery, IndexConfig, IndexStats, ParallelExecutor,
    QueryBudget, QueryError, RoutingIndex, SessionScratch,
};
use td_gen::random_graph::seeded_graph;
use td_graph::{Path, TdGraph, VertexId};
use td_plf::{Plf, DAY};

/// A delegating wrapper that panics on one designated (source, destination)
/// pair — standing in for a latent bug (corrupt label, NaN comparison,
/// out-of-bounds arc) tripping on exactly one unlucky query.
struct PanickyIndex {
    inner: Box<dyn RoutingIndex>,
    poisoned: (VertexId, VertexId),
}

impl RoutingIndex for PanickyIndex {
    fn backend_name(&self) -> &'static str {
        "panicky-test-wrapper"
    }
    fn graph(&self) -> &TdGraph {
        self.inner.graph()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn build_stats(&self) -> IndexStats {
        self.inner.build_stats()
    }
    fn new_scratch(&self) -> SessionScratch {
        self.inner.new_scratch()
    }
    fn query_cost_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        assert!(
            (s, d) != self.poisoned,
            "simulated latent bug on query {s} -> {d}"
        );
        self.inner.query_cost_in(scratch, s, d, t)
    }
    fn query_profile_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        self.inner.query_profile_in(scratch, s, d)
    }
    fn query_path_in(
        &self,
        scratch: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        self.inner.query_path_in(scratch, s, d, t)
    }
}

/// A deterministic 2048-query workload with the poisoned pair planted at
/// one slot.
fn workload(n: u32, poisoned: (VertexId, VertexId), slot: usize) -> Vec<CostQuery> {
    let mut queries: Vec<CostQuery> = (0..2048)
        .map(|i| {
            let s = (i * 37 + 11) as u32 % n;
            let mut d = (i * 101 + 5) as u32 % n;
            let t = (i as f64 * 977.0) % DAY;
            if (s, d) == poisoned {
                d = (d + 1) % n;
            }
            (s, d, t)
        })
        .collect();
    queries[slot] = (poisoned.0, poisoned.1, 3_600.0);
    queries
}

#[test]
fn one_poisoned_query_in_2048_leaves_the_rest_exact() {
    let g = seeded_graph(9, 48, 30, 3);
    let n = g.num_vertices() as u32;
    let poisoned = (7, 31);
    let slot = 1234;
    let oracle = td_api::DijkstraOracle::new(g.clone());
    let queries = workload(n, poisoned, slot);
    let unlimited: Vec<(CostQuery, QueryBudget)> = queries
        .iter()
        .map(|&q| (q, QueryBudget::UNLIMITED))
        .collect();
    let mut results = Vec::new();

    for backend in [Backend::Dijkstra, Backend::AStarCh] {
        let index = PanickyIndex {
            inner: build_index(g.clone(), backend, &IndexConfig::default()),
            poisoned,
        };
        for threads in [1, 4] {
            let ctx = format!("{backend:?} threads={threads}");
            let mut exec = ParallelExecutor::new(&index, threads);
            for round in 0..2 {
                // Round 1 reruns on the executor whose scratch slot was
                // sanitized after the panic: containment must not wedge
                // reuse, and no torn label may leak into a later answer.
                exec.query_batch_bounded_into(&unlimited, &mut results);
                assert_eq!(results.len(), 2048);
                let mut panicked = 0;
                for (i, (r, &(s, d, t))) in results.iter().zip(&queries).enumerate() {
                    if i == slot {
                        match r {
                            Err(QueryError::Panicked(msg)) => {
                                panicked += 1;
                                assert!(
                                    msg.contains("simulated latent bug"),
                                    "panic payload lost: {msg:?}"
                                );
                            }
                            other => panic!("{ctx} round={round}: {other:?}"),
                        }
                    } else {
                        let Ok(BoundedAnswer::Exact(got)) = r else {
                            panic!("{ctx} round={round} slot {i}: {r:?}")
                        };
                        assert_eq!(
                            got.map(f64::to_bits),
                            oracle.query_cost(s, d, t).map(f64::to_bits),
                            "{ctx} round={round} slot {i}"
                        );
                    }
                }
                assert_eq!(panicked, 1, "{ctx} round={round}");
            }
        }
    }
}
