//! A served batch's telemetry adds up. Each serving worker exports on a
//! metric shard of its own; the scrape merges the shards, so with two
//! workers the process-wide totals must still count every reply exactly
//! once. (A test binary of its own: nothing else in the process touches the
//! catalog.)

use td_api::{AStarChIndex, BoundedAnswer};
use td_graph::TdGraph;
use td_plf::Plf;
use td_server::{ServerConfig, TdServer};

/// A two-way path 0 – 1 – … – n-1, every edge 10 s.
fn line(n: u32) -> TdGraph {
    let mut g = TdGraph::with_vertices(n as usize);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, Plf::constant(10.0)).unwrap();
        g.add_edge(v + 1, v, Plf::constant(10.0)).unwrap();
    }
    g
}

#[test]
fn a_served_batch_at_two_workers_counts_every_reply_once() {
    let m = td_obs::metrics();
    let ladder = || {
        [
            &m.ladder_exact,
            &m.ladder_approximate,
            &m.ladder_budget_exhausted,
            &m.ladder_panicked,
            &m.ladder_invalid,
        ]
        .map(|c| c.get())
    };
    let queries = || m.queries_total.get();
    let requests = || m.server_request_seconds.snapshot().count();
    let batches = || m.server_batch_size.snapshot().count();
    let before = (queries(), ladder(), requests(), batches());

    let server = TdServer::serve(
        AStarChIndex::new(line(8)),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let mut replies = 0u64;
    for burst in 0..16u32 {
        let handles: Vec<_> = (0..16u32)
            .map(|i| {
                let (s, d) = ((burst + i) % 8, (burst + 3 * i) % 8);
                let handle = server.submit(s, d, 0.0, None).unwrap();
                (handle, f64::from(s.abs_diff(d)) * 10.0)
            })
            .collect();
        for (handle, cost) in handles {
            assert_eq!(handle.wait(), Ok(BoundedAnswer::Exact(Some(cost))));
            replies += 1;
        }
    }
    let stats = server.shutdown();

    assert_eq!(
        (stats.replied, stats.exact, stats.duplicates),
        (replies, replies, 0)
    );
    assert_eq!(queries() - before.0, replies, "td_queries_total");
    let ladder_now = ladder();
    let moved: Vec<u64> = (0..5).map(|k| ladder_now[k] - before.1[k]).collect();
    assert_eq!(moved, [replies, 0, 0, 0, 0], "td_ladder_outcomes_total");
    assert_eq!(requests() - before.2, replies, "td_server_request_seconds");
    assert_eq!(batches() - before.3, stats.batches, "td_server_batch_size");
}
