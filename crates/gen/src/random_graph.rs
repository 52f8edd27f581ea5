//! Small random connected TD graphs for correctness testing.
//!
//! Unlike [`crate::network`] (which targets road-like structure), these are
//! adversarially irregular: random tree + random chords with fully random
//! FIFO profiles — the shape that flushes out index bugs.

use rand::prelude::*;
use rand::rngs::StdRng;
use td_graph::{GraphBuilder, TdGraph};
use td_plf::{Plf, Pt, DAY};

/// Generates a random FIFO profile with `1..=max_points` points and values in
/// `[lo, hi]`.
pub fn random_profile(rng: &mut StdRng, max_points: usize, lo: f64, hi: f64) -> Plf {
    let k = rng.gen_range(1..=max_points.max(1));
    if k == 1 {
        return Plf::constant(rng.gen_range(lo..hi));
    }
    let mut ts: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..DAY)).collect();
    ts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ts.dedup_by(|a, b| (*a - *b).abs() < 1.0);
    let mut pts: Vec<Pt> = Vec::with_capacity(ts.len());
    let mut prev: Option<Pt> = None;
    for t in ts {
        let mut v = rng.gen_range(lo..hi);
        if let Some(p) = prev {
            // FIFO clamp: slope ≥ -0.9.
            let min_v = p.v - 0.9 * (t - p.t);
            if v < min_v {
                v = min_v.max(0.0);
            }
        }
        let pt = Pt::new(t, v);
        prev = Some(pt);
        pts.push(pt);
    }
    Plf::new(pts).expect("valid by construction")
}

/// Generates a connected directed TD graph: a random spanning tree
/// (bidirectional) plus `extra_directed` random extra directed edges, all with
/// random FIFO profiles of up to `max_points` points.
pub fn random_connected_graph(
    rng: &mut StdRng,
    n: usize,
    extra_directed: usize,
    max_points: usize,
) -> TdGraph {
    assert!(n >= 2);
    let mut builder = GraphBuilder::new(n);
    // Random tree: attach vertex i to a random earlier vertex.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let w = random_profile(rng, max_points, 5.0, 500.0);
        builder
            .bidirectional(i as u32, j as u32, w)
            .expect("valid tree edge");
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_directed && attempts < extra_directed * 30 + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u == v {
            continue;
        }
        let w = random_profile(rng, max_points, 5.0, 500.0);
        builder.edge(u, v, w).expect("valid extra edge");
        added += 1;
    }
    builder.build()
}

/// Convenience: a seeded random connected graph.
pub fn seeded_graph(seed: u64, n: usize, extra_directed: usize, max_points: usize) -> TdGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    random_connected_graph(&mut rng, n, extra_directed, max_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_plf::PlfView;

    #[test]
    fn random_graphs_are_connected_and_fifo() {
        for seed in 0..5 {
            let g = seeded_graph(seed, 30, 20, 4);
            assert!(g.is_connected());
            for e in g.edges() {
                assert!(e.weight.is_fifo());
            }
        }
    }

    #[test]
    fn random_profile_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let p = random_profile(&mut rng, 6, 10.0, 20.0);
            assert!(p.is_fifo());
            assert!(p.min_value() >= 0.0);
            assert!(p.max_value() < 20.0 + 1e-9);
            assert!(p.len() <= 6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = seeded_graph(3, 20, 10, 3);
        let b = seeded_graph(3, 20, 10, 3);
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea.from, eb.from);
            assert!(ea.weight.approx_eq(&eb.weight, 1e-12));
        }
    }
}
