//! The benchmark's inputs, all made from `--seed`: the query mix, its
//! shuffle, the update stream and the samples the kernel probes replay.
//!
//! The road network is the fixed part. It is the paper's dataset (the CAL
//! analogue), built with the literal [`GRAPH_SEED`]: a different topology per
//! seed moves TD-appro's build time by more than 2x (4.6 s → 11.4 s between
//! graph seeds 42 and 43 at scale 1.0), which would bury every bound under
//! input variance. `--seed` draws the traffic on it.

use crate::adapter::{self, EdgeChange, Graph, Query, Vertex};

/// Scale of the CAL analogue: 51 × 51 = 2 601 vertices, ~5.5 k edges. Half of
/// ISSUE 11's CAL-medium, because every run sets up five times (the
/// contract's `setup_s` rule) and must leave the 22-runs-per-workload budget
/// standing; at scale 1.0 five TD-appro builds alone take ~25 s.
pub const GRAPH_SCALE: f64 = 0.5;
/// The dataset's own seed (not `--seed`; see the module docs).
pub const GRAPH_SEED: u64 = 42;
/// The paper's §5 mix: 1 000 random pairs × 10 departure intervals.
pub const MIX_PAIRS: usize = 1000;
pub const MIX_TIMES: usize = 10;
/// Update stream: batches of 10 random edges.
pub const UPDATE_BATCHES: usize = 3;
pub const UPDATE_EDGES: usize = 10;
/// Scale of the `axes.*` table (1 296 vertices): at the main scale TD-G-tree
/// and TD-H2H cost tens of seconds and hundreds of MB per run.
pub const AXES_SCALE: f64 = 0.25;

/// SplitMix64: the benchmark's own generator for shuffles and sampling, so
/// the inputs do not change when the repository's `rand` stand-in does.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform index below `n` (`n > 0`).
pub fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// Uniform in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates with [`splitmix64`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        items.swap(i, below(&mut state, i + 1));
    }
}

/// The seeded query mix.
pub struct Mix {
    /// The 10 000 queries in run order: shuffled, so consecutive queries do
    /// not share a pair (pair-major order would hand TD-A\*-CH ten potential
    /// re-uses in a row).
    pub queries: Vec<Query>,
    /// `queries[i]` is pair-major query `origin[i]`.
    origin: Vec<u32>,
    /// The 1 000 distinct pairs, shuffled independently of `queries`.
    pub pairs: Vec<(Vertex, Vertex)>,
    /// `pairs[p]`'s position in the generator's pair-major order.
    pair_origin: Vec<u32>,
}

impl Mix {
    pub fn generate(vertices: usize, seed: u64) -> Mix {
        let pair_major = adapter::paper_mix(vertices, MIX_PAIRS, MIX_TIMES, seed);
        let mut origin: Vec<u32> = (0..pair_major.len() as u32).collect();
        shuffle(&mut origin, seed ^ 0x006d_6978);
        let queries = origin.iter().map(|&o| pair_major[o as usize]).collect();
        let mut pair_origin: Vec<u32> = (0..MIX_PAIRS as u32).collect();
        shuffle(&mut pair_origin, seed ^ 0x7061_6972);
        let pairs = pair_origin
            .iter()
            .map(|&p| {
                let q = pair_major[p as usize * MIX_TIMES];
                (q.0, q.1)
            })
            .collect();
        Mix {
            queries,
            origin,
            pairs,
            pair_origin,
        }
    }

    /// For `pairs[p]`: the run-order indices of its ten `(s, d, t)` queries,
    /// i.e. where `expected` holds the oracle's answers for that pair.
    pub fn pair_query_indices(&self) -> Vec<[u32; MIX_TIMES]> {
        let mut position = vec![0u32; self.origin.len()];
        for (i, &o) in self.origin.iter().enumerate() {
            position[o as usize] = i as u32;
        }
        self.pair_origin
            .iter()
            .map(|&p| std::array::from_fn(|k| position[p as usize * MIX_TIMES + k]))
            .collect()
    }
}

/// The seeded update stream over `graph`.
pub fn update_stream(graph: &Graph, seed: u64) -> Vec<Vec<EdgeChange>> {
    (0..UPDATE_BATCHES as u64)
        .map(|b| adapter::update_batch(graph, UPDATE_EDGES, seed ^ (0x7570_6400 + b)))
        .collect()
}

/// FNV-1a over 64-bit words; 52 bits so the value survives an `f64`.
pub struct WorkloadHash(u64);

impl WorkloadHash {
    pub fn new() -> WorkloadHash {
        WorkloadHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> f64 {
        (self.0 & ((1 << 52) - 1)) as f64
    }
}

/// `bench.workload_hash`: graph + mix (in run order) + update stream.
pub fn workload_hash(graph: &Graph, mix: &Mix, updates: &[Vec<EdgeChange>]) -> f64 {
    let mut h = WorkloadHash::new();
    adapter::hash_graph(graph, &mut |w| h.word(w));
    for &(s, d, t) in &mix.queries {
        h.word(u64::from(s));
        h.word(u64::from(d));
        h.word(t.to_bits());
    }
    for batch in updates {
        for (u, v, f) in batch {
            h.word(u64::from(*u));
            h.word(u64::from(*v));
            adapter::hash_profile(f, &mut |w| h.word(w));
        }
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_for(seed: u64) -> f64 {
        // A small graph keeps the test fast; the hash covers the same three
        // parts as a real run.
        let graph = adapter::cal_graph(0.02, GRAPH_SEED);
        let mix = Mix::generate(graph.num_vertices(), seed);
        let updates = update_stream(&graph, seed);
        workload_hash(&graph, &mix, &updates)
    }

    #[test]
    fn equal_seeds_give_equal_inputs_and_other_seeds_do_not() {
        assert_eq!(hash_for(42), hash_for(42));
        assert_ne!(hash_for(42), hash_for(43));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..1000).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..1000).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffled_mix_separates_a_pairs_queries() {
        let mix = Mix::generate(500, 42);
        assert_eq!(mix.queries.len(), MIX_PAIRS * MIX_TIMES);
        let adjacent_same_pair = mix
            .queries
            .windows(2)
            .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
            .count();
        // Pair-major order has 9 000 such neighbours; a shuffle leaves ~10.
        assert!(adjacent_same_pair < 100, "{adjacent_same_pair}");
        // Every pair finds its own ten queries again.
        for (p, idx) in mix.pair_query_indices().iter().enumerate() {
            for &i in idx {
                let q = mix.queries[i as usize];
                assert_eq!((q.0, q.1), mix.pairs[p]);
            }
        }
    }

    #[test]
    fn update_batches_name_distinct_existing_edges() {
        let graph = adapter::cal_graph(0.02, GRAPH_SEED);
        let stream = update_stream(&graph, 42);
        assert_eq!(stream.len(), UPDATE_BATCHES);
        for batch in &stream {
            assert_eq!(batch.len(), UPDATE_EDGES);
            let mut ends: Vec<(Vertex, Vertex)> = batch.iter().map(|c| (c.0, c.1)).collect();
            ends.sort_unstable();
            ends.dedup();
            assert_eq!(ends.len(), UPDATE_EDGES);
        }
        // Applying a batch yields a graph that differs from the original.
        let changed = adapter::graph_with(&graph, &stream[0]);
        let mut h0 = WorkloadHash::new();
        adapter::hash_graph(&graph, &mut |w| h0.word(w));
        let mut h1 = WorkloadHash::new();
        adapter::hash_graph(&changed, &mut |w| h1.word(w));
        assert_ne!(h0.value(), h1.value());
    }
}
