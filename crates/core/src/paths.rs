//! Shortest-path recovery.
//!
//! Def. 2 requires the intermediate vertex to be recorded in every compound
//! function; this module turns those witnesses back into a full vertex path.
//!
//! Recovery is two-level:
//!
//! 1. the *sweep level*: the scalar query tracks, per root-path vertex, which
//!    (node, bag entry) relaxation achieved its earliest arrival;
//! 2. the *function level*: each hop used a stored weight function
//!    `X(v).Ws_u` / `X(v).Wd_u`, read in place from the tree's label store,
//!    whose witnesses are elimination bridges
//!    (Algo. 1). [`expand_pair`] unfolds one hop recursively: a witness `m`
//!    splits `i → j` into `i → m` (= `X(m).Wd_i`) and `m → j` (= `X(m).Ws_j`),
//!    both recorded at `X(m)` because `i, j ∈ X(m)` when `m` was eliminated.
//!    `NO_VIA` terminates at an original edge.
//!
//! Recovery always runs on the basic sweeps (shortcut functions may reference
//! sub-shortcuts that were not selected); shortcuts accelerate costs, not
//! path extraction.

use crate::query::{CostScratch, QueryEngine};
use td_graph::{Path, VertexId};
use td_plf::{PlfSlice, NO_VIA};
use td_treedec::{TreeDecomposition, WD, WS};

/// Expands the stored function `f` for the pair `from → to` at departure
/// time `t`, appending all intermediate vertices and `to` itself to `out`.
/// Returns the travel cost of the expanded segment.
pub fn expand_pair(
    td: &TreeDecomposition,
    from: VertexId,
    to: VertexId,
    f: PlfSlice<'_>,
    t: f64,
    out: &mut Vec<VertexId>,
) -> f64 {
    let (cost, via) = f.eval_with_via(t);
    if via == NO_VIA {
        out.push(to);
        return cost;
    }
    let m = via;
    let slot = |u| {
        td.slot(m, u)
            .expect("witness bridge must contain both endpoints")
    };
    let labels = td.labels();
    let f1 = (labels.get(WD, slot(from))).expect("witnessed direction must exist");
    let f2 = (labels.get(WS, slot(to))).expect("witnessed direction must exist");
    let c1 = expand_pair(td, from, m, f1, t, out);
    let c2 = expand_pair(td, m, to, f2, t + c1, out);
    c1 + c2
}

impl QueryEngine<'_> {
    /// Travel cost *and* shortest path for `Q(s, d, t)`.
    ///
    /// Runs the basic scalar sweeps with predecessor tracking, then unfolds
    /// each hop's stored function through [`expand_pair`]. The returned
    /// [`Path`] is freshly allocated (it is the result), but `scratch`'s
    /// sweep tables are reused across calls.
    pub(crate) fn path(
        &self,
        scratch: &mut CostScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        if s == d {
            return Some((0.0, Path::new(vec![s])));
        }
        let x = self.td.lca(s, d);
        let upto = self.td.node(x).depth as usize;
        self.sweep_up_scalar_into(s, t, &[], None, &mut scratch.up);
        self.sweep_down_scalar_into(d, &scratch.up.arr, upto, t, None, &mut scratch.down);
        let (up, down) = (&scratch.up, &scratch.down);
        let dd = down.path.len() - 1;
        let arrival = down.arr[dd]?;

        // Hops on d's path, walked backwards while a down-relaxation won;
        // the walk ends at the vertex whose up-sweep arrival was used (the
        // join with s's path, always on the common prefix).
        let mut hops_d: Vec<(usize, usize, usize)> = Vec::new(); // (from_k, to_k, bag idx)
        let mut k = dd;
        while let Some((ku, bi)) = down.pred[k] {
            hops_d.push((ku, k, bi));
            k = ku;
        }
        let join_depth = k;
        debug_assert!(join_depth <= upto || join_depth == dd && upto >= dd);

        // Hops on s's path from the join vertex back down to s.
        let ds = up.path.len() - 1;
        let mut hops_s: Vec<(usize, usize, usize)> = Vec::new(); // (from_k deeper, to_k, bag idx)
        let mut k = join_depth;
        while k != ds {
            let (kv, bi) = up.pred[k]?;
            hops_s.push((kv, k, bi));
            k = kv;
        }

        // Emit: s → … → join → … → d.
        let mut vertices = vec![s];
        let mut now = t;
        let labels = self.td.labels();
        // The sweep's label: bag entry `bi` of `X(v)` in direction `dir`.
        let label =
            |dir, v, bi| (labels.get(dir, labels.range(v).start + bi)).expect("used by the sweep");
        for &(kv, kt, bi) in hops_s.iter().rev() {
            let v = up.path[kv];
            let u = up.path[kt];
            now += expand_pair(self.td, v, u, label(WS, v, bi), now, &mut vertices);
        }
        for &(ku, kt, bi) in hops_d.iter().rev() {
            let u = down.path[ku];
            let v = down.path[kt];
            now += expand_pair(self.td, u, v, label(WD, v, bi), now, &mut vertices);
        }
        debug_assert!(
            (now - arrival).abs() < 1e-6,
            "expanded path cost {} disagrees with query arrival {}",
            now - t,
            arrival - t
        );
        Some((arrival - t, Path::new(vertices)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut::ShortcutStore;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_dijkstra::shortest_path_cost;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    #[test]
    fn recovered_paths_are_valid_and_cost_exactly_the_reported_value() {
        for seed in 0..6u64 {
            let n = 30;
            let g = seeded_graph(seed, n, 20, 3);
            let td = TreeDecomposition::build(&g);
            let store = ShortcutStore::empty(n);
            let engine = QueryEngine::new(&td, &store);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9999);
            for _ in 0..30 {
                let s = rng.gen_range(0..n) as u32;
                let d = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0.0..DAY);
                match engine.path(&mut CostScratch::default(), s, d, t) {
                    Some((cost, path)) => {
                        assert_eq!(path.source(), s);
                        assert_eq!(path.destination(), d);
                        assert!(path.is_valid(&g), "seed={seed} invalid path {path}");
                        let replay = path.cost(&g, t).expect("valid path replays");
                        assert!(
                            (replay - cost).abs() < 1e-5,
                            "seed={seed} s={s} d={d} t={t}: reported {cost} vs replay {replay}"
                        );
                        let want = shortest_path_cost(&g, s, d, t).expect("reachable");
                        assert!(
                            (want - cost).abs() < 1e-5,
                            "seed={seed} s={s} d={d} t={t}: not shortest ({cost} vs {want})"
                        );
                    }
                    None => {
                        assert!(shortest_path_cost(&g, s, d, t).is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_paths() {
        let g = seeded_graph(2, 12, 8, 3);
        let td = TreeDecomposition::build(&g);
        let store = ShortcutStore::empty(12);
        let engine = QueryEngine::new(&td, &store);
        let (c, p) = engine
            .path(&mut CostScratch::default(), 5, 5, 10.0)
            .unwrap();
        assert_eq!(c, 0.0);
        assert_eq!(p.vertices, vec![5]);
    }
}
