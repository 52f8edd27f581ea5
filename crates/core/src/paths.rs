//! Shortest-path recovery.
//!
//! Def. 2 requires the intermediate vertex to be recorded in every compound
//! function; this module turns those witnesses back into a full vertex path.
//!
//! Recovery is two-level:
//!
//! 1. the *sweep level*: the scalar sweeps keep only each root-path vertex's
//!    earliest arrival, and the path query re-derives from those arrivals
//!    which (node, bag entry) relaxation achieved each one — the first, in
//!    the sweep's order, whose candidate equals it bit for bit;
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
//! path extraction. They are the sweeps a cost query runs whenever the
//! selected shortcuts do not cover the whole LCA cut, so outside a full
//! cover the path's cost and the cost query's answer agree bit for bit.

use crate::query::{CostScratch, QueryEngine};
use td_graph::{Path, VertexId};
use td_plf::{PlfSlice, PlfView, NO_VIA};
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
    /// Runs the basic scalar sweeps, re-derives each hop from their final
    /// arrivals, then unfolds each hop's stored function through
    /// [`expand_pair`]. The returned [`Path`] is freshly allocated (it is
    /// the result), but `scratch`'s sweep tables are reused across calls.
    ///
    /// A hop is the first relaxation, in the sweep's own order, whose
    /// candidate equals the arrival it leads to: the one the sweep's strict
    /// `<` kept, since the first candidate to reach a slot's final minimum
    /// is never pruned.
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
        let arrival = self.sweeps(scratch, s, d, x, t)?;
        let upto = self.td.node(x).depth as usize;
        let (up, down) = (&scratch.up, &scratch.down);
        let labels = self.td.labels();
        // Slot `idx`'s label in direction `dir`, if departing at `a` it
        // arrives at exactly `at`, the arrival a sweep stored.
        let hop = |dir, idx, a: f64, at: f64| {
            let f = labels.get(dir, idx).filter(|_| a != f64::INFINITY)?;
            (a + f.eval(a) == at).then_some(f)
        };

        // Hops on d's path, walked backwards while a down-relaxation won:
        // the first slot of the level's bag reaching its arrival. The walk
        // ends at the vertex whose seeded up-sweep arrival stood (the join
        // with s's path, always on the common prefix).
        let dd = down.path.len() - 1;
        let seeded = upto.min(dd);
        let mut hops_d = Vec::new(); // (from vertex, to vertex, label)
        let mut k = dd;
        while k > seeded || down.arr[k] != up.arr[k] {
            let (ku, f) = labels.range(down.path[k]).find_map(|idx| {
                let ku = labels.bag_depth(idx);
                Some((ku, hop(WD, idx, down.arr[ku], down.arr[k])?))
            })?;
            hops_d.push((down.path[ku], down.path[k], f));
            k = ku;
        }
        debug_assert!(k <= upto || k == dd && upto >= dd);

        // Hops on s's path from the join vertex back down to s: the deepest
        // level whose slot for the vertex reaches its arrival (a bag holds
        // the vertex in one slot at most).
        let ds = up.path.len() - 1;
        let mut hops_s = Vec::new(); // (from vertex, to vertex, label)
        while k != ds {
            let (kv, f) = (k + 1..=ds).rev().find_map(|kv| {
                let idx = self.td.slot(up.path[kv], up.path[k])?;
                Some((kv, hop(WS, idx, up.arr[kv], up.arr[k])?))
            })?;
            hops_s.push((up.path[kv], up.path[k], f));
            k = kv;
        }

        // Emit: s → … → join → … → d.
        let mut vertices = vec![s];
        let mut now = t;
        for &(from, to, f) in hops_s.iter().rev().chain(hops_d.iter().rev()) {
            now += expand_pair(self.td, from, to, f, now, &mut vertices);
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

    /// A triangle `v0 – v1 – v2`, eliminated in that order, so `v0`'s root
    /// path is `v2 → v1 → v0` and `v0`'s bag slots are `v1` then `v2`. Every
    /// edge costs 1 but `v0 ↔ v2`, which costs 2: each sweep reaches one
    /// slot twice at the same arrival. The up sweep from `v0` reaches `v2`
    /// first straight from `v0` (the deeper level), then through `v1`; the
    /// down sweep to `v0` reaches it first through `v1` (its first bag
    /// slot), then straight from `v2`. Either way the path is the first
    /// relaxation's.
    #[test]
    fn ties_take_the_first_relaxation_in_sweep_order() {
        let mut g = td_graph::TdGraph::with_vertices(3);
        for (u, v, w) in [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)] {
            g.add_edge(u, v, td_plf::Plf::constant(w)).unwrap();
            g.add_edge(v, u, td_plf::Plf::constant(w)).unwrap();
        }
        let td = TreeDecomposition::build(&g);
        let depths: Vec<u32> = (0..3).map(|v| td.node(v).depth).collect();
        assert_eq!(depths, [2, 1, 0], "the triangle eliminates v0, v1, v2");
        assert_eq!(td.node(0).bag, [1, 2], "v0's slots are v1, then v2");
        let store = ShortcutStore::empty(3);
        let engine = QueryEngine::new(&td, &store);
        let mut scratch = CostScratch::default();
        let (cost, up) = engine.path(&mut scratch, 0, 2, 100.0).unwrap();
        assert_eq!((cost, up.vertices), (2.0, vec![0, 2]), "up sweep");
        let (cost, down) = engine.path(&mut scratch, 2, 0, 100.0).unwrap();
        assert_eq!((cost, down.vertices), (2.0, vec![2, 1, 0]), "down sweep");
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
