//! The dynamic reduced graph and the reduction operator `G ⊖ v` (Algo. 1).
//!
//! [`EliminationGraph`] holds the evolving TFP-graph `G'` during Algo. 2:
//! undirected adjacency sets (each eliminated vertex's bag and fill-in) plus
//! directed weight functions. It does not choose the order: the caller
//! eliminates in [`td_graph::min_degree_order`], the topology-only order
//! TD-A\*-CH ranks its hierarchy by too. Eliminating `v` folds the compound
//! weight through `v` into every ordered pair of its neighbours,
//! `w'_{i,j} = min{w'_{i,j}, Compound(w'_{i,v}, w'_{v,j})}` (Algo. 1 lines
//! 2-8), stamping `v` as the witness. The fold is [`min_compound_into`], the
//! kernel under every other `min{acc, Compound(…)}` in the workspace: it
//! builds the compound only when the existing edge does not already lie at
//! or below it, and keeps whichever input wins everywhere as it stands.
//! `td-core`'s update replay folds the same supports through the same call,
//! so it reproduces these bits exactly.

use crate::fxhash::{FxHashMap, FxHashSet};
use td_graph::{TdGraph, VertexId};
use td_plf::ops::min_compound_into;
use td_plf::Plf;

/// Counters describing one full elimination run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Fill-in edges inserted (new neighbour pairs).
    pub fill_edges: usize,
    /// `Compound` candidates folded into `G'` (built or decided unbuilt).
    pub compounds: usize,
    /// Maximum bag size observed (= treewidth + 1 once finished).
    pub max_bag: usize,
}

/// Support lists: for each unordered vertex pair `(a, b)` (with `a < b`),
/// the eliminated vertices `m` whose reduction contributed a compound edge
/// between `a` and `b`. Enables exact incremental updates (`td-core::update`):
/// the recorded value of a pair is `min(base edge, contributions through all
/// supports)`, so a changed contribution can be replayed without a rebuild.
pub type SupportMap = FxHashMap<(VertexId, VertexId), Vec<VertexId>>;

/// The dynamic reduced graph `G'`.
pub struct EliminationGraph {
    /// Undirected adjacency among *alive* vertices.
    nbrs: Vec<FxHashSet<VertexId>>,
    /// Directed weights of the reduced graph: `out[u][v] = w'_{u,v}(t)`.
    out: Vec<FxHashMap<VertexId, Plf>>,
    /// Whether each vertex is still alive.
    alive: Vec<bool>,
    /// Elimination statistics.
    pub stats: ReductionStats,
    /// Optional support tracking (see [`SupportMap`]).
    pub supports: Option<SupportMap>,
}

impl EliminationGraph {
    /// Initialises the reduced graph from `g`.
    pub fn new(g: &TdGraph) -> Self {
        Self::with_supports(g, false)
    }

    /// Initialises the reduced graph, optionally recording support lists.
    pub fn with_supports(g: &TdGraph, track_supports: bool) -> Self {
        let n = g.num_vertices();
        let mut nbrs: Vec<FxHashSet<VertexId>> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            // The dedup is free here: the iterator yields each undirected
            // neighbour exactly once, so the sets are built without the
            // insert-twice churn of scanning the edge list.
            nbrs.push(g.undirected_neighbors_iter(v).collect());
        }
        let mut out: Vec<FxHashMap<VertexId, Plf>> = vec![FxHashMap::default(); n];
        for e in g.edges() {
            out[e.from as usize].insert(e.to, e.weight.clone());
        }
        EliminationGraph {
            nbrs,
            out,
            alive: vec![true; n],
            stats: ReductionStats::default(),
            supports: track_supports.then(FxHashMap::default),
        }
    }

    /// Number of vertices (alive or not).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True when every vertex has been eliminated.
    pub fn is_empty(&self) -> bool {
        self.alive.iter().all(|a| !a)
    }

    /// Current undirected degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.nbrs[v as usize].len()
    }

    /// Directed weight `u → v` in the current reduced graph.
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<&Plf> {
        self.out[u as usize].get(&v)
    }

    /// The reduction operator `G' ⊖ v` (Algo. 1). Returns the bag
    /// `X(v)\{v}` (unsorted) together with the preserved weight lists:
    /// `ws[i]` = `w'_{v, bag[i]}` and `wd[i]` = `w'_{bag[i], v}` (Algo. 2
    /// line 7). `v` must be alive.
    #[allow(clippy::type_complexity)]
    pub fn eliminate(
        &mut self,
        v: VertexId,
    ) -> (Vec<VertexId>, Vec<Option<Plf>>, Vec<Option<Plf>>) {
        debug_assert!(self.alive[v as usize], "vertex {v} already eliminated");
        let bag: Vec<VertexId> = self.nbrs[v as usize].iter().copied().collect();
        self.stats.max_bag = self.stats.max_bag.max(bag.len() + 1);

        // Preserve the weight lists of X(v) before rewiring (Algo. 2 line 7).
        let ws: Vec<Option<Plf>> = bag
            .iter()
            .map(|&u| self.out[v as usize].get(&u).cloned())
            .collect();
        let wd: Vec<Option<Plf>> = bag
            .iter()
            .map(|&u| self.out[u as usize].get(&v).cloned())
            .collect();

        // Algo. 1 lines 2-8: connect every ordered neighbour pair through v.
        // The undirected fill-in adjacency is inserted for *every* pair —
        // even when one direction has no weight in a one-way subnetwork —
        // because the elimination clique is what gives the tree decomposition
        // Properties 1–2; weights stay `None` where no path through v exists.
        for (ii, &i) in bag.iter().enumerate() {
            for (jj, &j) in bag.iter().enumerate() {
                if jj <= ii {
                    continue;
                }
                if self.nbrs[i as usize].insert(j) {
                    self.nbrs[j as usize].insert(i);
                    self.stats.fill_edges += 1;
                }
                if let Some(supports) = &mut self.supports {
                    let key = (i.min(j), i.max(j));
                    supports.entry(key).or_default().push(v);
                }
            }
            let w_iv = wd[ii].clone(); // w'_{i,v}
            for (jj, &j) in bag.iter().enumerate() {
                if ii == jj {
                    continue;
                }
                let Some(w_iv) = w_iv.as_ref() else { continue };
                let Some(w_vj) = ws[jj].as_ref() else {
                    continue;
                };
                // w'_{i,j} = min{w'_{i,j}, Compound(w'_{i,v}, w'_{v,j})},
                // witness v.
                let slot = &mut self.out[i as usize];
                let mut acc = slot.remove(&j);
                min_compound_into(&mut acc, w_iv, w_vj, v);
                self.stats.compounds += 1;
                slot.insert(j, acc.expect("a compound was folded in"));
            }
        }

        // Remove v from the reduced graph.
        self.alive[v as usize] = false;
        for &u in &bag {
            self.nbrs[u as usize].remove(&v);
            self.out[u as usize].remove(&v);
        }
        self.nbrs[v as usize] = FxHashSet::default();
        self.out[v as usize] = FxHashMap::default();

        (bag, ws, wd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_plf::PlfView;
    use td_plf::NO_VIA;

    fn path_graph() -> TdGraph {
        // 0 – 1 – 2 with symmetric constant weights.
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(3.0)).unwrap();
        g.add_edge(1, 0, Plf::constant(3.0)).unwrap();
        g.add_edge(1, 2, Plf::constant(4.0)).unwrap();
        g.add_edge(2, 1, Plf::constant(4.0)).unwrap();
        g
    }

    #[test]
    fn eliminating_a_bridge_vertex_creates_fill_in() {
        let g = path_graph();
        let mut eg = EliminationGraph::new(&g);
        let (bag, ws, wd) = eg.eliminate(1);
        let mut sorted = bag.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2]);
        // Fill-in edge 0 ↔ 2 with compound weight 3 + 4.
        assert_eq!(eg.weight(0, 2).unwrap().eval(0.0), 7.0);
        assert_eq!(eg.weight(2, 0).unwrap().eval(0.0), 7.0);
        assert_eq!(eg.stats.fill_edges, 1);
        // Witness is the eliminated vertex (Algo. 1 stamps the bridge).
        assert_eq!(eg.weight(0, 2).unwrap().eval_with_via(0.0).1, 1);
        // Preserved lists match the original edge weights.
        for (k, &u) in bag.iter().enumerate() {
            let want = if u == 0 { 3.0 } else { 4.0 };
            assert_eq!(ws[k].as_ref().unwrap().eval(0.0), want);
            assert_eq!(wd[k].as_ref().unwrap().eval(0.0), want);
        }
    }

    #[test]
    fn existing_edge_is_min_merged() {
        // Triangle where the direct edge 0→2 (10) loses to the detour via 1 (7).
        let mut g = path_graph();
        g.add_edge(0, 2, Plf::constant(10.0)).unwrap();
        g.add_edge(2, 0, Plf::constant(2.0)).unwrap(); // beats detour
        let mut eg = EliminationGraph::new(&g);
        eg.eliminate(1);
        assert_eq!(eg.weight(0, 2).unwrap().eval(0.0), 7.0);
        // The direction where the direct edge wins keeps it as it stands:
        // the same points, bit for bit, and its NO_VIA witness.
        assert_eq!(eg.weight(2, 0), Some(&Plf::constant(2.0)));
        assert_eq!(eg.weight(2, 0).unwrap().eval_with_via(0.0).1, NO_VIA);
        assert_eq!(eg.weight(0, 2).unwrap().eval_with_via(0.0).1, 1);
        assert_eq!(eg.stats.fill_edges, 0);
    }

    #[test]
    fn degrees_update_after_elimination() {
        let g = path_graph();
        let mut eg = EliminationGraph::new(&g);
        assert_eq!(eg.degree(1), 2);
        eg.eliminate(0);
        assert_eq!(eg.degree(1), 1);
        eg.eliminate(1);
        assert_eq!(eg.degree(2), 0);
        eg.eliminate(2);
        assert!(eg.is_empty());
    }

    #[test]
    fn directed_only_edges_are_respected() {
        // 0→1→2 one-way: eliminating 1 must create only 0→2.
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(3.0)).unwrap();
        g.add_edge(1, 2, Plf::constant(4.0)).unwrap();
        let mut eg = EliminationGraph::new(&g);
        eg.eliminate(1);
        assert!(eg.weight(0, 2).is_some());
        assert!(eg.weight(2, 0).is_none());
    }

    #[test]
    fn time_dependent_fill_in_is_exact() {
        // 0 –w01– 1 –w12– 2; fill-in 0→2 must equal Compound(w01, w12).
        let w01 = Plf::from_pairs(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]).unwrap();
        let w12 = Plf::from_pairs(&[(0.0, 5.0), (30.0, 10.0), (60.0, 15.0)]).unwrap();
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, w01.clone()).unwrap();
        g.add_edge(1, 2, w12.clone()).unwrap();
        let mut eg = EliminationGraph::new(&g);
        eg.eliminate(1);
        let got = eg.weight(0, 2).unwrap();
        let want = w01.compound(&w12, 1);
        assert!(got.approx_eq(&want, 1e-9));
    }
}
