//! TFP tree decomposition (Algo. 2): the tree skeleton and its label store.
//!
//! A [`TreeNode`] is the skeleton only — the bag and the tree links. The
//! `Ws`/`Wd` labels of every node live once, in the decomposition's
//! [`Labels`]: one slot per bag member, in bag order, one arena per
//! direction.

use crate::elimination::{EliminationGraph, ReductionStats, SupportMap};
use crate::labels::Labels;
use crate::lca::LcaIndex;
use td_graph::{min_degree_order, TdGraph, VertexId};
use td_plf::Plf;

/// One tree node `X(v)` of the decomposition.
///
/// `bag` is `X(v)\{v}` sorted by elimination order (ascending), so `bag\[0\]`
/// is the parent vertex (Algo. 2 line 12) and, by Property 2, every bag
/// member is an ancestor of `X(v)`. The labels `X(v).Ws` / `X(v).Wd` of
/// `bag[i]` are slot `labels().range(v).start + i` of the label store.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// The vertex this node corresponds to.
    pub vertex: VertexId,
    /// `X(v)\{v}` sorted by elimination order (parent first).
    pub bag: Vec<VertexId>,
    /// Parent tree node's vertex (`None` for the root).
    pub parent: Option<VertexId>,
    /// Children tree nodes' vertices.
    pub children: Vec<VertexId>,
    /// Depth from the root (root = 0); the paper's `height(X(v))` = depth+1.
    pub depth: u32,
    /// Vertices in the subtree rooted here (including this node).
    pub subtree_size: u32,
}

/// Summary statistics of a decomposition (Table 2's `h(T_G)`, `w(T_G)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStats {
    /// Treewidth `w(T_G)` = max |X(v)| − 1.
    pub width: usize,
    /// Treeheight `h(T_G)` = max height (depth+1).
    pub height: usize,
    /// Mean depth over all nodes.
    pub avg_depth: f64,
    /// Total interpolation points stored in all `Ws`/`Wd` lists.
    pub stored_points: usize,
    /// Heap bytes of the label store: the bag slots with their depths and
    /// ids, and both label arenas (each point counted once).
    pub bytes: usize,
    /// Elimination counters.
    pub reduction: ReductionStats,
}

/// A travel-function-preserved tree decomposition `T_G` (Algo. 2).
#[derive(Clone)]
pub struct TreeDecomposition {
    /// Tree nodes indexed by vertex id (one-to-one correspondence, §3.1).
    pub nodes: Vec<TreeNode>,
    /// Elimination order `π`: `order[v]` = step at which `v` was eliminated.
    pub order: Vec<u32>,
    /// The root node's vertex (eliminated last).
    pub root: VertexId,
    /// Optional support lists for incremental updates.
    pub supports: Option<SupportMap>,
    labels: Labels,
    lca: LcaIndex,
    reduction: ReductionStats,
}

impl TreeDecomposition {
    /// Runs Algo. 2 on `g`: the reduction operator applied in the
    /// topology-only [`min_degree_order`] (the order TD-A\*-CH's hierarchy
    /// takes too), then assembles the tree. `g` should be connected (isolated
    /// components are attached below the root so LCA stays total; queries
    /// across components correctly return "unreachable").
    pub fn build(g: &TdGraph) -> TreeDecomposition {
        Self::build_opts(g, false)
    }

    /// [`TreeDecomposition::build`] with optional support tracking for
    /// incremental updates (`td-core::update`).
    pub fn build_opts(g: &TdGraph, track_supports: bool) -> TreeDecomposition {
        let n = g.num_vertices();
        assert!(n > 0, "cannot decompose an empty graph");
        let order = min_degree_order(n, |v| g.undirected_neighbors_iter(v));
        let mut by_step = vec![0 as VertexId; n];
        for (v, &step) in order.iter().enumerate() {
            by_step[step as usize] = v as VertexId;
        }
        let mut eg = EliminationGraph::with_supports(g, track_supports);
        // Per vertex, its bag members with their `Ws`/`Wd` labels.
        let mut slots: Vec<Vec<(VertexId, [Option<Plf>; 2])>> = vec![Vec::new(); n];
        for v in by_step {
            let (bag, ws, wd) = eg.eliminate(v);
            slots[v as usize] = (bag.into_iter().zip(ws.into_iter().zip(wd)))
                .map(|(u, (s, d))| (u, [s, d]))
                .collect();
        }
        let reduction = eg.stats;

        // Sort each bag by elimination order, its labels moving with their
        // member; bag[0] becomes the parent (Algo. 2 lines 10-13).
        for bag in &mut slots {
            bag.sort_by_key(|&(u, _)| order[u as usize]);
        }
        let bags = (slots.iter())
            .map(|bag| bag.iter().map(|&(u, _)| u).collect())
            .collect();
        let (nodes, root) = skeleton(&order, bags);
        let supports = eg.supports.take();
        let depth: Vec<u32> = nodes.iter().map(|nd| nd.depth).collect();
        let labels = Labels::freeze(slots, &depth);
        Self::from_parts(nodes, order, root, supports, labels, reduction)
    }

    /// Reassembles a decomposition from its parts, building the LCA index
    /// (deterministic from the tree skeleton). The persistence module
    /// validates the order, the bags and the label store's shape before
    /// deriving the skeleton with [`skeleton`].
    pub(crate) fn from_parts(
        nodes: Vec<TreeNode>,
        order: Vec<u32>,
        root: VertexId,
        supports: Option<SupportMap>,
        labels: Labels,
        reduction: ReductionStats,
    ) -> TreeDecomposition {
        let lca = LcaIndex::build(&nodes, root);
        TreeDecomposition {
            nodes,
            order,
            root,
            supports,
            labels,
            lca,
            reduction,
        }
    }

    /// The `Ws`/`Wd` label store.
    #[inline]
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The label store, for an incremental update to patch
    /// ([`Labels::replace`], then one [`Labels::compact`]).
    pub fn labels_mut(&mut self) -> &mut Labels {
        &mut self.labels
    }

    /// The elimination counters recorded during construction.
    pub(crate) fn reduction_stats(&self) -> ReductionStats {
        self.reduction
    }

    /// The label-store slot of `u` inside `X(v)`'s bag, if present.
    pub fn slot(&self, v: VertexId, u: VertexId) -> Option<usize> {
        let i = self.nodes[v as usize].bag.iter().position(|&x| x == u)?;
        Some(self.labels.range(v).start + i)
    }

    /// Number of tree nodes (= vertices).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the decomposition is empty (never: `build` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node `X(v)`.
    #[inline]
    pub fn node(&self, v: VertexId) -> &TreeNode {
        &self.nodes[v as usize]
    }

    /// Lowest common ancestor of `X(u)` and `X(v)` (Property 1: its bag ∪
    /// vertex is a vertex cut separating `u` and `v`).
    #[inline]
    pub fn lca(&self, u: VertexId, v: VertexId) -> VertexId {
        self.lca.query(u, v)
    }

    /// The vertex cut separating `s` and `d` (Property 1): the LCA node's
    /// `{vertex} ∪ bag`.
    pub fn vertex_cut(&self, s: VertexId, d: VertexId) -> Vec<VertexId> {
        let mut cut = Vec::new();
        self.vertex_cut_into(s, d, &mut cut);
        cut
    }

    /// Allocation-free [`TreeDecomposition::vertex_cut`]: fills `out` (after
    /// clearing it) and returns the LCA vertex.
    pub fn vertex_cut_into(&self, s: VertexId, d: VertexId, out: &mut Vec<VertexId>) -> VertexId {
        let x = self.lca(s, d);
        let node = self.node(x);
        out.clear();
        out.reserve(node.bag.len() + 1);
        out.push(x);
        out.extend_from_slice(&node.bag);
        x
    }

    /// Ancestor vertices of `X(v)` from the root down to the parent
    /// (Def. 6's list sorted by increasing height).
    pub fn ancestors_root_first(&self, v: VertexId) -> Vec<VertexId> {
        let mut anc = Vec::with_capacity(self.nodes[v as usize].depth as usize);
        self.ancestors_root_first_into(v, &mut anc);
        anc
    }

    /// Allocation-free [`TreeDecomposition::ancestors_root_first`]: fills
    /// `out` (after clearing it).
    pub fn ancestors_root_first_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let mut cur = self.nodes[v as usize].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p as usize].parent;
        }
        out.reverse();
    }

    /// Iterator over `v`'s ancestors walking *up* (parent first).
    pub fn walk_up(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        std::iter::successors(self.nodes[v as usize].parent, move |&p| {
            self.nodes[p as usize].parent
        })
    }

    /// True iff `a` is an ancestor of `v` (or equal).
    pub fn is_ancestor_of(&self, a: VertexId, v: VertexId) -> bool {
        self.lca(a, v) == a
    }

    /// Decomposition statistics (Def. 4).
    pub fn stats(&self) -> TreeStats {
        let width = self.nodes.iter().map(|n| n.bag.len()).max().unwrap_or(0);
        let height = self.nodes.iter().map(|n| n.depth + 1).max().unwrap_or(0) as usize;
        let avg_depth =
            self.nodes.iter().map(|n| n.depth as f64).sum::<f64>() / self.nodes.len() as f64;
        TreeStats {
            width,
            height,
            avg_depth,
            stored_points: self.labels.total_points(),
            bytes: self.labels.heap_bytes(),
            reduction: self.reduction,
        }
    }
}

/// The tree Algo. 2's elimination defines, from the order and each
/// vertex's bag sorted by it: `X(v)`'s parent is `bag[0]` (a bagless node —
/// a disconnected component's local root — hangs under the root with no
/// weight entries), children come in ascending vertex order, and the root
/// is the vertex eliminated last. Every parent is eliminated after its
/// child, so one pass in descending order sets each depth from its
/// parent's and one in ascending order sums the subtree sizes. Build and
/// load both assemble the skeleton here; a load checks that the bags are
/// sorted and every `bag[0]` is eliminated after its node first.
pub(crate) fn skeleton(order: &[u32], bags: Vec<Vec<VertexId>>) -> (Vec<TreeNode>, VertexId) {
    let mut by_order = vec![0 as VertexId; order.len()];
    for (v, &o) in order.iter().enumerate() {
        by_order[o as usize] = v as VertexId;
    }
    let root = *by_order.last().expect("non-empty");
    let mut nodes: Vec<TreeNode> = (bags.into_iter().enumerate())
        .map(|(v, bag)| TreeNode {
            vertex: v as VertexId,
            parent: (v as VertexId != root).then(|| bag.first().copied().unwrap_or(root)),
            bag,
            children: Vec::new(),
            depth: 0,
            subtree_size: 1,
        })
        .collect();
    for v in 0..nodes.len() {
        if let Some(p) = nodes[v].parent {
            nodes[p as usize].children.push(v as VertexId);
        }
    }
    for &v in by_order.iter().rev() {
        if let Some(p) = nodes[v as usize].parent {
            nodes[v as usize].depth = nodes[p as usize].depth + 1;
        }
    }
    for &v in &by_order {
        if let Some(p) = nodes[v as usize].parent {
            nodes[p as usize].subtree_size += nodes[v as usize].subtree_size;
        }
    }
    (nodes, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_gen::random_graph::seeded_graph;
    use td_graph::GraphBuilder;

    fn small_road() -> TdGraph {
        // A 3x3 grid, symmetric constant weights.
        let mut b = GraphBuilder::new(9);
        let at = |r: u32, c: u32| r * 3 + c;
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    b.bidirectional(at(r, c), at(r, c + 1), Plf::constant(1.0))
                        .unwrap();
                }
                if r + 1 < 3 {
                    b.bidirectional(at(r, c), at(r + 1, c), Plf::constant(1.0))
                        .unwrap();
                }
            }
        }
        b.build()
    }

    /// Def. 3 property (1): bags cover all vertices. Trivial here since
    /// `v ∈ X(v)`, but we check the bag structure is well formed.
    #[test]
    fn def3_bags_are_well_formed() {
        let g = small_road();
        let td = TreeDecomposition::build(&g);
        assert_eq!(td.len(), 9);
        for v in 0..9u32 {
            let node = td.node(v);
            assert_eq!(node.vertex, v);
            assert!(!node.bag.contains(&v), "bag must exclude its own vertex");
            let slots = td.labels().range(v);
            assert_eq!(node.bag.len(), slots.len());
            for (&u, idx) in node.bag.iter().zip(slots) {
                assert_eq!(td.labels().bag_depth(idx), td.node(u).depth as usize);
            }
        }
    }

    /// Def. 3 property (2): every original edge appears inside some bag.
    #[test]
    fn def3_every_edge_is_covered_by_a_bag() {
        let g = small_road();
        let td = TreeDecomposition::build(&g);
        for e in g.edges() {
            let (u, v) = (e.from, e.to);
            // The earlier-eliminated endpoint's node contains the other.
            let first = if td.order[u as usize] < td.order[v as usize] {
                u
            } else {
                v
            };
            let other = if first == u { v } else { u };
            assert!(
                td.node(first).bag.contains(&other),
                "edge ({u},{v}) not covered by X({first})"
            );
        }
    }

    /// Def. 3 property (3): nodes containing a vertex form a connected
    /// subtree. For elimination-based decompositions this is equivalent to:
    /// every bag member of X(v) is an ancestor of X(v) (Property 2), which we
    /// check directly.
    #[test]
    fn property2_bag_members_are_ancestors() {
        for seed in 0..4u64 {
            let g = seeded_graph(seed, 40, 25, 3);
            let td = TreeDecomposition::build(&g);
            for v in 0..40u32 {
                for &u in &td.node(v).bag {
                    assert!(
                        td.is_ancestor_of(u, v),
                        "seed={seed}: bag member {u} is not an ancestor of {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn parent_is_lowest_order_bag_member() {
        let g = small_road();
        let td = TreeDecomposition::build(&g);
        for v in 0..9u32 {
            if v == td.root {
                assert!(td.node(v).parent.is_none());
            } else {
                let node = td.node(v);
                let min_order_member = *node
                    .bag
                    .iter()
                    .min_by_key(|&&u| td.order[u as usize])
                    .unwrap();
                assert_eq!(node.parent, Some(min_order_member));
                // Parent was eliminated after v.
                assert!(td.order[min_order_member as usize] > td.order[v as usize]);
            }
        }
    }

    #[test]
    fn depths_and_subtree_sizes_are_consistent() {
        let g = seeded_graph(9, 60, 40, 3);
        let td = TreeDecomposition::build(&g);
        let root = td.root;
        assert_eq!(td.node(root).depth, 0);
        assert_eq!(td.node(root).subtree_size as usize, td.len());
        let mut child_sum = vec![0u32; td.len()];
        for v in 0..td.len() as u32 {
            if let Some(p) = td.node(v).parent {
                assert_eq!(td.node(v).depth, td.node(p).depth + 1);
                child_sum[p as usize] += td.node(v).subtree_size;
            }
        }
        for v in 0..td.len() as u32 {
            assert_eq!(td.node(v).subtree_size, child_sum[v as usize] + 1);
        }
    }

    #[test]
    fn vertex_cut_separates_in_the_original_graph() {
        // Property 1: removing the LCA cut disconnects s from d.
        let g = small_road();
        let td = TreeDecomposition::build(&g);
        for s in 0..9u32 {
            for d in 0..9u32 {
                if s == d || td.is_ancestor_of(s, d) || td.is_ancestor_of(d, s) {
                    continue;
                }
                let cut = td.vertex_cut(s, d);
                if cut.contains(&s) || cut.contains(&d) {
                    continue;
                }
                // BFS in g avoiding the cut.
                let mut seen = [false; 9];
                for &c in &cut {
                    seen[c as usize] = true;
                }
                let mut stack = vec![s];
                seen[s as usize] = true;
                let mut reached = false;
                while let Some(x) = stack.pop() {
                    if x == d {
                        reached = true;
                        break;
                    }
                    for &(y, _) in g.out_edges(x) {
                        if !seen[y as usize] {
                            seen[y as usize] = true;
                            stack.push(y);
                        }
                    }
                }
                assert!(!reached, "cut {cut:?} fails to separate {s} and {d}");
            }
        }
    }

    #[test]
    fn stats_report_plausible_width_and_height() {
        let g = small_road();
        let td = TreeDecomposition::build(&g);
        let st = td.stats();
        // A 3x3 grid has treewidth 3.
        assert!(st.width >= 2 && st.width <= 4, "width={}", st.width);
        assert!(
            st.height >= st.width,
            "height={} width={}",
            st.height,
            st.width
        );
        assert!(st.stored_points > 0);
        assert_eq!(st.reduction.max_bag, st.width + 1);
    }

    #[test]
    fn ancestors_root_first_matches_walk_up() {
        let g = seeded_graph(5, 30, 20, 3);
        let td = TreeDecomposition::build(&g);
        for v in 0..30u32 {
            let mut up: Vec<VertexId> = td.walk_up(v).collect();
            up.reverse();
            assert_eq!(td.ancestors_root_first(v), up);
        }
    }

    #[test]
    fn disconnected_graph_attaches_component_roots() {
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        g.add_edge(1, 0, Plf::constant(1.0)).unwrap();
        g.add_edge(2, 3, Plf::constant(1.0)).unwrap();
        g.add_edge(3, 2, Plf::constant(1.0)).unwrap();
        let td = TreeDecomposition::build(&g);
        // Every node reaches the root by parent links.
        for v in 0..4u32 {
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = td.node(cur).parent {
                cur = p;
                steps += 1;
                assert!(steps <= 4);
            }
            assert_eq!(cur, td.root);
        }
    }
}
