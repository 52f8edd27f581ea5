//! Hierarchical balanced graph partitioning.
//!
//! Recursive bisection: within a partition, run a BFS from an (approximate)
//! peripheral vertex pair and grow two regions breadth-first in alternation
//! until every vertex is assigned. On road-like graphs this yields balanced
//! halves with small cuts — the property TD-G-tree's border matrices depend
//! on.

use td_graph::{TdGraph, VertexId};

/// One node of the partition tree.
#[derive(Clone, Debug)]
pub struct PartitionNode {
    /// Vertices of this partition (only stored for leaves to save memory;
    /// internal nodes derive theirs from children).
    pub vertices: Vec<VertexId>,
    /// Border vertices: members with an edge to a vertex outside the
    /// partition.
    pub borders: Vec<VertexId>,
    /// Child indices (empty for leaves).
    pub children: Vec<usize>,
    /// Parent index (`None` for the root).
    pub parent: Option<usize>,
    /// Depth in the partition tree (root = 0).
    pub depth: u32,
}

/// The partition tree.
#[derive(Clone, Debug)]
pub struct PartitionTree {
    /// Nodes; index 0 is the root.
    pub nodes: Vec<PartitionNode>,
    /// Leaf index of every vertex.
    pub leaf_of: Vec<usize>,
}

/// Splits `vertices` (a connected-ish region of `g`) into two balanced halves
/// by alternating BFS growth from two far-apart seeds. Returns (left, right).
pub fn bisect(g: &TdGraph, vertices: &[VertexId]) -> (Vec<VertexId>, Vec<VertexId>) {
    assert!(vertices.len() >= 2);
    let member: std::collections::HashSet<VertexId> = vertices.iter().copied().collect();
    // Peripheral pair by double BFS (restricted to the region).
    let a = farthest(g, vertices[0], &member).unwrap_or(vertices[0]);
    let b = farthest(g, a, &member).unwrap_or(vertices[vertices.len() - 1]);
    let b = if a == b {
        vertices[vertices.len() - 1]
    } else {
        b
    };

    let mut side: std::collections::HashMap<VertexId, u8> = std::collections::HashMap::new();
    side.insert(a, 0);
    side.insert(b, 1);
    let mut frontiers: [std::collections::VecDeque<VertexId>; 2] =
        [[a].into_iter().collect(), [b].into_iter().collect()];
    let mut counts = [1usize, 1usize];
    let half = vertices.len().div_ceil(2);
    let mut assigned = 2usize;
    while assigned < vertices.len() {
        // Grow the smaller side first for balance.
        let order = if counts[0] <= counts[1] {
            [0usize, 1]
        } else {
            [1, 0]
        };
        let mut progressed = false;
        for &s in &order {
            if counts[s] > half {
                continue;
            }
            while let Some(v) = frontiers[s].pop_front() {
                let mut grew = false;
                for u in g.undirected_neighbors_iter(v) {
                    if member.contains(&u) && !side.contains_key(&u) {
                        side.insert(u, s as u8);
                        counts[s] += 1;
                        assigned += 1;
                        frontiers[s].push_back(u);
                        grew = true;
                        break;
                    }
                }
                if grew {
                    frontiers[s].push_back(v);
                    progressed = true;
                    break;
                }
            }
            if progressed {
                break;
            }
        }
        if !progressed {
            // Disconnected remainder: assign arbitrarily to the smaller side.
            for &v in vertices {
                if let std::collections::hash_map::Entry::Vacant(e) = side.entry(v) {
                    let s = if counts[0] <= counts[1] { 0 } else { 1 };
                    e.insert(s as u8);
                    counts[s] += 1;
                    assigned += 1;
                    frontiers[s].push_back(v);
                    break;
                }
            }
        }
    }
    let mut left = Vec::with_capacity(counts[0]);
    let mut right = Vec::with_capacity(counts[1]);
    for &v in vertices {
        if side[&v] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    // Degenerate guard: never return an empty side (with fewer than two
    // vertices both sides stay as they are).
    if left.is_empty() {
        if let Some(v) = right.pop() {
            left.push(v);
        }
    }
    if right.is_empty() {
        if let Some(v) = left.pop() {
            right.push(v);
        }
    }
    (left, right)
}

fn farthest(
    g: &TdGraph,
    from: VertexId,
    member: &std::collections::HashSet<VertexId>,
) -> Option<VertexId> {
    let mut seen: std::collections::HashSet<VertexId> = [from].into_iter().collect();
    let mut queue: std::collections::VecDeque<VertexId> = [from].into_iter().collect();
    let mut last = None;
    while let Some(v) = queue.pop_front() {
        last = Some(v);
        for u in g.undirected_neighbors_iter(v) {
            if member.contains(&u) && seen.insert(u) {
                queue.push_back(u);
            }
        }
    }
    last
}

impl PartitionTree {
    /// Recursively bisects `g` until every leaf has at most `max_leaf`
    /// vertices, then computes borders.
    pub fn build(g: &TdGraph, max_leaf: usize) -> PartitionTree {
        let n = g.num_vertices();
        assert!(n > 0);
        let all: Vec<VertexId> = (0..n as u32).collect();
        let mut nodes: Vec<PartitionNode> = vec![PartitionNode {
            vertices: all,
            borders: Vec::new(),
            children: Vec::new(),
            parent: None,
            depth: 0,
        }];
        // Recursive splitting (worklist).
        let mut work = vec![0usize];
        while let Some(idx) = work.pop() {
            if nodes[idx].vertices.len() <= max_leaf.max(2) {
                continue;
            }
            let (left, right) = bisect(g, &nodes[idx].vertices);
            let depth = nodes[idx].depth + 1;
            for part in [left, right] {
                let child = nodes.len();
                nodes.push(PartitionNode {
                    vertices: part,
                    borders: Vec::new(),
                    children: Vec::new(),
                    parent: Some(idx),
                    depth,
                });
                nodes[idx].children.push(child);
                work.push(child);
            }
            nodes[idx].vertices = Vec::new(); // internal nodes derive from children
        }

        // Leaf assignment.
        let mut leaf_of = vec![usize::MAX; n];
        for (idx, node) in nodes.iter().enumerate() {
            if node.children.is_empty() {
                for &v in &node.vertices {
                    leaf_of[v as usize] = idx;
                }
            }
        }
        debug_assert!(leaf_of.iter().all(|&l| l != usize::MAX));

        // Partition id of a vertex at a given node: "is v inside node idx"
        // resolved by walking up from its leaf.
        let inside = |v: VertexId, idx: usize, nodes: &[PartitionNode]| -> bool {
            let mut cur = leaf_of[v as usize];
            loop {
                if cur == idx {
                    return true;
                }
                match nodes[cur].parent {
                    Some(p) => cur = p,
                    None => return false,
                }
            }
        };

        // Borders per node: vertices with an edge endpoint outside the node.
        for idx in 0..nodes.len() {
            let members: Vec<VertexId> = collect_vertices(&nodes, idx);
            let mut borders: Vec<VertexId> = members
                .iter()
                .copied()
                .filter(|&v| {
                    g.undirected_neighbors_iter(v)
                        .any(|u| !inside(u, idx, &nodes))
                })
                .collect();
            borders.sort_unstable();
            borders.dedup();
            nodes[idx].borders = borders;
        }

        PartitionTree { nodes, leaf_of }
    }

    /// All vertices of node `idx` (leaves store them; internal nodes gather
    /// from children).
    pub fn vertices_of(&self, idx: usize) -> Vec<VertexId> {
        collect_vertices(&self.nodes, idx)
    }

    /// The partition-tree LCA of two leaves.
    pub fn lca(&self, mut a: usize, mut b: usize) -> usize {
        // The tree is built by `PartitionTree::build`, so every non-root node
        // has a parent and the walks below always meet at the latest at the
        // root; a missing parent can only mean a corrupted tree, where the
        // current node is the most sensible answer left.
        while self.nodes[a].depth > self.nodes[b].depth {
            let Some(p) = self.nodes[a].parent else {
                return a;
            };
            a = p;
        }
        while self.nodes[b].depth > self.nodes[a].depth {
            let Some(p) = self.nodes[b].parent else {
                return b;
            };
            b = p;
        }
        while a != b {
            let (Some(pa), Some(pb)) = (self.nodes[a].parent, self.nodes[b].parent) else {
                debug_assert!(false, "equal-depth nodes must share an ancestor");
                return a;
            };
            a = pa;
            b = pb;
        }
        a
    }

    /// Fills `out` (after clearing it) with the path of node indices from
    /// `from` up to (and including) `to`.
    pub fn path_up_into(&self, from: usize, to: usize, out: &mut Vec<usize>) {
        out.clear();
        out.push(from);
        let mut cur = from;
        while cur != to {
            let Some(p) = self.nodes[cur].parent else {
                debug_assert!(false, "`to` must be an ancestor of `from`");
                break;
            };
            cur = p;
            out.push(cur);
        }
    }
}

fn collect_vertices(nodes: &[PartitionNode], idx: usize) -> Vec<VertexId> {
    if nodes[idx].children.is_empty() {
        return nodes[idx].vertices.clone();
    }
    let mut out = Vec::new();
    let mut stack = vec![idx];
    while let Some(i) = stack.pop() {
        if nodes[i].children.is_empty() {
            out.extend_from_slice(&nodes[i].vertices);
        } else {
            stack.extend_from_slice(&nodes[i].children);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_gen::random_graph::seeded_graph;
    use td_gen::{network::RoadNetwork, RoadNetworkConfig};

    #[test]
    fn bisect_is_balanced() {
        let g = seeded_graph(1, 100, 60, 2);
        let all: Vec<u32> = (0..100).collect();
        let (l, r) = bisect(&g, &all);
        assert_eq!(l.len() + r.len(), 100);
        assert!(l.len() >= 30 && r.len() >= 30, "{} / {}", l.len(), r.len());
    }

    #[test]
    fn partition_tree_covers_all_vertices() {
        let g = seeded_graph(2, 120, 80, 2);
        let pt = PartitionTree::build(&g, 16);
        let mut count = 0;
        for (i, node) in pt.nodes.iter().enumerate() {
            if node.children.is_empty() {
                assert!(node.vertices.len() <= 16);
                assert!(!node.vertices.is_empty());
                count += node.vertices.len();
                for &v in &node.vertices {
                    assert_eq!(pt.leaf_of[v as usize], i);
                }
            } else {
                assert_eq!(node.children.len(), 2);
            }
        }
        assert_eq!(count, 120);
    }

    #[test]
    fn root_has_no_borders() {
        let g = seeded_graph(3, 60, 40, 2);
        let pt = PartitionTree::build(&g, 12);
        assert!(
            pt.nodes[0].borders.is_empty(),
            "nothing is outside the root"
        );
    }

    #[test]
    fn borders_have_crossing_edges() {
        let g = seeded_graph(4, 80, 50, 2);
        let pt = PartitionTree::build(&g, 12);
        for (idx, node) in pt.nodes.iter().enumerate() {
            if idx == 0 {
                continue;
            }
            let members: std::collections::HashSet<u32> = pt.vertices_of(idx).into_iter().collect();
            for &b in &node.borders {
                let crossing = g
                    .out_edges(b)
                    .iter()
                    .chain(g.in_edges(b).iter())
                    .any(|&(u, _)| !members.contains(&u));
                assert!(crossing, "border {b} of node {idx} has no crossing edge");
            }
        }
    }

    #[test]
    fn border_fraction_is_small_on_road_networks() {
        let net = RoadNetwork::generate(&RoadNetworkConfig {
            rows: 24,
            cols: 24,
            extra_edge_fraction: 0.15,
            ..Default::default()
        });
        let pt = PartitionTree::build(&net.graph, 32);
        // First-level split of a 576-vertex road grid: border set should be a
        // small fraction of the graph.
        let b = pt.nodes[pt.nodes[0].children[0]].borders.len();
        assert!(b < 100, "borders = {b}");
    }

    #[test]
    fn lca_and_path_up() {
        let g = seeded_graph(5, 100, 60, 2);
        let pt = PartitionTree::build(&g, 10);
        let leaves: Vec<usize> = (0..pt.nodes.len())
            .filter(|&i| pt.nodes[i].children.is_empty())
            .collect();
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for &a in &leaves {
            for &b in &leaves {
                let l = pt.lca(a, b);
                pt.path_up_into(a, l, &mut pa);
                pt.path_up_into(b, l, &mut pb);
                assert_eq!(*pa.last().unwrap(), l);
                assert_eq!(*pb.last().unwrap(), l);
                if a == b {
                    assert_eq!(l, a);
                }
            }
        }
    }
}
