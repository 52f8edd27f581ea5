//! Snapshot persistence ([`td_store::Persist`]) for [`TreeDecomposition`].
//!
//! The decomposition is the expensive build product of Algo. 2 — loading it
//! must not re-run elimination. Persisted verbatim: the elimination order,
//! the bags (CSR-flattened, each sorted by elimination order), the `Ws` and
//! `Wd` label lists in slot order, the optional support lists (sorted by
//! key for deterministic bytes), and the reduction counters. The label
//! lists are the label store's arenas: a save writes them slot by slot,
//! and a load reads each straight into an arena and adopts it, with the bag
//! offsets as the slot offsets, so no label is decoded into an owned
//! function on the way.
//!
//! The tree itself is derived data and is not stored: a load assembles the
//! root, parents, children, depths and subtree sizes from the order and the
//! bags through the build's own `tree::skeleton`, then each slot's member
//! depth and the Euler-tour LCA index. Before deriving anything it checks
//! that the order is a permutation, that every bag member is in range, that
//! each bag is sorted by elimination order and that its first member — the
//! parent — is eliminated after its node. Every parent link then leads to a
//! later-eliminated vertex, so the links form one tree rooted at the vertex
//! eliminated last. After assembly every bag member must be a proper
//! ancestor of its node (Property 2; the sweeps index the root path by a
//! member's depth), so a corrupt file cannot smuggle in a malformed tree
//! that would panic later inside a query or an update.

use crate::elimination::{ReductionStats, SupportMap};
use crate::labels::{Labels, WD, WS};
use crate::tree::{skeleton, TreeDecomposition};
use std::io::{Read, Write};
use td_graph::VertexId;
use td_plf::persist::{read_plf_arena, write_plf_list};
use td_store::section::{
    check_offsets, read_u32s, read_u64, read_u64s, tag4, write_u32s, write_u64, write_u64s,
};
use td_store::{Persist, StoreError};

const TAG_ORDER: u32 = tag4(*b"Tord");
const TAG_BAG_FIRST: u32 = tag4(*b"Tbf ");
const TAG_BAG: u32 = tag4(*b"Tbag");
const TAG_SUP_FLAG: u32 = tag4(*b"Tsup");
const TAG_SUP_A: u32 = tag4(*b"Tska");
const TAG_SUP_B: u32 = tag4(*b"Tskb");
const TAG_SUP_FIRST: u32 = tag4(*b"Tsvf");
const TAG_SUP_VALS: u32 = tag4(*b"Tsvv");
const TAG_REDUCTION: u32 = tag4(*b"Trds");

impl Persist for TreeDecomposition {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        let n = self.len();
        write_u32s(w, TAG_ORDER, &self.order)?;
        let mut bag_first = Vec::with_capacity(n + 1);
        let mut bag = Vec::new();
        bag_first.push(0u32);
        for nd in &self.nodes {
            bag.extend_from_slice(&nd.bag);
            bag_first.push(bag.len() as u32);
        }
        write_u32s(w, TAG_BAG_FIRST, &bag_first)?;
        write_u32s(w, TAG_BAG, &bag)?;

        for dir in [WS, WD] {
            write_plf_list(w, self.labels().list(dir))?;
        }

        match &self.supports {
            None => write_u64(w, TAG_SUP_FLAG, 0)?,
            Some(map) => {
                write_u64(w, TAG_SUP_FLAG, 1)?;
                // Sorted by key for deterministic bytes (hash maps iterate
                // in arbitrary order).
                let mut keys: Vec<(VertexId, VertexId)> = map.keys().copied().collect();
                keys.sort_unstable();
                let a: Vec<u32> = keys.iter().map(|k| k.0).collect();
                let b: Vec<u32> = keys.iter().map(|k| k.1).collect();
                let mut first = Vec::with_capacity(keys.len() + 1);
                let mut vals = Vec::new();
                first.push(0u32);
                for k in &keys {
                    vals.extend_from_slice(&map[k]);
                    first.push(vals.len() as u32);
                }
                write_u32s(w, TAG_SUP_A, &a)?;
                write_u32s(w, TAG_SUP_B, &b)?;
                write_u32s(w, TAG_SUP_FIRST, &first)?;
                write_u32s(w, TAG_SUP_VALS, &vals)?;
            }
        }

        let rs = self.reduction_stats();
        write_u64s(
            w,
            TAG_REDUCTION,
            &[rs.fill_edges as u64, rs.compounds as u64, rs.max_bag as u64],
        )
    }

    fn read_from<R: Read>(r: &mut R) -> Result<TreeDecomposition, StoreError> {
        let order = read_u32s(r, TAG_ORDER)?;
        let bag_first = read_u32s(r, TAG_BAG_FIRST)?;
        let bag = read_u32s(r, TAG_BAG)?;
        let ws = read_plf_arena(r)?;
        let wd = read_plf_arena(r)?;

        let n = order.len();
        if n == 0 {
            return Err(StoreError::invalid("empty tree decomposition"));
        }
        // Elimination order must be a permutation of 0..n.
        let mut seen = vec![false; n];
        for &o in &order {
            if o as usize >= n || std::mem::replace(&mut seen[o as usize], true) {
                return Err(StoreError::invalid(
                    "elimination order is not a permutation",
                ));
            }
        }
        // Bags: CSR offsets + members in range.
        if bag_first.len() != n + 1 {
            return Err(StoreError::invalid("bag offsets are inconsistent"));
        }
        check_offsets(&bag_first, bag.len(), "bags")?;
        if bag.iter().any(|&u| u as usize >= n) {
            return Err(StoreError::invalid("bag member out of range"));
        }
        if ws.1.len() != bag.len() || wd.1.len() != bag.len() {
            return Err(StoreError::invalid(
                "weight lists disagree with bag slot count",
            ));
        }
        // A node and its bag, in that order, are eliminated in ascending
        // order: every parent (`bag[0]`) is eliminated after its child, so
        // `skeleton` builds one tree rooted at the vertex eliminated last.
        let bags: Vec<Vec<VertexId>> = (bag_first.windows(2))
            .map(|w| bag[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        for (v, b) in bags.iter().enumerate() {
            let ascending = b.iter().try_fold(order[v], |prev, &u| {
                let o = order[u as usize];
                (o > prev).then_some(o)
            });
            if ascending.is_none() {
                return Err(StoreError::invalid(
                    "bag not sorted by elimination order after its node",
                ));
            }
        }
        let (nodes, root) = skeleton(&order, bags);

        let supports = match read_u64(r, TAG_SUP_FLAG)? {
            0 => None,
            1 => {
                let a = read_u32s(r, TAG_SUP_A)?;
                let b = read_u32s(r, TAG_SUP_B)?;
                let first = read_u32s(r, TAG_SUP_FIRST)?;
                let vals = read_u32s(r, TAG_SUP_VALS)?;
                if a.len() != b.len() || first.len() != a.len() + 1 {
                    return Err(StoreError::invalid("support arrays are inconsistent"));
                }
                check_offsets(&first, vals.len(), "supports")?;
                if a.iter().zip(&b).any(|(&x, &y)| x >= y || y as usize >= n)
                    || vals.iter().any(|&m| m as usize >= n)
                {
                    return Err(StoreError::invalid("support entry out of range"));
                }
                let mut map = SupportMap::default();
                for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                    let lo = first[i] as usize;
                    let hi = first[i + 1] as usize;
                    map.insert((x, y), vals[lo..hi].to_vec());
                }
                Some(map)
            }
            other => {
                return Err(StoreError::invalid(format!(
                    "support flag must be 0 or 1, got {other}"
                )))
            }
        };

        let rs = read_u64s(r, TAG_REDUCTION)?;
        if rs.len() != 3 {
            return Err(StoreError::invalid("reduction stats must hold 3 counters"));
        }
        let reduction = ReductionStats {
            fill_edges: rs[0] as usize,
            compounds: rs[1] as usize,
            max_bag: rs[2] as usize,
        };

        let bag_depth = bag.iter().map(|&u| nodes[u as usize].depth).collect();
        let labels = Labels::adopt(bag_first, bag_depth, [ws, wd]);
        let td = TreeDecomposition::from_parts(nodes, order, root, supports, labels, reduction);
        // Property 2: every bag member is a proper ancestor of its node.
        if (0..n as VertexId)
            .any(|v| (td.node(v).bag.iter()).any(|&u| u == v || !td.is_ancestor_of(u, v)))
        {
            return Err(StoreError::invalid("bag member is not an ancestor"));
        }
        Ok(td)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_gen::random_graph::seeded_graph;
    use td_graph::TdGraph;
    use td_plf::Plf;

    fn roundtrip(td: &TreeDecomposition) -> TreeDecomposition {
        let mut buf = Vec::new();
        td.write_into(&mut buf).unwrap();
        let mut r = buf.as_slice();
        let back = TreeDecomposition::read_from(&mut r).unwrap();
        assert!(r.is_empty());
        back
    }

    /// Two components: 2 and 3 eliminate into a bagless local root that
    /// hangs under the global root.
    fn two_components() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            g.add_edge(u, v, Plf::constant(1.0)).unwrap();
        }
        g
    }

    #[test]
    fn decomposition_round_trips_exactly() {
        for g in [seeded_graph(7, 40, 25, 3), two_components()] {
            for supports in [false, true] {
                let td = TreeDecomposition::build_opts(&g, supports);
                let back = roundtrip(&td);
                assert_eq!(back.root, td.root);
                assert_eq!(back.order, td.order);
                assert_eq!(back.len(), td.len());
                for v in 0..td.len() as u32 {
                    let (a, b) = (back.node(v), td.node(v));
                    assert_eq!(a.bag, b.bag);
                    assert_eq!(a.parent, b.parent);
                    assert_eq!(a.children, b.children);
                    assert_eq!(a.depth, b.depth);
                    assert_eq!(a.subtree_size, b.subtree_size);
                }
                let (a, b) = (back.labels(), td.labels());
                for dir in [WS, WD] {
                    let owned = |l: &Labels| {
                        l.list(dir)
                            .map(|f| f.map(|f| f.to_plf()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(owned(a), owned(b));
                }
                assert_eq!(back.supports, td.supports);
                assert_eq!(back.stats(), td.stats());
                // The rebuilt LCA answers identically.
                for u in 0..td.len() as u32 {
                    for v in 0..td.len() as u32 {
                        assert_eq!(back.lca(u, v), td.lca(u, v));
                    }
                }
            }
        }
        // The bagless local root really is there.
        let td = TreeDecomposition::build(&two_components());
        assert!((0..4).any(|v| v != td.root && td.node(v).bag.is_empty()));
    }

    #[test]
    fn corrupt_skeleton_is_rejected() {
        let g = seeded_graph(3, 20, 12, 3);
        let td = TreeDecomposition::build(&g);
        let mut buf = Vec::new();
        td.write_into(&mut buf).unwrap();
        // Truncations at every section boundary-ish prefix must error, not
        // panic.
        for cut in (0..buf.len()).step_by(97) {
            assert!(TreeDecomposition::read_from(&mut &buf[..cut]).is_err());
        }
    }

    /// A bag member that is in range and keeps its bag sorted by elimination
    /// order, but is not an ancestor of its node, is rejected by the load —
    /// written through the crate's own writer, so every checksum is valid.
    /// Loaded, it would send the sweeps past the end of a root path.
    #[test]
    fn non_ancestor_bag_member_is_rejected() {
        let g = seeded_graph(7, 40, 25, 3);
        let td = TreeDecomposition::build(&g);
        let n = td.len() as VertexId;
        let mut tried = 0;
        for v in 0..n {
            let bag = &td.node(v).bag;
            for i in 1..bag.len() {
                let fits = |x: VertexId| {
                    td.order[x as usize] > td.order[bag[i - 1] as usize]
                        && bag
                            .get(i + 1)
                            .is_none_or(|&y| td.order[x as usize] < td.order[y as usize])
                };
                let Some(x) = (0..n).find(|&x| x != v && fits(x) && !td.is_ancestor_of(x, v))
                else {
                    continue;
                };
                let mut bad = td.clone();
                bad.nodes[v as usize].bag[i] = x;
                let mut buf = Vec::new();
                bad.write_into(&mut buf).unwrap();
                let err = TreeDecomposition::read_from(&mut buf.as_slice()).err();
                assert!(
                    matches!(&err, Some(StoreError::Invalid(m)) if m.contains("not an ancestor")),
                    "v={v} bag[{i}] = {x}: {err:?}"
                );
                tried += 1;
            }
        }
        assert!(tried > 10, "only {tried} corruptions found");
    }

    /// An elimination order that swaps a leaf with its parent, eliminated
    /// right after it, keeps every bag sorted — only the leaf's parent now
    /// comes before it. Written through the crate's own writer (every
    /// checksum valid), it is rejected: loaded, the first update touching
    /// the pair would find it recorded at the wrong endpoint's node.
    #[test]
    fn leaf_parent_order_swap_is_rejected() {
        let g = seeded_graph(7, 40, 25, 3);
        let td = TreeDecomposition::build_opts(&g, true);
        let mut tried = 0;
        for v in 0..td.len() {
            // A leaf whose parent, `bag[0]`, is eliminated right after it.
            let node = &td.nodes[v];
            let Some(&p) = node.bag.first() else {
                continue;
            };
            if !node.children.is_empty() || td.order[p as usize] != td.order[v] + 1 {
                continue;
            }
            let mut bad = td.clone();
            bad.order.swap(v, p as usize);
            let mut buf = Vec::new();
            bad.write_into(&mut buf).unwrap();
            let err = TreeDecomposition::read_from(&mut buf.as_slice()).err();
            assert!(
                matches!(&err, Some(StoreError::Invalid(m)) if m.contains("after its node")),
                "leaf {v} swapped with parent {p}: {err:?}"
            );
            tried += 1;
        }
        assert!(tried > 0, "no leaf is eliminated right before its parent");
    }

    /// The skeleton is not stored: a subtree size tampered with in memory
    /// saves and loads back as the build's value.
    #[test]
    fn tampered_subtree_size_loads_as_built() {
        let g = seeded_graph(7, 40, 25, 3);
        let td = TreeDecomposition::build(&g);
        let v = (0..td.len())
            .find(|&v| td.nodes[v].subtree_size > 1)
            .unwrap();
        let mut bad = td.clone();
        bad.nodes[v].subtree_size -= 1;
        let back = roundtrip(&bad);
        assert_eq!(back.nodes[v].subtree_size, td.nodes[v].subtree_size);
    }
}
