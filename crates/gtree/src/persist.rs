//! Snapshot persistence ([`td_store::Persist`]) for [`TdGtree`].
//!
//! Persisted verbatim: the input graph, the partition tree (parents and
//! CSR-flattened vertex and border lists) and every node's refined border
//! matrix (anchors + the row-major entries, in the shared PLF-list
//! encoding). Loading **never re-runs partitioning or the all-pairs profile
//! searches** — the expensive part of G-tree construction: each matrix's
//! entry list is read straight into the arena queries read, and only the
//! anchor position maps are reindexed.
//!
//! Derived on load, never stored: each node's depth (from its parent's,
//! parents preceding children) and every vertex's leaf, through the build's
//! own `partition::leaf_assignment`. A load whose leaves' vertex lists do
//! not partition V is rejected.

use crate::index::{NodeMatrix, TdGtree};
use crate::partition::{leaf_assignment, PartitionNode, PartitionTree};
use std::io::{Read, Write};
use td_graph::TdGraph;
use td_plf::persist::{read_plf_arena, write_plf_list};
use td_plf::NO_PLF;
use td_store::section::{
    check_offsets, read_f64s, read_u32s, read_u64, tag4, write_f64s, write_u32s, write_u64,
};
use td_store::{Persist, StoreError};

const TAG_P_COUNT: u32 = tag4(*b"Pnum");
const TAG_P_PARENT: u32 = tag4(*b"Ppar");
const TAG_P_VERT_FIRST: u32 = tag4(*b"Pvf ");
const TAG_P_VERT: u32 = tag4(*b"Pvx ");
const TAG_P_BORD_FIRST: u32 = tag4(*b"Pbf ");
const TAG_P_BORD: u32 = tag4(*b"Pbd ");

const TAG_M_ANCHORS: u32 = tag4(*b"Manc");
const TAG_G_SECS: u32 = tag4(*b"Gsec");

/// Sentinel for "no parent" in the persisted parent array.
const NO_PARENT: u32 = u32::MAX;

fn write_partition_tree<W: Write>(w: &mut W, pt: &PartitionTree) -> Result<(), StoreError> {
    let nn = pt.nodes.len();
    write_u64(w, TAG_P_COUNT, nn as u64)?;
    let parent: Vec<u32> = pt
        .nodes
        .iter()
        .map(|nd| nd.parent.map_or(NO_PARENT, |p| p as u32))
        .collect();
    write_u32s(w, TAG_P_PARENT, &parent)?;
    let mut vf = Vec::with_capacity(nn + 1);
    let mut vx = Vec::new();
    vf.push(0u32);
    for nd in &pt.nodes {
        vx.extend_from_slice(&nd.vertices);
        vf.push(vx.len() as u32);
    }
    write_u32s(w, TAG_P_VERT_FIRST, &vf)?;
    write_u32s(w, TAG_P_VERT, &vx)?;
    let mut bf = Vec::with_capacity(nn + 1);
    let mut bd = Vec::new();
    bf.push(0u32);
    for nd in &pt.nodes {
        bd.extend_from_slice(&nd.borders);
        bf.push(bd.len() as u32);
    }
    write_u32s(w, TAG_P_BORD_FIRST, &bf)?;
    write_u32s(w, TAG_P_BORD, &bd)
}

fn read_partition_tree<R: Read>(r: &mut R, n_graph: usize) -> Result<PartitionTree, StoreError> {
    let nn = read_u64(r, TAG_P_COUNT)? as usize;
    let parent = read_u32s(r, TAG_P_PARENT)?;
    let vf = read_u32s(r, TAG_P_VERT_FIRST)?;
    let vx = read_u32s(r, TAG_P_VERT)?;
    let bf = read_u32s(r, TAG_P_BORD_FIRST)?;
    let bd = read_u32s(r, TAG_P_BORD)?;

    if nn == 0 || parent.len() != nn {
        return Err(StoreError::invalid("partition tree arrays disagree"));
    }
    if vf.len() != nn + 1 || bf.len() != nn + 1 {
        return Err(StoreError::invalid("partition CSR arrays disagree"));
    }
    check_offsets(&vf, vx.len(), "partition vertices")?;
    check_offsets(&bf, bd.len(), "partition borders")?;
    if vx.iter().chain(bd.iter()).any(|&v| v as usize >= n_graph) {
        return Err(StoreError::invalid("partition vertex out of range"));
    }
    // Node 0 is the root; every other node's parent precedes it (creation
    // order) — this implies acyclicity and sets each depth from its parent's.
    if parent[0] != NO_PARENT {
        return Err(StoreError::invalid("partition root must be node 0"));
    }
    let mut nodes: Vec<PartitionNode> = Vec::with_capacity(nn);
    for i in 0..nn {
        let p = (i > 0).then(|| parent[i] as usize);
        if p.is_some_and(|p| p >= i) {
            return Err(StoreError::invalid(
                "partition parent must precede its child",
            ));
        }
        nodes.push(PartitionNode {
            vertices: vx[vf[i] as usize..vf[i + 1] as usize].to_vec(),
            borders: bd[bf[i] as usize..bf[i + 1] as usize].to_vec(),
            children: Vec::new(),
            parent: p,
            depth: p.map_or(0, |p| nodes[p].depth + 1),
        });
        if let Some(p) = p {
            nodes[p].children.push(i);
        }
    }
    let leaf_of = leaf_assignment(&nodes, n_graph)
        .ok_or_else(|| StoreError::invalid("partition leaves do not partition V"))?;
    Ok(PartitionTree { nodes, leaf_of })
}

impl Persist for TdGtree {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        self.graph.write_into(w)?;
        write_partition_tree(w, &self.pt)?;
        for m in &self.mats {
            write_u32s(w, TAG_M_ANCHORS, &m.anchors)?;
            let slots = m
                .ids
                .iter()
                .map(|&id| (id != NO_PLF).then(|| m.arena.slice(id)));
            write_plf_list(w, slots)?;
        }
        write_f64s(w, TAG_G_SECS, &[self.build_secs])
    }

    fn read_from<R: Read>(r: &mut R) -> Result<TdGtree, StoreError> {
        let graph = TdGraph::read_from(r)?;
        let pt = read_partition_tree(r, graph.num_vertices())?;
        let mut mats = Vec::with_capacity(pt.nodes.len());
        for _ in 0..pt.nodes.len() {
            let anchors = read_u32s(r, TAG_M_ANCHORS)?;
            let (arena, ids) = read_plf_arena(r)?;
            let k = anchors.len();
            if ids.len() != k * k {
                return Err(StoreError::invalid(format!(
                    "border matrix holds {} entries for {k} anchors",
                    ids.len()
                )));
            }
            if anchors.iter().any(|&a| a as usize >= graph.num_vertices()) {
                return Err(StoreError::invalid("matrix anchor out of range"));
            }
            let m = NodeMatrix::new(anchors, ids, arena);
            if m.pos.len() != k {
                return Err(StoreError::invalid("duplicate matrix anchor"));
            }
            mats.push(m);
        }
        let secs = read_f64s(r, TAG_G_SECS)?;
        if secs.len() != 1 || !secs[0].is_finite() || secs[0] < 0.0 {
            return Err(StoreError::invalid("bad construction-time record"));
        }
        Ok(TdGtree {
            graph,
            pt,
            mats,
            build_secs: secs[0],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GtreeConfig;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    #[test]
    fn gtree_round_trips_bit_identically() {
        let n = 60;
        let g = seeded_graph(5, n, 40, 3);
        let gt = TdGtree::build(g, GtreeConfig { max_leaf: 10 });
        let mut buf = Vec::new();
        gt.write_into(&mut buf).unwrap();
        let mut r = buf.as_slice();
        let back = TdGtree::read_from(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.num_entries(), gt.num_entries());
        assert_eq!(back.total_points(), gt.total_points());
        assert_eq!(back.num_partitions(), gt.num_partitions());
        // A load adopts exactly what a build stores.
        assert_eq!(back.memory_bytes(), gt.memory_bytes());

        let mut rng = StdRng::seed_from_u64(0x7777);
        for _ in 0..60 {
            let s = rng.gen_range(0..n) as u32;
            let d = rng.gen_range(0..n) as u32;
            let t = rng.gen_range(0.0..DAY);
            assert_eq!(
                gt.query_cost(s, d, t).map(f64::to_bits),
                back.query_cost(s, d, t).map(f64::to_bits),
                "s={s} d={d} t={t}"
            );
            assert_eq!(gt.query_profile(s, d), back.query_profile(s, d));
            assert_eq!(gt.query_path(s, d, t), back.query_path(s, d, t));
        }
    }

    /// `gt`'s stream with node `node`'s anchors edited and its entry list
    /// cut to `entries(k)` slots, for `k` anchors.
    fn forged(
        gt: &TdGtree,
        node: usize,
        anchors: impl Fn(&mut Vec<u32>),
        entries: impl Fn(usize) -> usize,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        gt.graph.write_into(&mut buf).unwrap();
        write_partition_tree(&mut buf, &gt.pt).unwrap();
        for (i, m) in gt.mats.iter().enumerate() {
            let mut a = m.anchors.clone();
            let mut count = a.len() * a.len();
            if i == node {
                anchors(&mut a);
                count = entries(m.anchors.len());
            }
            write_u32s(&mut buf, TAG_M_ANCHORS, &a).unwrap();
            let slots = m.ids[..count]
                .iter()
                .map(|&id| (id != NO_PLF).then(|| m.arena.slice(id)));
            write_plf_list(&mut buf, slots).unwrap();
        }
        write_f64s(&mut buf, TAG_G_SECS, &[gt.build_secs]).unwrap();
        buf
    }

    #[test]
    fn forged_matrices_are_rejected() {
        let n = 30;
        let g = seeded_graph(1, n, 20, 3);
        let gt = TdGtree::build(g, GtreeConfig { max_leaf: 8 });
        let same = forged(&gt, 0, |_| {}, |k| k * k);
        assert!(TdGtree::read_from(&mut same.as_slice()).is_ok());
        let faults: [(&str, Vec<u8>); 3] = [
            ("entry count", forged(&gt, 0, |_| {}, |k| k * k - 1)),
            (
                "duplicate anchor",
                forged(&gt, 0, |a| a[1] = a[0], |k| k * k),
            ),
            (
                "anchor range",
                forged(&gt, 0, |a| a[0] = n as u32, |k| k * k),
            ),
        ];
        for (fault, buf) in faults {
            match TdGtree::read_from(&mut buf.as_slice()) {
                Err(StoreError::Invalid(_)) => {}
                other => panic!("{fault}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn truncated_gtree_stream_errors_out() {
        let g = seeded_graph(1, 30, 20, 3);
        let gt = TdGtree::build(g, GtreeConfig { max_leaf: 8 });
        let mut buf = Vec::new();
        gt.write_into(&mut buf).unwrap();
        for cut in (0..buf.len()).step_by(293) {
            assert!(TdGtree::read_from(&mut &buf[..cut]).is_err());
        }
    }

    fn leaves(gt: &TdGtree) -> Vec<usize> {
        (0..gt.pt.nodes.len())
            .filter(|&i| gt.pt.nodes[i].children.is_empty())
            .collect()
    }

    /// The leaf assignment is not stored: a vertex moved to another leaf in
    /// memory saves and loads back into its own leaf, and every query from
    /// it answers like the honest index's.
    #[test]
    fn tampered_leaf_assignment_loads_as_built() {
        let n = 60;
        let g = seeded_graph(5, n, 40, 3);
        let mut gt = TdGtree::build(g, GtreeConfig { max_leaf: 10 });
        let v = 0u32;
        let times = [0.0, 0.3 * DAY, 0.7 * DAY];
        let answers = |gt: &TdGtree| {
            let queries = (0..n as u32).flat_map(|d| times.map(|t| (d, t)));
            (queries.map(|(d, t)| gt.query_cost(v, d, t).map(f64::to_bits))).collect::<Vec<_>>()
        };
        let (honest, leaf_of) = (answers(&gt), gt.pt.leaf_of.clone());
        let other = *leaves(&gt)
            .iter()
            .find(|&&l| l != leaf_of[v as usize])
            .unwrap();
        gt.pt.leaf_of[v as usize] = other;
        let mut buf = Vec::new();
        gt.write_into(&mut buf).unwrap();
        let back = TdGtree::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.pt.leaf_of, leaf_of);
        assert_eq!(answers(&back), honest);
    }

    #[test]
    fn vertex_in_two_leaves_is_rejected() {
        let g = seeded_graph(1, 30, 20, 3);
        let mut gt = TdGtree::build(g, GtreeConfig { max_leaf: 8 });
        let leaves = leaves(&gt);
        let v = gt.pt.nodes[leaves[0]].vertices[0];
        gt.pt.nodes[leaves[1]].vertices.push(v);
        let mut buf = Vec::new();
        gt.write_into(&mut buf).unwrap();
        match TdGtree::read_from(&mut buf.as_slice()) {
            Err(StoreError::Invalid(m)) => assert!(m.contains("partition V"), "{m}"),
            other => panic!("{:?}", other.map(|_| ())),
        }
    }
}
