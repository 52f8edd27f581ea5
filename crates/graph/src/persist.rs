//! Snapshot persistence ([`td_store::Persist`]) for [`TdGraph`].
//!
//! A [`TdGraph`] is stored as its edge list in edge-id order (`from`/`to`
//! arrays plus the weight functions as a PLF list); reading replays
//! [`TdGraph::add_edge`], which revalidates endpoints, simplicity and FIFO
//! and rebuilds the adjacency lists in exactly the original order (adjacency
//! order is insertion order), so the loaded graph is indistinguishable from
//! the saved one.
//!
//! The frozen views ([`CsrGraph`](crate::CsrGraph),
//! [`FrozenGraph`](crate::FrozenGraph)) are never persisted: every loader
//! re-freezes the graph it just read, so derived data cannot disagree with
//! its source.

use crate::graph::TdGraph;
use std::io::{Read, Write};
use td_plf::persist::{read_plf_list, write_plf_list};
use td_store::section::{read_u32s, read_u64, tag4, write_u32s, write_u64};
use td_store::{Persist, StoreError};

const TAG_G_VERTS: u32 = tag4(*b"Gnum");
const TAG_G_FROM: u32 = tag4(*b"Gfrm");
const TAG_G_TO: u32 = tag4(*b"Gto ");

impl Persist for TdGraph {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        write_u64(w, TAG_G_VERTS, self.num_vertices() as u64)?;
        let from: Vec<u32> = self.edges().iter().map(|e| e.from).collect();
        let to: Vec<u32> = self.edges().iter().map(|e| e.to).collect();
        write_u32s(w, TAG_G_FROM, &from)?;
        write_u32s(w, TAG_G_TO, &to)?;
        write_plf_list(w, self.edges().iter().map(|e| Some(&e.weight)))
    }

    fn read_from<R: Read>(r: &mut R) -> Result<TdGraph, StoreError> {
        let n = read_u64(r, TAG_G_VERTS)?;
        if n > u32::MAX as u64 {
            return Err(StoreError::invalid("vertex count exceeds u32 range"));
        }
        // Read (stream-bounded) edge data before allocating adjacency, and
        // allocate fallibly: a crafted vertex count in a CRC-valid file
        // must yield a typed error, not an allocation-failure abort.
        let from = read_u32s(r, TAG_G_FROM)?;
        let to = read_u32s(r, TAG_G_TO)?;
        let weights = read_plf_list(r)?;
        if from.len() != to.len() || from.len() != weights.len() {
            return Err(StoreError::invalid("edge arrays disagree in length"));
        }
        let mut g = TdGraph::try_with_vertices(n as usize)
            .ok_or_else(|| StoreError::invalid(format!("vertex count {n} is unallocatable")))?;
        for ((u, v), w) in from.into_iter().zip(to).zip(weights) {
            let w = w.ok_or_else(|| StoreError::invalid("edge without a weight function"))?;
            g.add_edge(u, v, w)
                .map_err(|e| StoreError::invalid(format!("invalid edge: {e}")))?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_plf::Plf;

    fn sample() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        g.add_edge(1, 2, Plf::from_pairs(&[(0.0, 2.0), (10.0, 4.0)]).unwrap())
            .unwrap();
        g.add_edge(0, 2, Plf::constant(5.0)).unwrap();
        g.add_edge(2, 3, Plf::constant(1.0)).unwrap();
        g
    }

    fn roundtrip<T: Persist>(v: &T) -> T {
        let mut buf = Vec::new();
        v.write_into(&mut buf).unwrap();
        let mut r = buf.as_slice();
        let back = T::read_from(&mut r).unwrap();
        assert!(r.is_empty());
        back
    }

    #[test]
    fn graph_round_trips_adjacency_exactly() {
        let g = sample();
        let back = roundtrip(&g);
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(back.out_edges(v), g.out_edges(v));
            assert_eq!(back.in_edges(v), g.in_edges(v));
        }
        for e in 0..g.num_edges() as u32 {
            assert_eq!(back.weight(e), g.weight(e));
        }
    }

    #[test]
    fn duplicate_edges_in_stream_are_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        g.write_into(&mut buf).unwrap();
        // A graph stream that repeats an edge must be rejected by add_edge.
        let mut forged = Vec::new();
        write_u64(&mut forged, TAG_G_VERTS, 2).unwrap();
        write_u32s(&mut forged, TAG_G_FROM, &[0, 0]).unwrap();
        write_u32s(&mut forged, TAG_G_TO, &[1, 1]).unwrap();
        let w = Plf::constant(1.0);
        write_plf_list(&mut forged, [Some(&w), Some(&w)].into_iter()).unwrap();
        assert!(matches!(
            TdGraph::read_from(&mut forged.as_slice()),
            Err(StoreError::Invalid(_))
        ));
    }
}
