//! Snapshot persistence for the contraction order.
//!
//! Only the metric-independent state — the rank permutation, the
//! suffix-window starts and the build time — is written. The per-metric
//! arc arrays are recomputed on load by the same deterministic
//! [`crate::ContractionHierarchy::customize`] pass the build used (one
//! triangle pass over the order's chordal supergraph for all windows), so a
//! CRC-valid edit of the file can never desynchronise the hierarchy from
//! the graph it is loaded next to, and the snapshot stays a fraction of the
//! in-memory size.

use crate::ContractionHierarchy;
use std::io::{Read, Write};
use td_graph::FrozenGraph;
use td_store::section::{read_f64s, read_u32s, tag4, write_f64s, write_u32s};
use td_store::StoreError;

const TAG_CH_RANK: u32 = tag4(*b"Hrnk");
const TAG_CH_STARTS: u32 = tag4(*b"Hwin");
const TAG_CH_SECS: u32 = tag4(*b"Hsec");

/// Writes the hierarchy's rank permutation, window starts and build time.
pub fn write_ch<W: Write>(ch: &ContractionHierarchy, w: &mut W) -> Result<(), StoreError> {
    write_u32s(w, TAG_CH_RANK, ch.rank_slice())?;
    write_f64s(w, TAG_CH_STARTS, ch.window_starts())?;
    write_f64s(w, TAG_CH_SECS, &[ch.construction_secs()])
}

/// Reads a rank permutation and window starts, validates them against
/// `fg`'s vertex count, and re-customizes the hierarchy for `fg`'s current
/// weights.
pub fn read_ch<R: Read>(r: &mut R, fg: &FrozenGraph) -> Result<ContractionHierarchy, StoreError> {
    let rank = read_u32s(r, TAG_CH_RANK)?;
    let starts = read_f64s(r, TAG_CH_STARTS)?;
    let secs = read_f64s(r, TAG_CH_SECS)?;
    if rank.len() != fg.num_vertices() {
        return Err(StoreError::invalid(format!(
            "CH order covers {} vertices, graph has {}",
            rank.len(),
            fg.num_vertices()
        )));
    }
    let mut seen = vec![false; rank.len()];
    for &r in &rank {
        if rank.len() <= r as usize || seen[r as usize] {
            return Err(StoreError::invalid("CH order is not a permutation"));
        }
        seen[r as usize] = true;
    }
    if starts.first() != Some(&0.0)
        || !starts.windows(2).all(|w| w[0] < w[1])
        || !starts.iter().all(|s| s.is_finite())
    {
        return Err(StoreError::invalid(
            "CH window starts must be finite, strictly increasing and begin at 0",
        ));
    }
    let [secs] = secs[..] else {
        return Err(StoreError::invalid("CH build time must be a single value"));
    };
    if secs.is_nan() || secs < 0.0 {
        return Err(StoreError::invalid("CH build time must be non-negative"));
    }
    let mut ch = ContractionHierarchy::with_order(fg, rank, starts);
    ch.set_construction_secs(secs);
    Ok(ch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_identically() {
        let g = td_gen::random_graph::seeded_graph(4, 30, 22, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut buf = Vec::new();
        write_ch(&ch, &mut buf).unwrap();
        let back = read_ch(&mut buf.as_slice(), &fg).unwrap();
        assert_eq!(ch.rank_slice(), back.rank_slice());
        assert_eq!(ch.window_starts(), back.window_starts());
        assert_eq!(ch.num_shortcuts(), back.num_shortcuts());
        assert_eq!(
            ch.construction_secs().to_bits(),
            back.construction_secs().to_bits()
        );
        for idx in 0..ch.window_starts().len() {
            for v in 0..30u32 {
                assert_eq!(ch.metric(idx).up_edges(v).0, back.metric(idx).up_edges(v).0);
                let (aw, bw) = (ch.metric(idx).up_edges(v).1, back.metric(idx).up_edges(v).1);
                assert!(aw.iter().zip(bw).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn rejects_bad_permutations() {
        let g = td_gen::random_graph::seeded_graph(4, 10, 8, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut buf = Vec::new();
        write_ch(&ch, &mut buf).unwrap();

        // Wrong vertex count.
        let small = td_graph::TdGraph::with_vertices(5).freeze();
        assert!(read_ch(&mut buf.as_slice(), &small).is_err());

        // Duplicate rank: overwrite the second rank with the first.
        let mut dup = buf.clone();
        // Section header is 16 bytes; ranks start at byte 16, 4 bytes each.
        let first: [u8; 4] = dup[16..20].try_into().unwrap();
        dup[20..24].copy_from_slice(&first);
        // The CRC no longer matches, or — if recomputed — the permutation
        // check fires. Either way the load must fail.
        assert!(read_ch(&mut dup.as_slice(), &fg).is_err());
    }
}
