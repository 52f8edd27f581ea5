//! Snapshot persistence ([`td_store::Persist`]) for [`Plf`], plus the shared
//! PLF-list encoding used by every index crate for its label tables.
//!
//! A function lives in one of two layouts: an owned [`Plf`] (`Vec<Pt>`, one
//! allocation per built function) or a slice of a frozen [`PlfArena`] (two
//! parallel arrays, 16 B a point against `Pt`'s 24, and its witness runs).
//! A list has one encoding whichever layout holds its functions, and one
//! writer: [`write_plf_list`] reads either through [`PlfView`], the view
//! every kernel reads. The file stores three SoA arrays — `times`/`values`
//! and one `via` a point, which the writer reads off an arena's witness
//! runs and [`read_plf_arena`] folds back into them — and reading
//! revalidates against [`Plf::new`]'s invariants (non-empty, strictly
//! increasing, finite, non-negative), turning any corrupt function into a
//! typed [`StoreError::Invalid`] rather than a broken invariant at query
//! time. A list is read back into owned functions ([`read_plf_list`]) or
//! straight into an arena ([`read_plf_arena`]). An arena's derived parts —
//! ids, offsets, runs, bounds — are never in the file.

use crate::arena::{PlfArena, PlfId, NO_PLF};
use crate::plf::{Plf, Pt, Via};
use crate::view::PlfView;
use std::io::{Read, Write};
use std::ops::Range;
use td_store::section::{read_f64s, read_u32s, tag4, write_f64_iter, write_u32_iter, write_u32s};
use td_store::{Persist, StoreError};

const TAG_F_TIMES: u32 = tag4(*b"Ftim");
const TAG_F_VALUES: u32 = tag4(*b"Fval");
const TAG_F_VIAS: u32 = tag4(*b"Fvia");

const TAG_L_COUNTS: u32 = tag4(*b"Lcnt");
const TAG_L_TIMES: u32 = tag4(*b"Ltim");
const TAG_L_VALUES: u32 = tag4(*b"Lval");
const TAG_L_VIAS: u32 = tag4(*b"Lvia");

impl Persist for Plf {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        let (pts, n) = (self.points(), self.len() as u64);
        write_f64_iter(w, TAG_F_TIMES, n, pts.iter().map(|p| p.t))?;
        write_f64_iter(w, TAG_F_VALUES, n, pts.iter().map(|p| p.v))?;
        write_u32_iter(w, TAG_F_VIAS, n, pts.iter().map(|p| p.via))
    }

    fn read_from<R: Read>(r: &mut R) -> Result<Plf, StoreError> {
        let times = read_f64s(r, TAG_F_TIMES)?;
        let values = read_f64s(r, TAG_F_VALUES)?;
        let vias = read_u32s(r, TAG_F_VIAS)?;
        if times.len() != values.len() || times.len() != vias.len() {
            return Err(StoreError::invalid("PLF SoA arrays disagree in length"));
        }
        let pts = (0..times.len()).map(|i| Pt::with_via(times[i], values[i], vias[i]));
        Plf::new(pts.collect()).map_err(|e| StoreError::invalid(format!("invalid PLF: {e}")))
    }
}

/// Writes a list of optional PLFs as four sections: per-slot point counts
/// (`0` = absent) plus the concatenated SoA point arrays. This is the
/// encoding every label table (`Ws`/`Wd` lists, shortcut pairs, G-tree
/// matrices) uses, whichever layout holds the functions: owned ones and
/// arena slices write the same bytes. The point sections are **streamed**
/// straight from the (re-iterated) functions — an index holds millions of
/// points, and materialising flat copies before writing would double the
/// save's peak memory; only the small per-slot count array is collected.
pub fn write_plf_list<W, F, I>(w: &mut W, items: I) -> Result<(), StoreError>
where
    W: Write,
    F: PlfView,
    I: Iterator<Item = Option<F>> + Clone,
{
    let counts = items.clone().map(|f| f.map_or(0, F::len));
    let functions = || items.clone().flatten();
    let coords = |at: fn(F, usize) -> f64| {
        functions().flat_map(move |f| (0..f.len()).map(move |i| at(f, i)))
    };
    write_list(
        w,
        counts,
        coords(F::t),
        coords(F::v),
        functions().flat_map(F::vias),
    )
}

/// The list encoding's four sections, from per-slot point counts and the
/// concatenated point coordinates.
fn write_list<W: Write>(
    w: &mut W,
    counts: impl Iterator<Item = usize>,
    times: impl Iterator<Item = f64>,
    values: impl Iterator<Item = f64>,
    vias: impl Iterator<Item = Via>,
) -> Result<(), StoreError> {
    let counts: Vec<u32> = counts.map(|c| c as u32).collect();
    let total = counts.iter().map(|&c| u64::from(c)).sum();
    write_u32s(w, TAG_L_COUNTS, &counts)?;
    write_f64_iter(w, TAG_L_TIMES, total, times)?;
    write_f64_iter(w, TAG_L_VALUES, total, values)?;
    write_u32_iter(w, TAG_L_VIAS, total, vias)
}

/// The raw sections of one list, checked for consistent lengths.
struct RawList {
    counts: Vec<u32>,
    times: Vec<u8>,
    values: Vec<u8>,
    vias: Vec<u8>,
}

impl RawList {
    fn read<R: Read>(r: &mut R) -> Result<RawList, StoreError> {
        use td_store::section::{elem, read_raw};

        let counts = read_u32s(r, TAG_L_COUNTS)?;
        let times = read_raw(r, TAG_L_TIMES, elem::F64)?;
        let values = read_raw(r, TAG_L_VALUES, elem::F64)?;
        let vias = read_raw(r, TAG_L_VIAS, elem::U32)?;
        let points = times.len() / 8;
        if values.len() != times.len() || vias.len() != points * 4 {
            return Err(StoreError::invalid(
                "PLF list SoA arrays disagree in length",
            ));
        }
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        if total != points as u64 {
            return Err(StoreError::invalid(format!(
                "PLF list counts sum to {total} but {points} points are stored"
            )));
        }
        Ok(RawList {
            counts,
            times,
            values,
            vias,
        })
    }

    /// Point `i` of the concatenated arrays, decoded from the raw
    /// little-endian payloads (no intermediate `Vec<f64>`).
    fn point(&self, i: usize) -> Pt {
        let le8 = |raw: &[u8]| {
            f64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8-byte chunk"))
        };
        let via = self.vias[4 * i..4 * i + 4]
            .try_into()
            .expect("4-byte chunk");
        Pt::with_via(le8(&self.times), le8(&self.values), Via::from_le_bytes(via))
    }

    /// Each slot's point range in order (`None` for an absent slot).
    fn slots(&self) -> impl Iterator<Item = Option<Range<usize>>> + '_ {
        let mut at = 0usize;
        self.counts.iter().map(move |&c| {
            let range = at..at + c as usize;
            at = range.end;
            (c > 0).then_some(range)
        })
    }

    /// Hands `push` the points of one slot in order, each checked against
    /// exactly the [`Plf::new`] invariants before it is handed out — one
    /// pass, no second validation.
    fn decode(&self, range: Range<usize>, mut push: impl FnMut(Pt)) -> Result<(), StoreError> {
        use crate::approx::EPS_TIME;

        let mut prev = f64::NEG_INFINITY;
        for i in range.clone() {
            let p = self.point(i);
            if !p.t.is_finite() || !p.v.is_finite() {
                return Err(StoreError::invalid("PLF point is not finite"));
            }
            if p.v < 0.0 {
                return Err(StoreError::invalid("PLF point has a negative cost"));
            }
            if i > range.start && p.t - prev <= EPS_TIME {
                return Err(StoreError::invalid("PLF times not strictly increasing"));
            }
            prev = p.t;
            push(p);
        }
        Ok(())
    }
}

/// Reads a list written by [`write_plf_list`] into owned functions,
/// enforcing exactly the [`Plf::new`] invariants (non-empty, strictly
/// increasing beyond `EPS_TIME`, finite, non-negative).
///
/// This is the hottest loop of a snapshot load — an index holds millions of
/// interpolation points — so points are decoded straight from the raw
/// section payloads into their final `Pt` vectors.
pub fn read_plf_list<R: Read>(r: &mut R) -> Result<Vec<Option<Plf>>, StoreError> {
    let raw = RawList::read(r)?;
    let mut out = Vec::with_capacity(raw.counts.len());
    for slot in raw.slots() {
        out.push(match slot {
            None => None,
            Some(range) => {
                let mut pts = Vec::with_capacity(range.len());
                raw.decode(range, |p| pts.push(p))?;
                // Exactly `Plf::new`'s invariants were just enforced.
                Some(Plf::from_raw(pts))
            }
        });
    }
    Ok(out)
}

/// Reads a list written by [`write_plf_list`] straight into a fresh arena
/// sized exactly to it, validating as [`read_plf_list`] does: no owned
/// [`Plf`] is built on the way, and the per-point witnesses are folded into
/// the arena's witness runs as they are read. Returns the arena and each
/// slot's id in it ([`NO_PLF`] for an absent slot).
pub fn read_plf_arena<R: Read>(r: &mut R) -> Result<(PlfArena, Vec<PlfId>), StoreError> {
    let raw = RawList::read(r)?;
    let functions = raw.counts.iter().filter(|&&c| c > 0).count();
    let mut arena = PlfArena::with_capacity(functions, raw.times.len() / 8);
    let mut ids = Vec::with_capacity(raw.counts.len());
    for slot in raw.slots() {
        ids.push(match slot {
            None => NO_PLF,
            Some(range) => {
                raw.decode(range, |p| arena.push_pt(p))?;
                arena.close()
            }
        });
    }
    // Runs past one a function grew the run array; trim it.
    arena.shrink_to_fit();
    Ok((arena, ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist>(v: &T) -> T {
        let mut buf = Vec::new();
        v.write_into(&mut buf).unwrap();
        let mut r = buf.as_slice();
        let back = T::read_from(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after read");
        back
    }

    #[test]
    fn plf_round_trips_exactly() {
        let f = Plf::new(vec![
            Pt::with_via(0.0, 10.0, 4),
            Pt::with_via(20.5, 0.0, crate::plf::NO_VIA),
            Pt::with_via(60.0, 15.25, 2),
        ])
        .unwrap();
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn plf_list_round_trips_with_gaps() {
        let a = Plf::from_pairs(&[(0.0, 1.0), (5.0, 3.0)]).unwrap();
        let b = Plf::constant(9.0);
        let items = [Some(&a), None, Some(&b), None];
        let mut buf = Vec::new();
        write_plf_list(&mut buf, items.iter().copied()).unwrap();
        let back = read_plf_list(&mut buf.as_slice()).unwrap();
        assert_eq!(back, vec![Some(a), None, Some(b), None]);
    }

    #[test]
    fn slice_lists_share_the_encoding_and_read_into_an_arena() {
        let a = Plf::new(vec![Pt::with_via(0.0, 1.0, 6), Pt::with_via(5.0, 3.0, 2)]).unwrap();
        let b = Plf::constant(9.0);
        let mut owned = Vec::new();
        write_plf_list(&mut owned, [Some(&a), None, Some(&b)].into_iter()).unwrap();
        let mut arena = PlfArena::new();
        let ids = [arena.push(&a), arena.push(&b)];
        let slices = [Some(ids[0]), None, Some(ids[1])].map(|id| id.map(|id| arena.slice(id)));
        let mut frozen = Vec::new();
        write_plf_list(&mut frozen, slices.into_iter()).unwrap();
        assert_eq!(owned, frozen, "one encoding, whoever holds the functions");

        let (back, back_ids) = read_plf_arena(&mut frozen.as_slice()).unwrap();
        assert_eq!(back_ids.len(), 3);
        assert_eq!(back_ids[1], NO_PLF);
        assert_eq!(back.slice(back_ids[0]).to_plf(), a);
        assert_eq!(back.slice(back_ids[2]).to_plf(), b);
        assert_eq!(back.heap_bytes(), {
            let mut exact = back.clone();
            exact.shrink_to_fit();
            exact.heap_bytes()
        });
    }

    #[test]
    fn invalid_points_are_rejected_by_both_readers() {
        // A negative cost: valid sections, an invalid function.
        let bad = [Pt::new(0.0, 1.0), Pt::new(5.0, -2.0)];
        let mut arena = PlfArena::new();
        let id = arena.push(&Plf::from_raw(bad.to_vec()));
        let mut buf = Vec::new();
        write_plf_list(&mut buf, [Some(arena.slice(id))].into_iter()).unwrap();
        assert!(matches!(
            read_plf_list(&mut buf.as_slice()),
            Err(StoreError::Invalid(_))
        ));
        assert!(matches!(
            read_plf_arena(&mut buf.as_slice()),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_plf_is_rejected_not_panicked() {
        let f = Plf::from_pairs(&[(0.0, 1.0), (5.0, 3.0)]).unwrap();
        let mut buf = Vec::new();
        f.write_into(&mut buf).unwrap();
        // Swap the two times (payload of the first section) so they are no
        // longer increasing, and fix up nothing else: the CRC catches it.
        let r = Plf::read_from(
            &mut {
                let mut bad = buf.clone();
                bad[16] ^= 0x01;
                bad
            }
            .as_slice(),
        );
        assert!(r.is_err());
    }
}
