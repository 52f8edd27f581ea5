//! Snapshot persistence ([`td_store::Persist`]) for [`Plf`], plus the shared
//! PLF-list encoding used by every index crate for `Vec<Option<Plf>>`-shaped
//! label tables.
//!
//! A PLF is stored SoA — `times`/`values`/`vias` — exactly as the frozen
//! arena lays it out, so serialization is a linear copy and reading
//! revalidates through [`Plf::new`] (non-empty, strictly increasing, finite,
//! non-negative), turning any corrupt function into a typed
//! [`StoreError::Invalid`] rather than a broken invariant at query time.
//! A [`PlfArena`](crate::PlfArena) is never persisted: every frozen view is
//! rebuilt on load from the owned functions it mirrors.

use crate::plf::{Plf, Pt, Via};
use std::io::{Read, Write};
use td_store::section::{
    read_f64s, read_u32s, tag4, write_f64_iter, write_f64s, write_u32_iter, write_u32s,
};
use td_store::{Persist, StoreError};

const TAG_F_TIMES: u32 = tag4(*b"Ftim");
const TAG_F_VALUES: u32 = tag4(*b"Fval");
const TAG_F_VIAS: u32 = tag4(*b"Fvia");

const TAG_L_COUNTS: u32 = tag4(*b"Lcnt");
const TAG_L_TIMES: u32 = tag4(*b"Ltim");
const TAG_L_VALUES: u32 = tag4(*b"Lval");
const TAG_L_VIAS: u32 = tag4(*b"Lvia");

/// Assembles one validated [`Plf`] from parallel SoA slices.
fn plf_from_soa(times: &[f64], values: &[f64], vias: &[Via]) -> Result<Plf, StoreError> {
    let pts: Vec<Pt> = times
        .iter()
        .zip(values)
        .zip(vias)
        .map(|((&t, &v), &via)| Pt::with_via(t, v, via))
        .collect();
    Plf::new(pts).map_err(|e| StoreError::invalid(format!("invalid PLF: {e}")))
}

impl Persist for Plf {
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        let pts = self.points();
        let times: Vec<f64> = pts.iter().map(|p| p.t).collect();
        let values: Vec<f64> = pts.iter().map(|p| p.v).collect();
        let vias: Vec<Via> = pts.iter().map(|p| p.via).collect();
        write_f64s(w, TAG_F_TIMES, &times)?;
        write_f64s(w, TAG_F_VALUES, &values)?;
        write_u32s(w, TAG_F_VIAS, &vias)
    }

    fn read_from<R: Read>(r: &mut R) -> Result<Plf, StoreError> {
        let times = read_f64s(r, TAG_F_TIMES)?;
        let values = read_f64s(r, TAG_F_VALUES)?;
        let vias = read_u32s(r, TAG_F_VIAS)?;
        if times.len() != values.len() || times.len() != vias.len() {
            return Err(StoreError::invalid("PLF SoA arrays disagree in length"));
        }
        plf_from_soa(&times, &values, &vias)
    }
}

/// Writes a list of optional PLFs as four sections: per-slot point counts
/// (`0` = absent) plus the concatenated SoA point arrays. This is the
/// encoding every label table (`Ws`/`Wd` lists, shortcut pairs, G-tree
/// matrices) uses. The point sections are **streamed** straight from the
/// (re-iterated) functions — an index holds millions of points, and
/// materialising flat copies before writing would double the save's peak
/// memory; only the small per-slot count array is collected.
pub fn write_plf_list<'a, W, I>(w: &mut W, items: I) -> Result<(), StoreError>
where
    W: Write,
    I: Iterator<Item = Option<&'a Plf>> + Clone,
{
    let mut counts: Vec<u32> = Vec::new();
    let mut total = 0u64;
    for item in items.clone() {
        let c = item.map_or(0, |f| f.len() as u32);
        counts.push(c);
        total += u64::from(c);
    }
    write_u32s(w, TAG_L_COUNTS, &counts)?;
    let points = || items.clone().flatten().flat_map(|f| f.points().iter());
    write_f64_iter(w, TAG_L_TIMES, total, points().map(|p| p.t))?;
    write_f64_iter(w, TAG_L_VALUES, total, points().map(|p| p.v))?;
    write_u32_iter(w, TAG_L_VIAS, total, points().map(|p| p.via))
}

/// Reads a list written by [`write_plf_list`], enforcing exactly the
/// [`Plf::new`] invariants (non-empty, strictly increasing beyond
/// `EPS_TIME`, finite, non-negative).
///
/// This is the hottest loop of a snapshot load — an index holds millions of
/// interpolation points — so points are decoded straight from the raw
/// little-endian section payloads into their final `Pt` vectors, validating
/// inline: no intermediate `Vec<f64>` materialisation and no second
/// validation pass.
pub fn read_plf_list<R: Read>(r: &mut R) -> Result<Vec<Option<Plf>>, StoreError> {
    use crate::approx::EPS_TIME;
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
    let le8 = |raw: &[u8], i: usize| {
        f64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8-byte chunk"))
    };
    let mut out = Vec::with_capacity(counts.len());
    let mut at = 0usize;
    for &c in &counts {
        if c == 0 {
            out.push(None);
            continue;
        }
        let c = c as usize;
        let mut pts = Vec::with_capacity(c);
        let mut prev = f64::NEG_INFINITY;
        for i in at..at + c {
            let t = le8(&times, i);
            let v = le8(&values, i);
            let via = Via::from_le_bytes(vias[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
            if !t.is_finite() || !v.is_finite() {
                return Err(StoreError::invalid("PLF point is not finite"));
            }
            if v < 0.0 {
                return Err(StoreError::invalid("PLF point has a negative cost"));
            }
            if i > at && t - prev <= EPS_TIME {
                return Err(StoreError::invalid("PLF times not strictly increasing"));
            }
            prev = t;
            pts.push(Pt::with_via(t, v, via));
        }
        // Exactly `Plf::new`'s invariants were just enforced inline.
        out.push(Some(Plf::from_raw(pts)));
        at += c;
    }
    Ok(out)
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
