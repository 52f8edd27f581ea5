//! The fixed `.tdx` file header: magic, format version, endianness marker
//! and backend tag. See `crates/store/FORMAT.md` for the byte-level spec.

use crate::error::StoreError;
use std::io::{Read, Write};

/// The 8-byte magic opening every `.tdx` snapshot.
pub const MAGIC: [u8; 8] = *b"TDXSNAP1";

/// Current format version. Bump on any incompatible layout change; readers
/// reject versions they do not understand with
/// [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 3;

/// Endianness marker value. Every multi-byte integer in the format is
/// little-endian by definition; this marker, written as LE, additionally
/// detects files mangled by byte-order-changing transports.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Which index family a snapshot holds. Numeric values are part of the
/// on-disk format and must never be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum BackendTag {
    /// TD-tree without shortcuts.
    TdBasic = 1,
    /// TD-tree with greedily selected shortcuts.
    TdAppro = 2,
    /// TD-tree with DP-selected shortcuts.
    TdDp = 3,
    /// TD-H2H full 2-hop label.
    TdH2h = 4,
    /// TD-G-tree border matrices.
    TdGtree = 5,
    /// TD-Dijkstra (graph + frozen CSR view only).
    Dijkstra = 6,
    /// TD-A\* with lazy CH potentials (graph + contraction order).
    AStarCh = 7,
}

impl BackendTag {
    /// Decodes a tag from its on-disk value.
    pub fn from_u32(v: u32) -> Result<BackendTag, StoreError> {
        match v {
            1 => Ok(BackendTag::TdBasic),
            2 => Ok(BackendTag::TdAppro),
            3 => Ok(BackendTag::TdDp),
            4 => Ok(BackendTag::TdH2h),
            5 => Ok(BackendTag::TdGtree),
            6 => Ok(BackendTag::Dijkstra),
            7 => Ok(BackendTag::AStarCh),
            other => Err(StoreError::UnknownBackend(other)),
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            BackendTag::TdBasic => "TD-basic",
            BackendTag::TdAppro => "TD-appro",
            BackendTag::TdDp => "TD-dp",
            BackendTag::TdH2h => "TD-H2H",
            BackendTag::TdGtree => "TD-G-tree",
            BackendTag::Dijkstra => "TD-Dijkstra",
            BackendTag::AStarCh => "TD-A*-CH",
        }
    }
}

impl std::fmt::Display for BackendTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The decoded file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version of the file (always a supported one after decoding).
    pub version: u32,
    /// Which backend the body holds.
    pub backend: BackendTag,
}

/// Writes the 24-byte header.
pub fn write_header<W: Write>(w: &mut W, backend: BackendTag) -> Result<(), StoreError> {
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&ENDIAN_MARKER.to_le_bytes())?;
    w.write_all(&(backend as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // reserved
    Ok(())
}

/// Reads and validates the 24-byte header.
pub fn read_header<R: Read>(r: &mut R) -> Result<Header, StoreError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    r.read_exact(&mut word)?;
    if u32::from_le_bytes(word) != ENDIAN_MARKER {
        return Err(StoreError::BadEndianness);
    }
    r.read_exact(&mut word)?;
    let backend = BackendTag::from_u32(u32::from_le_bytes(word))?;
    r.read_exact(&mut word)?; // reserved, ignored
    Ok(Header { version, backend })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let mut buf = Vec::new();
        write_header(&mut buf, BackendTag::TdGtree).unwrap();
        assert_eq!(buf.len(), 24);
        let h = read_header(&mut buf.as_slice()).unwrap();
        assert_eq!(h.backend, BackendTag::TdGtree);
        assert_eq!(h.version, FORMAT_VERSION);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_header(&mut buf, BackendTag::TdBasic).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        write_header(&mut buf, BackendTag::TdBasic).unwrap();
        buf[8] = 99;
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn unknown_backend_is_rejected() {
        let mut buf = Vec::new();
        write_header(&mut buf, BackendTag::TdBasic).unwrap();
        buf[16] = 0xEE;
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(StoreError::UnknownBackend(_))
        ));
    }

    #[test]
    fn truncated_header_is_truncated() {
        let mut buf = Vec::new();
        write_header(&mut buf, BackendTag::TdBasic).unwrap();
        buf.truncate(10);
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(StoreError::Truncated)
        ));
    }
}
