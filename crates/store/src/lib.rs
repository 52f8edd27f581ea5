#![forbid(unsafe_code)]
//! # td-store — versioned binary snapshot persistence (`.tdx`)
//!
//! The paper's whole point is paying a heavy one-time preprocessing cost
//! (tree-decomposition shortcuts, G-tree border matrices) to make queries
//! fast. This crate makes that preprocessing output a first-class on-disk
//! artifact — as CATCHUp does with its customization output and TCH with its
//! contraction hierarchy — so a built index is **saved once and loaded in
//! milliseconds**, instead of being rebuilt from scratch on every process
//! start, bench run, and CI job.
//!
//! The crate sits at the bottom of the workspace dependency graph and knows
//! nothing about graphs or PLFs. It provides:
//!
//! * the [`Persist`] trait (`write_into`/`read_from` over [`std::io::Write`]
//!   / [`std::io::Read`]) that every state-owning type in the workspace
//!   implements;
//! * the `.tdx` container: a fixed [`mod@format`] header (magic, format version,
//!   endianness marker, backend tag) followed by a stream of typed,
//!   CRC32-checksummed [`section`]s and a terminating end marker;
//! * typed [`StoreError`]s — corrupt, truncated or mismatched input is
//!   **rejected, never panicked on**, and no `unsafe` byte reinterpretation
//!   is performed anywhere (payloads are decoded with explicit little-endian
//!   `from_le_bytes` conversions);
//! * a semantics-free section walker ([`section::walk_sections`]) powering
//!   the `tdx inspect` / `tdx verify` CLI;
//! * deterministic I/O [`fault`] shims ([`FaultyWriter`] / [`FaultyReader`])
//!   that fail at byte *N* or serve short reads/writes, powering the
//!   crash-consistency kill-point sweeps in td-api.
//!
//! The full byte-level layout, checksum rules and versioning policy are
//! specified in `crates/store/FORMAT.md`.

pub mod crc;
pub mod error;
pub mod fault;
pub mod format;
pub mod section;

pub use error::StoreError;
pub use fault::{FaultyReader, FaultyWriter};
pub use format::{BackendTag, Header, FORMAT_VERSION, MAGIC};

use std::io::{Read, Write};

/// Types that serialize themselves into the `.tdx` section stream.
///
/// `write_into(w)` followed by `read_from(r)` over the same bytes must
/// reconstruct a value that answers every query **bit-identically** to the
/// original. Implementations are *compositional*: a container writes its
/// components by calling their `write_into` in a fixed order, and reads them
/// back in the same order — the section tags double as a structural check.
///
/// Implementations must never panic on malformed input: every length,
/// offset and id read from the stream is validated before use, and failures
/// surface as typed [`StoreError`]s.
pub trait Persist: Sized {
    /// Serializes `self` as a sequence of sections.
    fn write_into<W: Write>(&self, w: &mut W) -> Result<(), StoreError>;

    /// Reconstructs a value from the section stream, validating structure
    /// and checksums.
    fn read_from<R: Read>(r: &mut R) -> Result<Self, StoreError>;
}

/// Writes a complete `.tdx` snapshot stream — header (with `backend`'s
/// tag), the value's body sections, end marker — into `w`. This is the one
/// place the container framing is assembled; every backend's snapshot
/// writer routes through it. A crashed or interrupted write is caught on
/// load by the missing end marker or a checksum mismatch.
pub fn write_snapshot<T: Persist, W: Write>(
    value: &T,
    backend: BackendTag,
    w: &mut W,
) -> Result<(), StoreError> {
    format::write_header(w, backend)?;
    value.write_into(w)?;
    section::write_end(w)
}
