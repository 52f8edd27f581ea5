//! Saving and loading built indexes as `.tdx` snapshots.
//!
//! The paper's preprocessing is the expensive phase; queries are cheap. A
//! production router therefore restarts from a snapshot, not a rebuild:
//! [`save_index`] writes any [`RoutingIndex`] trait object as a versioned,
//! checksummed `.tdx` file, and [`load_index`] reconstructs the same backend
//! — dispatching on the header's backend tag — answering every query
//! **bit-identically** to the freshly built index. A snapshot holds each
//! backend's source-of-truth state only (graph, labels, selected shortcuts,
//! contraction order, border matrices); the load reads every label,
//! shortcut row and matrix straight into the arenas queries read and
//! re-freezes only the graph's query view — a linear copy, never a re-run
//! of elimination, selection or partitioning.
//!
//! The in-memory variants ([`save_index_to`] / [`load_index_from`]) work
//! over any `io::Write`/`io::Read`, which the conformance suite and the
//! corruption tests use to round-trip through plain byte buffers.
//!
//! ## Crash consistency: the `.tdx` / `.tdx.prev` generation pair
//!
//! [`save_index`] never writes into the live file. It writes the complete
//! snapshot to `<path>.tmp`, flushes and fsyncs it, renames any existing
//! `<path>` to `<path>.prev` (the previous generation), then renames the
//! temp file over `<path>` — each rename atomic on POSIX filesystems — and
//! finally best-effort-fsyncs the parent directory. A crash at *any* point
//! in that pipeline leaves either the new generation or the old one intact
//! and loadable: [`load_index`] / [`load_tree_index`] try `<path>` first and
//! fall back to `<path>.prev` on any [`StoreError`] (a torn temp write is
//! additionally caught by the format's CRC sections and end marker). The
//! kill-point sweep in `tests/crash_consistency.rs` proves this for every
//! [`KillPoint`] and for mid-write faults at every stride of the snapshot
//! length, using [`td_store::fault`]'s deterministic shims.

use crate::backend::Backend;
use crate::index::RoutingIndex;
use crate::oracle::DijkstraOracle;
use std::ffi::OsString;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use td_core::TdTreeIndex;
use td_gtree::TdGtree;
use td_store::{fault::FaultyWriter, format, section, BackendTag, Persist, StoreError};

impl Backend {
    /// The backend named by a snapshot tag.
    pub fn from_snapshot_tag(tag: BackendTag) -> Backend {
        match tag {
            BackendTag::TdBasic => Backend::TdBasic,
            BackendTag::TdAppro => Backend::TdAppro,
            BackendTag::TdDp => Backend::TdDp,
            BackendTag::TdH2h => Backend::TdH2h,
            BackendTag::TdGtree => Backend::TdGtree,
            BackendTag::Dijkstra => Backend::Dijkstra,
            BackendTag::AStarCh => Backend::AStarCh,
        }
    }
}

/// The tag a TD-tree index snapshots under, derived from its strategy.
pub(crate) fn tree_tag(index: &TdTreeIndex) -> BackendTag {
    use td_core::SelectionStrategy::*;
    match index.options.strategy {
        Basic => BackendTag::TdBasic,
        Greedy { .. } => BackendTag::TdAppro,
        Dp { .. } => BackendTag::TdDp,
        All => BackendTag::TdH2h,
    }
}

/// Writes `index` as a complete snapshot stream (header + body + end
/// marker) into `w`.
pub fn save_index_to(index: &dyn RoutingIndex, w: &mut dyn Write) -> Result<(), StoreError> {
    index.write_snapshot(w)
}

/// A simulated crash point inside the [`save_index`] pipeline, for the
/// crash-consistency tests. Passing one to [`save_index_with_kill_point`]
/// makes the save stop (return `Ok`) exactly as a killed process would
/// stop there — leaving whatever on-disk state the pipeline had reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// Die mid-way through writing `<path>.tmp`: the temp file's write
    /// stream fails at byte `n` (injected via [`td_store::fault`]).
    DuringTempWrite(u64),
    /// Die after the temp file is written and fsynced, before the current
    /// generation is renamed to `<path>.prev`.
    BeforeBackupRename,
    /// Die between the two renames: `<path>.prev` holds the old
    /// generation, `<path>` does not exist yet.
    BetweenRenames,
    /// Die after both renames, before the parent directory fsync.
    BeforeDirSync,
}

/// `<path>` with `suffix` appended to its final component (so
/// `net.tdx` → `net.tdx.tmp` / `net.tdx.prev`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = OsString::from(path.as_os_str());
    s.push(suffix);
    PathBuf::from(s)
}

/// The `<path>.prev` previous-generation sibling of a snapshot path.
pub(crate) fn prev_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

/// Saves `index` as a `.tdx` file at `path`, crash-consistently: temp-file
/// write → flush + fsync → rename the current generation (if any) to
/// `<path>.prev` → atomic rename of the temp file over `<path>` →
/// best-effort parent-directory fsync. At every intermediate state at least
/// one of `<path>` / `<path>.prev` is a complete, loadable snapshot.
pub fn save_index(index: &dyn RoutingIndex, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let _span = td_obs::PhaseTimer::observing(td_obs::metrics().snapshot_save_seconds.clone());
    save_pipeline(index, path.as_ref(), None)
}

/// [`save_index`] with a simulated crash at `kill`: the pipeline runs
/// normally up to that point, then returns `Ok(())` without completing —
/// exactly the on-disk state a process killed there would leave. Only the
/// crash-consistency tests should pass `Some`.
pub fn save_index_with_kill_point(
    index: &dyn RoutingIndex,
    path: impl AsRef<Path>,
    kill: KillPoint,
) -> Result<(), StoreError> {
    save_pipeline(index, path.as_ref(), Some(kill))
}

fn save_pipeline(
    index: &dyn RoutingIndex,
    path: &Path,
    kill: Option<KillPoint>,
) -> Result<(), StoreError> {
    let tmp = sibling(path, ".tmp");
    let file = std::fs::File::create(&tmp)?;
    if let Some(KillPoint::DuringTempWrite(n)) = kill {
        // A mid-write crash: the stream dies at byte n, the torn temp file
        // stays on disk, and the pipeline never reaches the renames.
        let mut w = std::io::BufWriter::new(FaultyWriter::new(&file).fail_at_byte(n));
        // Either the injected fault fires (torn temp file) or `n` lies past
        // the end of the stream (complete temp file) — both are states a
        // kill leaves behind, and neither reaches the renames.
        let _ = save_index_to(index, &mut w).and_then(|()| Ok(w.flush()?));
        return Ok(());
    }
    let mut w = std::io::BufWriter::new(&file);
    save_index_to(index, &mut w)?;
    w.flush()?;
    drop(w);
    // The rename only publishes durable bytes: fsync before either rename.
    file.sync_all()?;
    drop(file);
    if kill == Some(KillPoint::BeforeBackupRename) {
        return Ok(());
    }
    if path.exists() {
        std::fs::rename(path, prev_path(path))?;
    }
    if kill == Some(KillPoint::BetweenRenames) {
        return Ok(());
    }
    std::fs::rename(&tmp, path)?;
    if kill == Some(KillPoint::BeforeDirSync) {
        return Ok(());
    }
    // Make the renames themselves durable. Best-effort: directory fsync is
    // not supported everywhere, and the snapshot is already valid without it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Opens and parses `<path>`; on any failure retries `<path>.prev` (the
/// previous generation left by [`save_index`]), warning on stderr. Returns
/// the primary error when both generations fail.
fn load_with_fallback<T>(
    path: &Path,
    parse: impl Fn(&mut dyn Read) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let _span = td_obs::PhaseTimer::observing(td_obs::metrics().snapshot_load_seconds.clone());
    let primary = std::fs::File::open(path)
        .map_err(StoreError::from)
        .and_then(|f| parse(&mut std::io::BufReader::new(f)));
    let err = match primary {
        Ok(value) => return Ok(value),
        Err(err) => err,
    };
    let prev = prev_path(path);
    let fallback = std::fs::File::open(&prev)
        .map_err(StoreError::from)
        .and_then(|f| parse(&mut std::io::BufReader::new(f)));
    match fallback {
        Ok(value) => {
            td_obs::metrics()
                .snapshot_fallback(err.variant_name())
                .inc();
            eprintln!(
                "td-api: snapshot {} unreadable ({err}); \
                 loaded previous generation {}",
                path.display(),
                prev.display()
            );
            Ok(value)
        }
        Err(_) => Err(err),
    }
}

/// Reads a TD-tree body (any selection strategy) and checks it against the
/// header's backend tag, so a TD-appro body cannot masquerade as a TD-H2H
/// full label or the other way round.
fn read_tree_body(mut r: &mut dyn Read, tag: BackendTag) -> Result<TdTreeIndex, StoreError> {
    let index = TdTreeIndex::read_from(&mut r)?;
    if tree_tag(&index) != tag {
        return Err(StoreError::invalid(
            "selection strategy disagrees with the header's backend tag",
        ));
    }
    Ok(index)
}

/// Loads an index snapshot from a stream, dispatching on the header's
/// backend tag. Returns the backend together with the reconstructed index.
pub fn load_index_from(
    mut r: &mut dyn Read,
) -> Result<(Backend, Box<dyn RoutingIndex>), StoreError> {
    let header = format::read_header(&mut r)?;
    let index: Box<dyn RoutingIndex> = match header.backend {
        tag
        @ (BackendTag::TdBasic | BackendTag::TdAppro | BackendTag::TdDp | BackendTag::TdH2h) => {
            Box::new(read_tree_body(&mut r, tag)?)
        }
        BackendTag::TdGtree => Box::new(TdGtree::read_from(&mut r)?),
        BackendTag::Dijkstra => Box::new(DijkstraOracle::read_from(&mut r)?),
        BackendTag::AStarCh => Box::new(crate::AStarChIndex::read_from(&mut r)?),
    };
    section::read_end(&mut r)?;
    Ok((Backend::from_snapshot_tag(header.backend), index))
}

/// Loads a `.tdx` snapshot from `path`, reconstructing whichever backend it
/// holds behind the uniform [`RoutingIndex`] trait. When `path` is missing,
/// truncated or corrupt, falls back to the `<path>.prev` previous
/// generation (see the module docs); errors only when both fail.
pub fn load_index(path: impl AsRef<Path>) -> Result<Box<dyn RoutingIndex>, StoreError> {
    load_with_fallback(path.as_ref(), |mut r| {
        load_index_from(&mut r).map(|(_, index)| index)
    })
}

/// Loads a TD-tree-family snapshot (`TD-basic` / `TD-appro` / `TD-dp` /
/// `TD-H2H`) as a concrete [`TdTreeIndex`] — the form [`crate::LiveIndex`]
/// needs (it requires `IncrementalIndex + Clone`, which the trait object
/// cannot provide). An index saved without support lists loads fine and
/// panics on its first `update_edges`, exactly like a freshly built one.
/// Falls back to `<path>.prev` like [`load_index`].
pub fn load_tree_index(path: impl AsRef<Path>) -> Result<TdTreeIndex, StoreError> {
    load_with_fallback(path.as_ref(), |mut f| {
        let header = format::read_header(&mut f)?;
        match header.backend {
            BackendTag::TdBasic | BackendTag::TdAppro | BackendTag::TdDp | BackendTag::TdH2h => {}
            other => {
                return Err(StoreError::invalid(format!(
                    "snapshot holds {other}, not a TD-tree-family index \
                     (TD-basic / TD-appro / TD-dp / TD-H2H)"
                )))
            }
        }
        let index = read_tree_body(&mut f, header.backend)?;
        section::read_end(&mut f)?;
        Ok(index)
    })
}

/// Loads a TD-A\*-CH snapshot as a concrete [`crate::AStarChIndex`] — for
/// callers that read its hierarchy (the suffix-window starts), which the
/// trait object does not expose. Falls back to `<path>.prev` like
/// [`load_index`].
pub fn load_astar_ch_index(path: impl AsRef<Path>) -> Result<crate::AStarChIndex, StoreError> {
    load_with_fallback(path.as_ref(), |mut f| {
        let header = format::read_header(&mut f)?;
        if header.backend != BackendTag::AStarCh {
            return Err(StoreError::invalid(format!(
                "snapshot holds {}, not a TD-A*-CH index",
                header.backend
            )));
        }
        let index = crate::AStarChIndex::read_from(&mut f)?;
        section::read_end(&mut f)?;
        Ok(index)
    })
}
