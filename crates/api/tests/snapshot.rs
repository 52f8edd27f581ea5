//! Snapshot persistence: file-level round trips, build-or-load caching,
//! and a deterministic byte-mangling pass over a real snapshot proving
//! that corrupt, truncated or mismatched input always surfaces as a typed
//! [`StoreError`] — never a panic, never a silently wrong index.

use td_api::{
    build_index, load_index, load_index_from, load_tree_index, save_index, save_index_to, Backend,
    IndexConfig, RoutingIndex, StoreError,
};
use td_gen::random_graph::seeded_graph;
use td_graph::TdGraph;

fn small_graph() -> TdGraph {
    seeded_graph(21, 40, 25, 3)
}

fn cfg() -> IndexConfig {
    IndexConfig {
        budget: 1_500,
        max_leaf: 8,
        threads: 1,
        ..Default::default()
    }
}

/// A fresh TD-appro snapshot as bytes.
fn snapshot_bytes(backend: Backend) -> Vec<u8> {
    let index = build_index(small_graph(), backend, &cfg());
    let mut buf = Vec::new();
    save_index_to(index.as_ref(), &mut buf).expect("save");
    buf
}

/// Unique scratch path inside the target-adjacent temp dir.
fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("td-road-snapshot-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.tdx", std::process::id()))
}

#[test]
fn every_backend_round_trips_through_a_file() {
    for backend in Backend::ALL {
        let index = build_index(small_graph(), backend, &cfg());
        let path = temp_path(&format!("roundtrip-{backend}"));
        save_index(index.as_ref(), &path).expect("save file");
        let loaded = load_index(&path).expect("load file");
        assert_eq!(loaded.backend_name(), index.backend_name());
        for (s, d, t) in [(0u32, 39u32, 100.0), (5, 17, 40_000.0), (30, 2, 80_000.0)] {
            assert_eq!(
                index.query_cost(s, d, t).map(f64::to_bits),
                loaded.query_cost(s, d, t).map(f64::to_bits),
                "{backend} s={s} d={d}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn build_index_build_or_load_uses_the_snapshot() {
    let path = temp_path("build-or-load");
    std::fs::remove_file(&path).ok();
    let cfg = IndexConfig {
        snapshot_path: Some(path.clone()),
        ..cfg()
    };
    // First call builds and saves.
    let first = build_index(small_graph(), Backend::TdAppro, &cfg);
    assert!(path.exists(), "first build must write the snapshot");
    // Second call must *load*: pass a same-shape graph with a changed
    // weight and observe the snapshot's answers, not the new weight's
    // (the cache carries its own graph).
    let mut modified = small_graph();
    let e = modified.edges()[0].clone();
    modified
        .set_weight(0, td_plf::Plf::constant(e.weight.eval(0.0) + 5_000.0))
        .expect("valid weight");
    let second = build_index(modified, Backend::TdAppro, &cfg);
    for (s, d, t) in [(0u32, 39u32, 100.0), (7, 31, 50_000.0)] {
        assert_eq!(
            first.query_cost(s, d, t).map(f64::to_bits),
            second.query_cost(s, d, t).map(f64::to_bits),
            "second call did not serve from the snapshot"
        );
    }
    // A graph of a different *shape* is a stale cache entry: the call must
    // rebuild over the new graph instead of serving the old one.
    let bigger = seeded_graph(99, 55, 30, 3);
    let third = build_index(bigger, Backend::TdAppro, &cfg);
    assert_eq!(
        third.graph().num_vertices(),
        55,
        "stale-shape snapshot must be rebuilt"
    );
    // A different backend must NOT be served from this snapshot.
    let gtree = build_index(small_graph(), Backend::TdGtree, &cfg);
    assert_eq!(gtree.backend_name(), "TD-G-tree");
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_tree_index_accepts_tree_family_only() {
    let path = temp_path("tree-only");
    let tree = build_index(small_graph(), Backend::TdAppro, &cfg());
    save_index(tree.as_ref(), &path).expect("save");
    let loaded = load_tree_index(&path).expect("tree family loads");
    assert_eq!(
        loaded.query_cost(0, 39, 100.0),
        tree.query_cost(0, 39, 100.0)
    );

    let gtree = build_index(small_graph(), Backend::TdGtree, &cfg());
    save_index(gtree.as_ref(), &path).expect("save");
    // Saving the G-tree demoted the TD-appro snapshot to `<path>.prev`, so
    // the wrong-backend primary falls back to that previous generation.
    let fallback = load_tree_index(&path).expect("previous generation serves");
    assert_eq!(
        fallback.query_cost(0, 39, 100.0),
        tree.query_cost(0, 39, 100.0)
    );
    // With no previous generation, the mismatch is a typed error.
    let mut prev = path.clone().into_os_string();
    prev.push(".prev");
    std::fs::remove_file(&prev).expect("previous generation exists");
    match load_tree_index(&path) {
        Err(StoreError::Invalid(msg)) => {
            assert!(msg.contains("TD-tree-family"), "unhelpful error: {msg}")
        }
        Err(other) => panic!("expected a tree-family error, got {other:?}"),
        Ok(_) => panic!("a TD-G-tree snapshot must not load as a tree index"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn td_h2h_built_with_supports_loads_as_an_updatable_tree_index() {
    let path = temp_path("h2h-updatable");
    let cfg = IndexConfig {
        track_supports: true,
        ..cfg()
    };
    let built = build_index(small_graph(), Backend::TdH2h, &cfg);
    save_index(built.as_ref(), &path).expect("save");
    let mut loaded = load_tree_index(&path).expect("TD-H2H is a tree-family index");
    let pairs = loaded.shortcuts().num_pairs();

    let mut updated_graph = small_graph();
    let e = updated_graph.edges()[0].clone();
    let w = td_plf::Plf::constant(e.weight.eval(0.0) + 500.0);
    updated_graph
        .set_weight(0, w.clone())
        .expect("valid weight");
    loaded.update_edges(&[(e.from, e.to, w)]);
    // The full label is repaired in full, and to the fresh build's answers.
    assert_eq!(loaded.shortcuts().num_pairs(), pairs);
    let fresh = build_index(updated_graph, Backend::TdH2h, &cfg);
    for (s, d, t) in [(0u32, 39u32, 100.0), (5, 17, 40_000.0), (30, 2, 80_000.0)] {
        match (loaded.query_cost(s, d, t), fresh.query_cost(s, d, t)) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5, "s={s} d={d}: {a} vs {b}"),
            (a, b) => assert_eq!(a, b, "s={s} d={d}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_magic_version_and_backend_are_typed_errors() {
    let buf = snapshot_bytes(Backend::TdAppro);

    let mut bad = buf.clone();
    bad[0] = b'X';
    assert!(matches!(
        load_index_from(&mut bad.as_slice()),
        Err(StoreError::BadMagic)
    ));

    let mut bad = buf.clone();
    bad[8] = 0xFE; // format version
    assert!(matches!(
        load_index_from(&mut bad.as_slice()),
        Err(StoreError::UnsupportedVersion(_))
    ));

    // Earlier format versions are refused outright, not migrated.
    for old in [1, 2] {
        let mut bad = buf.clone();
        bad[8] = old;
        assert!(matches!(
            load_index_from(&mut bad.as_slice()),
            Err(StoreError::UnsupportedVersion(v)) if v == u32::from(old)
        ));
    }

    let mut bad = buf.clone();
    bad[12] ^= 0xFF; // endianness marker
    assert!(matches!(
        load_index_from(&mut bad.as_slice()),
        Err(StoreError::BadEndianness)
    ));

    let mut bad = buf.clone();
    bad[16] = 0xEE; // unknown backend tag
    assert!(matches!(
        load_index_from(&mut bad.as_slice()),
        Err(StoreError::UnknownBackend(_))
    ));

    // A *valid but different* backend tag: the body no longer matches the
    // promised schema — rejected, not misinterpreted.
    let mut bad = buf.clone();
    bad[16] = 5; // claim TD-G-tree over a TD-appro body
    assert!(load_index_from(&mut bad.as_slice()).is_err());

    // TD-H2H shares the TD-tree body schema, so there the body *parses*:
    // a TD-appro selection must still not masquerade as the full label.
    let mut bad = buf.clone();
    bad[16] = 4; // claim TD-H2H over a TD-appro body
    match load_index_from(&mut bad.as_slice()) {
        Err(StoreError::Invalid(msg)) => assert!(
            msg.contains("selection strategy disagrees"),
            "unhelpful error: {msg}"
        ),
        Err(other) => panic!("expected a strategy mismatch, got {other:?}"),
        Ok(_) => panic!("a TD-appro body loaded under the TD-H2H tag"),
    }
}

#[test]
fn every_truncation_is_rejected() {
    let buf = snapshot_bytes(Backend::TdAppro);
    // Every strict prefix must fail with a typed error (no panic, no Ok).
    for cut in (0..buf.len()).step_by(257).chain([buf.len() - 1]) {
        match load_index_from(&mut &buf[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncation at {cut}/{} loaded successfully", buf.len()),
        }
    }
}

#[test]
fn deterministic_bit_flips_never_panic_and_never_load_silently() {
    // Flip one bit at a deterministic sweep of positions over a real
    // snapshot. Every mangled stream must be rejected: payload flips by the
    // per-section CRC, header/structure flips by their own typed checks.
    let buf = snapshot_bytes(Backend::TdAppro);
    let step = (buf.len() / 64).max(1);
    for pos in (0..buf.len()).step_by(step) {
        for bit in [0u8, 4, 7] {
            let mut bad = buf.clone();
            bad[pos] ^= 1 << bit;
            if bad == buf {
                continue;
            }
            match load_index_from(&mut bad.as_slice()) {
                Err(_) => {}
                Ok(_) => panic!("bit flip at byte {pos} bit {bit} was not detected"),
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut buf = snapshot_bytes(Backend::TdAppro);
    buf.extend_from_slice(b"junk");
    assert!(matches!(
        load_index_from(&mut buf.as_slice()),
        Err(StoreError::TrailingData)
    ));
}
