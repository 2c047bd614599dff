//! Failure injection: damaged on-disk artifacts must surface as typed
//! errors — never panics, never silently wrong exploration results.
//!
//! Hand-crafted corruption (byte flips, truncation, deleted files) covers
//! deterministic damage; the seeded [`FaultInjector`] covers probabilistic
//! read faults under its seed-replay contract.

use std::sync::Arc;

use uei::index::uei::UeiIndex;
use uei::prelude::*;
use uei::storage::fault::{FaultConfig, FaultInjector};
use uei::storage::store::ColumnStore;
use uei::storage::testutil::TempDir;
use uei::types::UeiError;

fn build_store(dir: &TempDir, rows: usize) -> Arc<ColumnStore> {
    let data = generate_sdss_like(&SynthConfig { rows, seed: 5, ..Default::default() });
    let tracker = DiskTracker::new(IoProfile::instant());
    Arc::new(
        ColumnStore::create(
            dir.path(),
            Schema::sdss(),
            &data,
            StoreConfig { chunk_target_bytes: 4096 },
            tracker,
        )
        .unwrap(),
    )
}

struct Anywhere;
impl uei::learn::Classifier for Anywhere {
    fn predict_proba(&self, _: &[f64]) -> f64 {
        0.5
    }
    fn dims(&self) -> usize {
        5
    }
}

#[test]
fn corrupt_chunk_file_yields_corrupt_error_not_panic() {
    let dir = TempDir::new("fail-chunk");
    let store = build_store(&dir, 2000);
    // Flip a byte in the middle of every chunk of dimension 0.
    for meta in &store.manifest().dims[0] {
        let path = dir.join(meta.id().file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
    }
    let mut index =
        UeiIndex::build(Arc::clone(&store), UeiConfig { cells_per_dim: 3, ..UeiConfig::default() })
            .unwrap();
    index.update_uncertainty(&Anywhere);
    match index.select_and_load() {
        Err(UeiError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn missing_chunk_file_yields_io_error() {
    let dir = TempDir::new("fail-missing");
    let store = build_store(&dir, 2000);
    for meta in &store.manifest().dims[2] {
        std::fs::remove_file(dir.join(meta.id().file_name())).unwrap();
    }
    let mut index =
        UeiIndex::build(Arc::clone(&store), UeiConfig { cells_per_dim: 3, ..UeiConfig::default() })
            .unwrap();
    index.update_uncertainty(&Anywhere);
    match index.select_and_load() {
        Err(UeiError::Io { .. }) => {}
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn truncated_rows_file_yields_error_on_fetch() {
    let dir = TempDir::new("fail-rows");
    let store = build_store(&dir, 2000);
    let rows_path = dir.join("rows.dat");
    let bytes = std::fs::read(&rows_path).unwrap();
    std::fs::write(&rows_path, &bytes[..bytes.len() / 2]).unwrap();
    // Rows in the surviving half still read; rows past the cut error.
    assert!(store.fetch_rows(&[0]).is_ok());
    match store.fetch_rows(&[1999]) {
        Err(UeiError::Io { .. }) => {}
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn tampered_manifest_rejected_at_open() {
    let dir = TempDir::new("fail-manifest");
    let _store = build_store(&dir, 500);
    let manifest_path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    // Invalidate a key range: make one chunk overlap its predecessor.
    let tampered = text.replacen("\"version\": 1", "\"version\": 9", 1);
    std::fs::write(&manifest_path, tampered).unwrap();
    let tracker = DiskTracker::new(IoProfile::instant());
    match ColumnStore::open(dir.path(), tracker) {
        Err(UeiError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {:?}", other.map(|s| s.num_rows())),
    }
}

#[test]
fn prefetcher_records_failure_and_foreground_still_errors_typed() {
    use uei::index::grid::Grid;
    use uei::index::mapping::ChunkMapping;
    use uei::index::prefetch::Prefetcher;

    let dir = TempDir::new("fail-prefetch");
    let store = build_store(&dir, 2000);
    let grid = Grid::new(store.schema(), 3).unwrap();
    let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();

    // Corrupt everything in dimension 1 so any region load fails.
    for meta in &store.manifest().dims[1] {
        let path = dir.join(meta.id().file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x55;
        std::fs::write(&path, bytes).unwrap();
    }

    // The worker reads through its own handle to the store, filling the
    // cache it would share with a foreground loader.
    let background = store.with_tracker(DiskTracker::new(IoProfile::instant()));
    let cache = uei::storage::SharedChunkCache::with_default_shards(1 << 20);
    let pre =
        Prefetcher::spawn(Arc::new(background), Arc::new(grid), Arc::new(mapping), Arc::new(cache))
            .unwrap();
    pre.request(0);
    // Wait for the worker to process and record the failure.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while pre.is_pending(0) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(pre.take(0).is_none(), "failed prefetch yields no data");
    let failure = pre.failure(0).expect("failure recorded");
    assert!(failure.contains("corrupt") || failure.contains("crc"), "{failure}");
}

#[test]
fn corrupt_dbms_page_detected_during_scan() {
    use uei::dbms::table::Table;

    let dir = TempDir::new("fail-dbmspage");
    let data = generate_sdss_like(&SynthConfig { rows: 2000, seed: 9, ..Default::default() });
    let tracker = DiskTracker::new(IoProfile::instant());
    let table = Table::create(dir.path(), Schema::sdss(), &data, &tracker).unwrap();
    // Flip a byte in the second page of the heap.
    let heap_path = dir.join("heap.db");
    let mut bytes = std::fs::read(&heap_path).unwrap();
    let offset = uei::dbms::page::PAGE_SIZE + 100;
    bytes[offset] ^= 0x01;
    std::fs::write(&heap_path, bytes).unwrap();

    let mut pool = BufferPool::new(4, tracker).unwrap();
    match table.scan(&mut pool, |_| {}) {
        Err(UeiError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Probabilistic read faults through the seeded injector: every failure is
/// a typed `Corrupt` or `Transient` (never a panic, never silently wrong
/// data), and the same seed replays the identical fault sequence.
#[test]
fn injected_read_faults_are_typed_and_replay_by_seed() {
    let dir = TempDir::new("fail-injected");
    let store = build_store(&dir, 2000);
    let faults =
        FaultConfig { seed: 0xD1CE, transient_prob: 0.2, corrupt_prob: 0.3, ..FaultConfig::off() };
    let metas: Vec<_> = store.manifest().dims.iter().flatten().map(|m| m.id()).collect();
    assert!(metas.len() >= 4);

    let run = || {
        let injector = FaultInjector::new(faults).unwrap();
        store.tracker().set_fault_injector(Some(injector.clone()));
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            for id in &metas {
                match store.read_chunk(*id) {
                    Ok(chunk) => {
                        // A read that "succeeds" must be the real chunk.
                        assert_eq!(chunk.id, *id);
                        outcomes.push(0u8);
                    }
                    Err(UeiError::Corrupt { .. }) => outcomes.push(1),
                    Err(UeiError::Transient { .. }) => outcomes.push(2),
                    Err(other) => panic!("untyped fault escaped: {other:?}"),
                }
            }
        }
        store.tracker().set_fault_injector(None);
        let stats = injector.stats();
        (outcomes, stats.transient_errors, stats.corruptions)
    };

    let first = run();
    let second = run();
    assert!(first.1 > 0 && first.2 > 0, "probabilities high enough to fire");
    assert_eq!(first, second, "same seed must replay the same fault sequence");
}
