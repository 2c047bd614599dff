//! End-to-end integration tests: full exploration sessions over both
//! storage schemes, exercising every crate of the workspace together.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use uei::dbms::table::Table;
use uei::prelude::*;
use uei::storage::store::ColumnStore;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uei-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(n: usize) -> Vec<uei::types::DataPoint> {
    generate_sdss_like(&SynthConfig { rows: n, seed: 1234, ..Default::default() })
}

fn make_oracle(rows: &[uei::types::DataPoint], fraction: f64, seed: u64) -> Oracle {
    let mut rng = Rng::new(seed);
    let target =
        generate_target_region_fraction(rows, &Schema::sdss(), fraction, &mut rng).unwrap();
    Oracle::new(target)
}

fn run_uei(
    dir: &Path,
    rows: &[uei::types::DataPoint],
    oracle: &Oracle,
    labels: usize,
) -> uei::explore::SessionResult {
    let store = Arc::new(
        ColumnStore::create(
            dir.join("store"),
            Schema::sdss(),
            rows,
            StoreConfig { chunk_target_bytes: 16 * 1024 },
            DiskTracker::new(IoProfile::nvme()),
        )
        .unwrap(),
    );
    let mut rng = Rng::new(9);
    let mut backend = UeiBackend::new(
        store,
        UeiConfig { cells_per_dim: 4, ..UeiConfig::default() },
        UncertaintyMeasure::LeastConfidence,
        600,
        &mut rng,
    )
    .unwrap();
    let config = SessionConfig { max_labels: labels, eval_sample: 1000, ..Default::default() };
    // The session runs on its own modeled clock; the store's tracker is
    // the engine's physical I/O ledger.
    let clock = backend.index().store().tracker().clone();
    ExplorationSession::new(&mut backend, oracle, config, clock).run().unwrap()
}

fn run_dbms(
    dir: &Path,
    rows: &[uei::types::DataPoint],
    oracle: &Oracle,
    labels: usize,
) -> uei::explore::SessionResult {
    let tracker = DiskTracker::new(IoProfile::nvme());
    let table =
        Table::create_padded(dir.join("table"), Schema::sdss(), rows, 4048, &tracker).unwrap();
    let pool_pages = ((table.size_bytes() / 100) as usize / uei::dbms::page::PAGE_SIZE).max(1);
    let pool = BufferPool::new(pool_pages, tracker.clone()).unwrap();
    let mut backend = DbmsBackend::with_pool(table, pool, UncertaintyMeasure::LeastConfidence);
    let config = SessionConfig { max_labels: labels, eval_sample: 1000, ..Default::default() };
    ExplorationSession::new(&mut backend, oracle, config, tracker).run().unwrap()
}

#[test]
fn both_schemes_learn_the_target_region() {
    let rows = dataset(8_000);
    let oracle = make_oracle(&rows, 0.02, 5);
    let dir = temp_dir("learn");

    let uei = run_uei(&dir, &rows, &oracle, 50);
    let dbms = run_dbms(&dir, &rows, &oracle, 50);

    assert!(uei.final_f_measure > 0.4, "UEI final F = {}", uei.final_f_measure);
    assert!(dbms.final_f_measure > 0.4, "DBMS final F = {}", dbms.final_f_measure);

    // Accuracy improves over the session: the late-stage estimate beats
    // the early-stage one for both schemes.
    for result in [&uei, &dbms] {
        let early: Vec<f64> = result.traces.iter().take(10).filter_map(|t| t.f_measure).collect();
        let late: Vec<f64> =
            result.traces.iter().rev().take(10).filter_map(|t| t.f_measure).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&late) > mean(&early),
            "{}: late {} <= early {}",
            result.backend,
            mean(&late),
            mean(&early)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uei_is_much_faster_per_iteration() {
    let rows = dataset(10_000);
    let oracle = make_oracle(&rows, 0.01, 7);
    let dir = temp_dir("speed");

    let uei = run_uei(&dir, &rows, &oracle, 25);
    let dbms = run_dbms(&dir, &rows, &oracle, 25);

    let mean =
        |r: &uei::explore::SessionResult| r.total_virtual_secs * 1e3 / r.traces.len().max(1) as f64;
    let (u, d) = (mean(&uei), mean(&dbms));
    assert!(
        d > 10.0 * u,
        "expected >10x per-iteration gap at this scale, got UEI {u:.3} ms vs DBMS {d:.3} ms"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schemes_never_present_duplicate_examples() {
    let rows = dataset(5_000);
    let oracle = make_oracle(&rows, 0.02, 11);
    let dir = temp_dir("dupes");
    for result in [run_uei(&dir, &rows, &oracle, 40), run_dbms(&dir, &rows, &oracle, 40)] {
        // labels_used counts distinct rows; LabeledSet rejects duplicates,
        // so reaching the requested count proves no example repeated.
        assert!(result.labels_used >= 35, "{}: {}", result.backend, result.labels_used);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_survives_reopen_between_sessions() {
    let rows = dataset(4_000);
    let dir = temp_dir("reopen");
    let tracker = DiskTracker::new(IoProfile::instant());
    ColumnStore::create(
        dir.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 16 * 1024 },
        tracker.clone(),
    )
    .unwrap();

    // Second session opens the existing store from disk — the
    // initialization phase runs once per dataset (paper §3.1).
    let store = Arc::new(ColumnStore::open(dir.join("store"), tracker.clone()).unwrap());
    let mut rng = Rng::new(3);
    let mut backend = UeiBackend::new(
        store,
        UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
        UncertaintyMeasure::LeastConfidence,
        300,
        &mut rng,
    )
    .unwrap();
    let oracle = make_oracle(&rows, 0.02, 13);
    let config = SessionConfig { max_labels: 15, eval_sample: 300, ..Default::default() };
    let clock = backend.index().store().tracker().clone();
    let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run().unwrap();
    assert!(result.labels_used >= 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetch_session_matches_unprefetched_results() {
    // The prefetcher is a pure latency optimization: it must not change
    // which regions get loaded or what the model learns.
    let rows = dataset(6_000);
    let oracle = make_oracle(&rows, 0.02, 17);
    let run = |prefetch: bool, tag: &str| {
        let dir = temp_dir(tag);
        let store = Arc::new(
            ColumnStore::create(
                dir.join("store"),
                Schema::sdss(),
                &rows,
                StoreConfig { chunk_target_bytes: 16 * 1024 },
                DiskTracker::new(IoProfile::instant()),
            )
            .unwrap(),
        );
        let mut rng = Rng::new(21);
        let mut backend = UeiBackend::new(
            store,
            UeiConfig { cells_per_dim: 3, prefetch, ..UeiConfig::default() },
            UncertaintyMeasure::LeastConfidence,
            400,
            &mut rng,
        )
        .unwrap();
        let config = SessionConfig { max_labels: 20, eval_sample: 400, ..Default::default() };
        let clock = backend.index().store().tracker().clone();
        let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        result
    };
    let plain = run(false, "nopre");
    let prefetched = run(true, "pre");
    assert_eq!(plain.labels_used, prefetched.labels_used);
    assert_eq!(plain.final_f_measure, prefetched.final_f_measure);
    // The sequence of labeled examples is identical.
    let ids = |r: &uei::explore::SessionResult| -> Vec<bool> {
        r.traces.iter().map(|t| t.label_positive).collect()
    };
    assert_eq!(ids(&plain), ids(&prefetched));
}
