//! Acceptance test for the storage fault-tolerance subsystem: with the
//! injector firing on 10 % of chunk reads (transient) and corrupting 1 %,
//! a 50-iteration synthetic exploration session must complete every
//! iteration — zero aborts — absorbing faults through loader retries, the
//! candidate fallback ladder, and (when every candidate fails) pool-served
//! degraded iterations.
//!
//! Read faults attach where chunk reads physically happen: the tracker of
//! the store the engine was built over (its I/O ledger). The session is
//! driven on its own modeled clock, `backend.index().store().tracker()`.

use std::sync::Arc;

use uei_explore::backend::UeiBackend;
use uei_explore::multi::{run_sessions_concurrently, SessionSpec};
use uei_explore::oracle::Oracle;
use uei_explore::session::{ExplorationSession, SessionConfig};
use uei_explore::synth::{generate_sdss_like, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_index::config::UeiConfig;
use uei_index::engine::EngineCore;
use uei_learn::strategy::UncertaintyMeasure;
use uei_storage::fault::{FaultConfig, FaultInjector};
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_storage::TempDir;
use uei_types::{DataPoint, Rng, Schema};

/// `n` synthetic rows, the simulated user for a 2 % target region, and a
/// fresh store of them under `dir` (its tracker becomes the physical
/// ledger of whatever engine is built over it).
fn fixture(dir: &TempDir, n: usize, chunk_bytes: usize) -> (Vec<DataPoint>, Oracle, ColumnStore) {
    let rows = generate_sdss_like(&SynthConfig { rows: n, ..Default::default() });
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let store = ColumnStore::create(
        dir.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: chunk_bytes },
        DiskTracker::new(IoProfile::instant()),
    )
    .unwrap();
    (rows, Oracle::new(target), store)
}

#[test]
fn fifty_iterations_survive_transient_and_corrupt_faults() {
    let dir = TempDir::new("fault-session");
    let (_, oracle, store) = fixture(&dir, 6000, 2048);
    let tracker = store.tracker().clone();
    let mut backend_rng = Rng::new(1);
    let mut backend = UeiBackend::new(
        Arc::new(store),
        UeiConfig {
            cells_per_dim: 3,
            // No chunk cache and no prefetcher: every region load pays real
            // reads through the injector, the hardest configuration.
            chunk_cache_bytes: 0,
            prefetch: false,
            ..UeiConfig::default()
        },
        UncertaintyMeasure::LeastConfidence,
        300,
        &mut backend_rng,
    )
    .unwrap();

    let injector = FaultInjector::new(FaultConfig {
        seed: 77,
        transient_prob: 0.10,
        corrupt_prob: 0.01,
        ..FaultConfig::off()
    })
    .unwrap();
    tracker.set_fault_injector(Some(Arc::clone(&injector)));

    let config = SessionConfig {
        max_labels: 52, // 2 bootstrap labels + 50 iterations
        bootstrap_size: 200,
        eval_sample: 300,
        ..SessionConfig::default()
    };
    let clock = backend.index().store().tracker().clone();
    let result = ExplorationSession::new(&mut backend, &oracle, config, clock)
        .run()
        .expect("session must complete despite injected faults");

    assert_eq!(result.traces.len(), 50, "zero aborted iterations");
    assert_eq!(result.labels_used, 52);

    let stats = injector.stats();
    assert!(stats.transient_errors > 0, "injector fired transients: {stats:?}");
    assert!(stats.corruptions > 0, "injector corrupted payloads: {stats:?}");

    let retries: u64 = result.traces.iter().map(|t| t.counters.retries).sum();
    let fallbacks: u64 = result.traces.iter().map(|t| t.counters.fallback_cells).sum();
    let degraded = result.traces.iter().filter(|t| t.counters.degraded).count();
    assert!(retries > 0, "some transient faults were absorbed by retries");
    assert!(fallbacks > 0, "some iterations fell through to lower-ranked cells");
    assert!(degraded > 0, "at least one iteration was served from the pool");

    // Degraded iterations still produced labels and traces like any other.
    for t in &result.traces {
        if t.counters.degraded {
            assert!(t.region_rows.is_none(), "no region was loaded when degraded");
        } else {
            assert!(t.region_rows.is_some());
        }
    }
}

#[test]
fn clean_session_reports_zero_fault_counters() {
    let dir = TempDir::new("clean-session");
    let (_, oracle, store) = fixture(&dir, 3000, 4096);
    let mut backend_rng = Rng::new(2);
    let mut backend = UeiBackend::new(
        Arc::new(store),
        UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
        UncertaintyMeasure::LeastConfidence,
        200,
        &mut backend_rng,
    )
    .unwrap();
    let config = SessionConfig {
        max_labels: 12,
        bootstrap_size: 150,
        eval_sample: 200,
        ..SessionConfig::default()
    };
    let clock = backend.index().store().tracker().clone();
    let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run().unwrap();
    assert!(result.traces.iter().all(|t| t.counters.retries == 0));
    assert!(result.traces.iter().all(|t| t.counters.fallback_cells == 0));
    assert!(result.traces.iter().all(|t| !t.counters.degraded));
}

/// The same fault mix through the path every benchmark workload runs: two
/// concurrent sessions over one `EngineCore`, injector on the engine's I/O
/// ledger. A failed physical read reaches the requesting session as a typed
/// error through the shared cache (failures are never cached, single-flight
/// waiters retry for themselves) and is absorbed by *that session's* retry
/// policy and fallback ladder.
#[test]
fn concurrent_engine_sessions_survive_faults_on_the_io_ledger() {
    let dir = TempDir::new("fault-engine");
    let (rows, oracle, store) = fixture(&dir, 6000, 2048);
    let engine = EngineCore::new(
        Arc::new(store),
        // A cache far smaller than the store: most loads still read
        // physically, and what is admitted is shared between the sessions.
        UeiConfig { cells_per_dim: 3, chunk_cache_bytes: 64 << 10, ..UeiConfig::default() },
    )
    .unwrap();
    let injector = FaultInjector::new(FaultConfig {
        seed: 77,
        transient_prob: 0.10,
        corrupt_prob: 0.01,
        ..FaultConfig::off()
    })
    .unwrap();
    engine.io_ledger().set_fault_injector(Some(Arc::clone(&injector)));

    let specs: Vec<SessionSpec> = (0..2u64)
        .map(|i| SessionSpec {
            session: SessionConfig {
                max_labels: 42, // 2 bootstrap labels + 40 iterations
                bootstrap_size: 200,
                eval_sample: 0,
                seed: 500 + i,
                ..SessionConfig::default()
            },
            sample_seed: 600 + i,
            gamma: 300,
            journal_dir: None,
            postmortem_dir: None,
        })
        .collect();
    // An untyped error anywhere would abort its session and fail this call;
    // storage faults are absorbed (retry → fallback → pool-served).
    let results = run_sessions_concurrently(&engine, &oracle, &specs)
        .expect("both sessions must complete despite injected faults");
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.traces.len(), 40, "session {i}: zero aborted iterations");
    }
    let stats = injector.stats();
    assert!(stats.transient_errors > 0 && stats.corruptions > 0, "injector fired: {stats:?}");
    let retries: u64 = results.iter().flat_map(|r| &r.traces).map(|t| t.counters.retries).sum();
    assert!(retries > 0, "transient faults on the ledger were retried by the sessions");

    // Nothing that failed was cached: a read that fails for one session
    // leaves the shared cache untouched, and the other session then reads
    // the very same chunks cleanly.
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    engine.shared_cache().clear();
    let always = FaultConfig { seed: 1, transient_prob: 1.0, ..FaultConfig::off() };
    engine.io_ledger().set_fault_injector(Some(FaultInjector::new(always).unwrap()));
    let err = a.load_cell(0).unwrap_err();
    assert!(err.is_storage_fault(), "typed error expected, got {err}");
    assert!(engine.shared_cache().is_empty(), "a failed read must not be admitted");
    engine.io_ledger().set_fault_injector(None);
    let (loaded, _) = b.load_cell(0).unwrap();
    let region = b.grid().cell_region(0).unwrap();
    let expected: Vec<u64> = rows
        .iter()
        .filter(|p| region.contains(&p.values).unwrap())
        .map(|p| p.id.as_u64())
        .collect();
    assert_eq!(loaded.iter().map(|p| p.id.as_u64()).collect::<Vec<_>>(), expected);
}
