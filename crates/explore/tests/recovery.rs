//! Crash-recovery pins (DESIGN.md §13).
//!
//! Two invariants:
//!
//! 1. **Kill-point matrix** — for a crash injected at *every* journal
//!    write boundary (before the write, mid-write torn, after the write),
//!    recovery yields a session whose traces are bit-identical (modeled
//!    fields) to an uninterrupted golden run: no acknowledged label is
//!    lost, no iteration diverges.
//! 2. **Panic isolation** — one panicking session in a concurrent
//!    4-session run never poisons its siblings: their traces stay
//!    bit-identical to solo runs, and the panicking session is either
//!    reported aborted or, when journaled, recovered and completed with
//!    the exact traces of an undisturbed run.

use std::path::Path;
use std::sync::Arc;

use uei_explore::backend::{ExplorationBackend, SelectionInfo, UeiBackend};
use uei_explore::multi::{
    run_one_session, run_sessions_supervised_with, summarize_outcomes, SessionSpec,
};
use uei_explore::oracle::Oracle;
use uei_explore::session::{ExplorationSession, IterationTrace, SessionConfig, SessionResult};
use uei_explore::synth::{generate_sdss_like, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_index::config::UeiConfig;
use uei_index::engine::EngineCore;
use uei_learn::dataset::LabeledSet;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::Classifier;
use uei_storage::fault::{FaultConfig, FaultInjector, KillMode};
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::journal::{FsyncPolicy, JournalConfig};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_types::{DataPoint, Result, Rng, RowId, Schema};

const SAMPLE_SEED: u64 = 77;
const GAMMA: usize = 150;

fn session_config() -> SessionConfig {
    SessionConfig {
        max_labels: 8,
        bootstrap_size: 100,
        eval_sample: 120,
        seed: 42,
        ..SessionConfig::default()
    }
}

/// Small segments force rotations and a tight snapshot cadence exercises
/// the snapshot publish/GC path inside the matrix.
fn journal_config() -> JournalConfig {
    JournalConfig { fsync: FsyncPolicy::Always, segment_bytes: 4096, snapshot_every: 3 }
}

fn fixture(rows: usize) -> (Vec<DataPoint>, Oracle) {
    let rows = generate_sdss_like(&SynthConfig { rows, ..Default::default() });
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    (rows, Oracle::new(target))
}

fn uei_config() -> UeiConfig {
    UeiConfig {
        cells_per_dim: 3,
        chunk_cache_bytes: 256 << 10,
        prefetch: false,
        journal: journal_config(),
        ..UeiConfig::default()
    }
}

/// A fresh backend over the shared store — same seeds every time, so every
/// run (golden, crashed, recovered) starts from an identical state.
fn fresh_backend(store: &Arc<ColumnStore>) -> UeiBackend {
    let mut rng = Rng::new(SAMPLE_SEED);
    UeiBackend::new(
        Arc::clone(store),
        uei_config(),
        UncertaintyMeasure::LeastConfidence,
        GAMMA,
        &mut rng,
    )
    .unwrap()
}

/// Everything in a trace except wall-clock time and the recovery marker,
/// both of which legitimately differ between a golden and a recovered run.
fn modeled_fields(t: &IterationTrace) -> impl std::fmt::Debug + PartialEq {
    (
        (
            t.iteration,
            t.labels,
            t.f_measure.map(f64::to_bits),
            t.response_virtual_ms.to_bits(),
            t.bytes_read,
            t.seeks,
            t.label_positive,
        ),
        (
            t.region_rows,
            t.prefetched,
            t.counters.cache_hits,
            t.counters.cache_misses,
            t.counters.cache_evictions,
            t.counters.cache_bypasses,
            t.counters.prefetch_bytes_read,
            t.counters.retries,
            t.counters.fallback_cells,
            t.counters.degraded,
            t.examined,
        ),
    )
}

fn assert_same_run(golden: &SessionResult, got: &SessionResult, context: &str) {
    assert_eq!(golden.labels_used, got.labels_used, "{context}: labels_used");
    assert_eq!(
        golden.final_f_measure.to_bits(),
        got.final_f_measure.to_bits(),
        "{context}: final F-measure"
    );
    assert_eq!(golden.traces.len(), got.traces.len(), "{context}: trace count");
    for (i, (a, b)) in golden.traces.iter().zip(&got.traces).enumerate() {
        assert_eq!(modeled_fields(a), modeled_fields(b), "{context}: iteration {i} diverged");
    }
}

#[test]
fn kill_point_matrix_recovers_bit_identically() {
    let (rows, oracle) = fixture(1500);
    let dir = uei_storage::TempDir::new("recovery-matrix");
    let injector = FaultInjector::new(FaultConfig { seed: 0xFEED, ..FaultConfig::off() }).unwrap();
    let store = Arc::new(
        ColumnStore::create(
            dir.path().join("store"),
            Schema::sdss(),
            &rows,
            StoreConfig { chunk_target_bytes: 8192 },
            DiskTracker::new(IoProfile::instant()),
        )
        .unwrap(),
    );
    // Journal writes (and so kill points) happen on the tracker the session
    // is driven with — each fresh backend's own modeled clock.
    let fresh = || {
        let backend = fresh_backend(&store);
        let clock = backend.index().store().tracker().clone();
        clock.set_fault_injector(Some(Arc::clone(&injector)));
        (backend, clock)
    };

    let run_journaled = |journal_dir: &Path| -> Result<SessionResult> {
        let (mut backend, clock) = fresh();
        let mut session = ExplorationSession::new(&mut backend, &oracle, session_config(), clock);
        session.attach_journal(journal_dir, journal_config())?;
        session.run()
    };
    let recover_journaled = |journal_dir: &Path| -> Result<SessionResult> {
        let (mut backend, clock) = fresh();
        let (session, state) = ExplorationSession::recover(
            &mut backend,
            &oracle,
            session_config(),
            clock,
            journal_dir,
            journal_config(),
        )?;
        session.run_from(state)
    };

    // Baseline without a journal: journaling must not perturb the traces.
    let plain = {
        let (mut backend, clock) = fresh();
        ExplorationSession::new(&mut backend, &oracle, session_config(), clock).run().unwrap()
    };

    // Golden journaled run; count its journal write operations.
    let writes_before = injector.stats().writes_seen;
    let golden = run_journaled(&dir.path().join("golden")).unwrap();
    let golden_writes = injector.stats().writes_seen - writes_before;
    assert_same_run(&plain, &golden, "journaled vs plain");
    assert!(
        golden_writes >= session_config().max_labels as u64 + 4,
        "expected appends + rotations + snapshots, saw {golden_writes} journal writes"
    );

    // The matrix: crash at every write boundary of every journal op, then
    // recover and run to completion. Every cell must reproduce the golden
    // run bit-for-bit (modeled fields).
    let mut kills = 0u64;
    for op in 0..golden_writes {
        for mode in [KillMode::BeforeWrite, KillMode::Torn, KillMode::AfterWrite] {
            let journal_dir = dir.path().join(format!("kill-{op}-{mode:?}"));
            injector.arm_journal_kill(injector.stats().writes_seen + op, mode);
            let crashed = run_journaled(&journal_dir);
            assert!(crashed.is_err(), "kill at op {op} ({mode:?}) did not surface as an error");
            assert!(injector.armed_journal_kill().is_none(), "kill must be consumed");
            kills += 1;

            let recovered = recover_journaled(&journal_dir)
                .unwrap_or_else(|e| panic!("recovery after op {op} ({mode:?}) failed: {e}"));
            assert_same_run(&golden, &recovered, &format!("kill at op {op} ({mode:?})"));
        }
    }
    assert_eq!(injector.stats().kills_fired, kills);
}

/// Wraps a backend and panics on the N-th selection — the fault the
/// supervisor must contain.
struct PanicAfter {
    inner: UeiBackend,
    selections_left: usize,
}

impl ExplorationBackend for PanicAfter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn num_rows(&self) -> u64 {
        self.inner.num_rows()
    }
    fn sample_rows(&mut self, k: usize, rng: &mut Rng) -> Result<Vec<DataPoint>> {
        self.inner.sample_rows(k, rng)
    }
    fn fetch_rows(&mut self, ids: &[u64]) -> Result<Vec<DataPoint>> {
        self.inner.fetch_rows(ids)
    }
    fn select_next(
        &mut self,
        model: &dyn Classifier,
        labeled: &LabeledSet,
    ) -> Result<Option<(DataPoint, SelectionInfo)>> {
        if self.selections_left == 0 {
            panic!("injected backend panic");
        }
        self.selections_left -= 1;
        self.inner.select_next(model, labeled)
    }
    fn mark_labeled(&mut self, id: RowId) {
        self.inner.mark_labeled(id);
    }
    fn retrieve_results(&mut self, model: &dyn Classifier) -> Result<Vec<u64>> {
        self.inner.retrieve_results(model)
    }
}

fn build_engine(dir: &Path, rows: &[DataPoint]) -> EngineCore {
    let tracker = DiskTracker::new(IoProfile::instant());
    let store = ColumnStore::create(
        dir.to_path_buf(),
        Schema::sdss(),
        rows,
        StoreConfig { chunk_target_bytes: 8192 },
        tracker,
    )
    .unwrap();
    EngineCore::new(Arc::new(store), uei_config()).unwrap()
}

fn specs(journal_root: Option<&Path>) -> Vec<SessionSpec> {
    (0..4u64)
        .map(|i| SessionSpec {
            session: SessionConfig {
                max_labels: 8,
                bootstrap_size: 100,
                eval_sample: 120,
                seed: 1000 + i,
                ..SessionConfig::default()
            },
            sample_seed: 2000 + i,
            gamma: 150,
            journal_dir: journal_root.map(|r| r.join(format!("session-{i}"))),
            postmortem_dir: None,
        })
        .collect()
}

const PANICKING_SESSION: usize = 2;

/// Runs `spec` with a backend that panics on its 4th selection; the other
/// specs run normally. Identifies the victim by its session seed.
fn panicking_runner(
    engine: &EngineCore,
    oracle: &Oracle,
    spec: &SessionSpec,
) -> Result<SessionResult> {
    if spec.session.seed != 1000 + PANICKING_SESSION as u64 {
        return run_one_session(engine, oracle, spec);
    }
    let mut rng = Rng::new(spec.sample_seed);
    let inner = UeiBackend::from_engine(engine, spec.gamma, &mut rng)?;
    let tracker = inner.index().store().tracker().clone();
    let mut backend = PanicAfter { inner, selections_left: 4 };
    let mut session = ExplorationSession::new(&mut backend, oracle, spec.session.clone(), tracker);
    if let Some(dir) = &spec.journal_dir {
        session.attach_journal(dir, engine.config().journal)?;
    }
    session.run()
}

#[test]
fn panicking_session_is_isolated_and_reported_aborted() {
    let (rows, oracle) = fixture(2000);
    let dir = uei_storage::TempDir::new("panic-isolation");
    let engine = build_engine(&dir.path().join("store"), &rows);
    let specs = specs(None);

    // Solo baselines on a separate engine (no shared-state help).
    let solo_engine = build_engine(&dir.path().join("solo"), &rows);
    let solo: Vec<SessionResult> =
        specs.iter().map(|s| run_one_session(&solo_engine, &oracle, s).unwrap()).collect();

    let outcomes = run_sessions_supervised_with(&engine, &oracle, &specs, &panicking_runner);
    assert_eq!(outcomes.len(), 4);
    for (i, outcome) in outcomes.iter().enumerate() {
        if i == PANICKING_SESSION {
            assert!(outcome.aborted, "panicked session without a journal must abort");
            assert!(outcome.result.is_none());
            assert!(
                outcome.error.as_deref().unwrap_or("").contains("injected backend panic"),
                "abort reason names the panic: {:?}",
                outcome.error
            );
        } else {
            let result = outcome.result.as_ref().expect("sibling completed");
            assert!(!outcome.aborted && !outcome.recovered);
            assert_same_run(&solo[i], result, &format!("sibling session {i}"));
        }
    }

    let summary = summarize_outcomes(&outcomes);
    assert_eq!(summary.aborted_runs, 1);
    assert_eq!(summary.recovered_runs, 0);
    assert_eq!(summary.runs, 3);
}

#[test]
fn panicking_session_with_journal_is_recovered_to_completion() {
    let (rows, oracle) = fixture(2000);
    let dir = uei_storage::TempDir::new("panic-recovery");
    let journal_root = dir.path().join("journals");
    let engine = build_engine(&dir.path().join("store"), &rows);
    let specs = specs(Some(&journal_root));

    // Solo baseline for the victim (journaled, undisturbed).
    let solo_engine = build_engine(&dir.path().join("solo"), &rows);
    let mut solo_spec = specs[PANICKING_SESSION].clone();
    solo_spec.journal_dir = Some(dir.path().join("solo-journal"));
    let solo = run_one_session(&solo_engine, &oracle, &solo_spec).unwrap();

    let outcomes = run_sessions_supervised_with(&engine, &oracle, &specs, &panicking_runner);
    let victim = &outcomes[PANICKING_SESSION];
    assert!(victim.recovered, "journaled session must be recovered, not aborted");
    assert!(!victim.aborted);
    let result = victim.result.as_ref().expect("recovered to completion");
    assert_same_run(&solo, result, "recovered session vs solo");

    // The journal replay preserved pre-crash traces verbatim and stamped
    // only post-recovery iterations.
    assert!(result.traces.iter().take(3).all(|t| !t.recovered), "replayed traces keep false");
    assert!(result.traces.iter().skip(3).any(|t| t.recovered), "continuation is stamped");

    let summary = summarize_outcomes(&outcomes);
    assert_eq!(summary.aborted_runs, 0);
    assert_eq!(summary.recovered_runs, 1);
    assert_eq!(summary.runs, 4);
}
