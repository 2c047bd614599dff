//! Acceptance tests for the telemetry subsystem (DESIGN.md §15):
//!
//! 1. Telemetry is *observational*: a fixed-seed session produces
//!    bit-identical modeled traces whether telemetry is off (the default)
//!    or on — only the observational fields (`phase_ms`) differ.
//! 2. An enabled session reports every one of the seven instrumented
//!    phases, in both the per-trace breakdown and the engine exporters.
//! 3. The supervisor dumps a flight-recorder postmortem when a session
//!    panics and when a run completes degraded, and the dump survives a
//!    serde round trip.

use std::sync::Arc;

use uei_explore::backend::UeiBackend;
use uei_explore::multi::{run_one_session, run_sessions_supervised_with, SessionSpec};
use uei_explore::oracle::Oracle;
use uei_explore::session::{ExplorationSession, SessionConfig, SessionResult};
use uei_explore::synth::{generate_sdss_like, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_index::config::UeiConfig;
use uei_index::engine::EngineCore;
use uei_learn::strategy::UncertaintyMeasure;
use uei_obs::{ObsCounters, Phase, Postmortem, TelemetryConfig};
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_storage::TempDir;
use uei_types::{DataPoint, Rng, Schema};

fn oracle_for(rows: &[DataPoint]) -> Oracle {
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    Oracle::new(target)
}

/// Runs a fixed-seed single-analyst session with the given telemetry
/// config and returns its result.
fn run_fixed_session(tag: &str, telemetry: TelemetryConfig) -> SessionResult {
    let dir = TempDir::new(&format!("telemetry-{tag}"));
    let rows = generate_sdss_like(&SynthConfig { rows: 3000, ..Default::default() });
    let oracle = oracle_for(&rows);

    let store = ColumnStore::create(
        dir.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 8192 },
        DiskTracker::new(IoProfile::instant()),
    )
    .unwrap();
    let mut backend_rng = Rng::new(1);
    let mut backend = UeiBackend::new(
        Arc::new(store),
        UeiConfig { cells_per_dim: 3, telemetry, ..UeiConfig::default() },
        UncertaintyMeasure::LeastConfidence,
        250,
        &mut backend_rng,
    )
    .unwrap();
    let config = SessionConfig {
        max_labels: 14,
        bootstrap_size: 150,
        eval_sample: 200,
        ..SessionConfig::default()
    };
    let clock = backend.index().store().tracker().clone();
    ExplorationSession::new(&mut backend, &oracle, config, clock).run().unwrap()
}

/// Everything modeled about one iteration — every field that must not move
/// when telemetry is switched on. Wall-clock fields and `phase_ms` are the
/// only legitimate differences between the two runs.
type ModeledIteration = (usize, usize, Option<u64>, bool, Option<usize>, u64, u64, ObsCounters);

fn modeled_fingerprint(r: &SessionResult) -> Vec<ModeledIteration> {
    r.traces
        .iter()
        .map(|t| {
            (
                t.iteration,
                t.labels,
                t.f_measure.map(f64::to_bits),
                t.label_positive,
                t.region_rows,
                t.response_virtual_ms.to_bits(),
                t.bytes_read,
                t.counters,
            )
        })
        .collect()
}

#[test]
fn telemetry_on_and_off_produce_identical_modeled_traces() {
    let off = run_fixed_session("off", TelemetryConfig::default());
    let on = run_fixed_session("on", TelemetryConfig::on());

    assert_eq!(
        modeled_fingerprint(&off),
        modeled_fingerprint(&on),
        "telemetry must be purely observational: modeled traces diverged"
    );
    assert!(off.traces.iter().all(|t| t.phase_ms.is_empty()), "disabled telemetry records nothing");
    assert!(
        on.traces.iter().all(|t| !t.phase_ms.is_empty()),
        "enabled telemetry must attach a phase breakdown to every trace"
    );
}

#[test]
fn enabled_engine_session_reports_all_seven_phases() {
    let dir = TempDir::new("telemetry-phases");
    let rows = generate_sdss_like(&SynthConfig { rows: 2500, ..Default::default() });
    let oracle = oracle_for(&rows);

    let tracker = DiskTracker::new(IoProfile::instant());
    let store = ColumnStore::create(
        dir.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 8192 },
        tracker,
    )
    .unwrap();
    let engine = EngineCore::new(
        Arc::new(store),
        UeiConfig { cells_per_dim: 3, telemetry: TelemetryConfig::on(), ..UeiConfig::default() },
    )
    .unwrap();

    // Journaling makes the seventh phase (journal_append) fire.
    let spec = SessionSpec {
        session: SessionConfig {
            max_labels: 10,
            bootstrap_size: 120,
            eval_sample: 150,
            seed: 42,
            ..SessionConfig::default()
        },
        sample_seed: 7,
        gamma: 200,
        journal_dir: Some(dir.join("journal")),
        postmortem_dir: None,
    };
    let result = run_one_session(&engine, &oracle, &spec).unwrap();

    let mut seen: Vec<String> =
        result.traces.iter().flat_map(|t| t.phase_ms.iter().map(|p| p.phase.clone())).collect();
    seen.sort();
    seen.dedup();
    for phase in Phase::ALL {
        assert!(
            seen.iter().any(|s| s == phase.name()),
            "phase {} missing from trace breakdowns (saw {seen:?})",
            phase.name()
        );
    }

    // Both exporters carry one histogram pair per phase.
    let prom = engine.telemetry().to_prometheus();
    let snapshot = engine.telemetry().snapshot();
    for phase in Phase::ALL {
        let wall = format!("uei_phase_wall_us_{}", phase.name());
        let virt = format!("uei_phase_virtual_us_{}", phase.name());
        assert!(prom.contains(&wall), "prometheus export missing {wall}");
        assert!(prom.contains(&virt), "prometheus export missing {virt}");
        assert!(
            snapshot.histograms.iter().any(|h| h.name == wall && h.count > 0),
            "snapshot missing a populated {wall}"
        );
    }
}

fn small_engine(dir: &TempDir) -> (EngineCore, Oracle) {
    let rows = generate_sdss_like(&SynthConfig { rows: 1500, ..Default::default() });
    let oracle = oracle_for(&rows);
    let tracker = DiskTracker::new(IoProfile::instant());
    let store = ColumnStore::create(
        dir.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 8192 },
        tracker,
    )
    .unwrap();
    let engine = EngineCore::new(
        Arc::new(store),
        UeiConfig { cells_per_dim: 3, telemetry: TelemetryConfig::on(), ..UeiConfig::default() },
    )
    .unwrap();
    (engine, oracle)
}

fn spec_with_postmortems(dir: &TempDir, seed: u64) -> SessionSpec {
    SessionSpec {
        session: SessionConfig { max_labels: 6, seed, ..SessionConfig::default() },
        sample_seed: seed,
        gamma: 100,
        journal_dir: None,
        postmortem_dir: Some(dir.join("postmortems")),
    }
}

fn read_postmortem(dir: &TempDir, cause: &str, seed: u64) -> Postmortem {
    let path = dir.join("postmortems").join(format!("postmortem-{cause}-{seed}.json"));
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("postmortem {} not written: {e}", path.display()));
    let postmortem: Postmortem = serde_json::from_str(&json).expect("postmortem deserializes");
    // Serde round trip: re-serializing the parsed dump reproduces it.
    let rt = serde_json::to_string_pretty(&postmortem).unwrap();
    assert_eq!(rt, json, "postmortem JSON did not survive a serde round trip");
    postmortem
}

#[test]
fn supervisor_dumps_postmortem_on_panicking_session() {
    let dir = TempDir::new("telemetry-panic");
    let (engine, oracle) = small_engine(&dir);
    let spec = spec_with_postmortems(&dir, 91);

    let outcomes = run_sessions_supervised_with(
        &engine,
        &oracle,
        std::slice::from_ref(&spec),
        &|engine, _, _| {
            // Leave a flight-recorder trail before dying, as a real
            // session would.
            let tel = engine.telemetry().open_session(None);
            tel.event(uei_obs::FlightEventKind::Retry, 1, || "one retry before the end".into());
            panic!("injected telemetry-test panic");
        },
    );
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].aborted, "no journal: the panicking session aborts");

    let postmortem = read_postmortem(&dir, "panic", 91);
    assert_eq!(postmortem.cause, "panic");
    assert!(
        postmortem.reason.contains("injected telemetry-test panic"),
        "reason carries the panic message: {}",
        postmortem.reason
    );
    assert!(
        postmortem.events.iter().any(|e| e.detail.contains("one retry before the end")),
        "flight events recorded before the panic survive into the dump"
    );
}

#[test]
fn supervisor_dumps_postmortem_on_degraded_completion() {
    let dir = TempDir::new("telemetry-degraded");
    let (engine, oracle) = small_engine(&dir);
    let spec = spec_with_postmortems(&dir, 17);

    // A runner that completes, but with one degraded iteration — the
    // supervisor must notice and dump even though nothing failed.
    let outcomes =
        run_sessions_supervised_with(&engine, &oracle, std::slice::from_ref(&spec), &|_, _, _| {
            let trace_counters = ObsCounters { degraded: true, ..Default::default() };
            Ok(SessionResult {
                backend: "uei".into(),
                total_virtual_secs: 0.0,
                total_wall_secs: 0.0,
                labels_used: 3,
                final_f_measure: 0.5,
                traces: vec![uei_explore::session::IterationTrace {
                    iteration: 1,
                    labels: 3,
                    f_measure: Some(0.5),
                    response_virtual_ms: 1.0,
                    response_wall_ms: 1.0,
                    bytes_read: 10,
                    seeks: 1,
                    label_positive: true,
                    region_rows: None,
                    prefetched: false,
                    counters: trace_counters,
                    recovered: false,
                    examined: None,
                    wall_ms_replayed: false,
                    phase_ms: Vec::new(),
                }],
            })
        });
    assert!(!outcomes[0].aborted);
    assert!(outcomes[0].result.is_some());

    let postmortem = read_postmortem(&dir, "degraded", 17);
    assert_eq!(postmortem.cause, "degraded");
    assert!(postmortem.reason.contains("degraded iterations"));
}
