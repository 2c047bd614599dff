//! Determinism of concurrent multi-session exploration (DESIGN.md §10).
//!
//! N sessions with fixed seeds over one shared `EngineCore` must produce
//! **bit-identical** per-iteration traces whether they run sequentially or
//! concurrently on N threads: every modeled quantity (virtual response
//! time, bytes, seeks, cache counters, F-measures, selections) is decided
//! by per-session state — only wall-clock times may differ. The shared
//! cache's byte accounting must also stay exact under concurrent fills.
//!
//! Prefetch stays off here: the prefetcher races the foreground by design
//! (a prefetched region legitimately changes `prefetched`/`virtual_time`
//! fields), so determinism is only promised without it. The one fault kind
//! exercised is the latency spike, which is charged to the engine's I/O
//! ledger and must never reach a session's modeled trace.

use std::sync::Arc;

use uei_explore::backend::UeiBackend;
use uei_explore::multi::{run_sessions, run_sessions_concurrently, SessionSpec};
use uei_explore::oracle::Oracle;
use uei_explore::session::{ExplorationSession, IterationTrace, SessionConfig, SessionResult};
use uei_explore::synth::{generate_sdss_like, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_index::config::UeiConfig;
use uei_index::engine::EngineCore;
use uei_learn::strategy::UncertaintyMeasure;
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_types::{Rng, Schema};

const SESSIONS: usize = 4;

fn build_engine(dir: &std::path::Path, rows: &[uei_types::DataPoint]) -> EngineCore {
    let tracker = DiskTracker::new(IoProfile::nvme());
    let store = ColumnStore::create(
        dir,
        Schema::sdss(),
        rows,
        StoreConfig { chunk_target_bytes: 8192 },
        tracker,
    )
    .unwrap();
    EngineCore::new(
        Arc::new(store),
        UeiConfig {
            cells_per_dim: 3,
            // Small budget so eviction/bypass paths are exercised, not just
            // all-resident hits.
            chunk_cache_bytes: 256 << 10,
            prefetch: false,
            ..UeiConfig::default()
        },
    )
    .unwrap()
}

fn specs() -> Vec<SessionSpec> {
    (0..SESSIONS as u64)
        .map(|i| SessionSpec {
            session: SessionConfig {
                max_labels: 12,
                bootstrap_size: 120,
                eval_sample: 200,
                seed: 1000 + i,
                ..SessionConfig::default()
            },
            sample_seed: 2000 + i,
            gamma: 150,
            journal_dir: None,
            postmortem_dir: None,
        })
        .collect()
}

/// Everything in a trace except wall-clock time, which legitimately varies
/// across runs and threads.
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

fn assert_bit_identical(seq: &[SessionResult], conc: &[SessionResult]) {
    assert_eq!(seq.len(), conc.len());
    for (i, (a, b)) in seq.iter().zip(conc).enumerate() {
        assert_eq!(a.labels_used, b.labels_used, "session {i}: labels_used");
        assert_eq!(
            a.final_f_measure.to_bits(),
            b.final_f_measure.to_bits(),
            "session {i}: final F-measure"
        );
        assert_eq!(a.traces.len(), b.traces.len(), "session {i}: trace count");
        for (j, (ta, tb)) in a.traces.iter().zip(&b.traces).enumerate() {
            assert_eq!(
                modeled_fields(ta),
                modeled_fields(tb),
                "session {i}, iteration {j}: modeled trace fields diverged"
            );
        }
    }
}

#[test]
fn concurrent_sessions_are_bit_identical_to_sequential() {
    let rows = generate_sdss_like(&SynthConfig { rows: 3000, ..Default::default() });
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);

    // Separate store directories so the sequential baseline cannot warm
    // anything for the concurrent run.
    let d1 = uei_storage::TempDir::new("ms-seq");
    let d2 = uei_storage::TempDir::new("ms-conc");
    let engine_seq = build_engine(d1.path(), &rows);
    let engine_conc = build_engine(d2.path(), &rows);

    let specs = specs();
    let seq = run_sessions(&engine_seq, &oracle, &specs).unwrap();
    let conc = run_sessions_concurrently(&engine_conc, &oracle, &specs).unwrap();

    assert_eq!(engine_conc.sessions_opened(), SESSIONS as u64);
    assert_bit_identical(&seq, &conc);
    assert!(seq.iter().all(|r| !r.traces.is_empty()));
}

/// A latency spike is charged to the tracker that performed the read — the
/// engine's I/O ledger — and to nobody else: a session's modeled clock must
/// not depend on which neighbour happened to fill the cache, or on how slow
/// the device was when it did.
#[test]
fn latency_spikes_bill_the_io_ledger_never_a_session() {
    use uei_storage::fault::{FaultConfig, FaultInjector};
    let rows = generate_sdss_like(&SynthConfig { rows: 3000, ..Default::default() });
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);
    let d1 = uei_storage::TempDir::new("ms-spike-clean");
    let d2 = uei_storage::TempDir::new("ms-spike-slow");
    let clean_engine = build_engine(d1.path(), &rows);
    let slow_engine = build_engine(d2.path(), &rows);
    const PENALTY_SECS: f64 = 0.05;
    let injector = FaultInjector::new(FaultConfig {
        seed: 211,
        slow_prob: 0.2,
        slow_penalty_secs: PENALTY_SECS,
        ..FaultConfig::off()
    })
    .unwrap();
    slow_engine.io_ledger().set_fault_injector(Some(Arc::clone(&injector)));

    let specs = &specs()[..2];
    let before = (clean_engine.io_ledger().snapshot(), slow_engine.io_ledger().snapshot());
    let clean = run_sessions_concurrently(&clean_engine, &oracle, specs).unwrap();
    let slow = run_sessions_concurrently(&slow_engine, &oracle, specs).unwrap();

    let spikes = injector.stats().latency_spikes;
    assert!(spikes > 0, "spikes fired on the ledger");
    assert_bit_identical(&clean, &slow);
    let penalty = std::time::Duration::from_secs_f64(PENALTY_SECS * spikes as f64);
    let clean_io = clean_engine.io_ledger().delta(&before.0).virtual_elapsed;
    let slow_io = slow_engine.io_ledger().delta(&before.1).virtual_elapsed;
    assert!(slow_io >= penalty, "the ledger's clock carries every spike: {slow_io:?}");
    assert!(clean_io < penalty, "clean {clean_io:?} vs {spikes} spikes");
}

/// The single-analyst constructor is an engine session and nothing else:
/// `UeiBackend::new(store, cfg, ..)` and `UeiBackend::from_engine` over
/// `EngineCore::with_measure(store, cfg, ..)` agree on every modeled trace
/// field, bit for bit, across cache budgets from "most chunks evicted" to
/// "everything fits" — the regimes where a second cache model (per-stripe
/// admission, prefetcher-inclusive counters) would show.
#[test]
fn single_analyst_constructor_is_exactly_an_engine_session() {
    let rows = generate_sdss_like(&SynthConfig { rows: 20_000, ..Default::default() });
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);
    let dir = uei_storage::TempDir::new("ms-one-way-in");
    let store = ColumnStore::create(
        dir.path(),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 8192 },
        DiskTracker::new(IoProfile::nvme()),
    )
    .unwrap();
    // Each side gets its own handle (own ledger) over the same files.
    let handle = || Arc::new(store.with_tracker(DiskTracker::new(IoProfile::nvme())));
    let measure = UncertaintyMeasure::LeastConfidence;
    let (gamma, sample_seed) = (400, 7);
    let session = SessionConfig {
        max_labels: 60,
        bootstrap_size: 300,
        eval_sample: 0,
        seed: 99,
        ..SessionConfig::default()
    };
    let run = |mut backend: UeiBackend| {
        let clock = backend.index().store().tracker().clone();
        ExplorationSession::new(&mut backend, &oracle, session.clone(), clock).run().unwrap()
    };

    for budget in [64 << 10, 128 << 10, 256 << 10, 1 << 20] {
        let config = UeiConfig {
            cells_per_dim: 5,
            chunk_cache_bytes: budget,
            prefetch: false,
            ..UeiConfig::default()
        };
        let built = run(UeiBackend::new(
            handle(),
            config.clone(),
            measure,
            gamma,
            &mut Rng::new(sample_seed),
        )
        .unwrap());
        let engine = EngineCore::with_measure(handle(), config, measure).unwrap();
        let opened =
            run(UeiBackend::from_engine(&engine, gamma, &mut Rng::new(sample_seed)).unwrap());
        assert!(built.traces.len() >= 50, "budget {budget}: {} iterations", built.traces.len());
        assert!(
            built.traces.iter().map(|t| t.bytes_read).sum::<u64>() > 0,
            "budget {budget}: the session read chunks"
        );
        assert_bit_identical(&[built], &[opened]);
    }
}

mod score_cache_independence {
    use super::*;
    use uei_explore::backend::ExplorationBackend;
    use uei_learn::dataset::LabeledSet;
    use uei_learn::EstimatorKind;
    use uei_types::{DataPoint, Label};

    fn teacher(p: &DataPoint) -> Label {
        Label::from_bool(p.values[2] < 180.0)
    }

    pub(super) fn open_driver(
        engine: &EngineCore,
        sample_seed: u64,
        rows: &[DataPoint],
    ) -> (UeiBackend, LabeledSet) {
        let mut rng = Rng::new(sample_seed);
        let mut backend = UeiBackend::from_engine(engine, 150, &mut rng).unwrap();
        let mut labeled = LabeledSet::new();
        let (mut pos, mut neg) = (0usize, 0usize);
        for p in rows {
            if pos >= 3 && neg >= 3 {
                break;
            }
            let label = teacher(p);
            let quota = if label.is_positive() { &mut pos } else { &mut neg };
            if *quota >= 3 {
                continue;
            }
            *quota += 1;
            labeled.add(p.clone(), label).unwrap();
            backend.mark_labeled(p.id);
        }
        (backend, labeled)
    }

    /// One labeling iteration: retrain on the session's own labeled set,
    /// select, label, fold in. Returns the selection for comparison.
    pub(super) fn step(backend: &mut UeiBackend, labeled: &mut LabeledSet) -> (Option<usize>, u64) {
        let model = EstimatorKind::Dwknn { k: 3 }.train(&labeled.training_data()).unwrap();
        let (point, info) = backend.select_next(model.as_ref(), labeled).unwrap().unwrap();
        let picked = (info.cell, point.id.as_u64());
        let label = teacher(&point);
        labeled.add(point.clone(), label).unwrap();
        backend.mark_labeled(point.id);
        picked
    }
}

/// Two sessions of one engine keep fully independent score caches: a
/// session's selections, rescore counters, and cache version are
/// bit-identical whether a second session labels away concurrently or the
/// session runs alone. (`EngineCore::open_session` clones the index-point
/// template, so each session carries its own cached scores, influence
/// radii, and model version.)
#[test]
fn per_session_score_caches_are_independent() {
    use score_cache_independence::{open_driver, step};

    let rows = generate_sdss_like(&SynthConfig { rows: 3000, ..Default::default() });
    let d1 = uei_storage::TempDir::new("ms-cache-solo");
    let d2 = uei_storage::TempDir::new("ms-cache-pair");
    let engine_solo = build_engine(d1.path(), &rows);
    let engine_pair = build_engine(d2.path(), &rows);
    const A_STEPS: usize = 8;
    const B_STEPS: usize = 5;

    // Baseline: session A alone.
    let (mut a_solo, mut a_solo_labeled) = open_driver(&engine_solo, 2024, &rows);
    let solo_picks: Vec<_> = (0..A_STEPS).map(|_| step(&mut a_solo, &mut a_solo_labeled)).collect();

    // Same session A, now interleaved with an independently labeling B.
    let (mut a, mut a_labeled) = open_driver(&engine_pair, 2024, &rows);
    let (mut b, mut b_labeled) = open_driver(&engine_pair, 9090, &rows);
    let mut pair_picks = Vec::new();
    for i in 0..A_STEPS {
        pair_picks.push(step(&mut a, &mut a_labeled));
        if i < B_STEPS {
            step(&mut b, &mut b_labeled);
        }
    }

    assert_eq!(solo_picks, pair_picks, "B's labeling leaked into A's selections");
    assert_eq!(
        a_solo.index().rescore_counters(),
        a.index().rescore_counters(),
        "B's rescoring leaked into A's score cache"
    );
    assert_eq!(
        a_solo.index().points().model_version(),
        a.index().points().model_version(),
        "cache versions diverged between solo and interleaved runs"
    );

    // B really did advance its own, separate cache.
    let b_counters = b.index().rescore_counters();
    assert!(b_counters.points_rescored > 0, "B never rescored");
    assert_eq!(b.index().points().model_version(), B_STEPS as u64);
    assert_eq!(a.index().points().model_version(), A_STEPS as u64);
    // Every pass accounts for every index point, in both sessions.
    let cells = a.index().grid().num_cells() as u64;
    let a_counters = a.index().rescore_counters();
    assert_eq!(a_counters.points_rescored + a_counters.points_cached, A_STEPS as u64 * cells);
    assert_eq!(b_counters.points_rescored + b_counters.points_cached, B_STEPS as u64 * cells);
}

#[test]
fn shared_cache_byte_accounting_stays_exact_under_concurrency() {
    let rows = generate_sdss_like(&SynthConfig { rows: 3000, ..Default::default() });
    let mut rng = Rng::new(17);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);

    let dir = uei_storage::TempDir::new("ms-bytes");
    let engine = build_engine(dir.path(), &rows);
    run_sessions_concurrently(&engine, &oracle, &specs()).unwrap();

    let cache = engine.shared_cache();
    // Recompute the exact expected occupancy from the resident chunks: the
    // cache's internal ledger must equal the sum of its residents' sizes
    // and respect the budget, even after four threads filled and evicted
    // concurrently.
    let mut resident_bytes = 0usize;
    let mut resident_chunks = 0usize;
    for meta in engine.store().manifest().dims.iter().flatten() {
        if let Some(chunk) = cache.get_if_resident(meta.id()) {
            resident_bytes += uei_storage::approx_chunk_bytes(&chunk);
            resident_chunks += 1;
        }
    }
    assert_eq!(cache.len(), resident_chunks, "resident-chunk count drifted");
    assert_eq!(
        cache.used_bytes(),
        resident_bytes,
        "cache used_bytes ledger drifted from the resident set"
    );
    assert!(cache.used_bytes() <= cache.budget_bytes(), "budget overrun");
    let agg = engine.cache_stats();
    assert!(agg.hits + agg.misses > 0, "cache saw traffic");
}

/// Sharing pays: the engine-wide hit ratio after four sessions over one
/// cache is at least what a single session reaches alone. Run sequentially
/// so the aggregate counters are deterministic.
#[test]
fn sharing_the_cache_across_sessions_never_lowers_the_hit_ratio() {
    let rows = generate_sdss_like(&SynthConfig { rows: 3000, ..Default::default() });
    let mut rng = Rng::new(17);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);

    let hit_ratio = |tag: &str, specs: &[SessionSpec]| {
        let dir = uei_storage::TempDir::new(tag);
        let engine = build_engine(dir.path(), &rows);
        let results = run_sessions(&engine, &oracle, specs).unwrap();
        assert!(results.iter().all(|r| !r.traces.is_empty()), "every session iterated");
        engine.cache_stats().hit_ratio()
    };
    let one = hit_ratio("ms-ratio-1", &specs()[..1]);
    let four = hit_ratio("ms-ratio-4", &specs());
    assert!(one > 0.0, "a lone session already re-reads chunks");
    assert!(four >= one, "4-session hit ratio {four:.4} fell below 1-session {one:.4}");
}
