//! The exploration session: the shared iteration loop and its measurement.
//!
//! Implements the human-in-the-loop workflow of Algorithms 1/2 against any
//! [`ExplorationBackend`], with the paper's measurement methodology:
//!
//! - the **response time** of an iteration is the time between two
//!   subsequent examples — model (re)training plus example selection (for
//!   UEI that includes the region load; for the DBMS scheme the exhaustive
//!   scan). Virtual (modeled-disk) time and wall-clock are both recorded;
//! - **accuracy** is the F-measure of the positive-classified set against
//!   the oracle set (Table 1). Per-iteration F-measure is estimated on a
//!   fixed uniform evaluation sample drawn once at session start (scoring
//!   all n rows every iteration would itself be an exhaustive scan); the
//!   final F-measure is exact, via full result retrieval (line 26).
//!
//! ## Bootstrap
//!
//! The initial model needs "at least one positive example and one negative
//! example" (§3.2). With a 0.1 % target region, uniform draws rarely hit a
//! positive; REQUEST solves this with its data-reduction stage. We
//! substitute: if the bootstrap pool contains no positive, the simulated
//! user supplies one relevant tuple (fetched by id through the backend,
//! charged to the same I/O model). DESIGN.md documents this substitution.
//!
//! ## Durability (DESIGN.md §13)
//!
//! A session may attach a write-ahead journal
//! ([`ExplorationSession::attach_journal`]): every labeled example is
//! appended as a CRC-framed record the moment it enters `L`, and a
//! `SessionSnapshot`-shaped snapshot lands every
//! `JournalConfig::snapshot_every` iterations. After a crash,
//! [`ExplorationSession::recover`] rebuilds a **bit-identical** session by
//! *deterministic replay*: the whole stack is seed-deterministic, so
//! recovery re-executes bootstrap and every journaled selection against a
//! fresh backend, verifying each re-derived choice against the journal,
//! while the recorded traces are restored verbatim (the expensive
//! per-iteration F-measure estimates are *not* recomputed — that is what
//! makes recovery cheaper than the original run). Journal appends happen
//! strictly outside the measured response-time window of each iteration,
//! so an uninterrupted run's traces are unchanged by journaling except for
//! the modeled write charge on the cumulative ledger.

use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use uei_learn::dataset::LabeledSet;
use uei_learn::metrics::set_f_measure;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{Classifier, EstimatorKind, MinMaxScaler, ScaledClassifier};
use uei_obs::{FlightEventKind, ObsCounters, Phase, PhaseMs, PhaseSnapshot};
use uei_storage::journal::{JournalConfig, SessionJournal};
use uei_storage::DiskTracker;
use uei_types::{DataPoint, Label, Result, Rng, UeiError};

use crate::backend::ExplorationBackend;
use crate::oracle::Oracle;

/// Session parameters (defaults follow Table 1 where applicable).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The uncertainty estimator (Table 1: DWKNN).
    pub estimator: EstimatorKind,
    /// The uncertainty measure (least confidence, Eq. 1).
    pub measure: UncertaintyMeasure,
    /// Stop after this many labeled examples.
    pub max_labels: usize,
    /// Sample batch size `B` (Algorithm 1): the classifier is retrained
    /// after every `B` labels. `B = 1` (the default) retrains every
    /// iteration; larger batches trade convergence speed for less training
    /// work — "a tunable parameter of the active learning-based IDE
    /// balancing the effectiveness and efficiency" (paper §2.2).
    pub batch_size: usize,
    /// Size of the uniform pool used to bootstrap the initial examples.
    pub bootstrap_size: usize,
    /// Evaluation-sample size for per-iteration F-measure estimates.
    pub eval_sample: usize,
    /// Estimate F-measure every this many labels (1 = every iteration).
    pub eval_every: usize,
    /// Master seed for the session's randomness.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            estimator: EstimatorKind::Dwknn { k: 5 },
            measure: UncertaintyMeasure::LeastConfidence,
            max_labels: 100,
            batch_size: 1,
            bootstrap_size: 500,
            eval_sample: 2000,
            eval_every: 1,
            seed: 42,
        }
    }
}

/// Measurements of one exploration iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationTrace {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Labels the model was trained on at selection time.
    pub labels: usize,
    /// Estimated F-measure of that model on the evaluation sample
    /// (`None` on iterations where evaluation was skipped).
    pub f_measure: Option<f64>,
    /// Modeled (virtual-disk) response time, milliseconds.
    pub response_virtual_ms: f64,
    /// Wall-clock response time, milliseconds.
    pub response_wall_ms: f64,
    /// Bytes read from (modeled) disk during the iteration.
    pub bytes_read: u64,
    /// Seeks charged during the iteration.
    pub seeks: u64,
    /// The label the simulated user assigned.
    pub label_positive: bool,
    /// UEI: loaded region size (rows), if applicable.
    pub region_rows: Option<usize>,
    /// UEI: whether the region came from the prefetcher.
    pub prefetched: bool,
    /// The modeled observability counters of this iteration (chunk-cache
    /// traffic, prefetch bytes, the degradation ladder, rescoring work).
    /// Flattened: the JSON keys are exactly the historical loose fields
    /// (`cache_hits`, …, `points_cached`), so pre-consolidation traces
    /// parse unchanged and new traces serialize byte-identically.
    #[serde(flatten)]
    pub counters: ObsCounters,
    /// The iteration ran in a session resumed from its journal after a
    /// crash (replayed iterations keep the original `false`; only
    /// iterations executed *after* recovery are marked).
    #[serde(default)]
    pub recovered: bool,
    /// DBMS: tuples examined by the exhaustive scan, if applicable.
    pub examined: Option<u64>,
    /// The wall-clock fields of this trace were restored verbatim from a
    /// journal replay, not measured in this process — percentile pooling
    /// over wall times must exclude such traces. Modeled (virtual) fields
    /// are replay-exact and stay poolable.
    #[serde(default)]
    pub wall_ms_replayed: bool,
    /// Optional telemetry phase breakdown of the iteration (empty when
    /// telemetry is disabled). Purely observational — never part of the
    /// modeled counters above.
    #[serde(default)]
    pub phase_ms: Vec<PhaseMs>,
}

/// Everything about a session that must match between the run that wrote
/// a journal and the run that replays it. Recovery refuses a journal whose
/// fingerprint disagrees with the provided config — replaying under
/// different parameters would silently diverge instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ConfigFingerprint {
    seed: u64,
    max_labels: usize,
    batch_size: usize,
    bootstrap_size: usize,
    eval_sample: usize,
    eval_every: usize,
    backend: String,
}

impl ConfigFingerprint {
    fn new(config: &SessionConfig, backend: &str) -> ConfigFingerprint {
        ConfigFingerprint {
            seed: config.seed,
            max_labels: config.max_labels,
            batch_size: config.batch_size,
            bootstrap_size: config.bootstrap_size,
            eval_sample: config.eval_sample,
            eval_every: config.eval_every,
            backend: backend.to_string(),
        }
    }
}

/// One labeled example as journaled: the row id plus the user's verdict.
/// The point's values are *not* stored — replay re-derives them from the
/// backend and the id equality check catches any divergence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct JournaledLabel {
    id: u64,
    positive: bool,
}

fn journaled_labels(labeled: &LabeledSet) -> Vec<JournaledLabel> {
    labeled
        .entries()
        .iter()
        .map(|(p, l)| JournaledLabel { id: p.id.as_u64(), positive: l.is_positive() })
        .collect()
}

/// One record of the session journal (serialized as JSON inside a CRC
/// frame; see `uei_storage::journal` for the framing).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum JournalRecord {
    /// First record of every journal: pins the config fingerprint.
    Start(ConfigFingerprint),
    /// The labeled set produced by bootstrap, in add order.
    Bootstrap(BootstrapRecord),
    /// One completed iteration: the label that was acknowledged and the
    /// trace it produced. `Ok` from this append *is* the acknowledgement —
    /// an acked label always survives recovery.
    Label(LabelRecord),
}

/// Payload of [`JournalRecord::Bootstrap`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BootstrapRecord {
    entries: Vec<JournaledLabel>,
}

/// Payload of [`JournalRecord::Label`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LabelRecord {
    iteration: usize,
    entry: JournaledLabel,
    trace: IterationTrace,
}

/// The periodic snapshot payload: the full (append-only) label history
/// plus every trace recorded so far. Snapshot + journal suffix is always
/// sufficient to replay the session — older segments are garbage-collected
/// once a snapshot lands.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SessionSnapshot {
    fingerprint: ConfigFingerprint,
    /// Completed iterations at snapshot time (equals `traces.len()`).
    iteration: usize,
    /// How many leading `entries` came from bootstrap (no trace).
    bootstrap_labels: usize,
    /// Full labeled history in add order: bootstrap entries first, then
    /// one entry per completed iteration.
    entries: Vec<JournaledLabel>,
    /// Every trace recorded so far, restored verbatim on recovery.
    traces: Vec<IterationTrace>,
}

/// The outcome of a whole session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionResult {
    /// Backend name ("uei" / "dbms").
    pub backend: String,
    /// Per-iteration traces.
    pub traces: Vec<IterationTrace>,
    /// Exact final F-measure via full result retrieval.
    pub final_f_measure: f64,
    /// Virtual seconds across all iterations (response times only).
    pub total_virtual_secs: f64,
    /// Wall seconds across all iterations.
    pub total_wall_secs: f64,
    /// Labels consumed (≤ `max_labels`; fewer if the pool drained).
    pub labels_used: usize,
}

/// The mutable state of one exploration session: everything that changes as
/// labels arrive — the labeled set `L`, the current model, the fixed
/// evaluation sample, and the per-iteration traces.
///
/// Splitting this out of the driver makes the concurrency story explicit:
/// an [`ExplorationSession`] is a thin loop over a `SessionState` plus a
/// backend, and N independent `SessionState`s (each with its own backend
/// opened via `EngineCore::open_session` and its own virtual disk clock)
/// can run on N threads against one shared engine. See DESIGN.md §10.
pub struct SessionState {
    scaler: MinMaxScaler,
    labeled: LabeledSet,
    model: Option<ScaledClassifier>,
    labels_at_last_train: usize,
    /// Fixed uniform evaluation sample drawn once at session start.
    eval_points: Vec<DataPoint>,
    eval_truth: Vec<bool>,
    traces: Vec<IterationTrace>,
    iteration: usize,
    /// How many leading entries of `labeled` came from bootstrap (needed
    /// by snapshots to separate bootstrap labels from iteration labels).
    bootstrap_labels: usize,
}

impl SessionState {
    /// The labeled set `L` accumulated so far.
    pub fn labeled(&self) -> &LabeledSet {
        &self.labeled
    }

    /// Per-iteration traces recorded so far.
    pub fn traces(&self) -> &[IterationTrace] {
        &self.traces
    }

    /// 1-based number of completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }
}

impl std::fmt::Debug for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionState")
            .field("labels", &self.labeled.len())
            .field("iteration", &self.iteration)
            .finish_non_exhaustive()
    }
}

/// Drives one exploration session of a backend against an oracle.
pub struct ExplorationSession<'a> {
    backend: &'a mut dyn ExplorationBackend,
    oracle: &'a Oracle,
    config: SessionConfig,
    tracker: DiskTracker,
    journal: Option<SessionJournal>,
    /// Set by [`ExplorationSession::recover`]: iterations executed from
    /// here on are stamped [`IterationTrace::recovered`].
    recovered: bool,
    /// Telemetry window mark: where the previous iteration's phase
    /// breakdown ended. Each trace's `phase_ms` covers mark→end-of-eval,
    /// so post-trace journal appends land in the *next* iteration's
    /// breakdown (the alternative — a second snapshot after the append —
    /// would put the append outside every window).
    phase_mark: Option<PhaseSnapshot>,
}

impl<'a> ExplorationSession<'a> {
    /// Creates a session. `tracker` must be the same I/O model the
    /// backend's storage charges, so response times cover its reads. For a
    /// backend opened from a shared engine, that is the *session* store's
    /// tracker (`backend.index().store().tracker()`), never the engine's.
    pub fn new(
        backend: &'a mut dyn ExplorationBackend,
        oracle: &'a Oracle,
        config: SessionConfig,
        tracker: DiskTracker,
    ) -> ExplorationSession<'a> {
        ExplorationSession {
            backend,
            oracle,
            config,
            tracker,
            journal: None,
            recovered: false,
            phase_mark: None,
        }
    }

    /// Attaches a fresh write-ahead journal rooted at `dir` (which must
    /// not already hold one — resuming an existing journal goes through
    /// [`ExplorationSession::recover`] instead). Call before
    /// [`ExplorationSession::start`]; every label acknowledged after this
    /// point is durably journaled. Journal writes are charged to the
    /// session's modeled disk but land outside each iteration's measured
    /// response-time window.
    pub fn attach_journal(&mut self, dir: &Path, journal_config: JournalConfig) -> Result<()> {
        self.journal = Some(SessionJournal::create(dir, journal_config, self.tracker.clone())?);
        Ok(())
    }

    /// Whether this session was resumed from a journal after a crash.
    pub fn is_recovered(&self) -> bool {
        self.recovered
    }

    /// Runs the session to completion.
    pub fn run(mut self) -> Result<SessionResult> {
        let state = self.start()?;
        self.run_from(state)
    }

    /// Runs an already-initialized (or recovered) session to completion.
    pub fn run_from(mut self, mut state: SessionState) -> Result<SessionResult> {
        while state.labeled.len() < self.config.max_labels {
            if !self.step(&mut state)? {
                break; // candidate pool exhausted
            }
        }
        self.finish(state)
    }

    /// Initializes the per-session state: validates the config, draws the
    /// fixed evaluation sample, and bootstraps the initial labeled set
    /// (one positive + one negative example).
    pub fn start(&mut self) -> Result<SessionState> {
        if self.config.batch_size == 0 {
            return Err(UeiError::invalid_config("batch_size must be >= 1"));
        }
        let mut rng = Rng::new(self.config.seed);
        let scaler = MinMaxScaler::from_schema(self.backend.schema());

        // Fixed evaluation sample with oracle ground truth.
        let eval_points = if self.config.eval_sample > 0 {
            self.backend.sample_rows(self.config.eval_sample, &mut rng)?
        } else {
            Vec::new()
        };
        let eval_truth: Vec<bool> =
            eval_points.iter().map(|p| self.oracle.is_relevant_id(p.id.as_u64())).collect();

        // Bootstrap the initial labeled set (one positive + one negative).
        let mut labeled = LabeledSet::new();
        self.journal_append(&JournalRecord::Start(ConfigFingerprint::new(
            &self.config,
            self.backend.name(),
        )))?;
        self.bootstrap(&mut labeled, &mut rng)?;
        self.journal_append(&JournalRecord::Bootstrap(BootstrapRecord {
            entries: journaled_labels(&labeled),
        }))?;

        Ok(SessionState {
            scaler,
            bootstrap_labels: labeled.len(),
            labeled,
            model: None,
            labels_at_last_train: 0,
            eval_points,
            eval_truth,
            traces: Vec::new(),
            iteration: 0,
        })
    }

    /// Runs one exploration iteration: retrain if due, select the next
    /// example, solicit its label, and record the trace. Returns `false`
    /// when the candidate pool is exhausted (no trace is recorded then).
    pub fn step(&mut self, state: &mut SessionState) -> Result<bool> {
        state.iteration += 1;
        let labels_at_train = state.labeled.len();
        // Inert (zero-alloc, no clock reads) when telemetry is disabled or
        // the backend has none; spans only *read* clocks, never charge
        // them, so modeled traces are bit-identical either way.
        let tel = self.backend.telemetry().cloned().unwrap_or_default();
        let phase_mark = self.phase_mark.take().unwrap_or_else(|| tel.phase_snapshot());

        let wall_start = Instant::now();
        let io_before = self.tracker.snapshot();

        // Retrain on L every `B` labels (Algorithm 1 lines 5–11 /
        // Algorithm 2 line 16). With B = 1 this is every iteration.
        if state.model.is_none()
            || state.labeled.len() - state.labels_at_last_train >= self.config.batch_size
        {
            let _span = tel.span(Phase::ModelRefit);
            state.model = Some(ScaledClassifier::train(
                self.config.estimator,
                state.scaler.clone(),
                &state.labeled.training_data(),
            )?);
            state.labels_at_last_train = state.labeled.len();
        }

        // Select the next example (lines 17–21 / line 6).
        let selected = {
            let model = state.model.as_ref().expect("trained above");
            self.backend.select_next(model, &state.labeled)?
        };
        let delta = self.tracker.delta(&io_before);
        let wall = wall_start.elapsed();

        let Some((point, mut info)) = selected else {
            return Ok(false); // candidate pool exhausted
        };
        info.recovered = self.recovered;

        // Solicit the user's label (line 22).
        let label = self.oracle.label(&point)?;
        state.labeled.add(point.clone(), label)?;
        self.backend.mark_labeled(point.id);

        // Accuracy estimate for the model that made this selection.
        let f_measure = if !state.eval_points.is_empty()
            && (state.iteration.is_multiple_of(self.config.eval_every)
                || state.labeled.len() >= self.config.max_labels)
        {
            let _span = tel.span(Phase::Eval);
            let model = state.model.as_ref().expect("trained above");
            Some(estimate_f(model, &state.eval_points, &state.eval_truth))
        } else {
            None
        };

        // The iteration's phase window closes here: the journal append
        // below is recorded under its own span but lands in the *next*
        // iteration's breakdown (see `phase_mark`).
        let phase_ms = tel.breakdown_since(&phase_mark);
        self.phase_mark = Some(tel.phase_snapshot());

        state.traces.push(IterationTrace {
            iteration: state.iteration,
            labels: labels_at_train,
            f_measure,
            response_virtual_ms: delta.virtual_elapsed.as_secs_f64() * 1e3,
            response_wall_ms: wall.as_secs_f64() * 1e3,
            bytes_read: delta.stats.bytes_read,
            seeks: delta.stats.seeks,
            label_positive: label.is_positive(),
            region_rows: info.region_rows,
            prefetched: info.prefetched,
            counters: info.counters,
            recovered: info.recovered,
            examined: info.examined,
            wall_ms_replayed: false,
            phase_ms,
        });
        // Journal the acknowledged label — outside the measured window
        // above, so journaling never perturbs the iteration's trace.
        let journal_seqs = self.journal.as_ref().map(|j| (j.segment_seq(), j.snapshot_seq()));
        {
            let _span = tel.span(Phase::JournalAppend);
            self.journal_iteration(state, &point, label)?;
        }
        if let (Some((seg_before, snap_before)), Some(journal)) =
            (journal_seqs, self.journal.as_ref())
        {
            let iteration = state.iteration as u64;
            let (seg, snap) = (journal.segment_seq(), journal.snapshot_seq());
            if seg > seg_before {
                tel.event(FlightEventKind::JournalRotation, iteration, || {
                    format!("journal segment rotated to seq {seg}")
                });
            }
            if snap > snap_before {
                tel.event(FlightEventKind::JournalSnapshot, iteration, || {
                    format!("session snapshot published at seq {snap}")
                });
            }
        }
        Ok(true)
    }

    /// Appends one record to the attached journal (no-op without one).
    fn journal_append(&mut self, record: &JournalRecord) -> Result<()> {
        let Some(journal) = &mut self.journal else { return Ok(()) };
        let payload = serde_json::to_vec(record).map_err(|e| {
            UeiError::invalid_state(format!("journal record serialization failed: {e}"))
        })?;
        journal.append(&payload)
    }

    /// Journals one completed iteration's label + trace, then snapshots
    /// the session every `JournalConfig::snapshot_every` iterations.
    fn journal_iteration(
        &mut self,
        state: &SessionState,
        point: &DataPoint,
        label: Label,
    ) -> Result<()> {
        let Some(snapshot_every) = self.journal.as_ref().map(|j| j.config().snapshot_every) else {
            return Ok(());
        };
        let trace = state.traces.last().expect("pushed above").clone();
        self.journal_append(&JournalRecord::Label(LabelRecord {
            iteration: state.iteration,
            entry: JournaledLabel { id: point.id.as_u64(), positive: label.is_positive() },
            trace,
        }))?;
        if state.iteration.is_multiple_of(snapshot_every as usize) {
            let snap = SessionSnapshot {
                fingerprint: ConfigFingerprint::new(&self.config, self.backend.name()),
                iteration: state.iteration,
                bootstrap_labels: state.bootstrap_labels,
                entries: journaled_labels(&state.labeled),
                traces: state.traces.clone(),
            };
            let payload = serde_json::to_vec(&snap).map_err(|e| {
                UeiError::invalid_state(format!("session snapshot serialization failed: {e}"))
            })?;
            self.journal.as_mut().expect("journal present").snapshot(&payload)?;
        }
        Ok(())
    }

    /// Resumes a crashed session from its journal by deterministic replay.
    ///
    /// `backend` must be constructed exactly as the original run's (same
    /// engine/store, same sampling seed): the whole stack is
    /// seed-deterministic, so recovery re-executes the bootstrap and every
    /// journaled selection against it, checking each re-derived row id and
    /// label against the journal ([`UeiError::Corrupt`] "journal
    /// divergence" on any mismatch) while restoring the recorded traces
    /// verbatim. Per-iteration F-measure estimation is skipped for
    /// replayed iterations — their traces already hold the original
    /// values — which is what makes recovery cheaper than re-running.
    ///
    /// The returned session has the journal re-attached (appending
    /// resumes where the journal left off) and stamps
    /// [`IterationTrace::recovered`] on every subsequent iteration; drive
    /// it with [`ExplorationSession::run_from`]. An empty or never-started
    /// journal recovers to a fresh start. Future traces are bit-identical
    /// to an uninterrupted run's (wall-clock fields aside).
    pub fn recover(
        backend: &'a mut dyn ExplorationBackend,
        oracle: &'a Oracle,
        config: SessionConfig,
        tracker: DiskTracker,
        dir: &Path,
        journal_config: JournalConfig,
    ) -> Result<(ExplorationSession<'a>, SessionState)> {
        let (contents, journal) = SessionJournal::recover(dir, journal_config, tracker.clone())?;
        let mut session = ExplorationSession {
            backend,
            oracle,
            config,
            tracker,
            journal: Some(journal),
            recovered: true,
            phase_mark: None,
        };
        let state = session.replay(contents)?;
        Ok((session, state))
    }

    /// Rebuilds the session state from recovered journal contents by
    /// re-executing the deterministic run against the fresh backend.
    fn replay(&mut self, contents: uei_storage::journal::JournalContents) -> Result<SessionState> {
        fn decode<T: serde::Deserialize>(what: &str, bytes: &[u8]) -> Result<T> {
            serde_json::from_slice(bytes)
                .map_err(|e| UeiError::corrupt(format!("journal {what} failed to decode: {e}")))
        }

        let fingerprint = ConfigFingerprint::new(&self.config, self.backend.name());
        let check_fingerprint = |found: &ConfigFingerprint| -> Result<()> {
            if *found != fingerprint {
                return Err(UeiError::invalid_state(format!(
                    "journal was written under a different session config \
                     (journal {found:?}, recovery {fingerprint:?})"
                )));
            }
            Ok(())
        };

        // Assemble the authoritative history: the snapshot (if any) plus
        // the record suffix. Records the snapshot already covers may
        // survive a crash between snapshot publish and segment GC; they
        // are deduplicated by iteration number.
        let mut started = false;
        let mut bootstrap: Option<Vec<JournaledLabel>> = None;
        let mut labels: Vec<(JournaledLabel, IterationTrace)> = Vec::new();
        if let Some(bytes) = &contents.snapshot {
            let snap: SessionSnapshot = decode("snapshot", bytes)?;
            check_fingerprint(&snap.fingerprint)?;
            let iterations = snap.entries.len().saturating_sub(snap.bootstrap_labels);
            if snap.traces.len() != iterations || snap.iteration != iterations {
                return Err(UeiError::corrupt(format!(
                    "journal snapshot inconsistent: {} entries ({} bootstrap), {} traces, \
                     iteration {}",
                    snap.entries.len(),
                    snap.bootstrap_labels,
                    snap.traces.len(),
                    snap.iteration
                )));
            }
            started = true;
            bootstrap = Some(snap.entries[..snap.bootstrap_labels].to_vec());
            labels =
                snap.entries[snap.bootstrap_labels..].iter().cloned().zip(snap.traces).collect();
        }
        for bytes in &contents.records {
            match decode::<JournalRecord>("record", bytes)? {
                JournalRecord::Start(found) => {
                    check_fingerprint(&found)?;
                    started = true;
                }
                JournalRecord::Bootstrap(BootstrapRecord { entries }) => match &bootstrap {
                    // A pre-snapshot segment surviving GC replays the same
                    // bootstrap; anything else is divergence.
                    Some(known) if *known == entries => {}
                    Some(_) => {
                        return Err(UeiError::corrupt(
                            "journal divergence: conflicting bootstrap records",
                        ))
                    }
                    None => bootstrap = Some(entries),
                },
                JournalRecord::Label(LabelRecord { iteration, entry, trace }) => {
                    if iteration <= labels.len() {
                        continue; // already covered by the snapshot
                    }
                    if iteration != labels.len() + 1 {
                        return Err(UeiError::corrupt(format!(
                            "journal gap: record for iteration {iteration} after {} \
                             recovered iterations",
                            labels.len()
                        )));
                    }
                    labels.push((entry, trace));
                }
            }
        }
        if !started && (bootstrap.is_some() || !labels.is_empty()) {
            return Err(UeiError::corrupt("journal has labels but no start record"));
        }
        if bootstrap.is_none() && !labels.is_empty() {
            return Err(UeiError::corrupt("journal has iteration labels but no bootstrap"));
        }

        // Re-execute the deterministic start phase. A journal that never
        // acked its start record recovers to a fresh start (which appends
        // it); one that acked `Start` but not `Bootstrap` re-runs the
        // bootstrap and appends the record now.
        if self.config.batch_size == 0 {
            return Err(UeiError::invalid_config("batch_size must be >= 1"));
        }
        if !started {
            return self.start();
        }
        let mut rng = Rng::new(self.config.seed);
        let scaler = MinMaxScaler::from_schema(self.backend.schema());
        let eval_points = if self.config.eval_sample > 0 {
            self.backend.sample_rows(self.config.eval_sample, &mut rng)?
        } else {
            Vec::new()
        };
        let eval_truth: Vec<bool> =
            eval_points.iter().map(|p| self.oracle.is_relevant_id(p.id.as_u64())).collect();
        let mut labeled = LabeledSet::new();
        self.bootstrap(&mut labeled, &mut rng)?;
        match &bootstrap {
            Some(journaled) if *journaled == journaled_labels(&labeled) => {}
            Some(_) => {
                return Err(UeiError::corrupt(
                    "journal divergence: replayed bootstrap disagrees with the journal",
                ))
            }
            None => {
                self.journal_append(&JournalRecord::Bootstrap(BootstrapRecord {
                    entries: journaled_labels(&labeled),
                }))?;
            }
        }
        let mut state = SessionState {
            scaler,
            bootstrap_labels: labeled.len(),
            labeled,
            model: None,
            labels_at_last_train: 0,
            eval_points,
            eval_truth,
            traces: Vec::new(),
            iteration: 0,
        };

        // Replay every journaled iteration: retrain-if-due + select_next
        // exactly as `step` would, but take the label and trace from the
        // journal instead of re-estimating.
        for (entry, mut trace) in labels {
            state.iteration += 1;
            if state.model.is_none()
                || state.labeled.len() - state.labels_at_last_train >= self.config.batch_size
            {
                state.model = Some(ScaledClassifier::train(
                    self.config.estimator,
                    state.scaler.clone(),
                    &state.labeled.training_data(),
                )?);
                state.labels_at_last_train = state.labeled.len();
            }
            let selected = {
                let model = state.model.as_ref().expect("trained above");
                self.backend.select_next(model, &state.labeled)?
            };
            let Some((point, _)) = selected else {
                return Err(UeiError::corrupt(format!(
                    "journal divergence: pool exhausted replaying iteration {}",
                    state.iteration
                )));
            };
            if point.id.as_u64() != entry.id {
                return Err(UeiError::corrupt(format!(
                    "journal divergence: iteration {} selected row {}, journal says {}",
                    state.iteration, point.id, entry.id
                )));
            }
            let label = self.oracle.label(&point)?;
            if label.is_positive() != entry.positive {
                return Err(UeiError::corrupt(format!(
                    "journal divergence: iteration {} label disagrees for row {}",
                    state.iteration, entry.id
                )));
            }
            state.labeled.add(point.clone(), label)?;
            self.backend.mark_labeled(point.id);
            // The restored wall-clock figures were measured by the crashed
            // process, not this one: mark them so wall-time percentile
            // pooling can exclude replayed traces. Modeled fields stay
            // replay-exact and unmarked.
            trace.wall_ms_replayed = true;
            state.traces.push(trace);
        }
        Ok(state)
    }

    /// Final exact F-measure via result retrieval (Algorithm 2 line 26)
    /// and result assembly.
    pub fn finish(&mut self, state: SessionState) -> Result<SessionResult> {
        if let Some(journal) = &mut self.journal {
            journal.sync()?;
        }
        let SessionState { scaler, labeled, traces, .. } = state;
        let final_model =
            ScaledClassifier::train(self.config.estimator, scaler, &labeled.training_data())?;
        let mut predicted = self.backend.retrieve_results(&final_model)?;
        predicted.sort_unstable();
        predicted.dedup();
        let final_f = set_f_measure(&predicted, self.oracle.relevant_ids());

        Ok(SessionResult {
            backend: self.backend.name().to_string(),
            total_virtual_secs: traces.iter().map(|t| t.response_virtual_ms).sum::<f64>() / 1e3,
            total_wall_secs: traces.iter().map(|t| t.response_wall_ms).sum::<f64>() / 1e3,
            labels_used: labeled.len(),
            final_f_measure: final_f,
            traces,
        })
    }

    /// Acquires the initial positive + negative examples (paper §3.2).
    fn bootstrap(&mut self, labeled: &mut LabeledSet, rng: &mut Rng) -> Result<()> {
        let pool = self.backend.sample_rows(self.config.bootstrap_size, rng)?;
        if pool.is_empty() {
            return Err(UeiError::invalid_state("dataset is empty"));
        }
        let mut order: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut order);
        for idx in order {
            if labeled.has_both_classes() {
                break;
            }
            let point = &pool[idx];
            if labeled.contains(point.id) {
                continue;
            }
            let need_pos = labeled.num_positive() == 0;
            let need_neg = labeled.len() - labeled.num_positive() == 0;
            let label = self.oracle.label(point)?;
            // Keep the first of each class; skip redundant draws so the
            // bootstrap does not flood L with negatives.
            if (label.is_positive() && need_pos) || (!label.is_positive() && need_neg) {
                labeled.add(point.clone(), label)?;
                self.backend.mark_labeled(point.id);
            }
        }
        if labeled.num_positive() == 0 {
            // REQUEST's data-reduction substitute: the user supplies one
            // relevant example.
            let seed_id = *self
                .oracle
                .relevant_ids()
                .first()
                .ok_or_else(|| UeiError::invalid_state("target region is empty"))?;
            let row =
                self.backend.fetch_rows(&[seed_id])?.pop().expect("fetch of one id yields one row");
            self.backend.mark_labeled(row.id);
            labeled.add(row, Label::Positive)?;
        }
        if !labeled.has_both_classes() {
            // Degenerate dataset where everything is relevant; synthesize a
            // negative from the sample (cannot happen for the paper's
            // ≤0.8 % regions, but keeps the API total).
            return Err(UeiError::invalid_state("bootstrap could not find a negative example"));
        }
        Ok(())
    }
}

/// F-measure of `model` on a labeled evaluation sample.
fn estimate_f(model: &dyn Classifier, points: &[DataPoint], truth: &[bool]) -> f64 {
    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut fn_ = 0u64;
    for (p, &relevant) in points.iter().zip(truth) {
        let predicted = model.predict(&p.values).is_positive();
        match (relevant, predicted) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fn_ += 1,
            (false, false) => {}
        }
    }
    let m = uei_learn::metrics::ConfusionMatrix { tp, fp, fn_, tn: 0 };
    m.f_measure()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DbmsBackend, UeiBackend};
    use crate::synth::{generate_sdss_like, SynthConfig};
    use crate::workload::generate_target_region_fraction;
    use std::path::PathBuf;
    use std::sync::Arc;
    use uei_dbms::buffer::BufferPool;
    use uei_dbms::table::Table;
    use uei_index::config::UeiConfig;
    use uei_storage::io::IoProfile;
    use uei_storage::store::{ColumnStore, StoreConfig};
    use uei_types::Schema;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "uei-session-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture(tag: &str, n: usize, fraction: f64) -> (Vec<DataPoint>, Oracle, PathBuf) {
        let rows = generate_sdss_like(&SynthConfig { rows: n, ..Default::default() });
        let mut rng = Rng::new(13);
        let target =
            generate_target_region_fraction(&rows, &Schema::sdss(), fraction, &mut rng).unwrap();
        (rows, Oracle::new(target), temp_dir(tag))
    }

    fn quick_config() -> SessionConfig {
        SessionConfig {
            max_labels: 25,
            bootstrap_size: 200,
            eval_sample: 400,
            ..SessionConfig::default()
        }
    }

    /// A single-analyst UEI backend over a fresh store at `path`, plus the
    /// session's modeled clock to drive it with.
    fn uei_backend(
        path: PathBuf,
        rows: &[DataPoint],
        profile: IoProfile,
        gamma: usize,
        seed: u64,
    ) -> (UeiBackend, DiskTracker) {
        let store = ColumnStore::create(
            path,
            Schema::sdss(),
            rows,
            StoreConfig { chunk_target_bytes: 8192 },
            DiskTracker::new(profile),
        )
        .unwrap();
        let backend = UeiBackend::new(
            Arc::new(store),
            UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
            UncertaintyMeasure::LeastConfidence,
            gamma,
            &mut Rng::new(seed),
        )
        .unwrap();
        let clock = backend.index().store().tracker().clone();
        (backend, clock)
    }

    #[test]
    fn uei_session_runs_and_improves() {
        let (rows, oracle, dir) = fixture("uei", 4000, 0.02);
        let (mut backend, tracker) =
            uei_backend(dir.join("store"), &rows, IoProfile::instant(), 300, 1);
        let result =
            ExplorationSession::new(&mut backend, &oracle, quick_config(), tracker).run().unwrap();
        assert_eq!(result.backend, "uei");
        assert!(result.labels_used >= 20, "used {} labels", result.labels_used);
        assert!(!result.traces.is_empty());
        assert!(result.final_f_measure > 0.0, "final F {}", result.final_f_measure);
        // Traces carry UEI-specific fields, including cache activity from
        // the region loads.
        assert!(result.traces.iter().all(|t| t.region_rows.is_some()));
        assert!(
            result.traces.iter().any(|t| t.counters.cache_hits + t.counters.cache_misses > 0),
            "region loads must register chunk-cache lookups"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dbms_session_runs_and_scans() {
        let (rows, oracle, dir) = fixture("dbms", 3000, 0.02);
        let tracker = DiskTracker::new(IoProfile::instant());
        let table = Table::create(dir.join("t"), Schema::sdss(), &rows, &tracker).unwrap();
        let pool = BufferPool::new(2, tracker.clone()).unwrap();
        let mut backend = DbmsBackend::with_pool(table, pool, UncertaintyMeasure::LeastConfidence);
        let result =
            ExplorationSession::new(&mut backend, &oracle, quick_config(), tracker).run().unwrap();
        assert_eq!(result.backend, "dbms");
        assert!(result.traces.iter().all(|t| t.examined == Some(3000)));
        assert!(result.final_f_measure > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traces_are_well_formed() {
        let (rows, oracle, dir) = fixture("traces", 2500, 0.02);
        let (mut backend, tracker) =
            uei_backend(dir.join("store"), &rows, IoProfile::nvme(), 200, 2);
        let result =
            ExplorationSession::new(&mut backend, &oracle, quick_config(), tracker).run().unwrap();
        for (i, t) in result.traces.iter().enumerate() {
            assert_eq!(t.iteration, i + 1);
            assert!(t.labels >= 2, "model always trained on both classes");
            assert!(t.response_virtual_ms >= 0.0);
            assert!(t.response_wall_ms > 0.0);
            if let Some(f) = t.f_measure {
                assert!((0.0..=1.0).contains(&f));
            }
        }
        // Labels increase monotonically.
        for w in result.traces.windows(2) {
            assert_eq!(w[1].labels, w[0].labels + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bootstrap_seeds_positive_for_tiny_regions() {
        // 0.1 % region in 3000 rows = ~3 relevant tuples; a 100-row
        // bootstrap pool will essentially never contain one.
        let (rows, oracle, dir) = fixture("seedpos", 3000, 0.001);
        let (mut backend, tracker) =
            uei_backend(dir.join("store"), &rows, IoProfile::instant(), 100, 3);
        let config = SessionConfig {
            max_labels: 10,
            bootstrap_size: 100,
            eval_sample: 200,
            ..SessionConfig::default()
        };
        let result = ExplorationSession::new(&mut backend, &oracle, config, tracker).run().unwrap();
        assert!(result.labels_used >= 2, "bootstrap found both classes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_size_reduces_retraining_but_still_learns() {
        let (rows, oracle, dir) = fixture("batch", 2500, 0.02);
        let run = |batch: usize, tag: &str| {
            let (mut backend, tracker) =
                uei_backend(dir.join(tag), &rows, IoProfile::instant(), 200, 4);
            let config = SessionConfig {
                max_labels: 20,
                batch_size: batch,
                bootstrap_size: 150,
                eval_sample: 300,
                ..SessionConfig::default()
            };
            ExplorationSession::new(&mut backend, &oracle, config, tracker).run().unwrap()
        };
        let every = run(1, "b1");
        let batched = run(5, "b5");
        assert!(every.labels_used >= 15);
        assert!(batched.labels_used >= 15);
        assert!(batched.final_f_measure > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_batch_size_rejected() {
        let (rows, oracle, dir) = fixture("zerobatch", 1000, 0.02);
        let (mut backend, tracker) =
            uei_backend(dir.join("store"), &rows, IoProfile::instant(), 100, 4);
        let config = SessionConfig { batch_size: 0, max_labels: 5, ..SessionConfig::default() };
        assert!(ExplorationSession::new(&mut backend, &oracle, config, tracker).run().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, oracle, dir) = fixture("det", 2000, 0.02);
        let run = |tag: &str| -> SessionResult {
            let (mut backend, tracker) =
                uei_backend(dir.join(tag), &rows, IoProfile::instant(), 150, 7);
            ExplorationSession::new(&mut backend, &oracle, quick_config(), tracker).run().unwrap()
        };
        let a = run("a");
        let b = run("b");
        assert_eq!(a.labels_used, b.labels_used);
        assert_eq!(a.final_f_measure, b.final_f_measure);
        let ids_a: Vec<usize> = a.traces.iter().map(|t| t.iteration).collect();
        let ids_b: Vec<usize> = b.traces.iter().map(|t| t.iteration).collect();
        assert_eq!(ids_a, ids_b);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
