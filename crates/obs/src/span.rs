//! Phase spans: zero-alloc scoped timers accumulating dual wall +
//! virtual-clock durations for the seven hot phases of an exploration
//! iteration, plus the engine/session telemetry handles that own them.
//!
//! A [`Span`] is a guard: enter with [`SessionTelemetry::span`], drop to
//! record. When telemetry is disabled the handle holds no state and
//! `span()` is a single branch — no clock read, no allocation — which is
//! what keeps disabled-mode cost near zero.
//! Spans nest; each phase accumulates its own *inclusive* time, so a
//! [`Phase::ChunkMerge`] span inside a [`Phase::RegionLoad`] span counts
//! toward both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::flight::{FlightEvent, FlightEventKind, FlightRecorder, Postmortem};
use crate::metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::TelemetryConfig;

/// Number of instrumented phases.
pub const PHASES: usize = 7;

/// The seven hot phases of one exploration iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Retraining the classifier on the labeled set.
    ModelRefit = 0,
    /// Rescoring index points (full or incremental).
    Rescore = 1,
    /// Ranking/merging shard index planes and picking candidates.
    ShardSelect = 2,
    /// Loading the chosen region (cache, prefetch, or disk).
    RegionLoad = 3,
    /// Decoding and merging chunks into tuples.
    ChunkMerge = 4,
    /// Estimating the F-measure on the evaluation sample.
    Eval = 5,
    /// Appending the iteration to the write-ahead journal.
    JournalAppend = 6,
}

impl Phase {
    /// Every phase, in enum order.
    pub const ALL: [Phase; PHASES] = [
        Phase::ModelRefit,
        Phase::Rescore,
        Phase::ShardSelect,
        Phase::RegionLoad,
        Phase::ChunkMerge,
        Phase::Eval,
        Phase::JournalAppend,
    ];

    /// Stable snake_case name used in trace breakdowns and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ModelRefit => "model_refit",
            Phase::Rescore => "rescore",
            Phase::ShardSelect => "shard_select",
            Phase::RegionLoad => "region_load",
            Phase::ChunkMerge => "chunk_merge",
            Phase::Eval => "eval",
            Phase::JournalAppend => "journal_append",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One phase's share of a breakdown window (serialized into
/// `IterationTrace::phase_ms` and summed into `RunSummary`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMs {
    /// [`Phase::name`] of the phase.
    pub phase: String,
    /// Wall-clock milliseconds spent in the phase.
    pub wall_ms: f64,
    /// Virtual-clock (modeled I/O) milliseconds spent in the phase.
    pub virtual_ms: f64,
    /// Spans recorded.
    pub count: u64,
}

/// Per-phase accumulators (relaxed atomics, shared by value snapshots).
#[derive(Debug, Default)]
pub struct PhaseStats {
    wall_nanos: [AtomicU64; PHASES],
    virtual_nanos: [AtomicU64; PHASES],
    counts: [AtomicU64; PHASES],
}

/// A point-in-time copy of [`PhaseStats`], used to window per-iteration
/// breakdowns out of cumulative per-session accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    wall_nanos: [u64; PHASES],
    virtual_nanos: [u64; PHASES],
    counts: [u64; PHASES],
}

impl PhaseStats {
    /// Fresh, zeroed accumulators.
    pub fn new() -> PhaseStats {
        PhaseStats::default()
    }

    /// Adds one span's durations to `phase`.
    pub fn record(&self, phase: Phase, wall_nanos: u64, virtual_nanos: u64) {
        let i = phase.index();
        self.wall_nanos[i].fetch_add(wall_nanos, Ordering::Relaxed);
        self.virtual_nanos[i].fetch_add(virtual_nanos, Ordering::Relaxed);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current totals.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            wall_nanos: std::array::from_fn(|i| self.wall_nanos[i].load(Ordering::Relaxed)),
            virtual_nanos: std::array::from_fn(|i| self.virtual_nanos[i].load(Ordering::Relaxed)),
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
        }
    }

    /// The per-phase deltas since `earlier`, skipping phases with no
    /// spans in the window.
    pub fn breakdown_since(&self, earlier: &PhaseSnapshot) -> Vec<PhaseMs> {
        let now = self.snapshot();
        Phase::ALL
            .iter()
            .filter_map(|&p| {
                let i = p.index();
                let count = now.counts[i].saturating_sub(earlier.counts[i]);
                if count == 0 {
                    return None;
                }
                Some(PhaseMs {
                    phase: p.name().to_string(),
                    wall_ms: now.wall_nanos[i].saturating_sub(earlier.wall_nanos[i]) as f64 / 1e6,
                    virtual_ms: now.virtual_nanos[i].saturating_sub(earlier.virtual_nanos[i])
                        as f64
                        / 1e6,
                    count,
                })
            })
            .collect()
    }

    /// The all-time per-phase breakdown.
    pub fn breakdown(&self) -> Vec<PhaseMs> {
        self.breakdown_since(&PhaseSnapshot::default())
    }
}

/// A source of virtual-clock readings (implemented by the storage
/// layer's `DiskTracker`), letting spans report modeled I/O time next to
/// wall time without this crate depending on the storage layer.
pub trait VirtualClock: Send + Sync {
    /// Nanoseconds elapsed on the virtual clock.
    fn virtual_nanos(&self) -> u64;
}

struct SessionInner {
    ordinal: u64,
    phases: PhaseStats,
    phase_wall_us: [Arc<Histogram>; PHASES],
    phase_virtual_us: [Arc<Counter>; PHASES],
    flight: FlightRecorder,
    registry: Arc<MetricsRegistry>,
    clock: Option<Arc<dyn VirtualClock>>,
}

impl std::fmt::Debug for SessionInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionInner")
            .field("ordinal", &self.ordinal)
            .field("flight_recorded", &self.flight.total_recorded())
            .finish_non_exhaustive()
    }
}

/// The per-session telemetry handle: cheap to clone (one `Arc`), inert
/// when telemetry is disabled.
#[derive(Debug, Clone, Default)]
pub struct SessionTelemetry {
    inner: Option<Arc<SessionInner>>,
}

impl SessionTelemetry {
    /// An inert handle: every operation is a no-op behind one branch.
    pub fn disabled() -> SessionTelemetry {
        SessionTelemetry { inner: None }
    }

    /// A handle recording into `registry`; inert unless `config.enabled`.
    pub fn new(
        config: TelemetryConfig,
        ordinal: u64,
        registry: Arc<MetricsRegistry>,
        clock: Option<Arc<dyn VirtualClock>>,
    ) -> SessionTelemetry {
        if !config.enabled {
            return SessionTelemetry::disabled();
        }
        let phase_wall_us = std::array::from_fn(|i| {
            registry.histogram(&format!("uei_phase_wall_us_{}", Phase::ALL[i].name()))
        });
        let phase_virtual_us = std::array::from_fn(|i| {
            registry.counter(&format!("uei_phase_virtual_us_{}", Phase::ALL[i].name()))
        });
        SessionTelemetry {
            inner: Some(Arc::new(SessionInner {
                ordinal,
                phases: PhaseStats::new(),
                phase_wall_us,
                phase_virtual_us,
                flight: FlightRecorder::new(config.flight_capacity),
                registry,
                clock,
            })),
        }
    }

    /// Whether spans and events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The session's ordinal within its engine (0 when disabled).
    pub fn ordinal(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ordinal)
    }

    /// The registry this session records into, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Enters a phase span; the drop of the returned guard records it.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => Span {
                active: Some(ActiveSpan {
                    inner,
                    phase,
                    wall_start: Instant::now(),
                    virtual_start: inner.clock.as_ref().map_or(0, |c| c.virtual_nanos()),
                }),
            },
        }
    }

    /// Records a flight event; `detail` is only rendered when enabled.
    pub fn event(&self, kind: FlightEventKind, iteration: u64, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.flight.record(FlightEvent {
                seq: 0,
                session: inner.ordinal,
                iteration,
                kind,
                detail: detail(),
            });
        }
    }

    /// The resident flight events (empty when disabled).
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.flight.events())
    }

    /// Snapshot of the cumulative per-phase accumulators (zeroed when
    /// disabled, so windowing code stays branch-free).
    pub fn phase_snapshot(&self) -> PhaseSnapshot {
        self.inner.as_ref().map_or_else(PhaseSnapshot::default, |i| i.phases.snapshot())
    }

    /// Per-phase deltas since `earlier` (empty when disabled).
    pub fn breakdown_since(&self, earlier: &PhaseSnapshot) -> Vec<PhaseMs> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.phases.breakdown_since(earlier))
    }

    /// The all-time per-phase breakdown (empty when disabled).
    pub fn breakdown(&self) -> Vec<PhaseMs> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.phases.breakdown())
    }
}

struct ActiveSpan<'a> {
    inner: &'a SessionInner,
    phase: Phase,
    wall_start: Instant,
    virtual_start: u64,
}

/// A scoped phase timer; records into the session's accumulators and the
/// registry's per-phase instruments on drop. Inert (zero state) when the
/// owning [`SessionTelemetry`] is disabled.
pub struct Span<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let wall = span.wall_start.elapsed().as_nanos() as u64;
            let virt = span
                .inner
                .clock
                .as_ref()
                .map_or(0, |c| c.virtual_nanos().saturating_sub(span.virtual_start));
            span.inner.phases.record(span.phase, wall, virt);
            let i = span.phase.index();
            span.inner.phase_wall_us[i].record(wall / 1_000);
            span.inner.phase_virtual_us[i].add(virt / 1_000);
        }
    }
}

/// Engine-wide telemetry: owns the shared [`MetricsRegistry`] and tracks
/// every session handle it has opened so the supervisor can merge their
/// flight recorders into one [`Postmortem`].
pub struct EngineTelemetry {
    config: TelemetryConfig,
    registry: Arc<MetricsRegistry>,
    sessions: Mutex<Vec<SessionTelemetry>>,
    next_ordinal: AtomicU64,
}

impl std::fmt::Debug for EngineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTelemetry").field("config", &self.config).finish_non_exhaustive()
    }
}

impl EngineTelemetry {
    /// A fresh engine-wide registry under `config`.
    pub fn new(config: TelemetryConfig) -> EngineTelemetry {
        EngineTelemetry {
            config,
            registry: Arc::new(MetricsRegistry::new()),
            sessions: Mutex::new(Vec::new()),
            next_ordinal: AtomicU64::new(1),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Whether telemetry is recording.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The engine-wide registry (usable even while disabled; it simply
    /// receives nothing from inert session handles).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Opens a per-session handle wired to the engine registry and the
    /// session's virtual clock; registered for post-mortem merging.
    pub fn open_session(&self, clock: Option<Arc<dyn VirtualClock>>) -> SessionTelemetry {
        if !self.config.enabled {
            return SessionTelemetry::disabled();
        }
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
        let session =
            SessionTelemetry::new(self.config, ordinal, Arc::clone(&self.registry), clock);
        self.registry.counter("uei_sessions_total").inc();
        self.sessions.lock().expect("telemetry sessions poisoned").push(session.clone());
        session
    }

    /// Exports every instrument as a diffable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Exports the registry in Prometheus text format.
    pub fn to_prometheus(&self) -> String {
        self.registry.to_prometheus()
    }

    /// The merged recent flight events of every session, ordered by
    /// (session, seq).
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        let sessions = self.sessions.lock().expect("telemetry sessions poisoned");
        let mut events: Vec<FlightEvent> =
            sessions.iter().flat_map(|s| s.flight_events()).collect();
        events.sort_by_key(|e| (e.session, e.seq));
        events
    }

    /// Builds a post-mortem artifact from the merged flight recorders.
    pub fn postmortem(&self, cause: &str, reason: &str) -> Postmortem {
        let sessions = self.sessions.lock().expect("telemetry sessions poisoned").len() as u64;
        Postmortem {
            cause: cause.to_string(),
            reason: reason.to_string(),
            sessions,
            events: self.flight_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeClock(AtomicU64);

    impl VirtualClock for FakeClock {
        fn virtual_nanos(&self) -> u64 {
            // Every read advances the clock 1 ms, so a span observes
            // exactly one tick between enter and drop.
            self.0.fetch_add(1_000_000, Ordering::Relaxed)
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tel = SessionTelemetry::disabled();
        assert!(!tel.enabled());
        {
            let _span = tel.span(Phase::Rescore);
        }
        tel.event(FlightEventKind::Retry, 1, || unreachable!("detail must not render"));
        assert!(tel.flight_events().is_empty());
        assert!(tel.breakdown().is_empty());
        assert_eq!(tel.phase_snapshot(), PhaseSnapshot::default());
    }

    #[test]
    fn spans_accumulate_wall_and_virtual_time() {
        let clock = Arc::new(FakeClock(AtomicU64::new(0)));
        let tel = EngineTelemetry::new(TelemetryConfig::on()).open_session(Some(clock));
        {
            let _outer = tel.span(Phase::RegionLoad);
            let _inner = tel.span(Phase::ChunkMerge);
        }
        let breakdown = tel.breakdown();
        assert_eq!(breakdown.len(), 2);
        let load = breakdown.iter().find(|p| p.phase == "region_load").unwrap();
        assert_eq!(load.count, 1);
        // The fake clock ticks 1 ms per read: the inner span's enter and
        // drop both land inside the outer window, so outer sees 3 ticks
        // and the nested span exactly 1.
        assert!((load.virtual_ms - 3.0).abs() < 1e-9, "virtual_ms={}", load.virtual_ms);
        let merge = breakdown.iter().find(|p| p.phase == "chunk_merge").unwrap();
        assert!((merge.virtual_ms - 1.0).abs() < 1e-9, "virtual_ms={}", merge.virtual_ms);
        let registry = tel.registry().unwrap();
        assert_eq!(registry.histogram("uei_phase_wall_us_region_load").count(), 1);
    }

    #[test]
    fn breakdown_windows_between_snapshots() {
        let tel = EngineTelemetry::new(TelemetryConfig::on()).open_session(None);
        {
            let _s = tel.span(Phase::Rescore);
        }
        let mark = tel.phase_snapshot();
        {
            let _s = tel.span(Phase::Eval);
        }
        let window = tel.breakdown_since(&mark);
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].phase, "eval");
        assert_eq!(tel.breakdown().len(), 2);
    }

    #[test]
    fn engine_telemetry_merges_session_flight_events() {
        let engine = EngineTelemetry::new(TelemetryConfig::on());
        let a = engine.open_session(None);
        let b = engine.open_session(None);
        a.event(FlightEventKind::Fallback, 2, || "rank 1".to_string());
        b.event(FlightEventKind::Retry, 5, || "2 retries".to_string());
        let pm = engine.postmortem("panic", "boom");
        assert_eq!(pm.sessions, 2);
        assert_eq!(pm.events.len(), 2);
        assert!(pm.events[0].session < pm.events[1].session);
        assert_eq!(
            engine
                .snapshot()
                .counters
                .iter()
                .find(|c| c.name == "uei_sessions_total")
                .unwrap()
                .value,
            2
        );
    }

    #[test]
    fn disabled_engine_hands_out_inert_sessions() {
        let engine = EngineTelemetry::new(TelemetryConfig::default());
        let tel = engine.open_session(None);
        assert!(!tel.enabled());
        assert!(engine.flight_events().is_empty());
        assert_eq!(engine.postmortem("degraded", "x").events.len(), 0);
    }

    #[test]
    fn phase_names_are_stable_and_complete() {
        assert_eq!(Phase::ALL.len(), PHASES);
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "model_refit",
                "rescore",
                "shard_select",
                "region_load",
                "chunk_merge",
                "eval",
                "journal_append"
            ]
        );
    }
}
