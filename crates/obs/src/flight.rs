//! The flight recorder: a fixed-capacity ring of recent structured
//! events per session, dumped as a JSON [`Postmortem`] by the
//! multi-session supervisor on panic, recovery, or a degraded run.
//!
//! The record path is a single atomic cursor bump plus one slot store —
//! writers never wait on each other for different slots, and the ring
//! never grows, so a session in distress cannot be pushed over by its
//! own black box. Readers snapshot whatever slots are populated; under a
//! racing writer a reader may miss the newest event, never see a torn
//! one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// What happened. Serialized as the variant name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEventKind {
    /// A burst of shared-cache evictions within one iteration.
    EvictionStorm,
    /// Transient read faults absorbed by the retry policy.
    Retry,
    /// The fallback ladder skipped past failed candidate cells.
    Fallback,
    /// A region swap deferred to hold the latency threshold σ.
    DeferredSwap,
    /// An iteration completed in degraded mode (retries or fallbacks).
    DegradedIteration,
    /// A synchronous load exceeded the σ deadline.
    SigmaDeadlineMiss,
    /// The write-ahead journal rotated to a fresh segment.
    JournalRotation,
    /// A journal snapshot was published (older segments collected).
    JournalSnapshot,
    /// A crashed session was recovered from its journal.
    Recovery,
    /// A session thread panicked under supervision.
    Panic,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotonic sequence number within the recorder (assigned on record).
    #[serde(default)]
    pub seq: u64,
    /// Ordinal of the session that recorded the event (engine-assigned, from 1).
    #[serde(default)]
    pub session: u64,
    /// Labels acquired when the event fired (the loop's iteration proxy).
    #[serde(default)]
    pub iteration: u64,
    /// Event class.
    pub kind: FlightEventKind,
    /// Free-form context (counter deltas, cell ids, error text).
    #[serde(default)]
    pub detail: String,
}

/// Fixed-capacity event ring; the oldest event is overwritten.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding up to `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (≥ resident events).
    pub fn total_recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records `event`, stamping and returning its sequence number.
    pub fn record(&self, mut event: FlightEvent) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().expect("flight slot poisoned") = Some(event);
        seq
    }

    /// The resident events in sequence order (oldest first).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("flight slot poisoned").clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }
}

/// The supervisor's post-mortem artifact: why it was written plus the
/// recent flight events of every session of the engine. Round-trips
/// through serde so artifacts are machine-checkable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Postmortem {
    /// `"panic"`, `"recovered"`, or `"degraded"`.
    pub cause: String,
    /// Human-readable context (panic payload, error text, run summary).
    pub reason: String,
    /// Sessions whose recorders contributed events.
    #[serde(default)]
    pub sessions: u64,
    /// Merged recent events, ordered by (session, seq).
    #[serde(default)]
    pub events: Vec<FlightEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: FlightEventKind, iteration: u64) -> FlightEvent {
        FlightEvent { seq: 0, session: 1, iteration, kind, detail: String::new() }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = FlightRecorder::new(3);
        for i in 0..5 {
            ring.record(ev(FlightEventKind::Retry, i));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.iteration).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.total_recorded(), 5);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = FlightRecorder::new(0);
        ring.record(ev(FlightEventKind::Panic, 1));
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn postmortem_roundtrips_through_serde() {
        let pm = Postmortem {
            cause: "panic".to_string(),
            reason: "session panicked: boom".to_string(),
            sessions: 2,
            events: vec![
                ev(FlightEventKind::EvictionStorm, 3),
                ev(FlightEventKind::JournalRotation, 7),
            ],
        };
        let json = serde_json::to_string_pretty(&pm).unwrap();
        let back: Postmortem = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pm);
        assert!(json.contains("\"EvictionStorm\""));
    }
}
