//! # uei-obs
//!
//! Engine-wide observability for the UEI stack (DESIGN.md §15). Three
//! pillars, all vendored-deps-only and network-free:
//!
//! - [`metrics`] — a registry of atomic counters, gauges, and log₂-bucket
//!   histograms, mergeable across threads and sessions, with two
//!   exporters: Prometheus text format and a diffable serde JSON
//!   [`metrics::MetricsSnapshot`];
//! - [`span`] — zero-alloc scoped phase timers ([`span::Span`]) that
//!   accumulate dual wall/virtual-clock durations per iteration
//!   [`span::Phase`], surfaced as the `phase_ms` breakdown on traces;
//! - [`flight`] — a fixed-capacity ring of recent structured events
//!   ([`flight::FlightEvent`]) per session, dumped by the multi-session
//!   supervisor as a JSON [`flight::Postmortem`] on panic, recovery, or a
//!   degraded run.
//!
//! The layer is configuration-gated by [`TelemetryConfig`]: a disabled
//! [`span::SessionTelemetry`] handle is a `None` behind an `Option` —
//! entering a span is one branch, no clock read, no allocation — so the
//! modeled counters and traces of a session are bit-identical whether
//! telemetry is on, off, or (as before this layer existed) absent.

pub mod counters;
pub mod flight;
pub mod metrics;
pub mod span;

pub use counters::ObsCounters;
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder, Postmortem};
pub use metrics::{
    Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, MetricsRegistry,
    MetricsSnapshot,
};
pub use span::{
    EngineTelemetry, Phase, PhaseMs, PhaseSnapshot, PhaseStats, SessionTelemetry, Span,
    VirtualClock, PHASES,
};

use serde::{Deserialize, Serialize};
use uei_types::{Result, UeiError};

/// Telemetry knobs, carried inside `UeiConfig { telemetry }`.
///
/// Off by default: the baseline exploration loop pays nothing beyond one
/// branch per instrumented call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch for spans, metrics, and the flight recorder.
    #[serde(default)]
    pub enabled: bool,
    /// Events retained per session flight ring (oldest overwritten).
    #[serde(default)]
    pub flight_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: false, flight_capacity: 256 }
    }
}

impl TelemetryConfig {
    /// Telemetry on with the default ring capacity.
    pub fn on() -> Self {
        TelemetryConfig { enabled: true, ..TelemetryConfig::default() }
    }

    /// Validates the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.flight_capacity == 0 {
            return Err(UeiError::invalid_config(
                "telemetry.flight_capacity must be >= 1 when telemetry is enabled",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let config = TelemetryConfig::default();
        assert!(!config.enabled);
        config.validate().unwrap();
        TelemetryConfig::on().validate().unwrap();
    }

    #[test]
    fn enabled_requires_ring_capacity() {
        let config = TelemetryConfig { enabled: true, flight_capacity: 0 };
        assert!(config.validate().is_err());
        let off = TelemetryConfig { enabled: false, flight_capacity: 0 };
        off.validate().unwrap();
    }
}
