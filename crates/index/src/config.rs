//! UEI configuration.

use uei_obs::TelemetryConfig;
use uei_storage::fault::RetryPolicy;
use uei_storage::journal::JournalConfig;
use uei_types::{Result, UeiError};

/// Tunables of the Uncertainty Estimation Index.
///
/// Defaults follow the paper's Table 1 where applicable: 5 cells per
/// dimension (5⁵ = 3125 symbolic index points for the 5-attribute SDSS
/// schema) and a 500 ms latency threshold σ.
#[derive(Debug, Clone)]
pub struct UeiConfig {
    /// Grid resolution: cells per dimension. The number of symbolic index
    /// points is `cells_per_dim ^ dims` ("the number of symbolic index
    /// point can be adjusted based on the size of the dataset and the
    /// available hardware resources", §3.1).
    pub cells_per_dim: usize,
    /// Byte budget of the in-memory chunk cache. The paper's default
    /// behaviour (exactly one region's chunks resident, each dropped after
    /// the merge) corresponds to a small budget; a larger budget lets
    /// chunks shared between adjacent cells stay resident.
    pub chunk_cache_bytes: usize,
    /// Response-latency threshold σ between iterations, in seconds
    /// (Table 1: 500 ms). Drives the prefetch horizon θ = ⌈τ/σ⌉.
    pub latency_threshold_secs: f64,
    /// Whether the background prefetcher is enabled (§3.2 "Tuning
    /// Interactive Exploration").
    pub prefetch: bool,
    /// How many recently loaded uncertain regions the unlabeled cache `U`
    /// keeps resident. The paper's default is 1 ("to reduce memory usage,
    /// by default UEI kept only one uncertain data region g* in the memory
    /// at any given time", §3.2); larger values trade memory for a wider
    /// candidate pool.
    pub regions_in_memory: usize,
    /// Defer region swaps that would blow the latency threshold: when the
    /// ranking moves to a new cell but the expected load time τ exceeds σ
    /// and no prefetched copy is ready, keep serving the current region
    /// this iteration ("UEI determines whether or not to defer the swap
    /// between the current in-memory uncertain region g*_i and the next
    /// uncertain region g*_{i+1}", §3.2). Off by default.
    pub defer_swaps: bool,
    /// Retry policy for foreground region loads: transient storage errors
    /// are retried up to `max_attempts` with exponential backoff charged to
    /// the virtual clock. Corruption is never retried — a corrupt chunk
    /// stays corrupt, so the loader falls through to the next candidate
    /// instead.
    pub retry: RetryPolicy,
    /// How many of the top-ranked uncertain cells `select_and_load` is
    /// willing to try before declaring the iteration degraded. Rank 0 is
    /// the true p*; each further rank is a graceful-degradation fallback
    /// taken only when every better-ranked cell failed with a storage
    /// fault.
    pub fallback_candidates: usize,
    /// Durability knobs for sessions that attach a write-ahead journal:
    /// fsync policy for record appends, segment rotation size, and the
    /// snapshot cadence in iterations (DESIGN.md §13). Sessions without a
    /// journal directory ignore this entirely.
    pub journal: JournalConfig,
    /// Telemetry gate (DESIGN.md §15): phase spans, the metrics registry,
    /// and the per-session flight recorder. Off by default; modeled
    /// counters and traces are bit-identical either way — telemetry only
    /// *reads* the virtual clock, never charges it.
    pub telemetry: TelemetryConfig,
}

impl Default for UeiConfig {
    fn default() -> Self {
        UeiConfig {
            cells_per_dim: 5,
            chunk_cache_bytes: 64 << 20,
            latency_threshold_secs: 0.5,
            prefetch: false,
            regions_in_memory: 1,
            defer_swaps: false,
            retry: RetryPolicy::default(),
            fallback_candidates: 4,
            journal: JournalConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl UeiConfig {
    /// Validates the configuration against a schema dimensionality.
    pub fn validate(&self, dims: usize) -> Result<()> {
        if self.cells_per_dim < 1 {
            return Err(UeiError::invalid_config("cells_per_dim must be >= 1"));
        }
        if dims == 0 {
            return Err(UeiError::invalid_config("schema must have >= 1 dimension"));
        }
        // Guard the cell count against overflow / absurd sizes.
        let mut cells: u128 = 1;
        for _ in 0..dims {
            cells = cells.saturating_mul(self.cells_per_dim as u128);
            if cells > 50_000_000 {
                return Err(UeiError::invalid_config(format!(
                    "grid of {}^{dims} cells is too large",
                    self.cells_per_dim
                )));
            }
        }
        if !(self.latency_threshold_secs > 0.0) {
            return Err(UeiError::invalid_config("latency threshold must be positive"));
        }
        if self.regions_in_memory == 0 {
            return Err(UeiError::invalid_config("regions_in_memory must be >= 1"));
        }
        if self.fallback_candidates == 0 {
            return Err(UeiError::invalid_config("fallback_candidates must be >= 1"));
        }
        self.retry.validate()?;
        self.journal.validate()?;
        self.telemetry.validate()?;
        Ok(())
    }

    /// Total number of symbolic index points for `dims` dimensions.
    pub fn num_cells(&self, dims: usize) -> usize {
        self.cells_per_dim.pow(dims as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = UeiConfig::default();
        assert_eq!(c.cells_per_dim, 5);
        assert_eq!(c.num_cells(5), 3125, "Table 1: 3125 symbolic index points");
        assert_eq!(c.latency_threshold_secs, 0.5, "Table 1: 500 ms threshold");
        c.validate(5).unwrap();
    }

    /// The whole configuration surface, destructured without `..`: adding
    /// a field fails to compile here until this list names it.
    #[test]
    fn config_surface_is_exactly_ten_fields() {
        let UeiConfig {
            cells_per_dim,
            chunk_cache_bytes,
            latency_threshold_secs,
            prefetch,
            regions_in_memory,
            defer_swaps,
            retry,
            fallback_candidates,
            journal,
            telemetry,
        } = UeiConfig::default();
        assert_eq!((cells_per_dim, chunk_cache_bytes), (5, 64 << 20));
        assert_eq!(latency_threshold_secs, 0.5);
        assert!(!prefetch && !defer_swaps && !telemetry.enabled);
        assert_eq!((regions_in_memory, fallback_candidates), (1, 4));
        assert_eq!(retry, RetryPolicy::default());
        journal.validate().unwrap();
    }

    #[test]
    fn rejects_degenerate_configs() {
        let c = UeiConfig { cells_per_dim: 0, ..UeiConfig::default() };
        assert!(c.validate(5).is_err());

        let c = UeiConfig { latency_threshold_secs: 0.0, ..UeiConfig::default() };
        assert!(c.validate(5).is_err());

        let c = UeiConfig { regions_in_memory: 0, ..UeiConfig::default() };
        assert!(c.validate(5).is_err());

        let c = UeiConfig { fallback_candidates: 0, ..UeiConfig::default() };
        assert!(c.validate(5).is_err());

        let c = UeiConfig {
            retry: RetryPolicy { max_attempts: 0, ..RetryPolicy::default() },
            ..UeiConfig::default()
        };
        assert!(c.validate(5).is_err());

        let c = UeiConfig {
            journal: JournalConfig { snapshot_every: 0, ..JournalConfig::default() },
            ..UeiConfig::default()
        };
        assert!(c.validate(5).is_err());

        let c = UeiConfig {
            journal: JournalConfig { segment_bytes: 0, ..JournalConfig::default() },
            ..UeiConfig::default()
        };
        assert!(c.validate(5).is_err());

        let c = UeiConfig {
            telemetry: TelemetryConfig { enabled: true, flight_capacity: 0 },
            ..UeiConfig::default()
        };
        assert!(c.validate(5).is_err());

        assert!(UeiConfig::default().validate(0).is_err());
    }

    #[test]
    fn rejects_explosive_grids() {
        let mut c = UeiConfig { cells_per_dim: 100, ..UeiConfig::default() };
        assert!(c.validate(10).is_err(), "100^10 cells must be rejected");
        c.cells_per_dim = 2;
        c.validate(20).unwrap();
    }
}
