//! # uei — Uncertainty Estimation Index
//!
//! A Rust reproduction of *"On Supporting Scalable Active Learning-based
//! Interactive Data Exploration with Uncertainty Estimation Index"*
//! (Ge & Chrysanthis, EDBT 2021).
//!
//! UEI lets uncertainty-sampling-based interactive data exploration (IDE)
//! run over datasets far larger than main memory at sub-second per-
//! iteration response times: a coarse grid of *symbolic index points* is
//! scored by the current classifier to predict which on-disk subspace
//! holds the most uncertain objects, and only that subspace is loaded.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`types`] — shared kernel (points, regions, schema, RNG, codecs);
//! - [`storage`] — the inverted columnar chunked store + modeled I/O;
//! - [`dbms`] — the MySQL-like baseline row store;
//! - [`learn`] — DWKNN & friends, query strategies, metrics;
//! - [`index`] — the Uncertainty Estimation Index itself;
//! - [`explore`] — REQUEST-like exploration sessions, synthetic SDSS data,
//!   the simulated user.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use uei::prelude::*;
//!
//! # fn main() -> uei::types::Result<()> {
//! // 1. Generate a small SDSS-like dataset and initialize the store.
//! let rows = generate_sdss_like(&SynthConfig { rows: 2_000, ..Default::default() });
//! let dir = std::env::temp_dir().join("uei-doc-quickstart");
//! let _ = std::fs::remove_dir_all(&dir);
//! let store = ColumnStore::create(
//!     &dir, Schema::sdss(), &rows, StoreConfig::default(),
//!     DiskTracker::new(IoProfile::nvme()))?;
//!
//! // 2. Build the index and an exploration backend.
//! let mut rng = Rng::new(42);
//! let mut backend = UeiBackend::new(
//!     Arc::new(store),
//!     UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
//!     UncertaintyMeasure::LeastConfidence,
//!     200,
//!     &mut rng,
//! )?;
//!
//! // 3. Simulate a user interested in a region covering ~2 % of the data.
//! let target = generate_target_region_fraction(
//!     &rows, &Schema::sdss(), 0.02, &mut rng)?;
//! let oracle = Oracle::new(target);
//!
//! // 4. Run a short exploration session on the backend's modeled disk clock.
//! let config = SessionConfig { max_labels: 10, eval_sample: 200, ..Default::default() };
//! let clock = backend.index().store().tracker().clone();
//! let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run()?;
//! assert!(result.labels_used >= 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub use uei_dbms as dbms;
pub use uei_explore as explore;
pub use uei_index as index;
pub use uei_learn as learn;
pub use uei_storage as storage;
pub use uei_types as types;

/// Commonly used items, importable as `use uei::prelude::*`.
pub mod prelude {
    pub use uei_dbms::{BufferPool, Table};
    pub use uei_explore::{
        average_traces, generate_sdss_like, generate_target_region,
        generate_target_region_fraction, DbmsBackend, ExplorationBackend, ExplorationSession,
        Oracle, RegionSize, SessionConfig, SynthConfig, UeiBackend,
    };
    pub use uei_index::{UeiConfig, UeiIndex};
    pub use uei_learn::{
        Classifier, EstimatorKind, Knn, MinMaxScaler, ScaledClassifier, UncertaintyMeasure,
        UncertaintySampling, Weighting,
    };
    pub use uei_storage::{ColumnStore, DiskTracker, IoProfile, StoreConfig};
    pub use uei_types::{DataPoint, Label, Region, Rng, RowId, Schema};
}
