//! # uei-index
//!
//! The **Uncertainty Estimation Index** — the paper's primary contribution
//! (§3). UEI lets an uncertainty-sampling exploration loop run over a
//! dataset far larger than memory by predicting *which on-disk subspace*
//! holds the most uncertain objects and loading only that subspace.
//!
//! The five components of §3.1 map onto this crate as follows:
//!
//! 1. the index set `P` of symbolic index points → [`grid::Grid`] +
//!    [`points::IndexPoints`];
//! 2. the mapping `m : p → {chunks}` → [`mapping::ChunkMapping`];
//! 3. the data cache `U` of uniformly sampled unlabeled data → sampled via
//!    [`uei::UeiIndex::sample_unlabeled`], held by the exploration session;
//! 4. the labeled set `L` → `uei_learn::LabeledSet`, held by the session;
//! 5. the dataset `D` in inverted columnar format → `uei_storage`.
//!
//! [`uei::UeiIndex`] is the facade one analyst drives: index-point scores,
//! a region loader billing a private ghost cache ledger and virtual disk
//! clock, and the optional background [`prefetch::Prefetcher`] (the σ/θ
//! tuning of §3.2).
//!
//! Every `UeiIndex` is a session of an [`engine::EngineCore`], which owns
//! the `Arc`-shared immutable half (store handle, manifest, grid, mapping,
//! shared chunk cache): [`engine::EngineCore::open_session`] stamps out
//! independent sessions for concurrent exploration over one dataset, and
//! [`uei::UeiIndex::build`] is the one-session shorthand for the paper's
//! single-analyst setting.

#![warn(missing_docs)]
// Lint policy: `!(a <= b)` comparisons are deliberate — they reject NaN as
// well as inverted bounds, which `a > b` would silently accept. Indexed
// loops that clippy flags as `needless_range_loop` walk several parallel
// arrays by dimension; the index form keeps that symmetry readable.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod engine;
pub mod grid;
pub mod load;
pub mod loader;
pub mod mapping;
pub mod points;
pub mod prefetch;
pub mod select;
pub mod shard;
pub mod uei;

#[cfg(test)]
pub(crate) mod testutil;

pub use config::UeiConfig;
pub use engine::EngineCore;
pub use grid::{CellId, Grid};
pub use load::{LoadSource, RegionFetcher, RegionLoad};
pub use loader::{LoadStats, RegionLoader};
pub use mapping::ChunkMapping;
pub use points::{IndexPoints, RescoreStats};
pub use prefetch::{Ewma, Prefetcher};
pub use select::{DegradeCounters, ShardTops};
pub use shard::ShardLayout;
pub use uei::UeiIndex;
