//! # uei-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4), plus the ablations DESIGN.md calls out.
//!
//! - [`fixture`] — builds and caches the on-disk dataset fixtures (column
//!   store for the UEI scheme, row table for the DBMS scheme) at a chosen
//!   scale, and derives the paper's ~1 % memory restriction;
//! - [`experiments`] — one function per experiment: Figures 3–5 (accuracy
//!   vs labels for S/M/L regions), Figure 6 (response time), Table 1
//!   (parameters), the §3.3 complexity accounting, and the ablation
//!   sweeps (grid resolution, chunk size, sample size γ, estimator,
//!   prefetch σ).
//!
//! The `experiments` binary (`cargo run -p uei-bench --release --bin
//! experiments -- all`) drives them and writes machine-readable results
//! next to human-readable tables. What an exploration iteration costs,
//! end to end and layer by layer, is measured by the standalone
//! `benchmark/` package, not here.

pub mod experiments;
pub mod fixture;

pub use experiments::*;
pub use fixture::{ExperimentScale, Fixture};
