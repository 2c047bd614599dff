//! # uei-learn
//!
//! The active-learning toolkit of the UEI reproduction — the substrate the
//! paper's REQUEST system draws on (§2.1, §4.1):
//!
//! - [`model`] — the [`model::Classifier`] trait (binary, probabilistic, as
//!   required by uncertainty sampling) and a config-driven
//!   [`model::EstimatorKind`] factory;
//! - [`kdtree`] — a kd-tree used by all nearest-neighbour classifiers and
//!   by range queries;
//! - [`knn`] — the k-nearest-neighbour classifier, weighted either
//!   uniformly (the majority-vote baseline) or by the **dual weights** of
//!   Gou et al. 2012 (DWKNN, the uncertainty estimator of the paper's
//!   evaluation, Table 1);
//! - [`naive_bayes`] — Gaussian Naive Bayes (the paper lists NB as an
//!   alternative probabilistic model for uncertainty sampling);
//! - [`svm`] — a linear SVM trained with Pegasos SGD, calibrated into a
//!   probability via [`platt`] scaling;
//! - [`strategy`] — query strategies: uncertainty sampling (least
//!   confidence / margin / entropy), random sampling, and
//!   query-by-committee ([`committee`]);
//! - [`metrics`] — F-measure and friends (the paper's accuracy metric);
//! - [`scale`] — min–max feature scaling so that distance-based estimators
//!   are not dominated by wide-domain attributes;
//! - [`dataset`] — labeled/unlabeled pools used by the exploration loop.

#![warn(missing_docs)]
// Lint policy: `!(a <= b)` comparisons are deliberate — they reject NaN as
// well as inverted bounds, which `a > b` would silently accept. Indexed
// loops that clippy flags as `needless_range_loop` walk several parallel
// arrays by dimension; the index form keeps that symmetry readable.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod committee;
pub mod dataset;
pub mod delta;
pub mod kdtree;
pub mod knn;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod platt;
pub mod scale;
pub mod strategy;
pub mod svm;

pub use batch::{map_batch_at, map_batch_with_at, should_parallelize_at, PARALLEL_THRESHOLD};
pub use committee::Committee;
pub use dataset::{LabeledSet, UnlabeledPool};
pub use delta::{knn_influence_delta, ModelDelta, ScoredBatch};
pub use kdtree::{KdTree, NearestScratch};
pub use knn::{Knn, Weighting};
pub use metrics::{ConfusionMatrix, Metrics};
pub use model::{Classifier, EstimatorKind};
pub use naive_bayes::GaussianNb;
pub use scale::{MinMaxScaler, ScaledClassifier};
pub use strategy::{QueryStrategy, UncertaintyMeasure, UncertaintySampling};
pub use svm::LinearSvm;
