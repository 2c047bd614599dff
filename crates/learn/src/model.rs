//! The classifier abstraction used by uncertainty sampling.
//!
//! Uncertainty sampling "can be used with any probability-based predictive
//! model (e.g., Naive Bayes, SVM, etc.)" (paper §2.1); UEI likewise works
//! "in conjunction with any probabilistic-based classifiers" (§3). The
//! [`Classifier`] trait captures exactly what both need: a posterior
//! `P(positive | x)` for binary labels.

use uei_types::{Label, PointMatrix, Result, UeiError};

use crate::delta::{ModelDelta, ScoredBatch};

/// A trained binary probabilistic classifier.
pub trait Classifier: Send + Sync {
    /// Posterior probability that `x` is [`Label::Positive`], in `[0, 1]`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Posterior probabilities for a whole batch of queries, in input
    /// order.
    ///
    /// The contract is strict: `predict_proba_batch(xs)[i]` must be
    /// bit-identical to `predict_proba(xs[i])` for every implementation,
    /// so callers can switch between the scalar and batch paths (or
    /// between thread counts) without perturbing selection order. The
    /// default implementation fans the scalar calls out across cores for
    /// batches of at least [`Self::parallel_batch_threshold`] queries (see
    /// [`crate::batch`]); models override it when they can amortize work
    /// across queries (shared kd-tree traversal scratch, one member pass
    /// per committee).
    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        crate::batch::map_batch_at(xs, self.parallel_batch_threshold(), |x| self.predict_proba(x))
    }

    /// [`Self::predict_proba_batch`] plus per-query influence radii, when
    /// the model can bound its future updates spatially.
    ///
    /// `probs` must be bit-identical to `predict_proba_batch(xs)`. The
    /// kNN-family estimators return each query's squared k-th-neighbour
    /// distance as its radius — captured during the very same tree
    /// traversal that scored the query, so tracking costs nothing extra —
    /// while globally updating models return `radii2: None`. Callers hand
    /// the radii back verbatim to [`Self::model_delta`]; they are in the
    /// model's own input space and opaque outside it.
    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
        ScoredBatch { probs: self.predict_proba_batch(xs), radii2: None }
    }

    /// Which of `points`'s cached scores this model may score differently
    /// than the predecessor model it extends by the `added` training
    /// examples.
    ///
    /// `radii2` are the influence radii the *previous* scoring pass
    /// captured via [`Self::predict_proba_batch_tracked`] (same length and
    /// order as `points`). The contract: a point reported clean must
    /// produce a bit-identical posterior under `self`. The default is the
    /// conservative [`ModelDelta::Global`] — correct for every model,
    /// incremental for none; the kNN family overrides it with the strict
    /// influence-ball test of [`crate::delta::knn_influence_delta`].
    fn model_delta(&self, _points: &[&[f64]], _radii2: &[f64], _added: &[&[f64]]) -> ModelDelta {
        ModelDelta::Global
    }

    /// [`Self::model_delta`] over a flat row-major point matrix — the form
    /// the index-point rescoring path uses, so the hot loop never
    /// materializes a `Vec<Vec<f64>>`.
    ///
    /// Must return the exact same delta as
    /// `self.model_delta(&points.row_refs(), …)` — the default does
    /// literally that, and the kNN family overrides it with a blocked sweep
    /// over the contiguous storage
    /// ([`crate::delta::knn_influence_delta_flat`]).
    fn model_delta_matrix(
        &self,
        points: &PointMatrix,
        radii2: &[f64],
        added: &[&[f64]],
    ) -> ModelDelta {
        let refs = points.row_refs();
        self.model_delta(&refs, radii2, added)
    }

    /// [`Self::model_delta_matrix`] restricted to the row range `rows` —
    /// the shard-local form the partitioned index-point plane calls once
    /// per shard, in parallel, so each new example's influence ball is
    /// mapped onto exactly the shards it intersects.
    ///
    /// `radii2` holds the radii of the range only (`radii2.len() ==
    /// rows.len()`) and the returned mask covers the range in row order.
    /// The contract: for any partition of `0..points.len()` into ranges,
    /// the concatenation of the range masks must equal
    /// `self.model_delta_matrix(points, …)` — dirtiness is a per-point
    /// predicate and must not depend on where shard boundaries fall. The
    /// default materializes the range's row-refs view and delegates to
    /// [`Self::model_delta`]; the kNN family overrides it with the blocked
    /// [`crate::delta::knn_influence_delta_flat_range`] sweep.
    fn model_delta_matrix_range(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        radii2: &[f64],
        added: &[&[f64]],
    ) -> ModelDelta {
        if rows.start > rows.end || rows.end > points.len() {
            return ModelDelta::Global;
        }
        let refs: Vec<&[f64]> = rows.map(|i| points.row(i)).collect();
        self.model_delta(&refs, radii2, added)
    }

    /// The image of `x` in the model's *influence space* — the space its
    /// reported influence radii ([`ScoredBatch::radii2`]) measure
    /// distances in — or `None` when the model has no spatial locality
    /// structure or cannot map this input.
    ///
    /// The contract mirrors [`Self::model_delta`]: whenever a query `p`
    /// and an added example `a` both map to `Some` position, and the
    /// squared Euclidean distance between those positions is at least the
    /// finite radius `r2` that [`Self::predict_proba_batch_tracked`]
    /// reported for `p`, the delta must report `p` clean with respect to
    /// `a`. Callers use this for conservative geometric pre-filtering (the
    /// sharded index plane skips whole shards that no influence ball can
    /// reach); returning `None` merely disables that pruning, so the
    /// default is always sound. Implementations must return `None` for
    /// inputs the delta path would refuse (wrong dimensionality,
    /// untransformable rows) rather than guess.
    fn influence_position(&self, _x: &[f64]) -> Option<Vec<f64>> {
        None
    }

    /// Number of training examples this model was fitted on, in fit order,
    /// when the model can report it.
    ///
    /// Incremental rescoring uses this to recover *which* examples a
    /// retrained model gained: the exploration loop always retrains on the
    /// full labeled set, so the labeled entries between the previous and
    /// current training lengths are exactly the `added` influence sources
    /// for [`Self::model_delta`]. Models that cannot report a training
    /// size return `None`, and callers must fall back to a full rescore.
    fn training_len(&self) -> Option<usize> {
        None
    }

    /// Batch size below which this model's batch scoring stays sequential.
    ///
    /// The generic default ([`crate::batch::PARALLEL_THRESHOLD`]) is tuned
    /// for kd-tree-traversal-sized per-query work; models whose per-query
    /// cost is a handful of flops (Naive Bayes, a linear SVM) raise it,
    /// because for them the rayon fork/join overhead exceeds the scoring
    /// until batches are far larger. Thresholds affect scheduling only —
    /// results stay bit-identical at every batch size.
    fn parallel_batch_threshold(&self) -> usize {
        crate::batch::PARALLEL_THRESHOLD
    }

    /// Hard prediction at the 0.5 threshold.
    fn predict(&self, x: &[f64]) -> Label {
        Label::from_bool(self.predict_proba(x) >= 0.5)
    }

    /// Least-confidence uncertainty `u(x) = 1 − P(ŷ | x)` (paper Eq. 1).
    ///
    /// For binary classification this is `1 − max(p, 1−p)`, maximal (0.5)
    /// at `p = 0.5` — "the most uncertain example x is the one which can be
    /// assigned to either class label with probability 0.5" (§2.1).
    /// Delegates to [`crate::strategy::UncertaintyMeasure::LeastConfidence`]
    /// so the formula lives in exactly one place.
    fn uncertainty(&self, x: &[f64]) -> f64 {
        crate::strategy::UncertaintyMeasure::LeastConfidence.score(self.predict_proba(x))
    }

    /// Number of input dimensions the model expects.
    fn dims(&self) -> usize;
}

impl<C: Classifier + ?Sized> Classifier for Box<C> {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        (**self).predict_proba(x)
    }
    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        (**self).predict_proba_batch(xs)
    }
    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
        (**self).predict_proba_batch_tracked(xs)
    }
    fn model_delta(&self, points: &[&[f64]], radii2: &[f64], added: &[&[f64]]) -> ModelDelta {
        (**self).model_delta(points, radii2, added)
    }
    fn model_delta_matrix(
        &self,
        points: &PointMatrix,
        radii2: &[f64],
        added: &[&[f64]],
    ) -> ModelDelta {
        (**self).model_delta_matrix(points, radii2, added)
    }
    fn model_delta_matrix_range(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        radii2: &[f64],
        added: &[&[f64]],
    ) -> ModelDelta {
        (**self).model_delta_matrix_range(points, rows, radii2, added)
    }
    fn influence_position(&self, x: &[f64]) -> Option<Vec<f64>> {
        (**self).influence_position(x)
    }
    fn training_len(&self) -> Option<usize> {
        (**self).training_len()
    }
    fn parallel_batch_threshold(&self) -> usize {
        (**self).parallel_batch_threshold()
    }
    fn predict(&self, x: &[f64]) -> Label {
        (**self).predict(x)
    }
    fn uncertainty(&self, x: &[f64]) -> f64 {
        (**self).uncertainty(x)
    }
    fn dims(&self) -> usize {
        (**self).dims()
    }
}

/// Which probabilistic estimator to train — the tunable "Uncertainty
/// Estimator" row of the paper's Table 1 (DWKNN in the evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Dual weighted kNN (Gou et al. 2012) — the paper's choice.
    Dwknn {
        /// Neighbourhood size.
        k: usize,
    },
    /// Plain majority-vote kNN.
    Knn {
        /// Neighbourhood size.
        k: usize,
    },
    /// Gaussian Naive Bayes.
    NaiveBayes,
    /// Linear SVM (Pegasos) with Platt-calibrated probabilities.
    LinearSvm {
        /// Number of SGD epochs.
        epochs: usize,
        /// Regularization strength λ.
        lambda: f64,
    },
}

impl Default for EstimatorKind {
    fn default() -> Self {
        // Table 1: DWKNN; k = 5 is the usual small-neighbourhood default.
        EstimatorKind::Dwknn { k: 5 }
    }
}

impl EstimatorKind {
    /// Trains a classifier of this kind on `(point, label)` examples.
    ///
    /// Requires at least one example of each class — the exploration loop
    /// keeps sampling initial examples "until the set of initial examples
    /// contains at least one positive example and one negative example"
    /// (paper §3.2), so training on a single-class set is a protocol bug.
    pub fn train(&self, examples: &[(Vec<f64>, Label)]) -> Result<Box<dyn Classifier>> {
        check_two_classes(examples)?;
        match *self {
            EstimatorKind::Dwknn { k } => Ok(Box::new(crate::dwknn::Dwknn::fit(k, examples)?)),
            EstimatorKind::Knn { k } => Ok(Box::new(crate::knn::Knn::fit(k, examples)?)),
            EstimatorKind::NaiveBayes => {
                Ok(Box::new(crate::naive_bayes::GaussianNb::fit(examples)?))
            }
            EstimatorKind::LinearSvm { epochs, lambda } => {
                Ok(Box::new(crate::svm::LinearSvm::fit(examples, epochs, lambda, 0x5EED)?))
            }
        }
    }

    /// Short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::Dwknn { .. } => "DWKNN",
            EstimatorKind::Knn { .. } => "KNN",
            EstimatorKind::NaiveBayes => "GaussianNB",
            EstimatorKind::LinearSvm { .. } => "LinearSVM",
        }
    }
}

/// Validates that a training set is non-empty, dimensionally consistent,
/// and contains both classes.
pub(crate) fn check_two_classes(examples: &[(Vec<f64>, Label)]) -> Result<()> {
    let first = examples
        .first()
        .ok_or_else(|| UeiError::invalid_state("cannot train on an empty labeled set"))?;
    let dims = first.0.len();
    let mut pos = false;
    let mut neg = false;
    for (x, label) in examples {
        if x.len() != dims {
            return Err(UeiError::DimensionMismatch { expected: dims, actual: x.len() });
        }
        match label {
            Label::Positive => pos = true,
            Label::Negative => neg = true,
        }
    }
    if !pos || !neg {
        return Err(UeiError::invalid_state(
            "training requires at least one positive and one negative example",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(f64);
    impl Classifier for Constant {
        fn predict_proba(&self, _x: &[f64]) -> f64 {
            self.0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    #[test]
    fn default_predict_threshold() {
        assert_eq!(Constant(0.7).predict(&[0.0]), Label::Positive);
        assert_eq!(Constant(0.5).predict(&[0.0]), Label::Positive);
        assert_eq!(Constant(0.49).predict(&[0.0]), Label::Negative);
    }

    #[test]
    fn least_confidence_uncertainty() {
        assert!((Constant(0.5).uncertainty(&[0.0]) - 0.5).abs() < 1e-12);
        assert!((Constant(0.9).uncertainty(&[0.0]) - 0.1).abs() < 1e-12);
        assert!((Constant(0.1).uncertainty(&[0.0]) - 0.1).abs() < 1e-12);
        assert_eq!(Constant(1.0).uncertainty(&[0.0]), 0.0);
    }

    #[test]
    fn boxed_classifier_delegates() {
        let boxed: Box<dyn Classifier> = Box::new(Constant(0.8));
        assert_eq!(boxed.predict_proba(&[0.0]), 0.8);
        assert_eq!(boxed.predict(&[0.0]), Label::Positive);
        assert_eq!(boxed.dims(), 1);
        assert_eq!(boxed.parallel_batch_threshold(), crate::batch::PARALLEL_THRESHOLD);
    }

    #[test]
    fn default_delta_contract_is_conservative() {
        let model = Constant(0.3);
        let x = [0.0f64];
        let xs: Vec<&[f64]> = vec![&x];
        let tracked = model.predict_proba_batch_tracked(&xs);
        assert_eq!(tracked.probs, vec![0.3]);
        assert!(tracked.radii2.is_none(), "a global model reports no influence radii");
        // Without radii the delta must be invalidate-all, no matter what
        // was (or wasn't) added.
        assert_eq!(model.model_delta(&xs, &[], &[]), crate::delta::ModelDelta::Global);
        let boxed: Box<dyn Classifier> = Box::new(Constant(0.3));
        assert_eq!(boxed.model_delta(&xs, &[], &xs), crate::delta::ModelDelta::Global);
        assert!(boxed.predict_proba_batch_tracked(&xs).radii2.is_none());
        // No spatial structure, no influence space: geometric prefiltering
        // stays disabled by default.
        assert!(boxed.influence_position(&x).is_none());
    }

    fn xy(examples: &[(f64, f64, Label)]) -> Vec<(Vec<f64>, Label)> {
        examples.iter().map(|&(a, b, l)| (vec![a, b], l)).collect()
    }

    #[test]
    fn train_rejects_degenerate_sets() {
        let kind = EstimatorKind::default();
        assert!(kind.train(&[]).is_err());
        let single = xy(&[(0.0, 0.0, Label::Positive), (1.0, 1.0, Label::Positive)]);
        assert!(kind.train(&single).is_err());
        let ragged = vec![(vec![0.0, 0.0], Label::Positive), (vec![1.0], Label::Negative)];
        assert!(kind.train(&ragged).is_err());
    }

    #[test]
    fn every_kind_trains_and_separates() {
        // A linearly separable cloud: positives near (1, 1), negatives near (0, 0).
        let mut examples = Vec::new();
        for i in 0..10 {
            let t = i as f64 / 10.0 * 0.2;
            examples.push((vec![1.0 - t, 1.0 + t], Label::Positive));
            examples.push((vec![0.0 + t, 0.0 - t], Label::Negative));
        }
        for kind in [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 50, lambda: 0.01 },
        ] {
            let model = kind.train(&examples).unwrap();
            assert_eq!(model.dims(), 2, "{}", kind.name());
            assert_eq!(model.predict(&[1.0, 1.0]), Label::Positive, "{}", kind.name());
            assert_eq!(model.predict(&[0.0, 0.0]), Label::Negative, "{}", kind.name());
            let p = model.predict_proba(&[0.5, 0.5]);
            assert!((0.0..=1.0).contains(&p), "{}: {p}", kind.name());
        }
    }

    #[test]
    fn names() {
        assert_eq!(EstimatorKind::default().name(), "DWKNN");
        assert_eq!(EstimatorKind::NaiveBayes.name(), "GaussianNB");
    }
}
