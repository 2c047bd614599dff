//! The k-nearest-neighbour classifier: plain majority vote or the dual
//! weighted kNN (DWKNN) of the paper's evaluation.
//!
//! DWKNN is the uncertainty estimator of the paper's Table 1 (Gou et al.,
//! "A new distance-weighted k-nearest neighbor classifier", J. Inf. Comput.
//! Sci. 2012). It weights the i-th nearest neighbour by the *dual* weight
//!
//! ```text
//! w_i = (d_k − d_i) / (d_k − d_1) × (d_k + d_1) / (d_k + d_i)
//! ```
//!
//! (with `w_i = 1` when `d_k = d_1`), which both decays with distance and
//! normalizes by the neighbourhood's span — nearer neighbours dominate, and
//! the weight of the farthest neighbour is 0. [`Weighting::Uniform`] gives
//! every neighbour weight 1 (the plain-kNN baseline). Either way the
//! posterior for the positive class is the weight share of positive
//! neighbours, which makes the classifier *probabilistic*, as uncertainty
//! sampling requires.

use uei_types::{Label, PointMatrix, Result, UeiError};

use crate::delta::{knn_influence_delta, ModelDelta, ScoredBatch};
use crate::kdtree::{KdTree, NearestScratch};
use crate::model::{check_two_classes, Classifier};

/// How [`Knn`] weights its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Every neighbour counts 1 (majority vote).
    Uniform,
    /// Gou et al.'s dual distance weights (DWKNN).
    Dual,
}

/// A trained kNN classifier.
///
/// ```
/// use uei_learn::{Classifier, Knn, Weighting};
/// use uei_types::Label;
///
/// let examples = vec![
///     (vec![0.0, 0.0], Label::Negative),
///     (vec![0.1, 0.1], Label::Negative),
///     (vec![1.0, 1.0], Label::Positive),
///     (vec![0.9, 1.1], Label::Positive),
/// ];
/// let model = Knn::fit(4, Weighting::Dual, &examples).unwrap();
/// assert_eq!(model.predict(&[0.95, 1.0]), Label::Positive);
/// assert_eq!(model.predict(&[0.05, 0.0]), Label::Negative);
/// // Between the clusters the posterior approaches 0.5: that is exactly
/// // the point uncertainty sampling would pick next.
/// assert!(model.uncertainty(&[0.5, 0.55]) > model.uncertainty(&[0.95, 1.0]));
/// ```
#[derive(Debug)]
pub struct Knn {
    k: usize,
    weighting: Weighting,
    tree: KdTree,
    labels: Vec<Label>,
    dims: usize,
}

impl Knn {
    /// Fits a kNN classifier on `(point, label)` examples.
    ///
    /// "Fitting" stores the examples in a kd-tree; `k` is clamped to the
    /// training-set size at query time. Requires both classes present.
    pub fn fit(k: usize, weighting: Weighting, examples: &[(Vec<f64>, Label)]) -> Result<Knn> {
        if k == 0 {
            return Err(UeiError::invalid_config("kNN requires k >= 1"));
        }
        check_two_classes(examples)?;
        let dims = examples[0].0.len();
        // One pass over the examples slice into contiguous flat storage —
        // the per-iteration refit allocates no per-point Vecs.
        let mut points = PointMatrix::with_capacity(examples.len(), dims);
        let mut labels: Vec<Label> = Vec::with_capacity(examples.len());
        for (x, l) in examples {
            points.push_row(x)?;
            labels.push(*l);
        }
        Ok(Knn { k, weighting, tree: KdTree::from_matrix(points)?, labels, dims })
    }

    /// The posterior plus the query's squared influence radius — the
    /// distance to its k-th nearest neighbour, straight off the same tree
    /// traversal that scored it. The radius is infinite when the
    /// neighbourhood is unsaturated (fewer than `k` training examples) or
    /// the query could not be answered, i.e. whenever *any* future
    /// training example could change the score. Scalar and batch scoring
    /// both run this one function.
    fn proba_radius_with(&self, scratch: &mut NearestScratch, x: &[f64]) -> (f64, f64) {
        let neighbors = match self.tree.nearest_with(scratch, x, self.k) {
            Ok(n) => n,
            Err(_) => return (0.5, f64::INFINITY), // dimension mismatch
        };
        if neighbors.is_empty() {
            return (0.5, f64::INFINITY);
        }
        let radius2 = if neighbors.len() == self.k {
            neighbors[neighbors.len() - 1].0 // already squared
        } else {
            f64::INFINITY
        };
        let (pos, total) = match self.weighting {
            Weighting::Uniform => self.vote(neighbors, |_| 1.0),
            Weighting::Dual => {
                // kd-tree returns squared distances; the weights use true
                // distances.
                let d1 = neighbors[0].0.sqrt();
                let dk = neighbors[neighbors.len() - 1].0.sqrt();
                if dk == d1 {
                    // Degenerate neighbourhood (all equidistant): uniform.
                    self.vote(neighbors, |_| 1.0)
                } else {
                    self.vote(neighbors, |d2| dual_weight(d1, dk, d2.sqrt()))
                }
            }
        };
        if total <= 0.0 {
            // All weight on the boundary (the nearest neighbour's dual
            // weight is 1, so this needs every weight degenerated to 0);
            // fall back to an unweighted vote.
            let votes = neighbors.iter().filter(|(_, i)| self.labels[*i].is_positive()).count();
            return (votes as f64 / neighbors.len() as f64, radius2);
        }
        (pos / total, radius2)
    }

    /// `(positive weight, total weight)` over `neighbors`, summed in
    /// neighbour order; `weight` maps a squared distance to its weight.
    fn vote(&self, neighbors: &[(f64, usize)], weight: impl Fn(f64) -> f64) -> (f64, f64) {
        let mut pos = 0.0;
        let mut total = 0.0;
        for &(d2, idx) in neighbors {
            let w = weight(d2);
            total += w;
            if self.labels[idx].is_positive() {
                pos += w;
            }
        }
        (pos, total)
    }
}

/// Gou et al.'s dual weight of a neighbour at distance `di` in a
/// neighbourhood spanning `d1 < dk`.
fn dual_weight(d1: f64, dk: f64, di: f64) -> f64 {
    (dk - di) / (dk - d1) * (dk + d1) / (dk + di)
}

impl Classifier for Knn {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.proba_radius_with(&mut NearestScratch::new(), x).0
    }

    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
        let pairs = crate::batch::map_batch_with_at(
            xs,
            self.parallel_batch_threshold(),
            NearestScratch::new,
            |s, x| self.proba_radius_with(s, x),
        );
        let (probs, radii2) = pairs.into_iter().unzip();
        ScoredBatch { probs, radii2: Some(radii2) }
    }

    fn model_delta(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        radii2: &[f64],
        added: &[&[f64]],
    ) -> ModelDelta {
        knn_influence_delta(points, rows, radii2, added, self.parallel_batch_threshold())
    }

    fn training_len(&self) -> Option<usize> {
        Some(self.labels.len())
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<(Vec<f64>, Label)> {
        vec![
            (vec![0.0, 0.0], Label::Negative),
            (vec![0.1, 0.0], Label::Negative),
            (vec![0.0, 0.1], Label::Negative),
            (vec![5.0, 5.0], Label::Positive),
            (vec![5.1, 5.0], Label::Positive),
            (vec![5.0, 5.1], Label::Positive),
        ]
    }

    fn cluster_examples() -> Vec<(Vec<f64>, Label)> {
        let mut ex = Vec::new();
        for i in 0..8 {
            let t = i as f64 * 0.05;
            ex.push((vec![1.0 + t, 1.0 - t], Label::Positive));
            ex.push((vec![-1.0 - t, -1.0 + t], Label::Negative));
        }
        ex
    }

    #[test]
    fn majority_vote() {
        let model = Knn::fit(3, Weighting::Uniform, &examples()).unwrap();
        assert_eq!(model.predict_proba(&[5.0, 5.0]), 1.0);
        assert_eq!(model.predict_proba(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn k1_nearest_label_wins() {
        for weighting in [Weighting::Uniform, Weighting::Dual] {
            let model = Knn::fit(1, weighting, &examples()).unwrap();
            assert_eq!(model.predict(&[4.0, 4.0]), Label::Positive);
            assert_eq!(model.predict(&[1.0, 1.0]), Label::Negative);
        }
    }

    #[test]
    fn dual_weights_match_formula() {
        // w_1 = (3-1)/(3-1) * (3+1)/(3+1) = 1.
        assert!((dual_weight(1.0, 3.0, 1.0) - 1.0).abs() < 1e-12);
        // w_2 = (3-2)/(3-1) * (3+1)/(3+2) = 0.5 * 0.8 = 0.4.
        assert!((dual_weight(1.0, 3.0, 2.0) - 0.4).abs() < 1e-12);
        // Farthest neighbour always gets zero weight.
        assert_eq!(dual_weight(1.0, 3.0, 3.0), 0.0);
    }

    #[test]
    fn dual_weights_are_monotone_decreasing() {
        let d = [0.5, 1.0, 1.5, 2.0, 4.0];
        let w: Vec<f64> = d.iter().map(|&di| dual_weight(0.5, 4.0, di)).collect();
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1], "{w:?}");
        }
    }

    #[test]
    fn dual_weighting_breaks_ties_uniform_cannot() {
        // k = 2 with one neighbour of each class: the uniform vote is 0.5,
        // dual weights lean toward the closer one.
        let ex = vec![(vec![0.0], Label::Negative), (vec![10.0], Label::Positive)];
        let uniform = Knn::fit(2, Weighting::Uniform, &ex).unwrap();
        assert!((uniform.predict_proba(&[1.0]) - 0.5).abs() < 1e-9);
        let dual = Knn::fit(2, Weighting::Dual, &ex).unwrap();
        assert!(dual.predict_proba(&[1.0]) < 0.5, "closer to negative");
        assert!(dual.predict_proba(&[9.0]) > 0.5, "closer to positive");
        // Equidistant neighbours (d_k = d_1) fall back to uniform weights.
        assert_eq!(dual.predict_proba(&[5.0]), 0.5);
    }

    #[test]
    fn classifies_clusters() {
        let model = Knn::fit(3, Weighting::Dual, &cluster_examples()).unwrap();
        assert_eq!(model.predict(&[1.1, 0.9]), Label::Positive);
        assert_eq!(model.predict(&[-1.0, -1.0]), Label::Negative);
        assert!(model.predict_proba(&[1.1, 0.9]) > 0.9);
        assert!(model.predict_proba(&[-1.0, -1.0]) < 0.1);
    }

    #[test]
    fn midpoint_is_uncertain() {
        let model = Knn::fit(4, Weighting::Dual, &cluster_examples()).unwrap();
        let u = model.uncertainty(&[0.0, 0.0]);
        assert!(u > 0.3, "midpoint uncertainty {u} should be high");
        let u_deep = model.uncertainty(&[1.0, 1.0]);
        assert!(u_deep < 0.1, "deep-in-cluster uncertainty {u_deep} should be low");
    }

    #[test]
    fn probability_bounds_hold() {
        let model = Knn::fit(5, Weighting::Dual, &cluster_examples()).unwrap();
        for x in [-3.0f64, -1.0, 0.0, 0.5, 2.0] {
            for y in [-2.0f64, 0.0, 1.5] {
                let p = model.predict_proba(&[x, y]);
                assert!((0.0..=1.0).contains(&p), "p={p} at ({x},{y})");
            }
        }
    }

    #[test]
    fn k_clamped_to_training_size() {
        let small = vec![(vec![0.0, 0.0], Label::Negative), (vec![1.0, 1.0], Label::Positive)];
        let model = Knn::fit(50, Weighting::Dual, &small).unwrap();
        assert!(model.predict_proba(&[1.0, 1.0]) > 0.5);
    }

    #[test]
    fn exact_match_dominates() {
        let examples = vec![
            (vec![0.0, 0.0], Label::Positive),
            (vec![2.0, 2.0], Label::Negative),
            (vec![3.0, 3.0], Label::Negative),
        ];
        let model = Knn::fit(3, Weighting::Dual, &examples).unwrap();
        // Query exactly on the positive example: d_1 = 0 gives it maximal
        // dual weight.
        assert_eq!(model.predict(&[0.0, 0.0]), Label::Positive);
    }

    #[test]
    fn fit_validations() {
        assert!(Knn::fit(0, Weighting::Uniform, &examples()).is_err());
        assert!(Knn::fit(3, Weighting::Dual, &[]).is_err());
        let one_class = vec![(vec![0.0], Label::Positive), (vec![1.0], Label::Positive)];
        assert!(Knn::fit(3, Weighting::Dual, &one_class).is_err());
        assert_eq!(Knn::fit(3, Weighting::Dual, &cluster_examples()).unwrap().dims(), 2);
    }

    #[test]
    fn tracked_batch_matches_plain_and_reports_radii() {
        let model = Knn::fit(3, Weighting::Dual, &cluster_examples()).unwrap();
        let queries: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![-2.0, 0.5]];
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let plain = model.predict_proba_batch(&refs);
        let tracked = model.predict_proba_batch_tracked(&refs);
        for (a, b) in plain.iter().zip(&tracked.probs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let radii2 = tracked.radii2.expect("kNN reports radii");
        // 16 training examples ≥ k = 3: every neighbourhood is saturated.
        assert!(radii2.iter().all(|r| r.is_finite() && *r > 0.0), "{radii2:?}");
        // A distant insertion leaves every query clean.
        let far = [vec![100.0, 100.0]];
        let far_refs: Vec<&[f64]> = far.iter().map(|p| p.as_slice()).collect();
        let matrix = PointMatrix::from_rows(&queries).unwrap();
        let delta = model.model_delta(&matrix, 0..3, &radii2, &far_refs);
        assert_eq!(delta, ModelDelta::Dirty(vec![false; 3]));
    }

    #[test]
    fn unsaturated_neighbourhood_has_infinite_radius() {
        let small = vec![(vec![0.0, 0.0], Label::Negative), (vec![1.0, 1.0], Label::Positive)];
        let model = Knn::fit(5, Weighting::Dual, &small).unwrap();
        let q = [0.5, 0.5];
        let qs: Vec<&[f64]> = vec![&q];
        let tracked = model.predict_proba_batch_tracked(&qs);
        assert!(
            tracked.radii2.unwrap()[0].is_infinite(),
            "fewer than k examples: any added point changes the neighbourhood"
        );
    }

    #[test]
    fn clean_points_score_bit_identically_after_append() {
        // The delta soundness contract end to end: score a query grid and
        // capture radii under model A; append one training example (the
        // labeled set is append-only, so B extends A); every point B
        // reports clean must produce a bit-identical posterior.
        let examples = cluster_examples();
        let a = Knn::fit(3, Weighting::Dual, &examples).unwrap();
        let grid: Vec<Vec<f64>> = (0..20)
            .flat_map(|i| (0..20).map(move |j| vec![i as f64 * 0.2 - 2.0, j as f64 * 0.2 - 2.0]))
            .collect();
        let refs: Vec<&[f64]> = grid.iter().map(|p| p.as_slice()).collect();
        let before = a.predict_proba_batch_tracked(&refs);
        let radii2 = before.radii2.unwrap();

        let new_point = vec![0.3, -0.2];
        let mut extended = examples.clone();
        extended.push((new_point.clone(), Label::Positive));
        let b = Knn::fit(3, Weighting::Dual, &extended).unwrap();

        let added_refs: Vec<&[f64]> = vec![new_point.as_slice()];
        let matrix = PointMatrix::from_rows(&grid).unwrap();
        let delta = b.model_delta(&matrix, 0..grid.len(), &radii2, &added_refs);
        let ModelDelta::Dirty(mask) = delta else {
            panic!("kNN deltas are spatial");
        };
        let after = b.predict_proba_batch(&refs);
        let mut clean = 0;
        for i in 0..refs.len() {
            if !mask[i] {
                clean += 1;
                assert_eq!(
                    before.probs[i].to_bits(),
                    after[i].to_bits(),
                    "clean point {i} changed score"
                );
            }
        }
        assert!(clean > 0, "a local insertion must leave some points clean");
        assert!(clean < refs.len(), "points near the insertion must be dirty");
    }
}
