//! Plain k-nearest-neighbour classifier (majority vote / inverse-distance).
//!
//! Serves as the baseline DWKNN is compared against in the ablation
//! benches; the probability is the (optionally weighted) share of positive
//! neighbours.

use uei_types::{Label, PointMatrix, Result, UeiError};

use crate::delta::{knn_influence_delta, ModelDelta, ScoredBatch};
use crate::kdtree::{KdTree, NearestScratch};
use crate::model::{check_two_classes, Classifier};

/// Neighbour weighting for [`Knn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeighting {
    /// Every neighbour counts 1.
    Uniform,
    /// Neighbours count `1 / (d + ε)`.
    InverseDistance,
}

/// A trained kNN classifier.
#[derive(Debug)]
pub struct Knn {
    k: usize,
    weighting: KnnWeighting,
    tree: KdTree,
    labels: Vec<Label>,
    dims: usize,
}

impl Knn {
    /// Fits a uniform-vote kNN.
    pub fn fit(k: usize, examples: &[(Vec<f64>, Label)]) -> Result<Knn> {
        Knn::fit_weighted(k, KnnWeighting::Uniform, examples)
    }

    /// Fits a kNN with the given weighting.
    pub fn fit_weighted(
        k: usize,
        weighting: KnnWeighting,
        examples: &[(Vec<f64>, Label)],
    ) -> Result<Knn> {
        if k == 0 {
            return Err(UeiError::invalid_config("kNN requires k >= 1"));
        }
        check_two_classes(examples)?;
        let dims = examples[0].0.len();
        // Build the flat matrix straight off the examples slice: one O(n·d)
        // copy into contiguous storage, no per-point Vec allocations.
        let mut points = PointMatrix::with_capacity(examples.len(), dims);
        let mut labels: Vec<Label> = Vec::with_capacity(examples.len());
        for (x, l) in examples {
            points.push_row(x)?;
            labels.push(*l);
        }
        Ok(Knn { k, weighting, tree: KdTree::from_matrix(points)?, labels, dims })
    }

    /// The posterior computation with reusable kd-tree scratch — the one
    /// code path behind both the scalar and batch entry points.
    fn proba_with(&self, scratch: &mut NearestScratch, x: &[f64]) -> f64 {
        self.proba_radius_with(scratch, x).0
    }

    /// Posterior plus the squared k-th-neighbour distance — the influence
    /// radius the incremental-rescoring delta relies on. Any query whose
    /// neighbourhood is unsaturated (or whose traversal failed) reports an
    /// infinite radius, meaning "always dirty".
    fn proba_radius_with(&self, scratch: &mut NearestScratch, x: &[f64]) -> (f64, f64) {
        let neighbors = match self.tree.nearest_with(scratch, x, self.k) {
            Ok(n) => n,
            Err(_) => return (0.5, f64::INFINITY),
        };
        if neighbors.is_empty() {
            return (0.5, f64::INFINITY);
        }
        let radius2 = if neighbors.len() == self.k {
            neighbors[neighbors.len() - 1].0
        } else {
            f64::INFINITY
        };
        let mut pos = 0.0;
        let mut total = 0.0;
        for (d2, idx) in neighbors {
            let w = match self.weighting {
                KnnWeighting::Uniform => 1.0,
                KnnWeighting::InverseDistance => 1.0 / (d2.sqrt() + 1e-9),
            };
            total += w;
            if self.labels[*idx].is_positive() {
                pos += w;
            }
        }
        (pos / total, radius2)
    }
}

impl Classifier for Knn {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.proba_with(&mut NearestScratch::new(), x)
    }

    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        crate::batch::map_batch_with(xs, NearestScratch::new, |s, x| self.proba_with(s, x))
    }

    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
        let pairs = crate::batch::map_batch_with(xs, NearestScratch::new, |s, x| {
            self.proba_radius_with(s, x)
        });
        let mut probs = Vec::with_capacity(pairs.len());
        let mut radii2 = Vec::with_capacity(pairs.len());
        for (p, r2) in pairs {
            probs.push(p);
            radii2.push(r2);
        }
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

    #[test]
    fn majority_vote() {
        let model = Knn::fit(3, &examples()).unwrap();
        assert_eq!(model.predict_proba(&[5.0, 5.0]), 1.0);
        assert_eq!(model.predict_proba(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn k1_nearest_label_wins() {
        let model = Knn::fit(1, &examples()).unwrap();
        assert_eq!(model.predict(&[4.0, 4.0]), Label::Positive);
        assert_eq!(model.predict(&[1.0, 1.0]), Label::Negative);
    }

    #[test]
    fn inverse_distance_breaks_ties() {
        // k = 2 with one neighbour of each class: uniform vote gives 0.5,
        // inverse distance leans toward the closer one.
        let ex = vec![(vec![0.0], Label::Negative), (vec![10.0], Label::Positive)];
        let uniform = Knn::fit(2, &ex).unwrap();
        assert!((uniform.predict_proba(&[1.0]) - 0.5).abs() < 1e-9);
        let weighted = Knn::fit_weighted(2, KnnWeighting::InverseDistance, &ex).unwrap();
        assert!(weighted.predict_proba(&[1.0]) < 0.5, "closer to negative");
        assert!(weighted.predict_proba(&[9.0]) > 0.5, "closer to positive");
    }

    #[test]
    fn fit_validations() {
        assert!(Knn::fit(0, &examples()).is_err());
        assert!(Knn::fit(3, &[]).is_err());
    }

    #[test]
    fn tracked_batch_matches_plain_batch() {
        let model = Knn::fit_weighted(3, KnnWeighting::InverseDistance, &examples()).unwrap();
        let queries: Vec<Vec<f64>> = vec![vec![2.5, 2.5], vec![0.0, 0.0], vec![5.05, 5.0]];
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let plain = model.predict_proba_batch(&refs);
        let tracked = model.predict_proba_batch_tracked(&refs);
        for (a, b) in plain.iter().zip(&tracked.probs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Six examples ≥ k = 3: saturated neighbourhoods report finite radii.
        assert!(tracked.radii2.unwrap().iter().all(|r| r.is_finite()));
        // A distant insertion leaves every query clean.
        let far = [vec![100.0, 100.0]];
        let far_refs: Vec<&[f64]> = far.iter().map(|p| p.as_slice()).collect();
        let tracked = model.predict_proba_batch_tracked(&refs);
        let matrix = PointMatrix::from_rows(&queries).unwrap();
        let delta = model.model_delta(&matrix, 0..3, tracked.radii2.as_ref().unwrap(), &far_refs);
        assert_eq!(delta, ModelDelta::Dirty(vec![false; 3]));
    }

    #[test]
    fn uncertainty_peaks_between_clusters() {
        // With k = all and uniform weights every query ties at 0.5, so use
        // inverse-distance weighting to expose the gradient.
        let model = Knn::fit_weighted(6, KnnWeighting::InverseDistance, &examples()).unwrap();
        let between = model.uncertainty(&[2.5, 2.5]);
        let inside = model.uncertainty(&[5.0, 5.05]);
        assert!(between > inside, "between={between} inside={inside}");
    }
}
