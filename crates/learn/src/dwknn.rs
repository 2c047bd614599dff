//! The dual weighted k-nearest-neighbour classifier (DWKNN).
//!
//! This is the uncertainty estimator the paper's evaluation uses (Table 1,
//! citing Gou et al., "A new distance-weighted k-nearest neighbor
//! classifier", J. Inf. Comput. Sci. 2012). DWKNN weights the i-th nearest
//! neighbour by the *dual* weight
//!
//! ```text
//! w_i = (d_k − d_i) / (d_k − d_1) × (d_k + d_1) / (d_k + d_i)
//! ```
//!
//! (with `w_i = 1` when `d_k = d_1`), which both decays with distance and
//! normalizes by the neighbourhood's span — nearer neighbours dominate, and
//! the weight of the farthest neighbour is 0. The posterior for the
//! positive class is the weight share of positive neighbours, which makes
//! the classifier *probabilistic*, as uncertainty sampling requires.

use uei_types::{Label, PointMatrix, Result, UeiError};

use crate::delta::{knn_influence_delta, ModelDelta, ScoredBatch};
use crate::kdtree::{KdTree, NearestScratch};
use crate::model::{check_two_classes, Classifier};

/// Per-worker buffers for batch scoring: kd-tree traversal scratch plus the
/// distance/weight vectors every query fills. Reusing them removes all
/// per-query allocation from the rescoring hot loop.
#[derive(Default)]
struct DwknnScratch {
    nearest: NearestScratch,
    distances: Vec<f64>,
    weights: Vec<f64>,
}

/// A trained DWKNN classifier.
///
/// ```
/// use uei_learn::{Classifier, Dwknn};
/// use uei_types::Label;
///
/// let examples = vec![
///     (vec![0.0, 0.0], Label::Negative),
///     (vec![0.1, 0.1], Label::Negative),
///     (vec![1.0, 1.0], Label::Positive),
///     (vec![0.9, 1.1], Label::Positive),
/// ];
/// let model = Dwknn::fit(4, &examples).unwrap();
/// assert_eq!(model.predict(&[0.95, 1.0]), Label::Positive);
/// assert_eq!(model.predict(&[0.05, 0.0]), Label::Negative);
/// // Between the clusters the posterior approaches 0.5: that is exactly
/// // the point uncertainty sampling would pick next.
/// assert!(model.uncertainty(&[0.5, 0.55]) > model.uncertainty(&[0.95, 1.0]));
/// ```
#[derive(Debug)]
pub struct Dwknn {
    k: usize,
    tree: KdTree,
    labels: Vec<Label>,
    dims: usize,
}

impl Dwknn {
    /// Fits DWKNN on `(point, label)` examples.
    ///
    /// "Fitting" stores the examples in a kd-tree; `k` is clamped to the
    /// training-set size at query time. Requires both classes present.
    pub fn fit(k: usize, examples: &[(Vec<f64>, Label)]) -> Result<Dwknn> {
        if k == 0 {
            return Err(UeiError::invalid_config("DWKNN requires k >= 1"));
        }
        check_two_classes(examples)?;
        let dims = examples[0].0.len();
        // One pass over the examples slice into contiguous flat storage —
        // the per-iteration refit no longer allocates O(n) point Vecs.
        let mut points = PointMatrix::with_capacity(examples.len(), dims);
        let mut labels: Vec<Label> = Vec::with_capacity(examples.len());
        for (x, l) in examples {
            points.push_row(x)?;
            labels.push(*l);
        }
        let tree = KdTree::from_matrix(points)?;
        Ok(Dwknn { k, tree, labels, dims })
    }

    /// The configured neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stored training examples.
    pub fn num_examples(&self) -> usize {
        self.labels.len()
    }

    /// The dual weights of Gou et al. for a sorted distance list
    /// `d_1 <= … <= d_k`. Exposed for tests and for the committee.
    pub fn dual_weights(distances: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(distances.len());
        Dwknn::dual_weights_into(distances, &mut out);
        out
    }

    /// [`Self::dual_weights`] into a caller-provided buffer (cleared
    /// first) — the allocation-free form the batch path uses.
    pub fn dual_weights_into(distances: &[f64], out: &mut Vec<f64>) {
        out.clear();
        let k = distances.len();
        if k == 0 {
            return;
        }
        let d1 = distances[0];
        let dk = distances[k - 1];
        if dk == d1 {
            // Degenerate neighbourhood (all equidistant): uniform weights.
            out.resize(k, 1.0);
            return;
        }
        out.extend(distances.iter().map(|&di| (dk - di) / (dk - d1) * (dk + d1) / (dk + di)));
    }

    /// The posterior computation, parameterized over reusable scratch so
    /// both the scalar and batch paths run the exact same code.
    fn proba_with(&self, scratch: &mut DwknnScratch, x: &[f64]) -> f64 {
        self.proba_radius_with(scratch, x).0
    }

    /// The posterior plus the query's squared influence radius — the
    /// distance to its k-th nearest neighbour, straight off the same tree
    /// traversal that scored it. The radius is infinite when the
    /// neighbourhood is unsaturated (fewer than `k` training examples) or
    /// the query could not be answered, i.e. whenever *any* future
    /// training example could change the score.
    fn proba_radius_with(&self, scratch: &mut DwknnScratch, x: &[f64]) -> (f64, f64) {
        let neighbors = match self.tree.nearest_with(&mut scratch.nearest, x, self.k) {
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
        // kd-tree returns squared distances; DWKNN weights use true distances.
        scratch.distances.clear();
        scratch.distances.extend(neighbors.iter().map(|(d2, _)| d2.sqrt()));
        Dwknn::dual_weights_into(&scratch.distances, &mut scratch.weights);
        let mut pos = 0.0;
        let mut total = 0.0;
        for (w, (_, idx)) in scratch.weights.iter().zip(neighbors) {
            total += w;
            if self.labels[*idx].is_positive() {
                pos += w;
            }
        }
        if total <= 0.0 {
            // All weight on the boundary (k = 1 gives w = [1.0], so this
            // only happens when every weight degenerated to 0); fall back
            // to an unweighted vote.
            let votes = neighbors.iter().filter(|(_, i)| self.labels[*i].is_positive()).count();
            return (votes as f64 / neighbors.len() as f64, radius2);
        }
        (pos / total, radius2)
    }
}

impl Classifier for Dwknn {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.proba_with(&mut DwknnScratch::default(), x)
    }

    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        crate::batch::map_batch_with(xs, DwknnScratch::default, |s, x| self.proba_with(s, x))
    }

    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
        let pairs = crate::batch::map_batch_with(xs, DwknnScratch::default, |s, x| {
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
    fn dual_weights_match_formula() {
        let d = [1.0, 2.0, 3.0];
        let w = Dwknn::dual_weights(&d);
        // w_1 = (3-1)/(3-1) * (3+1)/(3+1) = 1.
        assert!((w[0] - 1.0).abs() < 1e-12);
        // w_2 = (3-2)/(3-1) * (3+1)/(3+2) = 0.5 * 0.8 = 0.4.
        assert!((w[1] - 0.4).abs() < 1e-12);
        // Farthest neighbour always gets zero weight.
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn dual_weights_are_monotone_decreasing() {
        let d = [0.5, 1.0, 1.5, 2.0, 4.0];
        let w = Dwknn::dual_weights(&d);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1], "{w:?}");
        }
    }

    #[test]
    fn dual_weights_degenerate_all_equal() {
        assert_eq!(Dwknn::dual_weights(&[2.0, 2.0, 2.0]), vec![1.0, 1.0, 1.0]);
        assert_eq!(Dwknn::dual_weights(&[]), Vec::<f64>::new());
        assert_eq!(Dwknn::dual_weights(&[3.0]), vec![1.0]);
    }

    #[test]
    fn classifies_clusters() {
        let model = Dwknn::fit(3, &cluster_examples()).unwrap();
        assert_eq!(model.predict(&[1.1, 0.9]), Label::Positive);
        assert_eq!(model.predict(&[-1.0, -1.0]), Label::Negative);
        assert!(model.predict_proba(&[1.1, 0.9]) > 0.9);
        assert!(model.predict_proba(&[-1.0, -1.0]) < 0.1);
    }

    #[test]
    fn midpoint_is_uncertain() {
        let model = Dwknn::fit(4, &cluster_examples()).unwrap();
        let u = model.uncertainty(&[0.0, 0.0]);
        assert!(u > 0.3, "midpoint uncertainty {u} should be high");
        let u_deep = model.uncertainty(&[1.0, 1.0]);
        assert!(u_deep < 0.1, "deep-in-cluster uncertainty {u_deep} should be low");
    }

    #[test]
    fn probability_bounds_hold() {
        let model = Dwknn::fit(5, &cluster_examples()).unwrap();
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
        let model = Dwknn::fit(50, &small).unwrap();
        let p = model.predict_proba(&[1.0, 1.0]);
        assert!(p > 0.5);
    }

    #[test]
    fn exact_match_dominates() {
        let examples = vec![
            (vec![0.0, 0.0], Label::Positive),
            (vec![2.0, 2.0], Label::Negative),
            (vec![3.0, 3.0], Label::Negative),
        ];
        let model = Dwknn::fit(3, &examples).unwrap();
        // Query exactly on the positive example: d_1 = 0 gives it maximal
        // dual weight.
        assert_eq!(model.predict(&[0.0, 0.0]), Label::Positive);
    }

    #[test]
    fn fit_validations() {
        assert!(Dwknn::fit(0, &cluster_examples()).is_err());
        assert!(Dwknn::fit(3, &[]).is_err());
        let one_class = vec![(vec![0.0], Label::Positive), (vec![1.0], Label::Positive)];
        assert!(Dwknn::fit(3, &one_class).is_err());
    }

    #[test]
    fn accessors() {
        let model = Dwknn::fit(3, &cluster_examples()).unwrap();
        assert_eq!(model.k(), 3);
        assert_eq!(model.num_examples(), 16);
        assert_eq!(model.dims(), 2);
    }

    #[test]
    fn tracked_batch_matches_plain_and_reports_radii() {
        let model = Dwknn::fit(3, &cluster_examples()).unwrap();
        let queries: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![-2.0, 0.5]];
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let plain = model.predict_proba_batch(&refs);
        let tracked = model.predict_proba_batch_tracked(&refs);
        for (a, b) in plain.iter().zip(&tracked.probs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let radii2 = tracked.radii2.expect("kNN-family models report radii");
        // 16 training examples ≥ k = 3: every neighbourhood is saturated.
        assert!(radii2.iter().all(|r| r.is_finite() && *r > 0.0), "{radii2:?}");
    }

    #[test]
    fn unsaturated_neighbourhood_has_infinite_radius() {
        let small = vec![(vec![0.0, 0.0], Label::Negative), (vec![1.0, 1.0], Label::Positive)];
        let model = Dwknn::fit(5, &small).unwrap();
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
        let a = Dwknn::fit(3, &examples).unwrap();
        let grid: Vec<Vec<f64>> = (0..20)
            .flat_map(|i| (0..20).map(move |j| vec![i as f64 * 0.2 - 2.0, j as f64 * 0.2 - 2.0]))
            .collect();
        let refs: Vec<&[f64]> = grid.iter().map(|p| p.as_slice()).collect();
        let before = a.predict_proba_batch_tracked(&refs);
        let radii2 = before.radii2.unwrap();

        let new_point = vec![0.3, -0.2];
        let mut extended = examples.clone();
        extended.push((new_point.clone(), Label::Positive));
        let b = Dwknn::fit(3, &extended).unwrap();

        let added_refs: Vec<&[f64]> = vec![new_point.as_slice()];
        let matrix = PointMatrix::from_rows(&grid).unwrap();
        let delta = b.model_delta(&matrix, 0..grid.len(), &radii2, &added_refs);
        let ModelDelta::Dirty(mask) = delta else {
            panic!("kNN-family deltas are spatial");
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
