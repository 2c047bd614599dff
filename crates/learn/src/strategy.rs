//! Query strategies: how the next example to label is chosen.
//!
//! Uncertainty sampling (Lewis & Gale 1994) "identifies the unlabeled items
//! that are closest to the current decision boundary" and is the strategy
//! both the paper's background (§2.1) and its evaluation use. For binary
//! classification, least confidence, margin, and entropy are monotone
//! transformations of each other, but all three are provided because the
//! committee strategy and multi-class extensions distinguish them.

use uei_types::{DataPoint, Rng};

use crate::model::Classifier;

/// How "informativeness" of an unlabeled example is scored from the
/// model's posterior `p = P(positive | x)`.
///
/// ```
/// use uei_learn::UncertaintyMeasure;
///
/// let lc = UncertaintyMeasure::LeastConfidence;
/// assert_eq!(lc.score(0.5), 0.5);          // maximal at the boundary
/// assert_eq!(lc.score(1.0), 0.0);          // zero when certain
/// assert_eq!(lc.score(0.2), lc.score(0.8)); // symmetric
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UncertaintyMeasure {
    /// `u = 1 − max(p, 1−p)` (paper Eq. 1).
    #[default]
    LeastConfidence,
    /// `u = 1 − |p − (1−p)|` (margin between the two classes).
    Margin,
    /// Binary entropy `−p·log p − (1−p)·log(1−p)` (in bits).
    Entropy,
}

impl UncertaintyMeasure {
    /// Scores a posterior; higher means more informative. All three
    /// measures are maximal at `p = 0.5` and zero at `p ∈ {0, 1}`.
    pub fn score(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match self {
            UncertaintyMeasure::LeastConfidence => 1.0 - p.max(1.0 - p),
            UncertaintyMeasure::Margin => 1.0 - (2.0 * p - 1.0).abs(),
            UncertaintyMeasure::Entropy => {
                let term = |q: f64| if q <= 0.0 { 0.0 } else { -q * q.log2() };
                term(p) + term(1.0 - p)
            }
        }
    }

    /// Scores a whole pool of points in one batch call: posterior
    /// evaluation goes through [`Classifier::predict_proba_batch`] (which
    /// parallelizes large pools), then the measure is applied per element.
    /// `score_points(model, pts)[i] == score(model.predict_proba(pts[i]))`
    /// exactly.
    pub fn score_points(&self, model: &dyn Classifier, points: &[&[f64]]) -> Vec<f64> {
        let mut probs = model.predict_proba_batch(points);
        for p in &mut probs {
            *p = self.score(*p);
        }
        probs
    }
}

/// Descending comparison of two scores with NaN ordered *last* (a NaN
/// score must never win a ranking, and must never panic a sort). Ties are
/// resolved by the caller via `.then(...)`.
pub fn cmp_score_desc(a: f64, b: f64) -> std::cmp::Ordering {
    let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
    key(b).total_cmp(&key(a))
}

/// Indices of the `k` highest scores, descending, ties toward the lower
/// index; NaN scores rank last instead of panicking.
///
/// Uses `select_nth_unstable` to partition the top `k` in O(n) before
/// sorting only that prefix — O(n + k log k) instead of the full
/// O(n log n) sort, which matters when ranking a few prefetch candidates
/// out of thousands of index points every iteration.
pub fn top_k_desc(scores: &[f64], k: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..scores.len()).collect();
    let k = k.min(ids.len());
    if k == 0 {
        return Vec::new();
    }
    let cmp = |&a: &usize, &b: &usize| cmp_score_desc(scores[a], scores[b]).then(a.cmp(&b));
    if k < ids.len() {
        ids.select_nth_unstable_by(k - 1, cmp);
        ids.truncate(k);
    }
    ids.sort_unstable_by(cmp);
    ids
}

/// A pool-based query strategy.
pub trait QueryStrategy {
    /// Index of the pool element to present for labeling next, or `None`
    /// when the pool is empty. `x* = argmax_x u(x)` for uncertainty-based
    /// strategies (paper Eq. 2).
    fn select(&mut self, model: &dyn Classifier, pool: &[DataPoint]) -> Option<usize>;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Uncertainty sampling: pick the pool element with the highest
/// uncertainty score; ties broken by lowest row id (deterministic), NaN
/// scores last.
#[derive(Debug, Default, Clone)]
pub struct UncertaintySampling {
    measure: UncertaintyMeasure,
}

impl UncertaintySampling {
    /// Creates the strategy with the given measure.
    pub fn new(measure: UncertaintyMeasure) -> Self {
        UncertaintySampling { measure }
    }

    /// The configured measure.
    pub fn measure(&self) -> UncertaintyMeasure {
        self.measure
    }
}

impl QueryStrategy for UncertaintySampling {
    fn select(&mut self, model: &dyn Classifier, pool: &[DataPoint]) -> Option<usize> {
        let scores = self.measure.score_points(model, &pool_refs(pool));
        let mut best: Option<(f64, usize)> = None;
        for (i, point) in pool.iter().enumerate() {
            let u = scores[i];
            // A NaN score ranks last: any number displaces it, and it never
            // displaces anything.
            let better = match best {
                None => true,
                Some((bu, bi)) => {
                    (bu.is_nan() && !u.is_nan()) || u > bu || (u == bu && point.id < pool[bi].id)
                }
            };
            if better {
                best = Some((u, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn name(&self) -> &'static str {
        "uncertainty-sampling"
    }
}

/// Uniform random selection — the strategy main-memory systems fall back
/// to when they can only sample the dataset, and the natural ablation
/// baseline for uncertainty sampling.
#[derive(Debug)]
pub struct RandomSampling {
    rng: Rng,
}

impl RandomSampling {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomSampling { rng: Rng::new(seed) }
    }
}

impl QueryStrategy for RandomSampling {
    fn select(&mut self, _model: &dyn Classifier, pool: &[DataPoint]) -> Option<usize> {
        if pool.is_empty() {
            None
        } else {
            Some(self.rng.below_usize(pool.len()))
        }
    }

    fn name(&self) -> &'static str {
        "random-sampling"
    }
}

/// Borrows every pool point's coordinate row, in pool order — the shape
/// [`Classifier::predict_proba_batch`] wants.
fn pool_refs(pool: &[DataPoint]) -> Vec<&[f64]> {
    pool.iter().map(|p| p.values.as_slice()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::Label;

    /// Posterior = x-coordinate clamped to [0,1]; lets tests place points
    /// at exact probabilities.
    struct CoordModel;
    impl Classifier for CoordModel {
        fn predict_proba(&self, x: &[f64]) -> f64 {
            x[0].clamp(0.0, 1.0)
        }
        fn dims(&self) -> usize {
            1
        }
    }

    fn pool(ps: &[f64]) -> Vec<DataPoint> {
        ps.iter().enumerate().map(|(i, &p)| DataPoint::new(i as u64, vec![p])).collect()
    }

    #[test]
    fn measures_peak_at_half() {
        for m in [
            UncertaintyMeasure::LeastConfidence,
            UncertaintyMeasure::Margin,
            UncertaintyMeasure::Entropy,
        ] {
            assert!(m.score(0.5) > m.score(0.3), "{m:?}");
            assert!(m.score(0.3) > m.score(0.1), "{m:?}");
            assert_eq!(m.score(0.0), 0.0, "{m:?}");
            assert_eq!(m.score(1.0), 0.0, "{m:?}");
            // Symmetry.
            assert!((m.score(0.3) - m.score(0.7)).abs() < 1e-12, "{m:?}");
        }
        assert_eq!(UncertaintyMeasure::Entropy.score(0.5), 1.0);
        assert_eq!(UncertaintyMeasure::LeastConfidence.score(0.5), 0.5);
        assert_eq!(UncertaintyMeasure::Margin.score(0.5), 1.0);
    }

    #[test]
    fn uncertainty_sampling_picks_closest_to_half() {
        let mut strategy = UncertaintySampling::default();
        let pool = pool(&[0.1, 0.45, 0.9, 0.7]);
        assert_eq!(strategy.select(&CoordModel, &pool), Some(1));
    }

    #[test]
    fn uncertainty_sampling_tie_breaks_by_id() {
        let mut strategy = UncertaintySampling::default();
        // 0.4 and 0.6 are equally uncertain; the lower id (index 0) wins.
        let pool = pool(&[0.6, 0.4]);
        assert_eq!(strategy.select(&CoordModel, &pool), Some(0));
    }

    #[test]
    fn empty_pool_returns_none() {
        let mut s = UncertaintySampling::default();
        assert_eq!(s.select(&CoordModel, &[]), None);
        let mut r = RandomSampling::new(1);
        assert_eq!(r.select(&CoordModel, &[]), None);
    }

    #[test]
    fn random_sampling_is_in_range_and_deterministic() {
        let pool = pool(&[0.1, 0.2, 0.3, 0.4]);
        let mut r1 = RandomSampling::new(42);
        let mut r2 = RandomSampling::new(42);
        for _ in 0..20 {
            let a = r1.select(&CoordModel, &pool).unwrap();
            let b = r2.select(&CoordModel, &pool).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn top_k_matches_full_sort() {
        let scores = [0.3, 0.9, 0.1, 0.9, 0.5, 0.0, 0.7];
        let full = top_k_desc(&scores, scores.len());
        assert_eq!(full, vec![1, 3, 6, 4, 0, 2, 5]);
        for k in 0..=scores.len() + 2 {
            assert_eq!(top_k_desc(&scores, k), full[..k.min(scores.len())]);
        }
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        let scores = [0.2, f64::NAN, 0.8, f64::NAN];
        assert_eq!(top_k_desc(&scores, 4), vec![2, 0, 1, 3]);
        // A model emitting NaN must not panic selection, and a NaN score
        // must not win it, wherever it sits in the pool.
        struct NanModel;
        impl Classifier for NanModel {
            fn predict_proba(&self, x: &[f64]) -> f64 {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    x[0]
                }
            }
            fn dims(&self) -> usize {
                1
            }
        }
        let mut strategy = UncertaintySampling::default();
        assert_eq!(strategy.select(&NanModel, &pool(&[-1.0, 0.5, 0.9])), Some(1));
        assert_eq!(strategy.select(&NanModel, &pool(&[0.9, -1.0, 0.5])), Some(2));
        assert_eq!(strategy.select(&NanModel, &pool(&[0.9, 0.5, -1.0])), Some(1));
        assert_eq!(strategy.select(&NanModel, &pool(&[-1.0, -2.0])), Some(0));
    }

    #[test]
    fn strategy_names() {
        assert_eq!(UncertaintySampling::default().name(), "uncertainty-sampling");
        assert_eq!(RandomSampling::new(0).name(), "random-sampling");
    }

    #[test]
    fn works_with_trained_model() {
        // End-to-end: the most uncertain point of a real model is between
        // the clusters.
        let examples = vec![
            (vec![0.0], Label::Negative),
            (vec![0.2], Label::Negative),
            (vec![0.8], Label::Positive),
            (vec![1.0], Label::Positive),
        ];
        // k = 3: with k = 2 DWKNN degenerates to the nearest label (the
        // farthest neighbour always has zero dual weight).
        let model = crate::knn::Knn::fit(3, crate::knn::Weighting::Dual, &examples).unwrap();
        let pool = vec![
            DataPoint::new(0u64, vec![0.05]),
            DataPoint::new(1u64, vec![0.5]),
            DataPoint::new(2u64, vec![0.95]),
        ];
        let mut strategy = UncertaintySampling::default();
        assert_eq!(strategy.select(&model, &pool), Some(1));
    }
}
