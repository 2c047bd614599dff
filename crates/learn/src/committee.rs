//! Query-by-committee (Seung, Opper & Sompolinsky 1992).
//!
//! One of the alternative query strategies the paper's background lists
//! (§2.1). A committee of classifiers is trained on bootstrap resamples of
//! the labeled set; the next example is the one the members disagree on
//! most (vote entropy). The committee also acts as a probabilistic model by
//! averaging member posteriors, so it can drive UEI's index-point scoring
//! like any other [`Classifier`].

use uei_types::{DataPoint, Label, Result, Rng, UeiError};

use crate::delta::ScoredBatch;
use crate::model::{Classifier, EstimatorKind};
use crate::strategy::QueryStrategy;

/// A committee of independently trained classifiers.
pub struct Committee {
    members: Vec<Box<dyn Classifier>>,
    dims: usize,
}

impl Committee {
    /// Trains `size` members of `kind` on bootstrap resamples of
    /// `examples`. Resamples are re-drawn until they contain both classes
    /// (guaranteed to terminate since the source set contains both).
    pub fn train(
        kind: EstimatorKind,
        size: usize,
        examples: &[(Vec<f64>, Label)],
        seed: u64,
    ) -> Result<Committee> {
        if size < 2 {
            return Err(UeiError::invalid_config("a committee needs at least 2 members"));
        }
        crate::model::check_two_classes(examples)?;
        let dims = examples[0].0.len();
        let mut rng = Rng::new(seed);
        let mut members = Vec::with_capacity(size);
        for _ in 0..size {
            let resample = loop {
                let sample: Vec<(Vec<f64>, Label)> = (0..examples.len())
                    .map(|_| examples[rng.below_usize(examples.len())].clone())
                    .collect();
                let has_pos = sample.iter().any(|(_, l)| l.is_positive());
                let has_neg = sample.iter().any(|(_, l)| !l.is_positive());
                if has_pos && has_neg {
                    break sample;
                }
            };
            members.push(kind.train(&resample)?);
        }
        Ok(Committee { members, dims })
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Vote-entropy disagreement on `x`, in bits (0 = unanimous, 1 = split).
    pub fn vote_entropy(&self, x: &[f64]) -> f64 {
        let votes_pos =
            self.members.iter().filter(|m| m.predict(x) == Label::Positive).count() as f64;
        let n = self.members.len() as f64;
        let p = votes_pos / n;
        let term = |q: f64| if q <= 0.0 { 0.0 } else { -q * q.log2() };
        term(p) + term(1.0 - p)
    }
}

impl Classifier for Committee {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        let sum: f64 = self.members.iter().map(|m| m.predict_proba(x)).sum();
        sum / self.members.len() as f64
    }

    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
        // Member-major: one batch pass per member (so each member's own
        // scratch reuse and parallelism kick in), accumulated in member
        // order — the same summation order as the scalar path, keeping
        // results bit-identical. Members update globally as a whole, so
        // the committee reports no radii.
        let mut sums = vec![0.0; xs.len()];
        for member in &self.members {
            let probs = member.predict_proba_batch(xs);
            for (s, p) in sums.iter_mut().zip(&probs) {
                *s += p;
            }
        }
        let n = self.members.len() as f64;
        for s in &mut sums {
            *s /= n;
        }
        ScoredBatch { probs: sums, radii2: None }
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

/// Query-by-committee strategy: select the pool element with maximal vote
/// entropy; ties broken by mean-posterior uncertainty then lowest id.
pub struct QueryByCommittee {
    committee: Committee,
}

impl QueryByCommittee {
    /// Wraps a trained committee as a strategy.
    pub fn new(committee: Committee) -> Self {
        QueryByCommittee { committee }
    }

    /// Access to the underlying committee.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }
}

impl QueryStrategy for QueryByCommittee {
    fn select(&mut self, _model: &dyn Classifier, pool: &[DataPoint]) -> Option<usize> {
        let mut best: Option<(f64, f64, usize)> = None;
        for (i, point) in pool.iter().enumerate() {
            let entropy = self.committee.vote_entropy(&point.values);
            let unc = self.committee.uncertainty(&point.values);
            let candidate = (entropy, unc, i);
            let better = match &best {
                None => true,
                Some((be, bu, bi)) => {
                    entropy > *be
                        || (entropy == *be && unc > *bu)
                        || (entropy == *be && unc == *bu && pool[i].id < pool[*bi].id)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, i)| i)
    }

    fn name(&self) -> &'static str {
        "query-by-committee"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<(Vec<f64>, Label)> {
        let mut ex = Vec::new();
        for i in 0..10 {
            let t = i as f64 * 0.02;
            ex.push((vec![1.0 + t, 1.0 - t], Label::Positive));
            ex.push((vec![-1.0 - t, -1.0 + t], Label::Negative));
        }
        ex
    }

    #[test]
    fn committee_agrees_on_easy_points() {
        let c = Committee::train(EstimatorKind::Dwknn { k: 3 }, 5, &examples(), 1).unwrap();
        assert_eq!(c.size(), 5);
        assert!(c.predict_proba(&[1.0, 1.0]) > 0.9);
        assert!(c.predict_proba(&[-1.0, -1.0]) < 0.1);
        assert_eq!(c.vote_entropy(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn disagreement_rises_near_boundary() {
        let c = Committee::train(EstimatorKind::Dwknn { k: 1 }, 7, &examples(), 3).unwrap();
        let boundary = c.vote_entropy(&[0.02, -0.02]);
        let deep = c.vote_entropy(&[1.1, 1.0]);
        assert!(boundary >= deep, "boundary {boundary} vs deep {deep}");
    }

    #[test]
    fn qbc_selects_contested_point() {
        let c = Committee::train(EstimatorKind::Dwknn { k: 1 }, 9, &examples(), 5).unwrap();
        let mut qbc = QueryByCommittee::new(c);
        let pool = vec![
            DataPoint::new(0u64, vec![1.05, 1.0]),
            DataPoint::new(1u64, vec![0.0, 0.0]),
            DataPoint::new(2u64, vec![-1.05, -1.0]),
        ];
        let dummy = crate::knn::Knn::fit(1, crate::knn::Weighting::Dual, &examples()).unwrap();
        assert_eq!(qbc.select(&dummy, &pool), Some(1));
        assert_eq!(qbc.name(), "query-by-committee");
    }

    #[test]
    fn train_validations() {
        assert!(Committee::train(EstimatorKind::default(), 1, &examples(), 1).is_err());
        assert!(Committee::train(EstimatorKind::default(), 3, &[], 1).is_err());
    }

    #[test]
    fn committee_is_deterministic_for_seed() {
        let a = Committee::train(EstimatorKind::Dwknn { k: 3 }, 3, &examples(), 9).unwrap();
        let b = Committee::train(EstimatorKind::Dwknn { k: 3 }, 3, &examples(), 9).unwrap();
        for x in [[0.3, 0.1], [-0.5, 0.9], [1.5, -1.5]] {
            assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        }
    }
}
