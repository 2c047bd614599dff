//! Linear SVM trained with Pegasos, calibrated with Platt scaling.
//!
//! SVMs are the second "probability-based predictive model" the paper names
//! for uncertainty sampling (§2.1). Pegasos (Shalev-Shwartz et al. 2011) is
//! a stochastic sub-gradient solver for the primal hinge-loss objective
//!
//! ```text
//! min_w  λ/2 ‖w‖² + 1/n Σ max(0, 1 − y_i ⟨w, x_i⟩)
//! ```
//!
//! Features are standardized at fit time (zero mean, unit variance) so the
//! step sizes behave across the SDSS-like attribute scales; the raw margin
//! is then mapped to a probability with [`crate::platt::PlattScaler`].

use uei_types::{Label, Result, Rng, UeiError};

use crate::model::{check_two_classes, Classifier};
use crate::platt::PlattScaler;

/// A trained linear SVM with calibrated probabilities.
#[derive(Debug)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
    platt: PlattScaler,
    dims: usize,
}

impl LinearSvm {
    /// Fits the SVM.
    ///
    /// `epochs` full passes of Pegasos with regularization `lambda`;
    /// `seed` drives the example shuffling. Requires both classes.
    pub fn fit(
        examples: &[(Vec<f64>, Label)],
        epochs: usize,
        lambda: f64,
        seed: u64,
    ) -> Result<LinearSvm> {
        check_two_classes(examples)?;
        if epochs == 0 {
            return Err(UeiError::invalid_config("SVM requires epochs >= 1"));
        }
        if !(lambda > 0.0) {
            return Err(UeiError::invalid_config("SVM requires lambda > 0"));
        }
        let dims = examples[0].0.len();
        let n = examples.len();

        // Standardize features.
        let mut means = vec![0.0; dims];
        for (x, _) in examples {
            for d in 0..dims {
                means[d] += x[d];
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut stds = vec![0.0; dims];
        for (x, _) in examples {
            for d in 0..dims {
                let diff = x[d] - means[d];
                stds[d] += diff * diff;
            }
        }
        for s in &mut stds {
            *s = (*s / n as f64).sqrt().max(1e-9);
        }
        let scaled: Vec<(Vec<f64>, f64)> = examples
            .iter()
            .map(|(x, l)| {
                let z: Vec<f64> = (0..dims).map(|d| (x[d] - means[d]) / stds[d]).collect();
                (z, l.as_sign())
            })
            .collect();

        // Pegasos with an (unregularized) bias term.
        let mut w = vec![0.0; dims];
        let mut b = 0.0;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed);
        let mut t = 0u64;
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (lambda * t as f64);
                let (x, y) = &scaled[i];
                let margin = y * (dot(&w, x) + b);
                // w ← (1 − ηλ) w [+ ηy x when the hinge is active]
                let decay = 1.0 - eta * lambda;
                for wd in w.iter_mut() {
                    *wd *= decay;
                }
                if margin < 1.0 {
                    for d in 0..dims {
                        w[d] += eta * y * x[d];
                    }
                    b += eta * y;
                }
            }
        }

        // Calibrate the margins on the training set.
        let scores: Vec<f64> = scaled.iter().map(|(x, _)| dot(&w, x) + b).collect();
        let labels: Vec<Label> = examples.iter().map(|(_, l)| *l).collect();
        let platt = PlattScaler::fit(&scores, &labels);

        Ok(LinearSvm { weights: w, bias: b, feature_means: means, feature_stds: stds, platt, dims })
    }

    /// The raw (uncalibrated) decision value for `x`.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        let mut s = self.bias;
        for d in 0..self.dims.min(x.len()) {
            s += self.weights[d] * (x[d] - self.feature_means[d]) / self.feature_stds[d];
        }
        s
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

impl Classifier for LinearSvm {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        if x.len() != self.dims {
            return 0.5;
        }
        self.platt.probability(self.decision_value(x))
    }

    /// One dot product per query is far too cheap for the generic fan-out
    /// cutoff: the scoring bench measured 0.26× at 256 points and still
    /// 0.82× at 4096, so only very large pools parallelize.
    fn parallel_batch_threshold(&self) -> usize {
        16384
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::Rng;

    fn linear_data(seed: u64, n: usize) -> Vec<(Vec<f64>, Label)> {
        // Label by the hyperplane x + y > 1 with a margin band.
        let mut rng = Rng::new(seed);
        let mut ex = Vec::new();
        while ex.len() < n {
            let x = rng.range_f64(-2.0, 3.0);
            let y = rng.range_f64(-2.0, 3.0);
            let s = x + y - 1.0;
            if s.abs() < 0.1 {
                continue; // margin band
            }
            ex.push((vec![x, y], Label::from_bool(s > 0.0)));
        }
        ex
    }

    #[test]
    fn learns_a_linear_boundary() {
        let data = linear_data(5, 400);
        let model = LinearSvm::fit(&data, 30, 1e-3, 1).unwrap();
        let mut correct = 0;
        for (x, l) in &data {
            if model.predict(x) == *l {
                correct += 1;
            }
        }
        let acc = correct as f64 / data.len() as f64;
        assert!(acc > 0.95, "training accuracy {acc}");
    }

    #[test]
    fn probabilities_track_margin() {
        let data = linear_data(9, 400);
        let model = LinearSvm::fit(&data, 30, 1e-3, 2).unwrap();
        let deep_pos = model.predict_proba(&[3.0, 3.0]);
        let deep_neg = model.predict_proba(&[-3.0, -3.0]);
        let near = model.predict_proba(&[0.5, 0.5]);
        assert!(deep_pos > 0.9, "deep positive {deep_pos}");
        assert!(deep_neg < 0.1, "deep negative {deep_neg}");
        assert!(near > deep_neg && near < deep_pos);
    }

    #[test]
    fn uncertainty_highest_near_boundary() {
        let data = linear_data(11, 400);
        let model = LinearSvm::fit(&data, 30, 1e-3, 3).unwrap();
        let on_boundary = model.uncertainty(&[0.5, 0.5]);
        let far = model.uncertainty(&[3.0, 3.0]);
        assert!(on_boundary > far);
    }

    #[test]
    fn handles_unscaled_features() {
        // One feature 1000× larger: standardization should absorb it.
        let mut data = Vec::new();
        let mut rng = Rng::new(13);
        for _ in 0..200 {
            let x = rng.range_f64(0.0, 2000.0);
            let y = rng.range_f64(0.0, 2.0);
            let label = Label::from_bool(x / 1000.0 + y > 2.0);
            data.push((vec![x, y], label));
        }
        let model = LinearSvm::fit(&data, 30, 1e-3, 4).unwrap();
        let mut correct = 0;
        for (x, l) in &data {
            if model.predict(x) == *l {
                correct += 1;
            }
        }
        assert!(correct as f64 / data.len() as f64 > 0.9);
    }

    #[test]
    fn fit_validations() {
        let data = linear_data(1, 20);
        assert!(LinearSvm::fit(&data, 0, 1e-3, 1).is_err());
        assert!(LinearSvm::fit(&data, 10, 0.0, 1).is_err());
        assert!(LinearSvm::fit(&data, 10, -1.0, 1).is_err());
        assert!(LinearSvm::fit(&[], 10, 1e-3, 1).is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let data = linear_data(21, 100);
        let m1 = LinearSvm::fit(&data, 10, 1e-3, 77).unwrap();
        let m2 = LinearSvm::fit(&data, 10, 1e-3, 77).unwrap();
        assert_eq!(m1.weights, m2.weights);
        assert_eq!(m1.bias, m2.bias);
    }
}
