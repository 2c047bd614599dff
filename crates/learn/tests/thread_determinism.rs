//! Batch scoring and selection must be byte-identical regardless of how
//! many rayon threads run them, for every estimator. This lives in its own
//! integration binary because it mutates `RAYON_NUM_THREADS`, which must
//! not race other tests' environment reads.

use uei_learn::{
    should_parallelize_at, Classifier, EstimatorKind, MinMaxScaler, QueryStrategy,
    ScaledClassifier, UncertaintySampling,
};
use uei_types::{DataPoint, Label};

/// Deterministic pseudo-random coordinate in [-2, 2).
fn coord(i: u64, d: u64) -> f64 {
    let mut x = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(d ^ 0x9e37_79b9);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x % 4_000) as f64 / 1_000.0 - 2.0
}

fn training_examples() -> Vec<(Vec<f64>, Label)> {
    let mut examples = Vec::new();
    for i in 0..12u64 {
        examples
            .push((vec![coord(i, 0).abs(), coord(i, 1).abs(), coord(i, 2).abs()], Label::Positive));
        examples.push((
            vec![-coord(i, 3).abs(), -coord(i, 4).abs(), -coord(i, 5).abs()],
            Label::Negative,
        ));
    }
    examples
}

fn models() -> Vec<(String, Box<dyn Classifier>)> {
    let examples = training_examples();
    let mut out: Vec<(String, Box<dyn Classifier>)> = Vec::new();
    for kind in [
        EstimatorKind::Dwknn { k: 3 },
        EstimatorKind::Knn { k: 3 },
        EstimatorKind::NaiveBayes,
        EstimatorKind::LinearSvm { epochs: 20, lambda: 1e-2 },
    ] {
        out.push((kind.name().to_string(), kind.train(&examples).unwrap()));
    }
    let scaler = MinMaxScaler::new(vec![-2.0; 3], vec![2.0; 3]).unwrap();
    let scaled = ScaledClassifier::train(EstimatorKind::Dwknn { k: 3 }, scaler, &examples).unwrap();
    out.push(("scaled DWKNN".to_string(), Box::new(scaled)));
    out
}

fn pool(n: usize) -> Vec<DataPoint> {
    (0..n as u64)
        .map(|i| DataPoint::new(i, vec![coord(i, 10), coord(i, 11), coord(i, 12)]))
        .collect()
}

#[derive(Debug, PartialEq)]
struct Observed {
    batch_bits: Vec<u64>,
    tracked_bits: Vec<u64>,
    radii_bits: Option<Vec<u64>>,
    selected: Option<usize>,
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn observe(model: &dyn Classifier, pool: &[DataPoint]) -> Observed {
    let refs: Vec<&[f64]> = pool.iter().map(|p| p.values.as_slice()).collect();
    let tracked = model.predict_proba_batch_tracked(&refs);
    Observed {
        batch_bits: bits(&model.predict_proba_batch(&refs)),
        tracked_bits: bits(&tracked.probs),
        radii_bits: tracked.radii2.as_deref().map(bits),
        selected: UncertaintySampling::default().select(model, pool),
    }
}

#[test]
fn results_identical_across_thread_counts() {
    for (name, model) in models() {
        // A pool past the model's own cutoff, so the batch path genuinely
        // fans out when threads > 1.
        let threshold = model.parallel_batch_threshold();
        let pool = pool(threshold + threshold / 4);

        std::env::set_var("RAYON_NUM_THREADS", "1");
        assert!(!should_parallelize_at(pool.len(), threshold));
        let baseline = observe(model.as_ref(), &pool);
        assert_eq!(baseline.tracked_bits, baseline.batch_bits, "{name}: tracked vs plain");
        assert!(baseline.selected.is_some(), "{name}");

        for threads in ["2", "3", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            assert!(
                should_parallelize_at(pool.len(), threshold),
                "{name}: the pool must cross the model's threshold at {threads} threads"
            );
            let got = observe(model.as_ref(), &pool);
            assert_eq!(got, baseline, "{name}: results differ at {threads} threads");
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
