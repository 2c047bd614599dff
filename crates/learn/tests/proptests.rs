//! Property-based tests for the learning toolkit: kd-tree vs brute force,
//! probability bounds for every classifier, metric identities, the
//! scaler, and the model-delta contract vs a brute-force reference.

use proptest::prelude::*;
use uei_learn::kdtree::{KdTree, NearestScratch};
use uei_learn::metrics::{set_f_measure, ConfusionMatrix};
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{
    knn_influence_delta, Classifier, Committee, EstimatorKind, Knn, MinMaxScaler, ModelDelta,
    ScaledClassifier, Weighting,
};
use uei_types::point::squared_distance;
use uei_types::{Label, PointMatrix, Region, Rng};

fn points_strategy(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, dims), 1..80)
}

fn brute_knn(points: &[Vec<f64>], q: &[f64], k: usize) -> Vec<(f64, usize)> {
    let mut all: Vec<(f64, usize)> =
        points.iter().enumerate().map(|(i, p)| (squared_distance(p, q).unwrap(), i)).collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_knn_equals_brute_force(
        points in points_strategy(3),
        query in proptest::collection::vec(-120.0f64..120.0, 3),
        k in 1usize..12,
    ) {
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&query, k).unwrap();
        let want = brute_knn(&points, &query, k);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn kdtree_bit_identical_across_dims(
        (points, query, k) in (1usize..=8).prop_flat_map(|dims| (
            proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, dims), 1..60),
            proptest::collection::vec(-60.0f64..60.0, dims),
            1usize..70, // exceeds the point count: covers k >= n
        )),
    ) {
        // The flat bucketed tree must return *bit-identical* (dist², index)
        // sequences to brute force — same distances down to the last ulp
        // (identical accumulation order), same tie-breaking by build index.
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&query, k).unwrap();
        let want = brute_knn(&points, &query, k);
        prop_assert_eq!(got.len(), want.len());
        for (i, ((gd, gi), (wd, wi))) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                (gd.to_bits(), *gi), (wd.to_bits(), *wi),
                "rank {i}: got ({gd}, {gi}) want ({wd}, {wi})"
            );
        }
    }

    #[test]
    fn kdtree_bit_identical_on_duplicate_heavy_sets(
        (points, query, k) in (1usize..=4).prop_flat_map(|dims| (
            proptest::collection::vec(
                proptest::collection::vec((-2i32..3).prop_map(f64::from), dims), 1..80),
            proptest::collection::vec((-2i32..3).prop_map(f64::from), dims),
            1usize..90,
        )),
    ) {
        // Coordinates drawn from five integers: masses of exact duplicates
        // and exact distance ties, so the build-index tie-break carries all
        // the ordering. Duplicates also stress the median partition (equal
        // keys must still split into two non-empty sides).
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&query, k).unwrap();
        let want = brute_knn(&points, &query, k);
        prop_assert_eq!(got.len(), want.len());
        for ((gd, gi), (wd, wi)) in got.iter().zip(&want) {
            prop_assert_eq!((gd.to_bits(), *gi), (wd.to_bits(), *wi));
        }
    }

    #[test]
    fn nearest_scratch_reuse_never_leaks_state(
        (a_pts, a_qs, b_pts, b_qs, k) in ((1usize..=6), (1usize..=6)).prop_flat_map(|(da, db)| (
            proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, da), 1..40),
            proptest::collection::vec(
                proptest::collection::vec(-12.0f64..12.0, da), 1..6),
            proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, db), 1..40),
            proptest::collection::vec(
                proptest::collection::vec(-12.0f64..12.0, db), 1..6),
            1usize..50,
        )),
    ) {
        // One scratch shared across two trees of independent shapes and
        // dimensionalities, queries interleaved: every answer must equal
        // the fresh-scratch answer bit for bit.
        let ta = KdTree::build(a_pts.clone()).unwrap();
        let tb = KdTree::build(b_pts.clone()).unwrap();
        let mut scratch = NearestScratch::new();
        for i in 0..a_qs.len().max(b_qs.len()) {
            if let Some(q) = a_qs.get(i) {
                let shared = ta.nearest_with(&mut scratch, q, k).unwrap().to_vec();
                let fresh = ta.nearest(q, k).unwrap();
                prop_assert_eq!(shared, fresh);
            }
            if let Some(q) = b_qs.get(i) {
                let shared = tb.nearest_with(&mut scratch, q, k).unwrap().to_vec();
                let fresh = tb.nearest(q, k).unwrap();
                prop_assert_eq!(shared, fresh);
            }
        }
    }

    #[test]
    fn kdtree_range_equals_filter(
        points in points_strategy(2),
        lo in proptest::collection::vec(-120.0f64..0.0, 2),
        width in proptest::collection::vec(0.0f64..200.0, 2),
    ) {
        let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let region = Region::new(lo, hi).unwrap();
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.range_query(&region).unwrap();
        let want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| region.contains(p).unwrap())
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn all_classifiers_emit_valid_probabilities(
        pos in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 2..20),
        neg in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..0.0, 3), 2..20),
        queries in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 3), 1..10),
    ) {
        let mut examples: Vec<(Vec<f64>, Label)> =
            pos.into_iter().map(|x| (x, Label::Positive)).collect();
        examples.extend(neg.into_iter().map(|x| (x, Label::Negative)));
        for kind in [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 5, lambda: 1e-2 },
        ] {
            let model = kind.train(&examples).unwrap();
            for q in &queries {
                let p = model.predict_proba(q);
                prop_assert!(
                    (0.0..=1.0).contains(&p) && p.is_finite(),
                    "{}: p = {p}", kind.name()
                );
                let u = model.uncertainty(q);
                prop_assert!((0.0..=0.5).contains(&u), "{}: u = {u}", kind.name());
            }
        }
    }

    #[test]
    fn uncertainty_measures_symmetric_and_peaked(p in 0.0f64..=1.0) {
        for m in [
            UncertaintyMeasure::LeastConfidence,
            UncertaintyMeasure::Margin,
            UncertaintyMeasure::Entropy,
        ] {
            let s = m.score(p);
            let s_mirror = m.score(1.0 - p);
            prop_assert!((s - s_mirror).abs() < 1e-9, "{m:?} not symmetric at {p}");
            prop_assert!(s <= m.score(0.5) + 1e-12, "{m:?} exceeds its peak at {p}");
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn confusion_matrix_identities(tp in 0u64..1000, fp in 0u64..1000, fn_ in 0u64..1000, tn in 0u64..1000) {
        let m = ConfusionMatrix { tp, fp, fn_, tn };
        let f1 = m.f_measure();
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!((0.0..=1.0).contains(&m.precision()));
        prop_assert!((0.0..=1.0).contains(&m.recall()));
        // F1, a mean, lies between precision and recall.
        if m.precision() > 0.0 && m.recall() > 0.0 {
            let (lo, hi) = (m.precision().min(m.recall()), m.precision().max(m.recall()));
            prop_assert!(f1 >= lo - 1e-12 && f1 <= hi + 1e-12);
        }
        // F1 = 1 iff perfect.
        if f1 > 1.0 - 1e-12 {
            prop_assert_eq!(fp, 0);
            prop_assert_eq!(fn_, 0);
        }
    }

    #[test]
    fn set_f_measure_agrees_with_matrix(
        predicted in proptest::collection::btree_set(0u64..200, 0..60),
        relevant in proptest::collection::btree_set(0u64..200, 0..60),
    ) {
        let p: Vec<u64> = predicted.iter().copied().collect();
        let r: Vec<u64> = relevant.iter().copied().collect();
        let tp = predicted.intersection(&relevant).count() as u64;
        let m = ConfusionMatrix {
            tp,
            fp: p.len() as u64 - tp,
            fn_: r.len() as u64 - tp,
            tn: 0,
        };
        prop_assert!((set_f_measure(&p, &r) - m.f_measure()).abs() < 1e-12);
    }

    #[test]
    fn scaler_roundtrip(
        dims_data in (1usize..6).prop_flat_map(|d| (
            proptest::collection::vec(-1e3f64..1e3, d),
            proptest::collection::vec(0.001f64..1e3, d),
            proptest::collection::vec(0.0f64..1.0, d),
        )),
    ) {
        let (lo, width, t) = dims_data;
        let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let scaler = MinMaxScaler::new(lo.clone(), hi).unwrap();
        let point: Vec<f64> =
            lo.iter().zip(&width).zip(&t).map(|((l, w), tt)| l + w * tt).collect();
        let z = scaler.transform(&point).unwrap();
        for &v in &z {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
        let back = scaler.inverse(&z).unwrap();
        for (a, b) in point.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn batch_scoring_is_bit_identical_to_sequential(
        pos in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 2..15),
        neg in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..0.0, 3), 2..15),
        queries in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 3), 1..40),
    ) {
        // The batch-scoring contract: predict_proba_batch_tracked(xs).probs[i]
        // and predict_proba_batch(xs)[i] are bit-for-bit the same float
        // predict_proba(xs[i]) returns, for every classifier, including the
        // composite ones.
        let mut examples: Vec<(Vec<f64>, Label)> =
            pos.into_iter().map(|x| (x, Label::Positive)).collect();
        examples.extend(neg.into_iter().map(|x| (x, Label::Negative)));
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();

        let mut models: Vec<(String, Box<dyn Classifier>)> = Vec::new();
        for kind in [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 5, lambda: 1e-2 },
        ] {
            models.push((kind.name().to_string(), kind.train(&examples).unwrap()));
        }
        models.push((
            "committee".to_string(),
            Box::new(Committee::train(
                EstimatorKind::Dwknn { k: 3 }, 3, &examples, 7).unwrap()),
        ));
        let scaler = MinMaxScaler::new(vec![-2.0; 3], vec![2.0; 3]).unwrap();
        models.push((
            "scaled-dwknn".to_string(),
            Box::new(ScaledClassifier::train(
                EstimatorKind::Dwknn { k: 3 }, scaler, &examples).unwrap()),
        ));

        for (name, model) in &models {
            let batch = model.predict_proba_batch(&refs);
            let tracked = model.predict_proba_batch_tracked(&refs);
            prop_assert_eq!(batch.len(), queries.len());
            prop_assert_eq!(tracked.probs.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                let scalar = model.predict_proba(q);
                prop_assert_eq!(
                    batch[i].to_bits(), scalar.to_bits(),
                    "{}: batch[{i}] = {} vs scalar {}", name, batch[i], scalar
                );
                prop_assert_eq!(
                    tracked.probs[i].to_bits(), scalar.to_bits(),
                    "{}: tracked[{i}] = {} vs scalar {}", name, tracked.probs[i], scalar
                );
            }
        }

        // A wrong-dimension query behind the scaler scores the 0.5 fallback
        // with an infinite radius, and leaves its neighbours' scores alone.
        let (_, scaled) = models.last().unwrap();
        let wrong = [0.5, 0.5];
        let mut mixed = refs.clone();
        mixed.insert(mixed.len() / 2, &wrong);
        let tracked = scaled.predict_proba_batch_tracked(&mixed);
        let radii2 = tracked.radii2.expect("scaled kNN reports radii");
        let at = refs.len() / 2;
        prop_assert_eq!(tracked.probs[at], 0.5);
        prop_assert!(radii2[at].is_infinite());
        prop_assert_eq!(scaled.predict_proba(&wrong), 0.5);
        let rest: Vec<u64> = tracked.probs.iter().enumerate()
            .filter(|&(i, _)| i != at).map(|(_, p)| p.to_bits()).collect();
        let plain: Vec<u64> = scaled.predict_proba_batch(&refs).iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(rest, plain);
    }

    #[test]
    fn dwknn_prediction_matches_training_labels_on_exact_points(
        pos in proptest::collection::vec(
            proptest::collection::vec(5.0f64..10.0, 2), 2..10),
        neg in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..-5.0, 2), 2..10),
    ) {
        // Well-separated clusters: every training point must classify as
        // its own label with k = 1.
        let mut examples: Vec<(Vec<f64>, Label)> =
            pos.iter().cloned().map(|x| (x, Label::Positive)).collect();
        examples.extend(neg.iter().cloned().map(|x| (x, Label::Negative)));
        let model = Knn::fit(1, Weighting::Dual, &examples).unwrap();
        for (x, label) in &examples {
            prop_assert_eq!(model.predict(x), *label);
        }
    }
}

/// The brute-force model-delta reference: a point is dirty iff its radius
/// is not finite or some added example lies strictly inside its ball.
fn reference_mask(points: &[Vec<f64>], radii2: &[f64], added: &[Vec<f64>]) -> Vec<bool> {
    points
        .iter()
        .zip(radii2)
        .map(|(p, &r2)| !r2.is_finite() || added.iter().any(|a| naive_dist2(p, a) < r2))
        .collect()
}

fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..a.len() {
        acc += (a[d] - b[d]) * (a[d] - b[d]);
    }
    acc
}

/// `model.model_delta` over every range of `cuts`, concatenated.
fn partitioned_mask(
    model: &dyn Classifier,
    points: &PointMatrix,
    cuts: &[usize],
    radii2: &[f64],
    added: &[Vec<f64>],
) -> Option<Vec<bool>> {
    let added_refs: Vec<&[f64]> = added.iter().map(|a| a.as_slice()).collect();
    let mut mask = Vec::with_capacity(points.len());
    for w in cuts.windows(2) {
        match model.model_delta(points, w[0]..w[1], &radii2[w[0]..w[1]], &added_refs) {
            ModelDelta::Dirty(part) => mask.extend(part),
            ModelDelta::Global => return None,
        }
    }
    Some(mask)
}

fn random_point(rng: &mut Rng, dims: usize, lattice: bool) -> Vec<f64> {
    (0..dims)
        .map(|_| {
            let v = rng.range_f64(-4.0, 4.0);
            if lattice {
                v.round()
            } else {
                v
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn model_delta_equals_the_brute_force_reference(
        dims in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::new(seed);
        // Integer coordinates half the time: masses of exact distance ties.
        let lattice = rng.bool(0.5);
        let n = rng.range_usize(1, 2600); // spans several 1024-row blocks
        let points: Vec<Vec<f64>> = (0..n).map(|_| random_point(&mut rng, dims, lattice)).collect();
        let matrix = PointMatrix::from_rows(&points).unwrap();
        let added: Vec<Vec<f64>> =
            (0..rng.below_usize(4)).map(|_| random_point(&mut rng, dims, lattice)).collect();
        // Radii: infinite, random, or exactly on the ball boundary of one
        // added example (that example must then leave the point clean).
        let mut on_boundary = vec![None; n];
        let radii2: Vec<f64> = (0..n)
            .map(|i| match rng.below(4) {
                0 => f64::INFINITY,
                1 if !added.is_empty() => {
                    let j = rng.below_usize(added.len());
                    on_boundary[i] = Some(j);
                    naive_dist2(&points[i], &added[j])
                }
                _ => rng.range_f64(0.0, 16.0),
            })
            .collect();
        let mut cuts: Vec<usize> = (0..rng.below_usize(6)).map(|_| rng.range_usize(0, n + 1)).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        let want = reference_mask(&points, &radii2, &added);

        // (i) The kNN delta over any partition equals the reference,
        // sequentially and fanned out.
        let added_refs: Vec<&[f64]> = added.iter().map(|a| a.as_slice()).collect();
        for threshold in [1, usize::MAX] {
            let mut got = Vec::with_capacity(n);
            for w in cuts.windows(2) {
                match knn_influence_delta(&matrix, w[0]..w[1], &radii2[w[0]..w[1]], &added_refs, threshold) {
                    ModelDelta::Dirty(part) => got.extend(part),
                    ModelDelta::Global => prop_assert!(false, "range {:?} went Global", w),
                }
            }
            prop_assert_eq!(&got, &want, "threshold {}", threshold);
            // A boundary example never dirties its point by itself.
            for (i, j) in on_boundary.iter().enumerate() {
                if let Some(j) = *j {
                    let mut others = added.clone();
                    others.remove(j);
                    prop_assert_eq!(got[i], reference_mask(&points[i..=i], &radii2[i..=i], &others)[0]);
                }
            }
        }

        // Training data for the models: both classes, a small set so that
        // some neighbourhoods stay unsaturated.
        let k = rng.range_usize(1, 6);
        let mut examples: Vec<(Vec<f64>, Label)> = (0..rng.range_usize(2, 30))
            .map(|_| (random_point(&mut rng, dims, lattice), Label::from_bool(rng.bool(0.5))))
            .collect();
        examples[0].1 = Label::Positive;
        examples[1].1 = Label::Negative;
        let lo: Vec<f64> = (0..dims).map(|_| rng.range_f64(-5.0, 0.0)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.range_f64(0.5, 10.0)).collect();
        let scaler = MinMaxScaler::new(lo, hi).unwrap();

        // (ii) The scaled model's mask equals its inner model's mask on the
        // pre-scaled rows and examples.
        let scaled_model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k }, scaler.clone(), &examples).unwrap();
        let scaled_examples: Vec<(Vec<f64>, Label)> =
            examples.iter().map(|(x, l)| (scaler.transform(x).unwrap(), *l)).collect();
        let inner = EstimatorKind::Dwknn { k }.train(&scaled_examples).unwrap();
        let scaled_points: Vec<Vec<f64>> = points.iter().map(|p| scaler.transform(p).unwrap()).collect();
        let scaled_added: Vec<Vec<f64>> = added.iter().map(|a| scaler.transform(a).unwrap()).collect();
        let via_wrapper = partitioned_mask(&scaled_model, &matrix, &cuts, &radii2, &added);
        let via_inner = partitioned_mask(
            inner.as_ref(),
            &PointMatrix::from_rows(&scaled_points).unwrap(),
            &cuts,
            &radii2,
            &scaled_added,
        );
        prop_assert!(via_inner.is_some());
        prop_assert_eq!(via_wrapper, via_inner);

        // (iii) Append one example: every point reported clean scores
        // bit-identically under the extended model.
        let appended = (random_point(&mut rng, dims, lattice), Label::from_bool(rng.bool(0.5)));
        let mut extended = examples.clone();
        extended.push(appended.clone());
        let fit = |weighting: Weighting, scaled: bool, ex: &[(Vec<f64>, Label)]| -> Box<dyn Classifier> {
            if !scaled {
                return Box::new(Knn::fit(k, weighting, ex).unwrap());
            }
            let ex: Vec<(Vec<f64>, Label)> =
                ex.iter().map(|(x, l)| (scaler.transform(x).unwrap(), *l)).collect();
            let inner = Knn::fit(k, weighting, &ex).unwrap();
            Box::new(ScaledClassifier::wrap(Box::new(inner), scaler.clone()))
        };
        let refs = matrix.row_refs();
        for weighting in [Weighting::Uniform, Weighting::Dual] {
            for scaled in [false, true] {
                let name = format!("{weighting:?} scaled={scaled}");
                let before = fit(weighting, scaled, &examples).predict_proba_batch_tracked(&refs);
                let radii2 = before.radii2.expect("kNN models report radii");
                let after_model = fit(weighting, scaled, &extended);
                let mask = partitioned_mask(
                    after_model.as_ref(), &matrix, &cuts, &radii2, std::slice::from_ref(&appended.0),
                );
                prop_assert!(mask.is_some(), "{}: Global delta", name);
                let after = after_model.predict_proba_batch(&refs);
                for (i, dirty) in mask.unwrap().into_iter().enumerate() {
                    if !dirty {
                        prop_assert_eq!(
                            before.probs[i].to_bits(), after[i].to_bits(),
                            "{}: clean point {} changed score", name, i
                        );
                    }
                }
            }
        }
    }
}
