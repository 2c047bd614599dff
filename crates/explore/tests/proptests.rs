//! Property-based tests for the exploration layer: the Eq. 4 oracle, the
//! workload generator, and synthetic-data invariants.

use proptest::prelude::*;
use uei_explore::oracle::Oracle;
use uei_explore::synth::{generate_sdss_like, generate_uniform, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_types::{DataPoint, Rng, Schema};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_labels_equal_region_membership_everywhere(
        seed in any::<u64>(),
        fraction in 0.005f64..0.1,
    ) {
        let rows = generate_sdss_like(&SynthConfig { rows: 1500, seed, ..Default::default() });
        let mut rng = Rng::new(seed ^ 1);
        let target = generate_target_region_fraction(
            &rows, &Schema::sdss(), fraction, &mut rng).unwrap();
        let oracle = Oracle::new(target);
        for row in &rows {
            let inside = oracle.region().contains(&row.values).unwrap();
            prop_assert_eq!(oracle.label(row).unwrap().is_positive(), inside);
            prop_assert_eq!(oracle.is_relevant_id(row.id.as_u64()), inside);
            // Eq. 4 and membership agree (away from exact boundary).
            let d = oracle.relative_distance(&row.values).unwrap();
            if (d - 1.0).abs() > 1e-9 {
                prop_assert_eq!(inside, d < 1.0);
            }
        }
    }

    #[test]
    fn target_regions_are_never_empty_and_centered_on_data(
        seed in any::<u64>(),
        fraction in 0.002f64..0.05,
    ) {
        let rows = generate_uniform(&Schema::sdss(), 2000, seed);
        let mut rng = Rng::new(seed ^ 2);
        let target = generate_target_region_fraction(
            &rows, &Schema::sdss(), fraction, &mut rng).unwrap();
        prop_assert!(!target.relevant_ids.is_empty());
        prop_assert!(target.region.contains(&target.center).unwrap());
        // Relevant ids ascend and are valid row ids.
        for w in target.relevant_ids.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(target.relevant_ids.iter().all(|&id| id < 2000));
        // Achieved fraction is in a sane band around the request (uniform
        // data converges well; wide tolerance for small targets).
        prop_assert!(target.fraction > 0.0 && target.fraction < fraction * 4.0 + 0.01);
    }

    #[test]
    fn synthetic_rows_are_deterministic_and_in_domain(
        seed in any::<u64>(),
        n in 1usize..500,
    ) {
        let config = SynthConfig { rows: n, seed, ..Default::default() };
        let a = generate_sdss_like(&config);
        let b = generate_sdss_like(&config);
        prop_assert_eq!(&a, &b);
        let space = Schema::sdss().data_space();
        for (i, row) in a.iter().enumerate() {
            prop_assert_eq!(row.id.as_u64(), i as u64);
            prop_assert!(space.contains(&row.values).unwrap());
        }
    }

    #[test]
    fn oracle_confidence_is_bounded_and_inverse_to_distance(
        seed in any::<u64>(),
        probes in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 5), 1..20),
    ) {
        let rows = generate_uniform(&Schema::sdss(), 800, seed);
        let mut rng = Rng::new(seed ^ 3);
        let target = generate_target_region_fraction(
            &rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
        let oracle = Oracle::new(target);
        let space = Schema::sdss();
        for unit in &probes {
            let point: Vec<f64> = space
                .attributes()
                .iter()
                .zip(unit)
                .map(|(a, t)| a.min + t * a.width())
                .collect();
            let c = oracle.confidence(&point).unwrap();
            prop_assert!((0.0..=1.0).contains(&c) || !c.is_nan());
            let d = oracle.relative_distance(&point).unwrap();
            if d <= 1.0 {
                prop_assert!(c >= 0.5 - 1e-9, "inside ⇒ confidence ≥ 0.5, got {c}");
            } else {
                prop_assert!(c < 0.5 + 1e-9, "outside ⇒ confidence < 0.5, got {c}");
            }
        }
    }
}

/// Incremental rescoring must never change *what gets selected*: for every
/// estimator kind — including the committee, which falls back to full
/// rescoring through the conservative [`uei_learn::ModelDelta::Global`]
/// contract — the sequence of chosen cells and examples over a long
/// session must be bit-identical to a twin session that rescores every
/// index point from scratch each iteration. Retraining only every third
/// label lets labels accrue between retrains, exercising the
/// training-length watermark rather than the trivial
/// one-label-per-retrain case. The DWKNN session runs 64 iterations, so
/// more than 50 consecutive incremental passes must stay exact with no
/// full rescore in between.
mod incremental_vs_full {
    use super::*;
    use proptest::TestCaseError;
    use std::sync::Arc;
    use uei_explore::backend::{ExplorationBackend, UeiBackend};
    use uei_explore::synth::generate_sdss_like;
    use uei_index::config::UeiConfig;
    use uei_learn::committee::Committee;
    use uei_learn::dataset::LabeledSet;
    use uei_learn::strategy::UncertaintyMeasure;
    use uei_learn::{Classifier, EstimatorKind, ScoredBatch};
    use uei_storage::io::{DiskTracker, IoProfile};
    use uei_storage::store::{ColumnStore, StoreConfig};
    use uei_types::Label;

    /// Scores exactly like the wrapped model — radii and training length
    /// included — but leaves `model_delta` at the trait's conservative
    /// default, `ModelDelta::Global`, so the index takes its production
    /// full-rescore fallback on every pass: the from-scratch reference.
    struct ForceGlobal<'a>(&'a dyn Classifier);

    impl Classifier for ForceGlobal<'_> {
        fn predict_proba(&self, x: &[f64]) -> f64 {
            self.0.predict_proba(x)
        }
        fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> ScoredBatch {
            self.0.predict_proba_batch_tracked(xs)
        }
        fn training_len(&self) -> Option<usize> {
            self.0.training_len()
        }
        fn parallel_batch_threshold(&self) -> usize {
            self.0.parallel_batch_threshold()
        }
        fn dims(&self) -> usize {
            self.0.dims()
        }
    }

    fn teacher(p: &DataPoint) -> Label {
        // Arbitrary but consistent: ra < 180 is positive — splits SDSS-like
        // data roughly in half, so every estimator trains cleanly.
        Label::from_bool(p.values[2] < 180.0)
    }

    type Trainer = Box<dyn Fn(&[(Vec<f64>, Label)]) -> Box<dyn Classifier>>;

    fn trainers() -> Vec<(&'static str, bool, usize, Trainer)> {
        // (name, expects kNN-family cached scores, iterations, trainer)
        vec![
            (
                "dwknn",
                true,
                64,
                Box::new(|ex: &[_]| EstimatorKind::Dwknn { k: 3 }.train(ex).unwrap()),
            ),
            ("knn", true, 32, Box::new(|ex: &[_]| EstimatorKind::Knn { k: 3 }.train(ex).unwrap())),
            (
                "naive-bayes",
                false,
                32,
                Box::new(|ex: &[_]| EstimatorKind::NaiveBayes.train(ex).unwrap()),
            ),
            (
                "linear-svm",
                false,
                32,
                Box::new(|ex: &[_]| {
                    EstimatorKind::LinearSvm { epochs: 30, lambda: 0.01 }.train(ex).unwrap()
                }),
            ),
            (
                "committee",
                false,
                32,
                Box::new(|ex: &[_]| {
                    Box::new(Committee::train(EstimatorKind::Dwknn { k: 3 }, 3, ex, 7).unwrap())
                }),
            ),
        ]
    }

    pub(super) fn check(seed: u64) -> Result<(), TestCaseError> {
        let rows = generate_sdss_like(&SynthConfig { rows: 2000, seed, ..Default::default() });
        let dir = std::env::temp_dir().join(format!(
            "uei-prop-rescore-{seed}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = Arc::new(
            ColumnStore::create(
                &dir,
                Schema::sdss(),
                &rows,
                StoreConfig { chunk_target_bytes: 8192 },
                tracker,
            )
            .unwrap(),
        );

        for (name, prunes, iterations, train) in &trainers() {
            let mk_backend = || {
                let mut rng = Rng::new(seed ^ 0xA5);
                UeiBackend::new(
                    store.clone(),
                    UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
                    UncertaintyMeasure::LeastConfidence,
                    250,
                    &mut rng,
                )
                .unwrap()
            };
            let mut inc = mk_backend();
            let mut full = mk_backend();

            // Teacher-labeled bootstrap: the first three rows of each class.
            let mut labeled = LabeledSet::new();
            let (mut pos, mut neg) = (0usize, 0usize);
            for p in &rows {
                if pos >= 3 && neg >= 3 {
                    break;
                }
                let label = teacher(p);
                let quota = if label.is_positive() { &mut pos } else { &mut neg };
                if *quota >= 3 {
                    continue;
                }
                *quota += 1;
                labeled.add(p.clone(), label).unwrap();
                inc.mark_labeled(p.id);
                full.mark_labeled(p.id);
            }

            let mut model = train(&labeled.training_data());
            for it in 0..*iterations {
                if it % 3 == 0 {
                    model = train(&labeled.training_data());
                }
                let (pa, ia) = inc
                    .select_next(model.as_ref(), &labeled)
                    .unwrap()
                    .expect("incremental pool non-empty");
                let (pb, ib) = full
                    .select_next(&ForceGlobal(model.as_ref()), &labeled)
                    .unwrap()
                    .expect("full pool non-empty");
                prop_assert_eq!(
                    ia.cell,
                    ib.cell,
                    "{}: iteration {} chose different cells",
                    name,
                    it
                );
                prop_assert_eq!(
                    pa.id,
                    pb.id,
                    "{}: iteration {} chose different examples",
                    name,
                    it
                );
                // Every index point is either rescored or served from the
                // cache, every iteration — never more than |P| rescored.
                let plane = inc.index().points().len() as u64;
                for counters in [&ia.counters, &ib.counters] {
                    prop_assert!(counters.points_rescored <= plane);
                    prop_assert_eq!(counters.points_rescored + counters.points_cached, plane);
                }
                prop_assert_eq!(
                    ib.counters.points_cached,
                    0,
                    "{}: the global-delta reference must never serve cached scores",
                    name
                );
                let label = teacher(&pa);
                labeled.add(pa.clone(), label).unwrap();
                inc.mark_labeled(pa.id);
                full.mark_labeled(pb.id);
            }

            let counters = inc.index().rescore_counters();
            if *prunes {
                prop_assert!(
                    counters.points_cached > 0,
                    "{}: a kNN-family session must actually prune (counters {:?})",
                    name,
                    counters
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}

proptest! {
    // Real storage + five estimators per case: keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn incremental_rescoring_selects_identical_cells_for_every_estimator(seed in 0u64..1_000) {
        incremental_vs_full::check(seed)?;
    }
}

/// Session determinism over random seeds, with real storage; kept as one
/// deterministic case per run to stay fast.
#[test]
fn sessions_replay_bit_for_bit() {
    use std::sync::Arc;
    use uei_explore::backend::UeiBackend;
    use uei_explore::session::{ExplorationSession, SessionConfig};
    use uei_index::config::UeiConfig;
    use uei_learn::strategy::UncertaintyMeasure;
    use uei_storage::io::{DiskTracker, IoProfile};
    use uei_storage::store::{ColumnStore, StoreConfig};

    let rows = generate_sdss_like(&SynthConfig { rows: 3000, seed: 5, ..Default::default() });
    let mut rng = Rng::new(77);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);

    let run = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "uei-prop-replay-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            ColumnStore::create(
                &dir,
                Schema::sdss(),
                &rows,
                StoreConfig { chunk_target_bytes: 8192 },
                DiskTracker::new(IoProfile::instant()),
            )
            .unwrap(),
        );
        let mut rng = Rng::new(3);
        let mut backend = UeiBackend::new(
            store,
            UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
            UncertaintyMeasure::LeastConfidence,
            300,
            &mut rng,
        )
        .unwrap();
        let config = SessionConfig { max_labels: 20, eval_sample: 300, ..SessionConfig::default() };
        let clock = backend.index().store().tracker().clone();
        let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        result
    };

    let a = run("a");
    let b = run("b");
    assert_eq!(a.final_f_measure, b.final_f_measure);
    assert_eq!(a.labels_used, b.labels_used);
    let fa: Vec<Option<f64>> = a.traces.iter().map(|t| t.f_measure).collect();
    let fb: Vec<Option<f64>> = b.traces.iter().map(|t| t.f_measure).collect();
    assert_eq!(fa, fb, "identical seeds replay identical sessions");
}

/// A DataPoint convenience check used by several strategies above.
#[test]
fn probe_points_have_expected_dims() {
    let p = DataPoint::new(0u64, vec![1.0; 5]);
    assert_eq!(p.dims(), Schema::sdss().dims());
}
