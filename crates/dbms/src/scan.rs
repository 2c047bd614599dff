//! The exhaustive most-uncertain-tuple search.
//!
//! This is what the DBMS scheme does on every iteration of Algorithm 1:
//! "in order to find the most uncertain object, it still needs to perform
//! an exhaustive search over the entire database" (paper §1). The scan
//! streams every tuple through the buffer pool, scores it with the current
//! model, and keeps the argmax — so with a pool ≪ table, each iteration
//! reads the whole table from (modeled) disk. The paper measures this at
//! >12 s per iteration on NVMe for 40 GB.

use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::Classifier;
use uei_types::{DataPoint, Result, RowId};

use crate::buffer::BufferPool;
use crate::table::Table;

/// Result of one exhaustive scan.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// The most uncertain tuple, if any candidate was eligible.
    pub best: Option<DataPoint>,
    /// Its uncertainty score.
    pub best_score: f64,
    /// Tuples examined (the `n` of the paper's O(kn) claim).
    pub examined: u64,
}

/// Scans the whole table and returns the unlabeled tuple maximizing the
/// uncertainty measure (paper Eq. 2), skipping rows for which `is_labeled`
/// returns true. Ties break toward the lowest row id for determinism.
pub fn exhaustive_most_uncertain(
    table: &Table,
    pool: &mut BufferPool,
    model: &dyn Classifier,
    measure: UncertaintyMeasure,
    mut is_labeled: impl FnMut(RowId) -> bool,
) -> Result<ScanOutcome> {
    let mut best: Option<DataPoint> = None;
    let mut best_score = f64::NEG_INFINITY;
    let mut examined = 0u64;
    table.scan(pool, |point| {
        examined += 1;
        if is_labeled(point.id) {
            return;
        }
        let score = measure.score(model.predict_proba(&point.values));
        let better = score > best_score
            || (score == best_score && best.as_ref().map(|b| point.id < b.id).unwrap_or(true));
        if better {
            best_score = score;
            best = Some(point);
        }
    })?;
    if best.is_none() {
        best_score = 0.0;
    }
    Ok(ScanOutcome { best, best_score, examined })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use uei_storage::{DiskTracker, IoProfile};
    use uei_types::{AttributeDef, Label, Schema};

    struct CoordModel;
    impl Classifier for CoordModel {
        fn predict_proba(&self, x: &[f64]) -> f64 {
            (x[0] / 100.0).clamp(0.0, 1.0)
        }
        fn dims(&self) -> usize {
            1
        }
    }

    fn build(tag: &str, xs: &[f64]) -> (Table, DiskTracker, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "uei-scan-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new(vec![AttributeDef::new("x", 0.0, 100.0).unwrap()]).unwrap();
        let rows: Vec<DataPoint> =
            xs.iter().enumerate().map(|(i, &x)| DataPoint::new(i as u64, vec![x])).collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let table = Table::create(&dir, schema, &rows, &tracker).unwrap();
        (table, tracker, dir)
    }

    #[test]
    fn finds_the_most_uncertain_tuple() {
        // Posterior = x/100, so x = 50 is the boundary.
        let (table, tracker, dir) = build("argmax", &[10.0, 48.0, 90.0, 55.0]);
        let mut pool = BufferPool::new(4, tracker).unwrap();
        let out = exhaustive_most_uncertain(
            &table,
            &mut pool,
            &CoordModel,
            UncertaintyMeasure::LeastConfidence,
            |_| false,
        )
        .unwrap();
        assert_eq!(out.best.unwrap().values[0], 48.0);
        assert_eq!(out.examined, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skips_labeled_rows() {
        let (table, tracker, dir) = build("skip", &[48.0, 52.0, 90.0]);
        let mut pool = BufferPool::new(4, tracker).unwrap();
        let labeled = RowId(0);
        let out = exhaustive_most_uncertain(
            &table,
            &mut pool,
            &CoordModel,
            UncertaintyMeasure::LeastConfidence,
            |id| id == labeled,
        )
        .unwrap();
        assert_eq!(out.best.unwrap().id, RowId(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_labeled_returns_none() {
        let (table, tracker, dir) = build("none", &[1.0, 2.0]);
        let mut pool = BufferPool::new(4, tracker).unwrap();
        let out = exhaustive_most_uncertain(
            &table,
            &mut pool,
            &CoordModel,
            UncertaintyMeasure::LeastConfidence,
            |_| true,
        )
        .unwrap();
        assert!(out.best.is_none());
        assert_eq!(out.examined, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tie_breaks_to_lowest_id() {
        let (table, tracker, dir) = build("ties", &[40.0, 60.0, 40.0]);
        let mut pool = BufferPool::new(4, tracker).unwrap();
        // 40 and 60 are equidistant from the boundary.
        let out = exhaustive_most_uncertain(
            &table,
            &mut pool,
            &CoordModel,
            UncertaintyMeasure::LeastConfidence,
            |_| false,
        )
        .unwrap();
        assert_eq!(out.best.unwrap().id, RowId(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_iteration_rereads_table_when_pool_is_small() {
        // The paper's core observation, reproduced end to end with a real
        // trained model.
        let xs: Vec<f64> = (0..5000).map(|i| (i % 100) as f64).collect();
        let (table, tracker, dir) = build("reread", &xs);
        let examples = vec![(vec![10.0], Label::Negative), (vec![90.0], Label::Positive)];
        let model = uei_learn::Knn::fit(1, uei_learn::Weighting::Dual, &examples).unwrap();
        let mut pool = BufferPool::new(1, tracker.clone()).unwrap();
        for _ in 0..3 {
            let before = tracker.snapshot();
            let out = exhaustive_most_uncertain(
                &table,
                &mut pool,
                &model,
                UncertaintyMeasure::LeastConfidence,
                |_| false,
            )
            .unwrap();
            assert_eq!(out.examined, 5000);
            assert_eq!(
                tracker.delta(&before).stats.bytes_read,
                table.size_bytes(),
                "every iteration reads the full table"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
