//! The symbolic index points and their uncertainty scores.
//!
//! "In each iteration, UEI updates the uncertainty of all index points
//! p_i ∈ P based on the most recently trained predictive model M_{t−1},
//! which serves as the uncertainty estimator. […] Then, the index point
//! p*_i for which the current exploration model is most uncertain will be
//! chosen" (§3.2, Eq. 3).
//!
//! The score plane is sharded (DESIGN.md §14): a [`ShardLayout`] partitions
//! the flat score/radius arrays into contiguous cell ranges, rescoring fans
//! out shard-parallel, and each shard keeps a cached top-θ candidate list
//! ([`ShardTops`]) that selection merges deterministically. Scores and
//! selection are **bit-identical at every shard count**.

use std::sync::Arc;

use rayon::prelude::*;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{Classifier, ModelDelta, ScoredBatch};
use uei_types::{PointMatrix, Result, ShardId, UeiError};

use crate::grid::{CellId, Grid};
use crate::select::ShardTops;
use crate::shard::ShardLayout;

/// Work accounting of one rescoring pass: how many index points were
/// actually pushed through the model versus served from the score cache.
///
/// The counters are plain sums, so the same type doubles as a cumulative
/// tally (see [`Self::since`] for window deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RescoreStats {
    /// Points scored through the model this pass (dirty or full).
    pub points_rescored: u64,
    /// Points whose cached score was provably still valid and kept.
    pub points_cached: u64,
}

impl RescoreStats {
    /// Adds another pass's counts into this tally.
    pub fn accumulate(&mut self, other: RescoreStats) {
        self.points_rescored += other.points_rescored;
        self.points_cached += other.points_cached;
    }

    /// The counter deltas accumulated since `earlier` (saturating, so a
    /// stale snapshot cannot underflow).
    pub fn since(&self, earlier: &RescoreStats) -> RescoreStats {
        RescoreStats {
            points_rescored: self.points_rescored.saturating_sub(earlier.points_rescored),
            points_cached: self.points_cached.saturating_sub(earlier.points_cached),
        }
    }
}

/// The index set `P`: one symbolic point (cell center) per grid cell, with
/// the current uncertainty estimate of each.
///
/// The uncertainty vector doubles as a **score cache**: each full tracked
/// rescore also captures per-point influence radii, and subsequent
/// [`Self::update_incremental`] passes consult the model's
/// [`ModelDelta`] to rescore only the points whose score may have changed,
/// keeping every other score verbatim. `model_version` tags the cache with
/// the (monotonically increasing) generation of the model that produced
/// it.
///
/// The immutable halves — cell centers and shard layout — sit behind
/// `Arc`s, so cloning an `IndexPoints` (one clone per engine session)
/// shares the geometry and copies only the per-session score state.
#[derive(Debug, Clone)]
pub struct IndexPoints {
    /// Cell centers in one flat row-major matrix: batch scoring and the
    /// influence-ball delta sweep it linearly, no per-center allocation.
    centers: Arc<PointMatrix>,
    /// The contiguous-range shard partition of `0..len`.
    layout: Arc<ShardLayout>,
    uncertainty: Vec<f64>,
    updated: bool,
    /// Squared influence radii from the last tracked rescore; `None` when
    /// the last pass was untracked or the model does not report radii.
    radii2: Option<Vec<f64>>,
    /// Per-shard cached top-θ candidate lists for selection.
    tops: ShardTops,
    /// Generation counter of the cached scores: bumped on every rescoring
    /// pass, of any kind.
    model_version: u64,
    /// Cumulative shards whose scores a rescoring pass recomputed (full
    /// passes count every shard; incremental passes only the dirty ones).
    shards_touched: u64,
}

impl IndexPoints {
    /// Materializes the index points of a grid (Algorithm 2 lines 7–11)
    /// with the shard count sized automatically from the cell count.
    pub fn from_grid(grid: &Grid) -> Result<IndexPoints> {
        Self::from_grid_with_shards(grid, 0)
    }

    /// [`Self::from_grid`] with an explicit shard count (`0` = auto, other
    /// values clamped to `[1, num_cells]` — see [`ShardLayout::new`]). The
    /// engine always sizes automatically; tests pass 1 for the
    /// global-ranking reference.
    pub fn from_grid_with_shards(grid: &Grid, shards: usize) -> Result<IndexPoints> {
        let (dims, per_dim) = (grid.dims(), grid.cells_per_dim());
        // A center is one slice midpoint per dimension, so the
        // `dims × per_dim` midpoints are computed once and the cells walked
        // by a row-major odometer (last dimension fastest, matching
        // `Grid::id_to_coords`) instead of decoding every id.
        let mids: Vec<f64> =
            (0..dims).flat_map(|d| (0..per_dim).map(move |c| grid.slice_center(d, c))).collect();
        let mut coords = vec![0usize; dims];
        let mut row: Vec<f64> = (0..dims).map(|d| mids[d * per_dim]).collect();
        let mut centers = PointMatrix::with_capacity(grid.num_cells(), dims);
        for _ in 0..grid.num_cells() {
            centers.push_row(&row)?;
            for d in (0..dims).rev() {
                coords[d] += 1;
                if coords[d] < per_dim {
                    row[d] = mids[d * per_dim + coords[d]];
                    break;
                }
                coords[d] = 0;
                row[d] = mids[d * per_dim];
            }
        }
        let n = centers.len();
        let layout = ShardLayout::new(n, shards);
        let tops = ShardTops::new(layout.num_shards());
        Ok(IndexPoints {
            centers: Arc::new(centers),
            layout: Arc::new(layout),
            uncertainty: vec![0.0; n],
            updated: false,
            radii2: None,
            tops,
            model_version: 0,
            shards_touched: 0,
        })
    }

    /// Number of index points (`|P|`).
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether the set is empty (never true for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// The shard partition of the score plane.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of shards the score plane is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.layout.num_shards()
    }

    /// Cumulative count of shards recomputed across all rescoring passes
    /// (full passes add every shard, incremental passes only the dirty
    /// ones). Snapshot-and-subtract for per-iteration deltas.
    pub fn shards_touched(&self) -> u64 {
        self.shards_touched
    }

    /// Always `0`: the plane has no shard-granular prune (DESIGN.md §14
    /// records why one never fired). Kept because the benchmark's traced
    /// backend still reads it.
    pub fn shards_pruned(&self) -> u64 {
        0
    }

    /// The symbolic point of cell `id`.
    pub fn center(&self, id: CellId) -> Result<&[f64]> {
        if id < self.centers.len() {
            Ok(self.centers.row(id))
        } else {
            Err(UeiError::not_found(format!("index point {id}")))
        }
    }

    /// The last computed uncertainty of cell `id`.
    pub fn uncertainty(&self, id: CellId) -> Result<f64> {
        self.uncertainty
            .get(id)
            .copied()
            .ok_or_else(|| UeiError::not_found(format!("index point {id}")))
    }

    /// Re-scores every index point with the current model
    /// (`updateUncertainty(P, M)`, Algorithm 2 line 17) the literal way:
    /// one independent `predict_proba` call per index point, in cell
    /// order. This is the reference the batch paths are bit-compared
    /// against in tests; the engine rescoring goes through
    /// [`Self::update_tracked`] and [`Self::update_incremental`].
    pub fn update_sequential(&mut self, model: &dyn Classifier, measure: UncertaintyMeasure) {
        for (i, center) in self.centers.rows().enumerate() {
            self.uncertainty[i] = measure.score(model.predict_proba(center));
        }
        self.finish_full_pass(None);
    }

    /// Full rescore through the batch path. Scoring fans out
    /// shard-parallel, each shard batching its slice through
    /// [`Classifier::predict_proba_batch_tracked`]; the batch contract is
    /// element-wise, so the scores are bit-identical to
    /// [`Self::update_sequential`] at any shard count. Also captures each
    /// point's influence radius so the next [`Self::update_incremental`]
    /// pass can prune.
    pub fn update_tracked(
        &mut self,
        model: &dyn Classifier,
        measure: UncertaintyMeasure,
    ) -> RescoreStats {
        let layout = Arc::clone(&self.layout);
        let centers = Arc::clone(&self.centers);
        let parts: Vec<(Vec<f64>, Option<Vec<f64>>)> = (0..layout.num_shards())
            .into_par_iter()
            .map(|s| {
                let range = layout.range(s);
                let refs: Vec<&[f64]> = range.map(|i| centers.row(i)).collect();
                let scored = model.predict_proba_batch_tracked(&refs);
                let mut probs = scored.probs;
                for u in &mut probs {
                    *u = measure.score(*u);
                }
                (probs, scored.radii2)
            })
            .collect();
        let n = self.centers.len();
        // Radii survive only if every shard reported them (models either
        // always report radii or never do, so mixed shards mean a bug —
        // treated conservatively as "no radii").
        let mut radii2 = parts.iter().all(|(_, r)| r.is_some()).then(|| Vec::with_capacity(n));
        let mut uncertainty = Vec::with_capacity(n);
        for (probs, fresh) in parts {
            uncertainty.extend(probs);
            if let (Some(acc), Some(fresh)) = (radii2.as_mut(), fresh) {
                acc.extend(fresh);
            }
        }
        self.uncertainty = uncertainty;
        self.finish_full_pass(radii2);
        RescoreStats { points_rescored: n as u64, points_cached: 0 }
    }

    /// Rescores only the points the model reports as possibly changed by
    /// the `added` training examples; every other score (and influence
    /// radius — a clean point's neighbour set is unchanged, so its radius
    /// is still exact) is kept verbatim from the cache.
    ///
    /// The dirty test runs shard-parallel through
    /// [`Classifier::model_delta`] over each shard's row range: the delta
    /// predicate is per-point, so the concatenated per-shard masks do not
    /// depend on the shard count, and any shard reporting a global delta
    /// escalates the whole pass to a full tracked rescore (global-ness is
    /// range-independent).
    /// Dirty shards then rescore their own dirty points in parallel and
    /// invalidate only their own cached top-θ lists.
    ///
    /// Scores are **bit-identical** to a full rescore: the delta contract
    /// guarantees clean points would reproduce their cached value, and the
    /// batch path is element-wise independent, so scoring the dirty subset
    /// equals scoring those points inside a full batch. Falls back to a
    /// full tracked rescore whenever the cache is cold, the
    /// model reports a global delta (NB, SVM, committees), or the delta is
    /// malformed.
    ///
    /// Debug builds cross-check the result against a from-scratch full
    /// rescore and assert bit equality.
    pub fn update_incremental(
        &mut self,
        model: &dyn Classifier,
        measure: UncertaintyMeasure,
        added: &[&[f64]],
    ) -> RescoreStats {
        let stats = if !self.updated || self.radii2.is_none() {
            self.update_tracked(model, measure)
        } else {
            let n = self.centers.len();
            let layout = Arc::clone(&self.layout);
            let centers = Arc::clone(&self.centers);
            let deltas: Vec<ModelDelta> = {
                let radii2 = self.radii2.as_deref().expect("checked above");
                (0..layout.num_shards())
                    .into_par_iter()
                    .map(|s| {
                        let range = layout.range(s);
                        model.model_delta(&centers, range.clone(), &radii2[range], added)
                    })
                    .collect()
            };
            let well_formed = deltas.iter().enumerate().all(|(s, d)| match d {
                ModelDelta::Dirty(mask) => mask.len() == layout.range(s).len(),
                ModelDelta::Global => false,
            });
            if !well_formed {
                // Any shard going global (or malformed): full rescore.
                self.update_tracked(model, measure)
            } else {
                // Global cell ids of each shard's dirty points.
                let dirty_shards: Vec<(usize, Vec<usize>)> = deltas
                    .iter()
                    .enumerate()
                    .filter_map(|(s, d)| {
                        let ModelDelta::Dirty(mask) = d else { unreachable!() };
                        let base = layout.range(s).start;
                        let dirty: Vec<usize> = mask
                            .iter()
                            .enumerate()
                            .filter_map(|(j, &m)| m.then_some(base + j))
                            .collect();
                        (!dirty.is_empty()).then_some((s, dirty))
                    })
                    .collect();
                let rescored: Vec<(usize, Vec<usize>, ScoredBatch)> = dirty_shards
                    .into_par_iter()
                    .map(|(s, dirty)| {
                        let refs: Vec<&[f64]> = dirty.iter().map(|&i| centers.row(i)).collect();
                        let scored = model.predict_proba_batch_tracked(&refs);
                        (s, dirty, scored)
                    })
                    .collect();
                let mut rescored_total = 0u64;
                let mut drop_radii = false;
                for (s, dirty, scored) in rescored {
                    rescored_total += dirty.len() as u64;
                    for (j, &i) in dirty.iter().enumerate() {
                        self.uncertainty[i] = measure.score(scored.probs[j]);
                    }
                    match (self.radii2.as_mut(), scored.radii2) {
                        (Some(cached), Some(fresh)) => {
                            for (j, &i) in dirty.iter().enumerate() {
                                cached[i] = fresh[j];
                            }
                        }
                        // The model stopped reporting radii mid-flight:
                        // drop the cache so the next pass goes full.
                        _ => drop_radii = true,
                    }
                    self.tops.invalidate(ShardId::from(s));
                    self.shards_touched += 1;
                }
                if drop_radii {
                    self.radii2 = None;
                }
                self.model_version += 1;
                RescoreStats {
                    points_rescored: rescored_total,
                    points_cached: n as u64 - rescored_total,
                }
            }
        };
        #[cfg(debug_assertions)]
        self.debug_cross_check(model, measure);
        stats
    }

    /// Bookkeeping shared by all full-rescore variants.
    fn finish_full_pass(&mut self, radii2: Option<Vec<f64>>) {
        self.updated = true;
        self.radii2 = radii2;
        self.model_version += 1;
        self.tops.invalidate_all();
        self.shards_touched += self.layout.num_shards() as u64;
    }

    /// Generation counter of the cached scores: increases by one on every
    /// rescoring pass (full or incremental), never decreases.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Asserts that the cached scores equal a from-scratch full rescore,
    /// bit for bit. Debug builds run this after every incremental pass.
    #[cfg(debug_assertions)]
    fn debug_cross_check(&self, model: &dyn Classifier, measure: UncertaintyMeasure) {
        let refs = self.centers.row_refs();
        let full = measure.score_points(model, &refs);
        for (i, (got, want)) in self.uncertainty.iter().zip(&full).enumerate() {
            debug_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "incremental rescore diverged at point {i} (model version \
                 {}): cached {got:?} vs full {want:?}",
                self.model_version,
            );
        }
    }

    /// The most uncertain index point `p*` (Eq. 3); ties break toward the
    /// lowest cell id. Errors before the first rescoring pass.
    pub fn most_uncertain(&self) -> Result<CellId> {
        self.ranked_top(1).map(|v| v[0])
    }

    /// The `n` most uncertain cells, descending (ties toward lower ids).
    /// Used by the prefetcher to pick the likely next region.
    ///
    /// This is the uncached reference path: it re-partitions the full
    /// score array every call. The selection hot loop uses
    /// [`Self::ranked_top_cached`], which returns bit-identical results.
    pub fn ranked_top(&self, n: usize) -> Result<Vec<CellId>> {
        if !self.updated {
            return Err(UeiError::invalid_state(
                "index points have not been scored yet; rescore them first",
            ));
        }
        if self.centers.is_empty() || n == 0 {
            return Err(UeiError::invalid_state("no index points to rank"));
        }
        // Partial top-n selection (O(|P| + n log n), not a full sort); a
        // NaN score ranks last instead of panicking the comparator.
        Ok(uei_learn::strategy::top_k_desc(&self.uncertainty, n))
    }

    /// [`Self::ranked_top`] through the per-shard candidate caches: shards
    /// untouched since the last ranking reuse their cached top lists, so
    /// after an incremental rescore only the dirty shards re-rank. The
    /// deterministic merge makes the result bit-identical to
    /// [`Self::ranked_top`] at any shard count (DESIGN.md §14).
    pub fn ranked_top_cached(&mut self, n: usize) -> Result<Vec<CellId>> {
        if !self.updated {
            return Err(UeiError::invalid_state(
                "index points have not been scored yet; rescore them first",
            ));
        }
        if self.centers.is_empty() || n == 0 {
            return Err(UeiError::invalid_state("no index points to rank"));
        }
        let ranked = self.tops.top_k(&self.layout, &self.uncertainty, n);
        debug_assert_eq!(
            ranked,
            uei_learn::strategy::top_k_desc(&self.uncertainty, n),
            "cached ranking must be bit-identical to the global reference",
        );
        Ok(ranked)
    }

    /// Mean uncertainty across all points (a convergence diagnostic: it
    /// shrinks as the model sharpens).
    pub fn mean_uncertainty(&self) -> f64 {
        if self.uncertainty.is_empty() {
            0.0
        } else {
            self.uncertainty.iter().sum::<f64>() / self.uncertainty.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::{AttributeDef, Schema};

    fn grid3() -> Grid {
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 3.0).unwrap(),
            AttributeDef::new("y", 0.0, 3.0).unwrap(),
        ])
        .unwrap();
        Grid::new(&schema, 3).unwrap()
    }

    /// Uncertainty peaks where x ≈ 1.5 (posterior crosses 0.5 there).
    struct BoundaryAtX(f64);
    impl Classifier for BoundaryAtX {
        fn predict_proba(&self, x: &[f64]) -> f64 {
            (1.0 / (1.0 + (-(x[0] - self.0) * 4.0).exp())).clamp(0.0, 1.0)
        }
        fn dims(&self) -> usize {
            2
        }
    }

    #[test]
    fn centers_match_grid() {
        // Uneven, offset domains: every midpoint takes real rounding.
        let schema4 = Schema::new(vec![
            AttributeDef::new("a", -3.7, 11.3).unwrap(),
            AttributeDef::new("b", 0.1, 0.9).unwrap(),
            AttributeDef::new("c", 1e3, 1e6 / 3.0).unwrap(),
            AttributeDef::new("d", -1.0, 2.0).unwrap(),
        ])
        .unwrap();
        for grid in [grid3(), Grid::new(&schema4, 7).unwrap()] {
            let points = IndexPoints::from_grid(&grid).unwrap();
            assert_eq!(points.len(), grid.num_cells());
            for id in grid.cell_ids() {
                let got: Vec<u64> =
                    points.center(id).unwrap().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    grid.cell_center(id).unwrap().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "cell {id}");
            }
            assert!(points.center(grid.num_cells()).is_err());
        }
    }

    #[test]
    fn must_update_before_ranking() {
        let mut points = IndexPoints::from_grid(&grid3()).unwrap();
        assert!(points.most_uncertain().is_err());
        assert!(points.ranked_top_cached(3).is_err());
    }

    #[test]
    fn most_uncertain_tracks_the_boundary() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        // Boundary at x = 1.5: middle column (cells with x-coord 1) has
        // centers at x = 1.5 where p = 0.5.
        points.update_tracked(&BoundaryAtX(1.5), UncertaintyMeasure::LeastConfidence);
        let best = points.most_uncertain().unwrap();
        let coords = grid.id_to_coords(best).unwrap();
        assert_eq!(coords[0], 1, "most uncertain cell sits on the boundary column");
        assert!((points.uncertainty(best).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update_tracked(&BoundaryAtX(0.5), UncertaintyMeasure::LeastConfidence);
        let top = points.ranked_top(9).unwrap();
        assert_eq!(top.len(), 9);
        for w in top.windows(2) {
            let (a, b) = (points.uncertainty(w[0]).unwrap(), points.uncertainty(w[1]).unwrap());
            assert!(a > b || (a == b && w[0] < w[1]));
        }
        // Deterministic.
        assert_eq!(points.ranked_top(3).unwrap(), points.ranked_top(9).unwrap()[..3]);
    }

    #[test]
    fn sharded_scoring_and_ranking_match_single_shard() {
        let grid = grid3();
        let mut reference = IndexPoints::from_grid_with_shards(&grid, 1).unwrap();
        reference.update_tracked(&BoundaryAtX(1.2), UncertaintyMeasure::Entropy);
        for shards in [2, 3, 8, 9] {
            let mut points = IndexPoints::from_grid_with_shards(&grid, shards).unwrap();
            assert_eq!(points.num_shards(), shards.min(9));
            points.update_tracked(&BoundaryAtX(1.2), UncertaintyMeasure::Entropy);
            for id in 0..points.len() {
                assert_eq!(
                    points.uncertainty(id).unwrap().to_bits(),
                    reference.uncertainty(id).unwrap().to_bits(),
                    "cell {id}, {shards} shards"
                );
            }
            for n in [1, 3, 9] {
                assert_eq!(
                    points.ranked_top_cached(n).unwrap(),
                    reference.ranked_top(n).unwrap(),
                    "n={n}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn boundary_moves_as_model_changes() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update_tracked(&BoundaryAtX(0.5), UncertaintyMeasure::LeastConfidence);
        let early = grid.id_to_coords(points.most_uncertain().unwrap()).unwrap()[0];
        points.update_tracked(&BoundaryAtX(2.5), UncertaintyMeasure::LeastConfidence);
        let late = grid.id_to_coords(points.most_uncertain().unwrap()).unwrap()[0];
        assert_eq!(early, 0);
        assert_eq!(late, 2, "re-scoring follows the moving decision boundary");
    }

    #[test]
    fn batch_update_matches_sequential() {
        use uei_learn::{Committee, EstimatorKind};
        use uei_types::{Label, Rng};
        fn assert_same_scores(grid: &Grid, model: &dyn Classifier, name: &str) {
            let mut batch = IndexPoints::from_grid(grid).unwrap();
            let mut seq = IndexPoints::from_grid(grid).unwrap();
            batch.update_tracked(model, UncertaintyMeasure::Entropy);
            seq.update_sequential(model, UncertaintyMeasure::Entropy);
            for id in 0..batch.len() {
                assert_eq!(
                    batch.uncertainty(id).unwrap().to_bits(),
                    seq.uncertainty(id).unwrap().to_bits(),
                    "{name}: cell {id}"
                );
            }
            assert_eq!(batch.ranked_top(9).unwrap(), seq.ranked_top(9).unwrap(), "{name}");
        }
        assert_same_scores(&grid3(), &BoundaryAtX(1.2), "sigmoid");

        // Every estimator on a plane big enough to shard and to cross each
        // model's batch fan-out threshold.
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 3.0).unwrap(),
            AttributeDef::new("y", 0.0, 3.0).unwrap(),
        ])
        .unwrap();
        let grid = Grid::new(&schema, 130).unwrap();
        let mut rng = Rng::new(41);
        let examples: Vec<(Vec<f64>, Label)> = (0..40)
            .map(|_| {
                let p = vec![rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)];
                let label = Label::from_bool(p[0] + 0.3 * p[1] > 1.7);
                (p, label)
            })
            .collect();
        for kind in [
            EstimatorKind::Dwknn { k: 5 },
            EstimatorKind::Knn { k: 5 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 10, lambda: 0.01 },
        ] {
            assert_same_scores(&grid, kind.train(&examples).unwrap().as_ref(), kind.name());
        }
        let committee = Committee::train(EstimatorKind::Dwknn { k: 3 }, 3, &examples, 7).unwrap();
        assert_same_scores(&grid, &committee, "committee");
    }

    #[test]
    fn nan_scores_rank_last_instead_of_panicking() {
        /// Emits NaN for the bottom-left cells (x < 1), a real score elsewhere.
        struct PartiallyNan;
        impl Classifier for PartiallyNan {
            fn predict_proba(&self, x: &[f64]) -> f64 {
                if x[0] < 1.0 {
                    f64::NAN
                } else {
                    0.5
                }
            }
            fn dims(&self) -> usize {
                2
            }
        }
        let grid = grid3();
        let mut points = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        points.update_tracked(&PartiallyNan, UncertaintyMeasure::LeastConfidence);
        let ranked = points.ranked_top(9).unwrap();
        assert_eq!(ranked.len(), 9);
        // The three NaN-scored cells (x-coord 0 → ids 0, 3, 6 in row-major
        // y-x order, whichever layout: exactly three cells have center x <
        // 1) come last, in id order.
        let nan_cells: Vec<CellId> =
            (0..9).filter(|&id| points.uncertainty(id).unwrap().is_nan()).collect();
        assert_eq!(nan_cells.len(), 3);
        assert_eq!(ranked[6..], nan_cells[..]);
        // The winner is a real-scored cell.
        assert!(!points.uncertainty(points.most_uncertain().unwrap()).unwrap().is_nan());
        // The sharded merge ranks NaNs identically.
        assert_eq!(points.ranked_top_cached(9).unwrap(), ranked);
    }

    #[test]
    fn incremental_rescore_is_bit_identical_and_skips_work() {
        use uei_learn::{Knn, Weighting};
        use uei_types::Label;
        // Training points spread across the 0..3 domain so every index
        // point has a saturated (finite-radius) neighbourhood.
        let mut examples = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                let p = vec![x as f64 * 0.8 + 0.2, y as f64 * 0.8 + 0.2];
                examples.push((p, Label::from_bool((x + y) % 2 == 0)));
            }
        }
        let grid = grid3();
        let model_a = Knn::fit(3, Weighting::Dual, &examples).unwrap();
        let mut inc = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        inc.update_tracked(&model_a, UncertaintyMeasure::LeastConfidence);
        let v0 = inc.model_version();
        assert_eq!(inc.shards_touched(), 3, "full pass touches every shard");

        // One new label near the (0, 0) corner: far cells must stay clean.
        let new_point = vec![0.1, 0.1];
        let mut extended = examples.clone();
        extended.push((new_point.clone(), Label::Positive));
        let model_b = Knn::fit(3, Weighting::Dual, &extended).unwrap();
        let added_refs: Vec<&[f64]> = vec![new_point.as_slice()];
        let stats =
            inc.update_incremental(&model_b, UncertaintyMeasure::LeastConfidence, &added_refs);

        let mut full = IndexPoints::from_grid(&grid).unwrap();
        full.update_sequential(&model_b, UncertaintyMeasure::LeastConfidence);
        for id in 0..9 {
            assert_eq!(
                inc.uncertainty(id).unwrap().to_bits(),
                full.uncertainty(id).unwrap().to_bits(),
                "cell {id}"
            );
        }
        assert_eq!(inc.ranked_top(9).unwrap(), full.ranked_top(9).unwrap());
        assert_eq!(inc.ranked_top_cached(9).unwrap(), full.ranked_top(9).unwrap());
        assert_eq!(stats.points_rescored + stats.points_cached, 9);
        assert!(stats.points_cached > 0, "a corner insertion must leave far cells cached");
        assert!(inc.model_version() > v0, "every pass bumps the version");
        assert!(
            inc.shards_touched() < 6,
            "a corner insertion must leave some shards untouched: {}",
            inc.shards_touched()
        );
    }

    #[test]
    fn cold_cache_and_global_deltas_rescore_fully() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        // Cold cache: no radii to test against.
        let stats =
            points.update_incremental(&BoundaryAtX(1.5), UncertaintyMeasure::LeastConfidence, &[]);
        assert_eq!(stats, RescoreStats { points_rescored: 9, points_cached: 0 });
        // BoundaryAtX uses the default (Global) delta: full again, even
        // though no examples were added.
        let stats =
            points.update_incremental(&BoundaryAtX(1.5), UncertaintyMeasure::LeastConfidence, &[]);
        assert_eq!(stats, RescoreStats { points_rescored: 9, points_cached: 0 });
    }

    #[test]
    fn long_incremental_sessions_stay_exact_with_no_forced_full_pass() {
        use uei_learn::{Knn, Weighting};
        use uei_types::{Label, Rng};
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 3.0).unwrap(),
            AttributeDef::new("y", 0.0, 3.0).unwrap(),
        ])
        .unwrap();
        let grid = Grid::new(&schema, 12).unwrap();
        let teacher = |p: &[f64]| Label::from_bool(p[0] + 0.5 * p[1] > 2.0);
        let mut examples: Vec<(Vec<f64>, Label)> = [[0.2, 0.2], [2.8, 2.8], [0.5, 2.5], [2.5, 0.5]]
            .iter()
            .map(|p| (p.to_vec(), teacher(p)))
            .collect();
        let mut model = Knn::fit(3, Weighting::Dual, &examples).unwrap();
        let mut inc = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        inc.update_tracked(&model, UncertaintyMeasure::LeastConfidence);
        let mut rng = Rng::new(0x5EED);
        // 120 incremental passes, alternating a real new label with a clean
        // pass: every pass must equal a full rescore bit for bit, and clean
        // passes must rescore nothing, however long the run.
        for pass in 1..=120 {
            let from = examples.len();
            if pass % 2 == 1 {
                let p = vec![rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)];
                let label = teacher(&p);
                examples.push((p, label));
                model = Knn::fit(3, Weighting::Dual, &examples).unwrap();
            }
            let added: Vec<&[f64]> = examples[from..].iter().map(|(p, _)| p.as_slice()).collect();
            let stats = inc.update_incremental(&model, UncertaintyMeasure::LeastConfidence, &added);
            let mut full = IndexPoints::from_grid(&grid).unwrap();
            full.update_tracked(&model, UncertaintyMeasure::LeastConfidence);
            for id in 0..inc.len() {
                assert_eq!(
                    inc.uncertainty(id).unwrap().to_bits(),
                    full.uncertainty(id).unwrap().to_bits(),
                    "pass {pass}, cell {id}"
                );
            }
            if added.is_empty() {
                assert_eq!(stats.points_rescored, 0, "clean pass {pass} rescored points");
            }
        }
    }

    #[test]
    fn clean_incremental_pass_touches_no_shards() {
        use uei_learn::{Knn, Weighting};
        use uei_types::Label;
        let mut examples = Vec::new();
        for i in 0..12 {
            let p = vec![(i % 4) as f64 * 0.9 + 0.2, (i / 4) as f64 * 1.1 + 0.3];
            examples.push((p, Label::from_bool(i % 2 == 0)));
        }
        let model = Knn::fit(3, Weighting::Dual, &examples).unwrap();
        let grid = grid3();
        let mut points = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        points.update_tracked(&model, UncertaintyMeasure::LeastConfidence);
        let after_full = points.shards_touched();
        let stats = points.update_incremental(&model, UncertaintyMeasure::LeastConfidence, &[]);
        assert_eq!(stats.points_rescored, 0, "nothing added, nothing dirty");
        assert_eq!(points.shards_touched(), after_full, "no shard recomputed");
        // The cached ranking survives the clean pass verbatim.
        assert_eq!(points.ranked_top_cached(5).unwrap(), points.ranked_top(5).unwrap());
    }

    #[test]
    fn rescore_stats_windows() {
        let mut total = RescoreStats::default();
        total.accumulate(RescoreStats { points_rescored: 5, points_cached: 4 });
        let snapshot = total;
        total.accumulate(RescoreStats { points_rescored: 2, points_cached: 7 });
        assert_eq!(total.since(&snapshot), RescoreStats { points_rescored: 2, points_cached: 7 });
        assert_eq!(snapshot.since(&total), RescoreStats::default(), "saturates, never underflows");
    }

    #[test]
    fn mean_uncertainty_shrinks_with_confidence() {
        struct Confident(f64);
        impl Classifier for Confident {
            fn predict_proba(&self, _: &[f64]) -> f64 {
                self.0
            }
            fn dims(&self) -> usize {
                2
            }
        }
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update_tracked(&Confident(0.5), UncertaintyMeasure::LeastConfidence);
        let vague = points.mean_uncertainty();
        points.update_tracked(&Confident(0.99), UncertaintyMeasure::LeastConfidence);
        let sharp = points.mean_uncertainty();
        assert!(vague > sharp);
    }
}
