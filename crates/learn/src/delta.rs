//! The model-delta contract behind incremental index-point rescoring.
//!
//! The exploration loop retrains its model after every label, yet a label
//! is one point: for the nearest-neighbour family (the paper's DWKNN,
//! Table 1) the posterior of a query `q` can only change when the new
//! training example *enters q's k-nearest-neighbour set*, i.e. when
//!
//! ```text
//! dist(q, x_new) < r_k(q)
//! ```
//!
//! where `r_k(q)` is the distance from `q` to its k-th nearest neighbour
//! under the previous model. Everything farther away is provably
//! untouched — its neighbour set, tie-breaks, and summation order are
//! unchanged, so its posterior is *bit-identical*. A caller that caches
//! each query's previous score plus its `r_k` radius can therefore rescore
//! only the queries inside the influence ball of the newly added examples
//! and keep every other score verbatim.
//!
//! Models whose updates are global (Naive Bayes class statistics, SVM
//! weights, a committee of bootstrap resamples) cannot bound their change
//! spatially; they report [`ModelDelta::Global`] — the conservative
//! invalidate-all default — and the caller falls back to a full rescore.
//!
//! Two soundness details the kNN-family implementations rely on:
//!
//! - **Exact ties.** The kd-tree resolves equal distances toward the lower
//!   build index, and retraining appends new examples *after* all previous
//!   ones (the labeled set is append-only), so at exact distance equality
//!   the new example always *loses* the tie. The strict `<` test above is
//!   therefore exactly the "neighbour set changed" predicate, not an
//!   approximation of it.
//! - **Unsaturated neighbourhoods.** While fewer than `k` training
//!   examples exist, every new example joins every query's neighbour set;
//!   such queries carry an infinite radius and are always dirty.

/// A scored batch with optional per-query influence radii.
///
/// Produced by
/// [`Classifier::predict_proba_batch_tracked`](crate::model::Classifier::predict_proba_batch_tracked).
/// `probs[i]` is bit-identical to `predict_proba(xs[i])`; `radii2`, when
/// present, holds each query's *squared* k-th-neighbour distance in the
/// model's own input space. Radii are opaque to callers: they are stored
/// verbatim and handed back to
/// [`Classifier::model_delta`](crate::model::Classifier::model_delta) on
/// the next iteration, never interpreted.
#[derive(Debug, Clone)]
pub struct ScoredBatch {
    /// Posterior probabilities, in input order.
    pub probs: Vec<f64>,
    /// Squared influence radii per query, when the model can bound its
    /// updates spatially (`None` for globally updating models).
    pub radii2: Option<Vec<f64>>,
}

/// Which cached scores a model update may have changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelDelta {
    /// The update is (or must be assumed) global: every cached score may
    /// have changed. The conservative default.
    Global,
    /// `dirty[i]` marks whether query `i`'s score may have changed; clean
    /// entries are guaranteed bit-identical under the new model.
    Dirty(Vec<bool>),
}

impl ModelDelta {
    /// Number of dirty entries, or `points` for a global delta.
    pub fn dirty_count(&self, points: usize) -> usize {
        match self {
            ModelDelta::Global => points,
            ModelDelta::Dirty(mask) => mask.iter().filter(|&&d| d).count(),
        }
    }
}

use uei_types::{point::squared_distances_block, PointMatrix};

/// Squared Euclidean distance over the shared prefix of two slices.
/// Slices of equal length (the only case the delta computations feed it)
/// get the true squared distance.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.len().min(b.len()) {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// The shared kNN-family delta: `dirty[i]` iff some added example falls
/// strictly inside query `i`'s influence ball, or the query's radius is
/// unknown/unbounded.
///
/// Dimension disagreements between `points` and `added` degrade to
/// [`ModelDelta::Global`] rather than guess.
pub fn knn_influence_delta(
    points: &[&[f64]],
    radii2: &[f64],
    added: &[&[f64]],
    parallel_threshold: usize,
) -> ModelDelta {
    if radii2.len() != points.len() {
        return ModelDelta::Global;
    }
    let dims = points.first().map_or(0, |p| p.len());
    if points.iter().chain(added).any(|p| p.len() != dims) {
        return ModelDelta::Global;
    }
    let compute = |i: usize| -> bool {
        let r2 = radii2[i];
        if !r2.is_finite() {
            return true;
        }
        added.iter().any(|a| dist2(points[i], a) < r2)
    };
    let dirty: Vec<bool> = if crate::batch::should_parallelize_at(points.len(), parallel_threshold)
    {
        use rayon::prelude::*;
        (0..points.len()).into_par_iter().map(compute).collect()
    } else {
        (0..points.len()).map(compute).collect()
    };
    ModelDelta::Dirty(dirty)
}

/// Rows per work unit in [`knn_influence_delta_flat`]: big enough that the
/// blocked distance kernel amortizes its setup, small enough to spread
/// across cores.
const FLAT_DELTA_BLOCK: usize = 1024;

/// [`knn_influence_delta`] over the flat row-major layout: the influence
/// test runs as blocked distance sweeps over contiguous storage (one
/// linear pass per added example) instead of a pointer chase per point.
///
/// The dirty mask is *identical* to the slice-of-refs variant: each
/// squared distance is accumulated in the same ascending-dimension order,
/// and the strict `<` comparison against the radius is the same
/// predicate — only the iteration order over (point, added) pairs differs,
/// and a boolean OR is order-independent.
pub fn knn_influence_delta_flat(
    points: &PointMatrix,
    radii2: &[f64],
    added: &[&[f64]],
    parallel_threshold: usize,
) -> ModelDelta {
    knn_influence_delta_flat_range(points, 0..points.len(), radii2, added, parallel_threshold)
}

/// [`knn_influence_delta_flat`] restricted to the row range `rows` of the
/// matrix — the shard-local form the partitioned index-point plane uses to
/// map each new example's influence ball onto the shards it intersects.
///
/// `radii2` holds the radii of the *range* only (`radii2.len() ==
/// rows.len()`), and the returned mask covers the range in row order. The
/// dirty decision is a per-point predicate, so for any partition of
/// `0..points.len()` into ranges the concatenated range masks equal the
/// full-matrix mask bit for bit — block boundaries only change iteration
/// order of a boolean OR.
pub fn knn_influence_delta_flat_range(
    points: &PointMatrix,
    rows: std::ops::Range<usize>,
    radii2: &[f64],
    added: &[&[f64]],
    parallel_threshold: usize,
) -> ModelDelta {
    if rows.start > rows.end || rows.end > points.len() {
        return ModelDelta::Global;
    }
    let n = rows.len();
    if radii2.len() != n {
        return ModelDelta::Global;
    }
    let dims = points.dims();
    if added.iter().any(|a| a.len() != dims) {
        return ModelDelta::Global;
    }
    let flat = points.as_flat();
    let base = rows.start;
    // `lo`/`hi` are offsets within the range; the flat buffer is addressed
    // at `base + offset`.
    let compute_range = |lo: usize, hi: usize| -> Vec<bool> {
        let mut dirty: Vec<bool> = radii2[lo..hi].iter().map(|r| !r.is_finite()).collect();
        let mut dists = Vec::with_capacity(hi - lo);
        for a in added {
            dists.clear();
            let block = &flat[(base + lo) * dims..(base + hi) * dims];
            if squared_distances_block(a, block, dims, &mut dists).is_err() {
                // Unreachable after the dims check above; stay conservative.
                dirty.iter_mut().for_each(|d| *d = true);
                return dirty;
            }
            for (j, &d2) in dists.iter().enumerate() {
                let r2 = radii2[lo + j];
                if !dirty[j] && r2.is_finite() && d2 < r2 {
                    dirty[j] = true;
                }
            }
        }
        dirty
    };
    let ranges: Vec<(usize, usize)> =
        (0..n).step_by(FLAT_DELTA_BLOCK).map(|lo| (lo, (lo + FLAT_DELTA_BLOCK).min(n))).collect();
    let blocks: Vec<Vec<bool>> = if crate::batch::should_parallelize_at(n, parallel_threshold) {
        use rayon::prelude::*;
        ranges.par_iter().map(|&(lo, hi)| compute_range(lo, hi)).collect()
    } else {
        ranges.iter().map(|&(lo, hi)| compute_range(lo, hi)).collect()
    };
    let mut dirty = Vec::with_capacity(n);
    for block in blocks {
        dirty.extend(block);
    }
    ModelDelta::Dirty(dirty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_matches_euclidean() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn delta_marks_only_points_inside_influence_balls() {
        let points: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]];
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let radii2 = [4.0, 4.0, 150.0]; // last radius covers the new point
        let added = [vec![1.0, 0.0]];
        let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
        let delta = knn_influence_delta(&refs, &radii2, &added_refs, usize::MAX);
        assert_eq!(delta, ModelDelta::Dirty(vec![true, false, true]));
        assert_eq!(delta.dirty_count(3), 2);
    }

    #[test]
    fn boundary_distance_is_clean_under_strict_comparison() {
        // dist² == radius² exactly: the new example loses the kd-tree tie
        // (it has the highest build index), so the point must stay clean.
        let points: Vec<Vec<f64>> = vec![vec![0.0]];
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let added = [vec![2.0]];
        let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
        let delta = knn_influence_delta(&refs, &[4.0], &added_refs, usize::MAX);
        assert_eq!(delta, ModelDelta::Dirty(vec![false]));
    }

    #[test]
    fn infinite_radius_is_always_dirty() {
        let points: Vec<Vec<f64>> = vec![vec![0.0]];
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let added = [vec![1e9]];
        let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
        let delta = knn_influence_delta(&refs, &[f64::INFINITY], &added_refs, usize::MAX);
        assert_eq!(delta, ModelDelta::Dirty(vec![true]));
    }

    #[test]
    fn degenerate_inputs_fall_back_to_global() {
        let points: Vec<Vec<f64>> = vec![vec![0.0, 0.0]];
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let ragged = [vec![1.0]];
        let ragged_refs: Vec<&[f64]> = ragged.iter().map(|p| p.as_slice()).collect();
        // Radii length mismatch.
        assert_eq!(knn_influence_delta(&refs, &[], &ragged_refs, 256), ModelDelta::Global);
        // Added point of the wrong dimensionality.
        assert_eq!(knn_influence_delta(&refs, &[1.0], &ragged_refs, 256), ModelDelta::Global);
    }

    #[test]
    fn no_added_points_means_all_clean() {
        let points: Vec<Vec<f64>> = vec![vec![0.0], vec![5.0]];
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let delta = knn_influence_delta(&refs, &[1.0, 1.0], &[], 256);
        assert_eq!(delta, ModelDelta::Dirty(vec![false, false]));
    }

    #[test]
    fn flat_delta_matches_ref_delta() {
        use uei_types::Rng;
        let mut rng = Rng::new(0xD17A);
        // Enough points to span multiple FLAT_DELTA_BLOCK work units.
        let n = 2 * super::FLAT_DELTA_BLOCK + 37;
        let mut points = Vec::with_capacity(n);
        let mut radii2 = Vec::with_capacity(n);
        for i in 0..n {
            points.push(vec![rng.range_f64(-4.0, 4.0), rng.range_f64(-4.0, 4.0)]);
            radii2.push(if i % 97 == 0 { f64::INFINITY } else { rng.range_f64(0.01, 2.0) });
        }
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let matrix = PointMatrix::from_rows(&points).unwrap();
        let added = [vec![0.5, -0.5], vec![-3.0, 3.0]];
        let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
        let want = knn_influence_delta(&refs, &radii2, &added_refs, usize::MAX);
        // Exercise both the sequential and the parallel flat path.
        for threshold in [usize::MAX, 1] {
            let got = knn_influence_delta_flat(&matrix, &radii2, &added_refs, threshold);
            assert_eq!(got, want, "threshold {threshold}");
        }
        // Degenerate inputs degrade to Global exactly like the ref variant.
        let bad = [vec![1.0]];
        let bad_refs: Vec<&[f64]> = bad.iter().map(|p| p.as_slice()).collect();
        assert_eq!(knn_influence_delta_flat(&matrix, &radii2, &bad_refs, 256), ModelDelta::Global);
        assert_eq!(
            knn_influence_delta_flat(&matrix, &radii2[1..], &added_refs, 256),
            ModelDelta::Global
        );
    }

    #[test]
    fn range_masks_partition_the_full_mask() {
        use uei_types::Rng;
        let mut rng = Rng::new(0x5A4D);
        let n = super::FLAT_DELTA_BLOCK + 513;
        let mut points = Vec::with_capacity(n);
        let mut radii2 = Vec::with_capacity(n);
        for i in 0..n {
            points.push(vec![rng.range_f64(-4.0, 4.0), rng.range_f64(-4.0, 4.0)]);
            radii2.push(if i % 89 == 0 { f64::INFINITY } else { rng.range_f64(0.01, 2.0) });
        }
        let matrix = PointMatrix::from_rows(&points).unwrap();
        let added = [vec![0.25, -0.75], vec![2.0, 2.0]];
        let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
        let ModelDelta::Dirty(want) =
            knn_influence_delta_flat(&matrix, &radii2, &added_refs, usize::MAX)
        else {
            panic!("flat delta must prune");
        };
        // Unaligned partitions (nothing divides FLAT_DELTA_BLOCK) must
        // reassemble the exact full mask, sequentially and in parallel.
        for cuts in [vec![0, n], vec![0, 7, n], vec![0, 300, 301, 1500, n]] {
            for threshold in [usize::MAX, 1] {
                let mut got = Vec::with_capacity(n);
                for w in cuts.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    match knn_influence_delta_flat_range(
                        &matrix,
                        lo..hi,
                        &radii2[lo..hi],
                        &added_refs,
                        threshold,
                    ) {
                        ModelDelta::Dirty(mask) => got.extend(mask),
                        ModelDelta::Global => panic!("range {lo}..{hi} degraded to Global"),
                    }
                }
                assert_eq!(got, want, "cuts {cuts:?}, threshold {threshold}");
            }
        }
        // Degenerate ranges degrade to Global like every other bad input.
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..3;
        assert_eq!(
            knn_influence_delta_flat_range(&matrix, reversed, &[], &added_refs, 256),
            ModelDelta::Global
        );
        assert_eq!(
            knn_influence_delta_flat_range(&matrix, 0..n + 1, &radii2, &added_refs, 256),
            ModelDelta::Global
        );
        assert_eq!(
            knn_influence_delta_flat_range(&matrix, 0..4, &radii2[..3], &added_refs, 256),
            ModelDelta::Global
        );
    }
}
