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

use std::ops::Range;

use uei_types::{point::squared_distances_block, PointMatrix};

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

/// Rows per work unit in [`knn_influence_delta`]: big enough that the
/// blocked distance kernel amortizes its setup, small enough to spread
/// across cores.
const DELTA_BLOCK: usize = 1024;

/// The shared kNN-family delta over the rows `rows` of a flat row-major
/// point matrix: `dirty[i]` iff the row's radius is unknown/unbounded or
/// some added example falls strictly inside its influence ball.
///
/// `radii2` holds the radii of the *range* only (`radii2.len() ==
/// rows.len()`), and the returned mask covers the range in row order. The
/// test runs as blocked distance sweeps over contiguous storage (one
/// linear pass per added example per block of rows). The dirty decision is
/// a per-point predicate, so for any partition of `0..points.len()` into
/// ranges the concatenated range masks are the same bit for bit — block
/// boundaries only change the iteration order of a boolean OR.
///
/// A range outside the matrix, a radii length mismatch, or an added
/// example of the wrong dimensionality degrades to [`ModelDelta::Global`]
/// rather than guess.
pub fn knn_influence_delta(
    points: &PointMatrix,
    rows: Range<usize>,
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
        (0..n).step_by(DELTA_BLOCK).map(|lo| (lo, (lo + DELTA_BLOCK).min(n))).collect();
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
    fn degenerate_inputs_fall_back_to_global() {
        let matrix = PointMatrix::from_rows(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]).unwrap();
        let radii2 = [1.0; 3];
        let added = [0.5, 0.5];
        let added_refs: Vec<&[f64]> = vec![&added];
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 2..1;
        assert_eq!(knn_influence_delta(&matrix, reversed, &[], &added_refs, 1), ModelDelta::Global);
        assert_eq!(
            knn_influence_delta(&matrix, 0..4, &[1.0; 4], &added_refs, 1),
            ModelDelta::Global
        );
        assert_eq!(
            knn_influence_delta(&matrix, 0..3, &radii2[1..], &added_refs, 1),
            ModelDelta::Global
        );
        let ragged = [0.5];
        let ragged_refs: Vec<&[f64]> = vec![&ragged];
        assert_eq!(
            knn_influence_delta(&matrix, 0..3, &radii2, &ragged_refs, 1),
            ModelDelta::Global
        );
        // An empty range is well-formed: an empty mask.
        assert_eq!(
            knn_influence_delta(&matrix, 1..1, &[], &added_refs, 1),
            ModelDelta::Dirty(Vec::new())
        );
    }
}
