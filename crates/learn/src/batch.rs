//! Batch scoring helpers shared by [`crate::model::Classifier`]
//! implementations.
//!
//! The per-iteration hot paths of UEI score *sets* of points — every
//! symbolic index point (Algorithm 2 line 17), the whole candidate pool
//! (line 21), and the full dataset at final retrieval (line 26) — yet the
//! estimator API is naturally per-point. Batch scoring closes that gap:
//!
//! - queries are fanned out across cores with rayon when the batch is
//!   large enough to amortize the fork/join overhead;
//! - each worker reuses per-query scratch (kd-tree traversal heaps,
//!   distance buffers), so even a single-threaded batch beats a loop of
//!   independent `predict_proba` calls;
//! - results are **element-wise identical** to the sequential loop: the
//!   batch is split into contiguous segments whose results are
//!   concatenated in order, and every specialized override performs the
//!   exact same floating-point operations per query as its scalar path.

use rayon::prelude::*;

/// Batches smaller than this are scored sequentially: on tiny inputs the
/// thread fan-out costs more than the scoring itself. The value is far
/// below the paper's default grid (5⁵ = 3125 index points) so real
/// rescoring passes parallelize, while per-cell pools often stay under it.
///
/// This is the *generic* cutoff, tuned for per-query work on the order of
/// a kd-tree traversal. Cheap models (a handful of flops per query) raise
/// their own cutoff via
/// [`crate::model::Classifier::parallel_batch_threshold`], because for
/// them the fork/join overhead dominates far past 256 queries — the
/// scoring benchmark showed GaussianNB at 0.57× and LinearSVM at 0.26×
/// the sequential loop when parallelized at 256 points.
pub const PARALLEL_THRESHOLD: usize = 256;

/// Whether a batch of `n` queries should be scored in parallel, against a
/// per-model work-size cutoff.
pub fn should_parallelize_at(n: usize, threshold: usize) -> bool {
    n >= threshold && rayon::current_num_threads() > 1
}

/// Maps `op` over `xs`, in parallel when the batch holds at least
/// `threshold` queries.
///
/// Output order always matches input order, and `op` is applied exactly
/// once per element either way — callers may rely on element-wise
/// identical results across modes. The threshold trades thread overhead
/// against per-query cost, never results.
pub fn map_batch_at<R, F>(xs: &[&[f64]], threshold: usize, op: F) -> Vec<R>
where
    R: Send,
    F: Fn(&[f64]) -> R + Send + Sync,
{
    if should_parallelize_at(xs.len(), threshold) {
        xs.par_iter().map(|x| op(x)).collect()
    } else {
        xs.iter().map(|x| op(x)).collect()
    }
}

/// Like [`map_batch_at`], but each worker carries mutable scratch state
/// built by `init` — the mechanism the kNN classifier uses to reuse kd-tree
/// traversal buffers across the queries of one segment.
///
/// Sequentially a single scratch serves the whole batch; in parallel each
/// contiguous segment gets its own. Because scratch never influences the
/// produced values (only allocation reuse), results are identical across
/// thread counts.
pub fn map_batch_with_at<S, R, I, F>(xs: &[&[f64]], threshold: usize, init: I, op: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, &[f64]) -> R + Send + Sync,
{
    if should_parallelize_at(xs.len(), threshold) {
        let threads = rayon::current_num_threads();
        let chunk = xs.len().div_ceil(threads).max(1);
        let per_chunk: Vec<Vec<R>> = xs
            .par_chunks(chunk)
            .map(|seg| {
                let mut scratch = init();
                seg.iter().map(|x| op(&mut scratch, x)).collect()
            })
            .collect();
        let mut out = Vec::with_capacity(xs.len());
        for mut seg in per_chunk {
            out.append(&mut seg);
        }
        out
    } else {
        let mut scratch = init();
        xs.iter().map(|x| op(&mut scratch, x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_batch_preserves_order() {
        let data: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
        let got = map_batch_at(&refs, PARALLEL_THRESHOLD, |x| x[0] * 2.0);
        let want: Vec<f64> = (0..1000).map(|i| i as f64 * 2.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_batch_with_scratch_matches_plain() {
        let data: Vec<Vec<f64>> = (0..600).map(|i| vec![i as f64, 1.0]).collect();
        let refs: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
        let with_scratch =
            map_batch_with_at(&refs, PARALLEL_THRESHOLD, Vec::<f64>::new, |buf, x| {
                buf.clear();
                buf.extend_from_slice(x);
                buf.iter().sum::<f64>()
            });
        let plain: Vec<f64> = refs.iter().map(|x| x.iter().sum()).collect();
        assert_eq!(with_scratch, plain);
    }

    #[test]
    fn per_model_threshold_gates_fanout() {
        assert!(!should_parallelize_at(PARALLEL_THRESHOLD - 1, PARALLEL_THRESHOLD));
        // A cheap model's raised cutoff keeps mid-size batches sequential
        // where the generic cutoff would have forked.
        assert!(!should_parallelize_at(1024, 8192));
        assert!(!should_parallelize_at(8191, 8192));
        // At or past its own cutoff the fan-out engages again (when a pool
        // exists at all).
        assert_eq!(should_parallelize_at(8192, 8192), rayon::current_num_threads() > 1);
    }

    #[test]
    fn every_threshold_gives_the_sequential_values() {
        let data: Vec<Vec<f64>> = (0..700).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
        let sequential: Vec<f64> = refs.iter().map(|x| x[0].sin()).collect();
        for threshold in [1, 256, 701, usize::MAX] {
            assert_eq!(map_batch_at(&refs, threshold, |x| x[0].sin()), sequential);
            let with_scratch = map_batch_with_at(&refs, threshold, || 0.0f64, |_, x| x[0].sin());
            assert_eq!(with_scratch, sequential);
        }
    }
}
