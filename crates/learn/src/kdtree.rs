//! A static kd-tree for exact k-nearest-neighbour and range queries.
//!
//! The nearest-neighbour classifier ([`crate::knn::Knn`]) rebuilds this tree each time the labeled set grows —
//! labeled sets in interactive exploration are small (hundreds of points),
//! so a fresh balanced build is cheaper and simpler than incremental
//! maintenance. The oracle also uses [`KdTree::range_query`] for target
//! region membership at scale.
//!
//! # Layout
//!
//! The tree is a *flat SoA* structure built for cache-friendly queries:
//!
//! - points live in one contiguous row-major [`PointMatrix`], permuted so
//!   that each leaf bucket (up to [`LEAF_SIZE`] points) is one linear
//!   slice — a leaf scan is a single sweep of
//!   [`squared_distances_block`] over flat memory, no per-point pointer
//!   chase;
//! - inner nodes store only a split dimension and split value in a flat
//!   arena; the points themselves all sit in leaves;
//! - a permutation array maps leaf slots back to *build indices*, the
//!   public identity of every point. Neighbour results are selected
//!   exactly (lexicographically by `(distance², build index)`), so the
//!   permutation is invisible in the output: results are bit-identical to
//!   a brute-force scan in build order.
//!
//! Construction and traversal both run on explicit work stacks — no
//! recursion, so pathological million-point builds cannot overflow the
//! thread stack, and repeated queries through [`NearestScratch`] perform
//! no allocation at all once the buffers have grown.

use std::collections::BinaryHeap;

use uei_types::point::{squared_distances_block, PointMatrix};
use uei_types::{Region, Result, UeiError};

/// Maximum points per leaf bucket. Leaves are scanned linearly with the
/// blocked distance kernel, so the bucket wants to be large enough to
/// amortize the traversal overhead and small enough to keep scans cheap;
/// 16 rows × 8 dims × 8 bytes = 1 KiB, a couple of cache lines per
/// dimension stripe.
pub const LEAF_SIZE: usize = 16;

/// Absent child sentinel (empty tree only: every build split leaves both
/// sides non-empty, so real inner nodes always have two children).
const NONE: u32 = u32::MAX;

/// Tag bit marking a child reference as a leaf index.
const LEAF_BIT: u32 = 1 << 31;

/// One inner node: an axis-aligned splitting plane. Left descendants have
/// `coord[dim] <= split` and right descendants `coord[dim] >= split`
/// (points equal to the split value are routed by build-index tie-break,
/// hence both bounds are inclusive).
#[derive(Debug)]
struct Inner {
    split: f64,
    dim: u32,
    /// Left child reference (`LEAF_BIT`-tagged leaf index or inner index).
    left: u32,
    /// Right child reference.
    right: u32,
}

/// A static kd-tree over a set of points.
///
/// ```
/// use uei_learn::KdTree;
///
/// let tree = KdTree::build(vec![
///     vec![0.0, 0.0],
///     vec![5.0, 5.0],
///     vec![1.0, 1.0],
/// ]).unwrap();
/// let nearest = tree.nearest(&[0.9, 0.9], 2).unwrap();
/// assert_eq!(nearest[0].1, 2); // index of [1.0, 1.0]
/// assert_eq!(nearest[1].1, 0);
/// ```
#[derive(Debug)]
pub struct KdTree {
    /// All points, permuted into leaf-contiguous order.
    points: PointMatrix,
    /// Leaf slot → build index.
    perm: Vec<u32>,
    /// Build index → leaf slot (for [`Self::point`]).
    inv: Vec<u32>,
    /// Inner-node arena.
    nodes: Vec<Inner>,
    /// Leaf buckets as `[start, end)` slot ranges.
    leaves: Vec<(u32, u32)>,
    /// Root child reference (`NONE` for the empty tree).
    root: u32,
    dims: usize,
}

/// A neighbour returned by [`KdTree::nearest`]: `(squared distance, index
/// of the point in the build order)`.
pub type Neighbor = (f64, usize);

/// Reusable buffers for repeated [`KdTree::nearest_with`] queries.
///
/// A fresh `nearest` call allocates a candidate heap, a traversal stack, a
/// leaf-distance buffer, and a result vector; batch scoring issues
/// thousands of such queries per iteration, so the scratch lets one worker
/// amortize those allocations across its whole segment. Scratch contents
/// never affect the values produced — every buffer is cleared on entry, so
/// one scratch can serve trees of different shapes and dimensionalities
/// back to back — and results are identical to [`KdTree::nearest`].
#[derive(Default)]
pub struct NearestScratch {
    heap: BinaryHeap<HeapEntry>,
    out: Vec<Neighbor>,
    /// DFS work stack: `(child reference, squared lower bound on any
    /// distance inside that subtree)`.
    stack: Vec<(u32, f64)>,
    /// Per-leaf squared distances from the blocked kernel.
    dists: Vec<f64>,
}

impl NearestScratch {
    /// Creates an empty scratch; capacity grows on first use.
    pub fn new() -> NearestScratch {
        NearestScratch::default()
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist2: f64,
    index: usize,
}

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by distance; ties broken by index for determinism.
        self.dist2
            .partial_cmp(&other.dist2)
            .expect("distances are never NaN")
            .then(self.index.cmp(&other.index))
    }
}

/// Where a finished build job's child reference gets patched in.
enum Patch {
    Root,
    Left(u32),
    Right(u32),
}

impl KdTree {
    /// Builds a tree from points (all of equal dimensionality, no NaNs).
    pub fn build(points: Vec<Vec<f64>>) -> Result<KdTree> {
        KdTree::from_matrix(PointMatrix::from_rows(&points)?)
    }

    /// Builds a tree from an already-flat point matrix — the
    /// allocation-free path the nearest-neighbour classifiers use on every
    /// refit.
    ///
    /// Construction runs on an explicit work stack (never the call stack),
    /// median-splitting along the dimension of largest spread until at
    /// most [`LEAF_SIZE`] points remain per bucket, then permutes the
    /// points into leaf-contiguous order.
    pub fn from_matrix(points: PointMatrix) -> Result<KdTree> {
        let dims = points.dims();
        let n = points.len();
        if n == 0 {
            return Ok(KdTree {
                points,
                perm: Vec::new(),
                inv: Vec::new(),
                nodes: Vec::new(),
                leaves: Vec::new(),
                root: NONE,
                dims,
            });
        }
        if dims == 0 {
            return Err(UeiError::invalid_config("kd-tree points need at least 1 dimension"));
        }
        if n >= LEAF_BIT as usize {
            return Err(UeiError::invalid_config("kd-tree supports at most 2^31 - 1 points"));
        }
        if points.has_nan() {
            return Err(UeiError::invalid_config("kd-tree points must not contain NaN"));
        }

        let mut indices: Vec<u32> = (0..n as u32).collect();
        let mut nodes: Vec<Inner> = Vec::new();
        let mut leaves: Vec<(u32, u32)> = Vec::with_capacity(n.div_ceil(LEAF_SIZE));
        let mut perm: Vec<u32> = Vec::with_capacity(n);
        let mut leaf_data: Vec<f64> = Vec::with_capacity(n * dims);
        let mut root = NONE;

        // Each job partitions `indices[start..end]` in place; child jobs
        // own disjoint subranges, so the explicit stack replaces the old
        // recursion without any extra index copies.
        let mut jobs: Vec<(usize, usize, Patch)> = vec![(0, n, Patch::Root)];
        while let Some((start, end, patch)) = jobs.pop() {
            let len = end - start;
            let child = if len <= LEAF_SIZE {
                let s = perm.len() as u32;
                for &i in &indices[start..end] {
                    perm.push(i);
                    leaf_data.extend_from_slice(points.row(i as usize));
                }
                let leaf_idx = leaves.len() as u32;
                leaves.push((s, perm.len() as u32));
                LEAF_BIT | leaf_idx
            } else {
                let slice = &mut indices[start..end];
                // Split along the dimension of largest spread for better
                // balance on skewed data.
                let mut best_dim = 0;
                let mut best_spread = f64::NEG_INFINITY;
                for d in 0..dims {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for &i in slice.iter() {
                        let v = points.row(i as usize)[d];
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    let spread = hi - lo;
                    if spread > best_spread {
                        best_spread = spread;
                        best_dim = d;
                    }
                }
                let mid = len / 2;
                slice.select_nth_unstable_by(mid, |&a, &b| {
                    points.row(a as usize)[best_dim]
                        .partial_cmp(&points.row(b as usize)[best_dim])
                        .expect("no NaN")
                        .then(a.cmp(&b))
                });
                // The median point goes to the right bucket; with
                // `1 <= mid < len` both sides are non-empty, so every
                // inner node ends up with two real children.
                let split = points.row(slice[mid] as usize)[best_dim];
                let node_idx = nodes.len() as u32;
                nodes.push(Inner { split, dim: best_dim as u32, left: NONE, right: NONE });
                jobs.push((start, start + mid, Patch::Left(node_idx)));
                jobs.push((start + mid, end, Patch::Right(node_idx)));
                node_idx
            };
            match patch {
                Patch::Root => root = child,
                Patch::Left(p) => nodes[p as usize].left = child,
                Patch::Right(p) => nodes[p as usize].right = child,
            }
        }

        let mut inv = vec![0u32; n];
        for (slot, &orig) in perm.iter().enumerate() {
            inv[orig as usize] = slot as u32;
        }
        let points = PointMatrix::from_flat(leaf_data, dims)?;
        Ok(KdTree { points, perm, inv, nodes, leaves, root, dims })
    }

    /// Number of points in the tree.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Point dimensionality (0 for the empty tree).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The point stored at build index `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        self.points.row(self.inv[i] as usize)
    }

    /// The `k` nearest neighbours of `query`, ascending by distance
    /// (squared), ties broken by build index. Returns fewer when the tree
    /// holds fewer than `k` points.
    pub fn nearest(&self, query: &[f64], k: usize) -> Result<Vec<Neighbor>> {
        let mut scratch = NearestScratch::new();
        self.nearest_with(&mut scratch, query, k)?;
        Ok(std::mem::take(&mut scratch.out))
    }

    /// Like [`Self::nearest`], but reuses `scratch` buffers across calls
    /// and leaves the neighbours in `scratch.out` — see the returned slice.
    /// The produced neighbours are identical to `nearest`'s.
    pub fn nearest_with<'s>(
        &self,
        scratch: &'s mut NearestScratch,
        query: &[f64],
        k: usize,
    ) -> Result<&'s [Neighbor]> {
        scratch.heap.clear();
        scratch.out.clear();
        scratch.stack.clear();
        if self.is_empty() || k == 0 {
            return Ok(&scratch.out);
        }
        if query.len() != self.dims {
            return Err(UeiError::DimensionMismatch { expected: self.dims, actual: query.len() });
        }
        let heap = &mut scratch.heap;
        scratch.stack.push((self.root, 0.0));
        while let Some((child, bound2)) = scratch.stack.pop() {
            // Prune whole subtrees whose one-axis lower bound already
            // exceeds the current k-th neighbour (same `<=` rule as the
            // recursive implementation; checking at pop time can only
            // prune more, never change the exact result).
            if heap.len() == k && bound2 > heap.peek().expect("non-empty heap").dist2 {
                continue;
            }
            if child & LEAF_BIT != 0 {
                let (s, e) = self.leaves[(child & !LEAF_BIT) as usize];
                let (s, e) = (s as usize, e as usize);
                scratch.dists.clear();
                let rows = &self.points.as_flat()[s * self.dims..e * self.dims];
                squared_distances_block(query, rows, self.dims, &mut scratch.dists)
                    .expect("dims validated");
                let mut j = 0;
                while heap.len() < k && j < scratch.dists.len() {
                    let index = self.perm[s + j] as usize;
                    heap.push(HeapEntry { dist2: scratch.dists[j], index });
                    j += 1;
                }
                if j < scratch.dists.len() {
                    // Steady state: cache the k-th candidate in locals so the
                    // common reject (d2 > kth) costs one compare, and the
                    // perm lookup only happens for points that might enter.
                    let top = heap.peek().expect("heap holds k > 0 entries");
                    let (mut kth, mut kth_idx) = (top.dist2, top.index);
                    for (&d2, slot) in scratch.dists[j..].iter().zip(s + j..) {
                        if d2 > kth || d2.is_nan() {
                            continue;
                        }
                        let index = self.perm[slot] as usize;
                        if d2 < kth || index < kth_idx {
                            heap.pop();
                            heap.push(HeapEntry { dist2: d2, index });
                            let top = heap.peek().expect("heap holds k entries");
                            kth = top.dist2;
                            kth_idx = top.index;
                        }
                    }
                }
            } else {
                let node = &self.nodes[child as usize];
                let diff = query[node.dim as usize] - node.split;
                let (near, far) =
                    if diff < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                // LIFO: push the far side first so the near side is
                // explored before the far bound is re-checked.
                scratch.stack.push((far, diff * diff));
                scratch.stack.push((near, bound2));
            }
        }
        scratch.out.extend(heap.drain().map(|e| (e.dist2, e.index)));
        scratch
            .out
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN distances").then(a.1.cmp(&b.1)));
        Ok(&scratch.out)
    }

    /// Indices of every point inside `region`.
    pub fn range_query(&self, region: &Region) -> Result<Vec<usize>> {
        if self.is_empty() {
            return Ok(Vec::new());
        }
        if region.dims() != self.dims {
            return Err(UeiError::DimensionMismatch { expected: self.dims, actual: region.dims() });
        }
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(child) = stack.pop() {
            if child & LEAF_BIT != 0 {
                let (s, e) = self.leaves[(child & !LEAF_BIT) as usize];
                for slot in s as usize..e as usize {
                    if region.contains(self.points.row(slot))? {
                        out.push(self.perm[slot] as usize);
                    }
                }
            } else {
                let node = &self.nodes[child as usize];
                let dim = node.dim as usize;
                // Descend only into subtrees that can intersect the region
                // along the split dimension. Points equal to the split
                // value may sit on either side, so both bounds are
                // conservative (<=).
                if region.lo[dim] <= node.split {
                    stack.push(node.left);
                }
                if node.split <= region.hi[dim] {
                    stack.push(node.right);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::point::squared_distance;
    use uei_types::Rng;

    fn brute_force_knn(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (squared_distance(p, query).unwrap(), i))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| (0..dims).map(|_| rng.range_f64(-10.0, 10.0)).collect()).collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let points = random_points(500, 3, 42);
        let tree = KdTree::build(points.clone()).unwrap();
        let mut rng = Rng::new(7);
        for _ in 0..50 {
            let q: Vec<f64> = (0..3).map(|_| rng.range_f64(-12.0, 12.0)).collect();
            for k in [1, 3, 10] {
                let got = tree.nearest(&q, k).unwrap();
                let want = brute_force_knn(&points, &q, k);
                assert_eq!(got, want, "k={k} query={q:?}");
            }
        }
    }

    #[test]
    fn knn_with_duplicates_and_exact_hits() {
        let mut points = random_points(50, 2, 1);
        points.push(points[0].clone());
        points.push(points[0].clone());
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&points[0], 3).unwrap();
        assert_eq!(got[0].0, 0.0);
        assert_eq!(got[1].0, 0.0);
        assert_eq!(got[2].0, 0.0);
        let want = brute_force_knn(&points, &points[0], 3);
        assert_eq!(got, want);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let points = random_points(5, 2, 3);
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&[0.0, 0.0], 100).unwrap();
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn empty_tree() {
        let tree = KdTree::build(vec![]).unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.nearest(&[1.0], 3).unwrap(), vec![]);
        let region = Region::new(vec![0.0], vec![1.0]).unwrap();
        assert_eq!(tree.range_query(&region).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn build_rejects_bad_points() {
        assert!(KdTree::build(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(KdTree::build(vec![vec![f64::NAN]]).is_err());
        assert!(KdTree::build(vec![vec![]]).is_err());
    }

    #[test]
    fn query_dim_mismatch() {
        let tree = KdTree::build(random_points(10, 3, 5)).unwrap();
        assert!(tree.nearest(&[0.0, 0.0], 1).is_err());
    }

    #[test]
    fn range_query_matches_filter() {
        let points = random_points(400, 2, 9);
        let tree = KdTree::build(points.clone()).unwrap();
        let region = Region::new(vec![-5.0, 0.0], vec![5.0, 8.0]).unwrap();
        let got = tree.range_query(&region).unwrap();
        let want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| region.contains(p).unwrap())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_query_closed_region() {
        let points = vec![vec![0.0], vec![1.0], vec![2.0]];
        let tree = KdTree::build(points).unwrap();
        let closed = Region::closed(vec![0.0], vec![1.0]).unwrap();
        assert_eq!(tree.range_query(&closed).unwrap(), vec![0, 1]);
        let open = Region::new(vec![0.0], vec![1.0]).unwrap();
        assert_eq!(tree.range_query(&open).unwrap(), vec![0]);
    }

    #[test]
    fn nearest_is_deterministic() {
        let points = random_points(100, 4, 11);
        let tree = KdTree::build(points).unwrap();
        let q = vec![0.0; 4];
        let a = tree.nearest(&q, 7).unwrap();
        let b = tree.nearest(&q, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nearest_with_scratch_matches_fresh_calls() {
        let points = random_points(300, 3, 17);
        let tree = KdTree::build(points).unwrap();
        let mut scratch = NearestScratch::new();
        let mut rng = Rng::new(23);
        for _ in 0..40 {
            let q: Vec<f64> = (0..3).map(|_| rng.range_f64(-12.0, 12.0)).collect();
            let fresh = tree.nearest(&q, 5).unwrap();
            let reused = tree.nearest_with(&mut scratch, &q, 5).unwrap();
            assert_eq!(fresh, reused);
        }
        // Error paths leave the scratch reusable.
        assert!(tree.nearest_with(&mut scratch, &[0.0], 5).is_err());
        assert_eq!(tree.nearest_with(&mut scratch, &[0.0, 0.0, 0.0], 0).unwrap(), &[]);
    }

    #[test]
    fn scratch_reuse_across_tree_shapes_leaks_no_state() {
        // One scratch, alternating between trees of different sizes,
        // depths, and dimensionalities (including one small enough to be a
        // single leaf and one empty): every reused answer must equal a
        // fresh query, and a k larger than a smaller tree must not surface
        // stale candidates from a bigger one.
        let big = KdTree::build(random_points(500, 4, 3)).unwrap();
        let small = KdTree::build(random_points(7, 2, 5)).unwrap();
        let other_dims = KdTree::build(random_points(90, 6, 8)).unwrap();
        let empty = KdTree::build(vec![]).unwrap();
        let mut scratch = NearestScratch::new();
        let mut rng = Rng::new(31);
        for round in 0..25 {
            let q4: Vec<f64> = (0..4).map(|_| rng.range_f64(-12.0, 12.0)).collect();
            let q2: Vec<f64> = (0..2).map(|_| rng.range_f64(-12.0, 12.0)).collect();
            let q6: Vec<f64> = (0..6).map(|_| rng.range_f64(-12.0, 12.0)).collect();
            let k = 1 + round % 12;
            assert_eq!(
                big.nearest_with(&mut scratch, &q4, k).unwrap(),
                big.nearest(&q4, k).unwrap()
            );
            // k > len(small): must return exactly 7 points, none from `big`.
            let got = small.nearest_with(&mut scratch, &q2, 20).unwrap().to_vec();
            assert_eq!(got, small.nearest(&q2, 20).unwrap());
            assert_eq!(got.len(), 7);
            assert_eq!(
                other_dims.nearest_with(&mut scratch, &q6, k).unwrap(),
                other_dims.nearest(&q6, k).unwrap()
            );
            assert_eq!(empty.nearest_with(&mut scratch, &[1.0], k).unwrap(), &[]);
        }
    }

    #[test]
    fn high_dim_small_n() {
        let points = random_points(20, 8, 13);
        let tree = KdTree::build(points.clone()).unwrap();
        let q = vec![1.0; 8];
        assert_eq!(tree.nearest(&q, 5).unwrap(), brute_force_knn(&points, &q, 5));
    }

    #[test]
    fn point_accessor_survives_leaf_permutation() {
        let points = random_points(130, 3, 19);
        let tree = KdTree::from_matrix(PointMatrix::from_rows(&points).unwrap()).unwrap();
        assert_eq!(tree.len(), 130);
        assert_eq!(tree.dims(), 3);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(tree.point(i), p.as_slice(), "build index {i}");
        }
    }

    #[test]
    fn duplicate_heavy_build_stays_balanced_and_exact() {
        // Every coordinate drawn from {0, 1}: maximal duplication, zero
        // spread on most splits. The build must terminate, and queries must
        // still match brute force exactly (including index tie-breaks).
        let mut rng = Rng::new(77);
        let points: Vec<Vec<f64>> =
            (0..300).map(|_| (0..2).map(|_| rng.below(2) as f64).collect()).collect();
        let tree = KdTree::build(points.clone()).unwrap();
        for q in [[0.0, 0.0], [1.0, 1.0], [0.4, 0.6]] {
            for k in [1, 5, 40, 300] {
                assert_eq!(tree.nearest(&q, k).unwrap(), brute_force_knn(&points, &q, k));
            }
        }
    }

    #[test]
    #[ignore = "1M-point stack-safety regression; run with --ignored"]
    fn million_point_duplicate_build_does_not_overflow() {
        // Highly duplicated, presorted 1-d input — the worst case for a
        // recursive build. The explicit work stack must complete it inside
        // a default-size thread stack.
        let n = 1_000_000usize;
        let data: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        let tree = KdTree::from_matrix(PointMatrix::from_flat(data, 1).unwrap()).unwrap();
        assert_eq!(tree.len(), n);
        let got = tree.nearest(&[0.9], 3).unwrap();
        // Nearest value is 1.0; ties break toward the lowest build index,
        // which for value 1.0 is index 1.
        let d = 1.0 - 0.9;
        assert_eq!(got[0], (d * d, 1));
        assert_eq!(got[1].1, 5);
        assert_eq!(got[2].1, 9);
    }
}
