//! Contiguous cell-range sharding of the index-point plane.
//!
//! The symbolic index points live in one flat SoA (scores, influence
//! radii); a [`ShardLayout`] partitions that array into `S` contiguous
//! ranges so rescoring can fan out shard-parallel and selection can merge
//! per-shard top-θ lists deterministically (DESIGN.md §14). The layout is
//! pure geometry — it owns no scores — so one `Arc<ShardLayout>` is shared
//! between the engine core and every session it opens.
//!
//! Invariants:
//!
//! - shard ranges are contiguous, ascending, non-empty (except in the
//!   degenerate zero-cell layout), and partition `0..num_cells` exactly;
//! - because ranges are ascending in cell id, any per-shard list sorted by
//!   `(score desc, id asc)` merges into the identical global order that
//!   [`uei_learn::strategy::top_k_desc`] produces over the whole array —
//!   the determinism argument selection rests on.

use std::ops::Range;

use uei_types::ShardId;

/// Cells per shard the automatic sizing aims for. Small enough that the
/// paper-scale grid (3125 cells) stays single-shard — sharding overhead is
/// pure waste there — while six-figure grids fan out.
const AUTO_CELLS_PER_SHARD: usize = 4096;

/// Largest shard count the automatic sizing will pick on its own.
const AUTO_MAX_SHARDS: usize = 16;

/// An immutable partition of `0..num_cells` into contiguous shard ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// Range fenceposts: shard `s` owns `bounds[s]..bounds[s + 1]`.
    /// `bounds[0] == 0`, `bounds.last() == num_cells`, strictly ascending
    /// (non-strict only when `num_cells == 0`).
    bounds: Vec<usize>,
}

impl ShardLayout {
    /// Builds a layout of `shards` near-even contiguous ranges over
    /// `num_cells` cells. `shards == 0` picks the count automatically via
    /// [`ShardLayout::auto_shards`]; explicit counts are clamped to
    /// `[1, num_cells]` so every shard is non-empty.
    pub fn new(num_cells: usize, shards: usize) -> ShardLayout {
        let shards = if shards == 0 { Self::auto_shards(num_cells) } else { shards };
        let shards = shards.clamp(1, num_cells.max(1));
        let base = num_cells / shards;
        let rem = num_cells % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        let mut next = 0;
        for s in 0..shards {
            // The first `rem` shards absorb the remainder, one cell each.
            next += base + usize::from(s < rem);
            bounds.push(next);
        }
        debug_assert_eq!(*bounds.last().expect("at least one shard"), num_cells);
        ShardLayout { bounds }
    }

    /// The shard count the engine uses for a plane of `num_cells`: one
    /// shard per ~`AUTO_CELLS_PER_SHARD` cells, clamped to
    /// `[1, AUTO_MAX_SHARDS]`.
    pub fn auto_shards(num_cells: usize) -> usize {
        (num_cells / AUTO_CELLS_PER_SHARD).clamp(1, AUTO_MAX_SHARDS)
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of cells partitioned.
    pub fn num_cells(&self) -> usize {
        *self.bounds.last().expect("bounds is never empty")
    }

    /// The contiguous cell-id range shard `s` owns.
    ///
    /// # Panics
    /// If `s` is out of range.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Iterates the shard ranges in ascending cell order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.num_shards()).map(|s| self.range(s))
    }

    /// The shard that owns `cell`.
    ///
    /// # Panics
    /// If `cell >= num_cells`.
    pub fn shard_of(&self, cell: usize) -> ShardId {
        assert!(cell < self.num_cells(), "cell {cell} outside layout");
        // bounds is ascending: the owning shard is the last fencepost <= cell.
        let s = match self.bounds.binary_search(&cell) {
            Ok(exact) => exact,
            Err(insert) => insert - 1,
        };
        ShardId::from(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_partitions_exactly() {
        for num_cells in [1usize, 2, 9, 100, 3125, 4097] {
            for shards in [1usize, 2, 3, 8, 16, 1000] {
                let layout = ShardLayout::new(num_cells, shards);
                assert_eq!(layout.num_cells(), num_cells);
                assert!(layout.num_shards() <= num_cells.max(1));
                let mut covered = 0;
                let mut prev_end = 0;
                for r in layout.ranges() {
                    assert_eq!(r.start, prev_end, "ranges are contiguous");
                    assert!(!r.is_empty(), "no empty shards");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, num_cells, "{num_cells} cells / {shards} shards");
                // Near-even: sizes differ by at most one cell.
                let sizes: Vec<usize> = layout.ranges().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_of_inverts_ranges() {
        let layout = ShardLayout::new(100, 7);
        for s in 0..layout.num_shards() {
            for cell in layout.range(s) {
                assert_eq!(layout.shard_of(cell).as_usize(), s);
            }
        }
    }

    #[test]
    fn auto_sizing_keeps_paper_grid_single_shard() {
        assert_eq!(ShardLayout::auto_shards(3125), 1, "Table 1 grid stays unsharded");
        assert_eq!(ShardLayout::auto_shards(0), 1);
        assert!(ShardLayout::auto_shards(1 << 20) <= 16);
        assert!(ShardLayout::auto_shards(128 * 1024) >= 8, "big grids fan out");
        // A count of 0 routes through auto sizing.
        assert_eq!(ShardLayout::new(3125, 0).num_shards(), 1);
        assert_eq!(
            ShardLayout::new(128 * 1024, 0).num_shards(),
            ShardLayout::auto_shards(128 * 1024)
        );
    }

    #[test]
    fn explicit_counts_are_clamped_to_cells() {
        assert_eq!(ShardLayout::new(3, 8).num_shards(), 3, "no empty shards");
        assert_eq!(ShardLayout::new(0, 8).num_shards(), 1, "degenerate empty layout");
        assert_eq!(ShardLayout::new(0, 8).num_cells(), 0);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn shard_of_rejects_out_of_range() {
        ShardLayout::new(10, 2).shard_of(10);
    }
}
