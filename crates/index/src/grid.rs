//! The equilateral grid of subspaces and their symbolic index points.
//!
//! UEI "divide\[s\] the exploration space D into equal-size subspaces (i.e.,
//! d-dimensional grids) g_i of D, and build\[s\] a set of symbolic (virtual)
//! index points P = {p_1, … p_c}, such that each index point p_i represents
//! a subspace g_i" (§3.1), with p_i at "the coordinates of the 'virtual'
//! center point of g_i".
//!
//! Cells are half-open `[lo, hi)` along every dimension — so the grid is a
//! true partition — except that the topmost cell of each dimension extends
//! its upper bound by one ULP past the domain maximum, so points exactly at
//! the maximum belong to the last cell.

use uei_types::{Region, Result, Schema, UeiError};

/// A cell (subspace) identifier: the row-major linearization of the cell's
/// per-dimension coordinates.
pub type CellId = usize;

/// The grid over the data space.
///
/// ```
/// use uei_index::Grid;
/// use uei_types::Schema;
///
/// // Table 1's configuration: 5 cells per dimension over the 5-D SDSS
/// // space gives 3125 symbolic index points.
/// let grid = Grid::new(&Schema::sdss(), 5).unwrap();
/// assert_eq!(grid.num_cells(), 3125);
/// let cell = grid.cell_of(&[100.0, 100.0, 10.0, -80.0, 5.0]).unwrap();
/// let p = grid.cell_center(cell).unwrap();          // the symbolic point
/// assert_eq!(grid.cell_of(&p).unwrap(), cell);      // it represents its cell
/// ```
#[derive(Debug, Clone)]
pub struct Grid {
    lo: Vec<f64>,
    hi: Vec<f64>,
    cells_per_dim: usize,
    dims: usize,
}

impl Grid {
    /// Builds a grid of `cells_per_dim^dims` cells over the schema's data
    /// space.
    pub fn new(schema: &Schema, cells_per_dim: usize) -> Result<Grid> {
        if cells_per_dim == 0 {
            return Err(UeiError::invalid_config("cells_per_dim must be >= 1"));
        }
        let space = schema.data_space();
        Ok(Grid { lo: space.lo.clone(), hi: space.hi.clone(), cells_per_dim, dims: space.dims() })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Cells per dimension.
    pub fn cells_per_dim(&self) -> usize {
        self.cells_per_dim
    }

    /// Total number of cells (= number of symbolic index points).
    pub fn num_cells(&self) -> usize {
        self.cells_per_dim.pow(self.dims as u32)
    }

    /// Per-dimension cell width.
    pub fn cell_width(&self, dim: usize) -> f64 {
        (self.hi[dim] - self.lo[dim]) / self.cells_per_dim as f64
    }

    /// Converts per-dimension coordinates to a cell id (row-major).
    pub fn coords_to_id(&self, coords: &[usize]) -> Result<CellId> {
        if coords.len() != self.dims {
            return Err(UeiError::DimensionMismatch { expected: self.dims, actual: coords.len() });
        }
        let mut id = 0usize;
        for &c in coords {
            if c >= self.cells_per_dim {
                return Err(UeiError::invalid_config(format!(
                    "cell coordinate {c} out of range (< {})",
                    self.cells_per_dim
                )));
            }
            id = id * self.cells_per_dim + c;
        }
        Ok(id)
    }

    /// Converts a cell id back to per-dimension coordinates.
    pub fn id_to_coords(&self, id: CellId) -> Result<Vec<usize>> {
        if id >= self.num_cells() {
            return Err(UeiError::not_found(format!("cell {id} (grid has {})", self.num_cells())));
        }
        let mut coords = vec![0usize; self.dims];
        let mut rest = id;
        for d in (0..self.dims).rev() {
            coords[d] = rest % self.cells_per_dim;
            rest /= self.cells_per_dim;
        }
        Ok(coords)
    }

    /// The subspace `g_i` of a cell as a half-open region (topmost cells
    /// extended one ULP to include the domain maximum).
    pub fn cell_region(&self, id: CellId) -> Result<Region> {
        let coords = self.id_to_coords(id)?;
        let mut lo = Vec::with_capacity(self.dims);
        let mut hi = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let w = self.cell_width(d);
            let cell_lo = self.lo[d] + coords[d] as f64 * w;
            let mut cell_hi = self.lo[d] + (coords[d] + 1) as f64 * w;
            if coords[d] + 1 == self.cells_per_dim {
                // Close the top edge: make `hi` exactly one ULP above the
                // domain max so `[lo, hi)` admits the max itself.
                cell_hi = self.hi[d].next_up();
            }
            lo.push(cell_lo);
            hi.push(cell_hi);
        }
        Region::new(lo, hi)
    }

    /// The midpoint of slice `coord` along dimension `dim` — one
    /// coordinate of every symbolic index point in that slice.
    pub fn slice_center(&self, dim: usize, coord: usize) -> f64 {
        self.lo[dim] + (coord as f64 + 0.5) * self.cell_width(dim)
    }

    /// The symbolic index point of a cell — the center of `g_i`.
    pub fn cell_center(&self, id: CellId) -> Result<Vec<f64>> {
        let coords = self.id_to_coords(id)?;
        Ok((0..self.dims).map(|d| self.slice_center(d, coords[d])).collect())
    }

    /// The cell containing a point; coordinates are clamped into the data
    /// space, so every point maps to exactly one cell.
    pub fn cell_of(&self, point: &[f64]) -> Result<CellId> {
        if point.len() != self.dims {
            return Err(UeiError::DimensionMismatch { expected: self.dims, actual: point.len() });
        }
        let mut coords = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let w = self.cell_width(d);
            let c = if w > 0.0 {
                (((point[d] - self.lo[d]) / w).floor() as isize)
                    .clamp(0, self.cells_per_dim as isize - 1) as usize
            } else {
                0
            };
            coords.push(c);
        }
        self.coords_to_id(&coords)
    }

    /// Iterates every cell id.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        0..self.num_cells()
    }

    /// Ids of cells orthogonally adjacent to `id` (±1 along each single
    /// dimension) — used by the prefetcher's runner-up heuristics.
    pub fn neighbors(&self, id: CellId) -> Result<Vec<CellId>> {
        let coords = self.id_to_coords(id)?;
        let mut out = Vec::with_capacity(2 * self.dims);
        for d in 0..self.dims {
            if coords[d] > 0 {
                let mut c = coords.clone();
                c[d] -= 1;
                out.push(self.coords_to_id(&c)?);
            }
            if coords[d] + 1 < self.cells_per_dim {
                let mut c = coords.clone();
                c[d] += 1;
                out.push(self.coords_to_id(&c)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::{AttributeDef, Rng};

    fn schema2() -> Schema {
        Schema::new(vec![
            AttributeDef::new("x", 0.0, 10.0).unwrap(),
            AttributeDef::new("y", -5.0, 5.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn sdss_grid_matches_table_1() {
        let grid = Grid::new(&Schema::sdss(), 5).unwrap();
        assert_eq!(grid.num_cells(), 3125);
        assert_eq!(grid.dims(), 5);
    }

    #[test]
    fn id_coords_round_trip() {
        let grid = Grid::new(&schema2(), 4).unwrap();
        assert_eq!(grid.num_cells(), 16);
        for id in grid.cell_ids() {
            let coords = grid.id_to_coords(id).unwrap();
            assert_eq!(grid.coords_to_id(&coords).unwrap(), id);
        }
        assert!(grid.id_to_coords(16).is_err());
        assert!(grid.coords_to_id(&[4, 0]).is_err());
        assert!(grid.coords_to_id(&[0]).is_err());
    }

    #[test]
    fn cells_partition_the_space() {
        // Every random point belongs to exactly one cell region.
        let grid = Grid::new(&schema2(), 3).unwrap();
        let regions: Vec<Region> =
            grid.cell_ids().map(|id| grid.cell_region(id).unwrap()).collect();
        let mut rng = Rng::new(5);
        for _ in 0..2000 {
            let p = vec![rng.range_f64(0.0, 10.0), rng.range_f64(-5.0, 5.0)];
            let containing: Vec<usize> = regions
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&p).unwrap())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(containing.len(), 1, "point {p:?} in cells {containing:?}");
            assert_eq!(containing[0], grid.cell_of(&p).unwrap());
        }
    }

    #[test]
    fn domain_max_belongs_to_top_cell() {
        let grid = Grid::new(&schema2(), 3).unwrap();
        let top = grid.cell_of(&[10.0, 5.0]).unwrap();
        assert_eq!(grid.id_to_coords(top).unwrap(), vec![2, 2]);
        let region = grid.cell_region(top).unwrap();
        assert!(region.contains(&[10.0, 5.0]).unwrap(), "domain max inside top cell");
    }

    #[test]
    fn out_of_domain_points_clamp() {
        let grid = Grid::new(&schema2(), 3).unwrap();
        assert_eq!(grid.cell_of(&[-100.0, 0.0]).unwrap(), grid.cell_of(&[0.0, 0.0]).unwrap());
        assert_eq!(grid.cell_of(&[100.0, 100.0]).unwrap(), grid.cell_of(&[10.0, 5.0]).unwrap());
    }

    #[test]
    fn centers_are_inside_their_cells() {
        let grid = Grid::new(&schema2(), 4).unwrap();
        for id in grid.cell_ids() {
            let center = grid.cell_center(id).unwrap();
            let region = grid.cell_region(id).unwrap();
            assert!(region.contains(&center).unwrap(), "center of cell {id}");
            assert_eq!(grid.cell_of(&center).unwrap(), id);
        }
    }

    #[test]
    fn cell_widths_are_equal_per_dimension() {
        let grid = Grid::new(&schema2(), 5).unwrap();
        assert!((grid.cell_width(0) - 2.0).abs() < 1e-12);
        assert!((grid.cell_width(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_cell_grid() {
        let grid = Grid::new(&schema2(), 1).unwrap();
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.cell_of(&[3.0, 3.0]).unwrap(), 0);
        let r = grid.cell_region(0).unwrap();
        assert!(r.contains(&[0.0, -5.0]).unwrap());
        assert!(r.contains(&[10.0, 5.0]).unwrap());
    }

    #[test]
    fn neighbors_are_orthogonal() {
        let grid = Grid::new(&schema2(), 3).unwrap();
        // Center cell (1,1) has 4 neighbours in 2-D.
        let center = grid.coords_to_id(&[1, 1]).unwrap();
        let mut n = grid.neighbors(center).unwrap();
        n.sort_unstable();
        let mut want = vec![
            grid.coords_to_id(&[0, 1]).unwrap(),
            grid.coords_to_id(&[2, 1]).unwrap(),
            grid.coords_to_id(&[1, 0]).unwrap(),
            grid.coords_to_id(&[1, 2]).unwrap(),
        ];
        want.sort_unstable();
        assert_eq!(n, want);
        // Corner cell has 2.
        let corner = grid.coords_to_id(&[0, 0]).unwrap();
        assert_eq!(grid.neighbors(corner).unwrap().len(), 2);
    }

    #[test]
    fn rejects_zero_cells() {
        assert!(Grid::new(&schema2(), 0).is_err());
    }

    #[test]
    fn cell_of_dim_mismatch() {
        let grid = Grid::new(&schema2(), 3).unwrap();
        assert!(grid.cell_of(&[1.0]).is_err());
    }
}
