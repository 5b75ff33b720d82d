//! Uniform spatial grid.
//!
//! Several PS2Stream components are built on a uniform grid over the data
//! space: the worker-side GI² index, the dispatcher-side gridt index and the
//! grid space-partitioning baseline all divide the space into `nx × ny`
//! equally-sized cells. [`UniformGrid`] provides the shared cell geometry and
//! point/rectangle → cell mapping.

use crate::point::Point;
use crate::rect::Rect;

/// Identifier of a grid cell: `(column, row)` with the origin in the
/// lower-left corner of the grid's bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index (x direction), `0 .. nx`.
    pub col: u32,
    /// Row index (y direction), `0 .. ny`.
    pub row: u32,
}

impl CellId {
    /// Creates a new cell identifier.
    #[inline]
    pub const fn new(col: u32, row: u32) -> Self {
        Self { col, row }
    }
}

/// A uniform grid dividing a bounding rectangle into `nx × ny` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGrid {
    bounds: Rect,
    nx: u32,
    ny: u32,
    cell_w: f64,
    cell_h: f64,
}

impl UniformGrid {
    /// Creates a grid over `bounds` with `nx` columns and `ny` rows.
    ///
    /// # Panics
    /// Panics if `nx` or `ny` is zero or if `bounds` is empty.
    pub fn new(bounds: Rect, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "UniformGrid requires nx > 0 and ny > 0");
        assert!(
            !bounds.is_empty(),
            "UniformGrid requires a non-empty bounding rectangle"
        );
        Self {
            bounds,
            nx,
            ny,
            cell_w: bounds.width() / nx as f64,
            cell_h: bounds.height() / ny as f64,
        }
    }

    /// Convenience constructor for the paper's `2^k × 2^k` granularity
    /// (the evaluation uses `2^6 × 2^6`).
    pub fn with_power_of_two(bounds: Rect, k: u32) -> Self {
        let n = 1u32 << k;
        Self::new(bounds, n, n)
    }

    /// The grid's bounding rectangle.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Maps a cell id to a dense index in `0 .. num_cells()` (row-major).
    #[inline]
    pub fn cell_index(&self, cell: CellId) -> usize {
        cell.row as usize * self.nx as usize + cell.col as usize
    }

    /// Inverse of [`UniformGrid::cell_index`].
    #[inline]
    pub fn cell_from_index(&self, index: usize) -> CellId {
        let row = (index / self.nx as usize) as u32;
        let col = (index % self.nx as usize) as u32;
        CellId::new(col, row)
    }

    /// The cell containing `p`, or `None` if the point lies outside the grid.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        if !self.bounds.contains_point(p) {
            return None;
        }
        Some(self.cell_of_clamped(p))
    }

    /// The cell containing `p`, clamping points outside the grid to the
    /// nearest boundary cell. Useful when minor floating point drift places a
    /// point marginally outside the configured bounds.
    pub fn cell_of_clamped(&self, p: &Point) -> CellId {
        let col = ((p.x - self.bounds.min.x) / self.cell_w).floor();
        let row = ((p.y - self.bounds.min.y) / self.cell_h).floor();
        let col = (col.max(0.0) as u32).min(self.nx - 1);
        let row = (row.max(0.0) as u32).min(self.ny - 1);
        CellId::new(col, row)
    }

    /// The rectangle covered by a cell.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let x0 = self.bounds.min.x + cell.col as f64 * self.cell_w;
        let y0 = self.bounds.min.y + cell.row as f64 * self.cell_h;
        Rect::from_coords(x0, y0, x0 + self.cell_w, y0 + self.cell_h)
    }

    /// All cells overlapping the query rectangle (inclusive of touching
    /// boundaries), in row-major order. Returns an empty vector if the
    /// rectangle does not intersect the grid bounds.
    pub fn cells_overlapping(&self, rect: &Rect) -> Vec<CellId> {
        let Some((lo, hi)) = self.cell_span(rect) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(((hi.col - lo.col + 1) * (hi.row - lo.row + 1)) as usize);
        out.extend(self.cells_overlapping_iter(rect));
        out
    }

    /// [`UniformGrid::cells_overlapping`] as an iterator, which allocates
    /// nothing.
    pub fn cells_overlapping_iter(&self, rect: &Rect) -> impl Iterator<Item = CellId> {
        self.cell_span(rect).into_iter().flat_map(|(lo, hi)| {
            (lo.row..=hi.row)
                .flat_map(move |row| (lo.col..=hi.col).map(move |col| CellId::new(col, row)))
        })
    }

    /// The lowest and highest cells overlapping `rect`, or `None` if it
    /// does not intersect the grid bounds: the corners of the block of cells
    /// [`UniformGrid::cells_overlapping_iter`] walks.
    pub fn cell_span(&self, rect: &Rect) -> Option<(CellId, CellId)> {
        let clipped = self.bounds.intersection(rect)?;
        Some((
            self.cell_of_clamped(&clipped.min),
            self.cell_of_clamped(&clipped.max),
        ))
    }

    /// Iterates over every cell id in row-major order.
    pub fn all_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.ny).flat_map(move |row| (0..self.nx).map(move |col| CellId::new(col, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> UniformGrid {
        UniformGrid::new(Rect::from_coords(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    #[test]
    fn construction_and_counts() {
        let g = grid4();
        assert_eq!(g.num_cells(), 16);
        assert_eq!(g.nx(), 4);
        assert_eq!(g.ny(), 4);
        assert_eq!(g.bounds(), Rect::from_coords(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "nx > 0")]
    fn zero_columns_panics() {
        let _ = UniformGrid::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 0, 4);
    }

    #[test]
    fn power_of_two_constructor() {
        let g = UniformGrid::with_power_of_two(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 6);
        assert_eq!(g.nx(), 64);
        assert_eq!(g.ny(), 64);
        assert_eq!(g.num_cells(), 64 * 64);
    }

    #[test]
    fn cell_of_interior_points() {
        let g = grid4();
        assert_eq!(g.cell_of(&Point::new(0.5, 0.5)), Some(CellId::new(0, 0)));
        assert_eq!(g.cell_of(&Point::new(3.5, 0.5)), Some(CellId::new(3, 0)));
        assert_eq!(g.cell_of(&Point::new(0.5, 3.5)), Some(CellId::new(0, 3)));
        assert_eq!(g.cell_of(&Point::new(2.1, 1.9)), Some(CellId::new(2, 1)));
    }

    #[test]
    fn cell_of_boundary_and_outside() {
        let g = grid4();
        // the max corner is clamped into the last cell
        assert_eq!(g.cell_of(&Point::new(4.0, 4.0)), Some(CellId::new(3, 3)));
        assert_eq!(g.cell_of(&Point::new(-0.1, 0.5)), None);
        assert_eq!(g.cell_of(&Point::new(0.5, 4.1)), None);
        assert_eq!(
            g.cell_of_clamped(&Point::new(-5.0, 100.0)),
            CellId::new(0, 3)
        );
    }

    #[test]
    fn cell_rect_tiles_cover_bounds() {
        let g = grid4();
        let mut total_area = 0.0;
        for cell in g.all_cells() {
            let r = g.cell_rect(cell);
            total_area += r.area();
            assert!(g.bounds().contains_rect(&r));
        }
        assert!((total_area - g.bounds().area()).abs() < 1e-9);
    }

    #[test]
    fn cell_index_roundtrip() {
        let g = grid4();
        for (i, cell) in g.all_cells().enumerate() {
            assert_eq!(g.cell_index(cell), i);
            assert_eq!(g.cell_from_index(i), cell);
        }
    }

    #[test]
    fn cells_overlapping_rect() {
        let g = grid4();
        let cells = g.cells_overlapping(&Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        assert_eq!(
            cells,
            vec![
                CellId::new(0, 0),
                CellId::new(1, 0),
                CellId::new(0, 1),
                CellId::new(1, 1)
            ]
        );
        // rectangle entirely outside the grid
        assert!(g
            .cells_overlapping(&Rect::from_coords(10.0, 10.0, 11.0, 11.0))
            .is_empty());
        // rectangle covering the whole grid
        assert_eq!(
            g.cells_overlapping(&Rect::from_coords(-1.0, -1.0, 5.0, 5.0))
                .len(),
            16
        );
    }

    #[test]
    fn point_cell_consistent_with_cell_rect() {
        let g = UniformGrid::new(Rect::from_coords(-10.0, -5.0, 10.0, 5.0), 8, 16);
        let p = Point::new(3.3, -2.7);
        let cell = g.cell_of(&p).unwrap();
        assert!(g.cell_rect(cell).contains_point(&p));
    }
}
