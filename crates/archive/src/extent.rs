//! Geographic extents and raster cell coordinates.

use std::fmt;

/// A raster cell coordinate: `(row, col)` in image space.
///
/// Rows grow downwards (south), columns grow rightwards (east), matching the
/// usual geo-raster convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CellCoord {
    /// Row index (0 at the top edge).
    pub row: usize,
    /// Column index (0 at the left edge).
    pub col: usize,
}

impl CellCoord {
    /// Creates a cell coordinate.
    pub fn new(row: usize, col: usize) -> Self {
        CellCoord { row, col }
    }
}

impl fmt::Display for CellCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

impl From<(usize, usize)> for CellCoord {
    fn from((row, col): (usize, usize)) -> Self {
        CellCoord { row, col }
    }
}

/// An axis-aligned geographic extent in map units.
///
/// `west < east` and `south < north` are maintained as invariants by
/// [`GeoExtent::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoExtent {
    west: f64,
    south: f64,
    east: f64,
    north: f64,
}

impl GeoExtent {
    /// Creates an extent, normalizing the corner order.
    pub fn new(west: f64, south: f64, east: f64, north: f64) -> Self {
        GeoExtent {
            west: west.min(east),
            south: south.min(north),
            east: west.max(east),
            north: south.max(north),
        }
    }

    /// A unit extent `[0,1] x [0,1]`, useful for synthetic datasets.
    pub fn unit() -> Self {
        GeoExtent::new(0.0, 0.0, 1.0, 1.0)
    }

    /// Western (minimum x) edge.
    pub fn west(&self) -> f64 {
        self.west
    }

    /// Southern (minimum y) edge.
    pub fn south(&self) -> f64 {
        self.south
    }

    /// Eastern (maximum x) edge.
    pub fn east(&self) -> f64 {
        self.east
    }

    /// Northern (maximum y) edge.
    pub fn north(&self) -> f64 {
        self.north
    }

    /// Width in map units.
    pub fn width(&self) -> f64 {
        self.east - self.west
    }

    /// Height in map units.
    pub fn height(&self) -> f64 {
        self.north - self.south
    }

    /// Whether two extents overlap (sharing an edge counts).
    pub fn intersects(&self, other: &GeoExtent) -> bool {
        self.west <= other.east
            && other.west <= self.east
            && self.south <= other.north
            && other.south <= self.north
    }

    /// Maps a raster cell in a `rows x cols` grid over this extent to the
    /// map-space centre of that cell.
    pub fn cell_center(&self, cell: CellCoord, rows: usize, cols: usize) -> (f64, f64) {
        let cw = self.width() / cols as f64;
        let ch = self.height() / rows as f64;
        let x = self.west + (cell.col as f64 + 0.5) * cw;
        // row 0 is the northern edge.
        let y = self.north - (cell.row as f64 + 0.5) * ch;
        (x, y)
    }
}

impl Default for GeoExtent {
    fn default() -> Self {
        GeoExtent::unit()
    }
}

impl fmt::Display for GeoExtent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}] x [{}, {}]",
            self.west, self.east, self.south, self.north
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_normalizes_corners() {
        let e = GeoExtent::new(10.0, 5.0, -10.0, -5.0);
        assert_eq!(e.west(), -10.0);
        assert_eq!(e.east(), 10.0);
        assert_eq!(e.south(), -5.0);
        assert_eq!(e.north(), 5.0);
        assert_eq!(e.width(), 20.0);
        assert_eq!(e.height(), 10.0);
    }

    #[test]
    fn contains_and_intersects() {
        let a = GeoExtent::new(0.0, 0.0, 2.0, 2.0);
        let b = GeoExtent::new(1.0, 1.0, 3.0, 3.0);
        let c = GeoExtent::new(5.0, 5.0, 6.0, 6.0);
        let edge = GeoExtent::new(2.0, 0.0, 3.0, 1.0);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
        assert!(a.intersects(&edge), "sharing an edge counts");
    }

    #[test]
    fn cell_center_maps_rows_north_down() {
        let e = GeoExtent::new(0.0, 0.0, 10.0, 10.0);
        // 10x10 grid over a 10x10 extent: unit cells.
        let (x, y) = e.cell_center(CellCoord::new(0, 0), 10, 10);
        assert!((x - 0.5).abs() < 1e-12);
        assert!((y - 9.5).abs() < 1e-12);
        let (x, y) = e.cell_center(CellCoord::new(9, 9), 10, 10);
        assert!((x - 9.5).abs() < 1e-12);
        assert!((y - 0.5).abs() < 1e-12);
    }
}
