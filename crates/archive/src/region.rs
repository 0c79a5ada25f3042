//! Polygon regions and demographic weight layers.
//!
//! §4.1 weighs each location's error cost by "the relative importance of
//! the risk at that location, such as the population of the location".
//! This module supplies the missing piece: vector regions (counties,
//! management zones) carrying attributes, rasterized into per-cell weight
//! grids aligned with the model's risk surface.

use crate::extent::GeoExtent;
use crate::grid::Grid2;
use std::fmt;

/// A simple polygon in map coordinates (implicitly closed; no holes).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<(f64, f64)>,
}

impl Polygon {
    /// An axis-aligned rectangle polygon.
    pub fn rectangle(extent: &GeoExtent) -> Self {
        Polygon {
            vertices: vec![
                (extent.west(), extent.south()),
                (extent.east(), extent.south()),
                (extent.east(), extent.north()),
                (extent.west(), extent.north()),
            ],
        }
    }

    /// Point-in-polygon by the even–odd (ray casting) rule. Boundary points
    /// may fall on either side, which is acceptable for rasterization.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (xi, yi) = self.vertices[i];
            let (xj, yj) = self.vertices[j];
            if ((yi > y) != (yj > y)) && (x < (xj - xi) * (y - yi) / (yj - yi) + xi) {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// The bounding extent.
    pub fn extent(&self) -> GeoExtent {
        let (mut w, mut s) = self.vertices[0];
        let (mut e, mut n) = self.vertices[0];
        for &(x, y) in &self.vertices[1..] {
            w = w.min(x);
            e = e.max(x);
            s = s.min(y);
            n = n.max(y);
        }
        GeoExtent::new(w, s, e, n)
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Polygon[{} vertices, {}]",
            self.vertices.len(),
            self.extent()
        )
    }
}

/// A named region: polygon plus a scalar weight (population, priority).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name.
    pub name: String,
    /// Region geometry.
    pub polygon: Polygon,
    /// Weight density applied to cells inside (e.g. persons per cell).
    pub weight: f64,
}

/// A set of regions rasterizable into a §4.1 weight surface.
#[derive(Debug, Clone, Default)]
pub struct RegionLayer {
    regions: Vec<Region>,
    background_weight: f64,
}

impl RegionLayer {
    /// Creates an empty layer with background weight 0.
    pub fn new() -> Self {
        RegionLayer::default()
    }

    /// Sets the weight of cells outside every region (builder style).
    pub fn with_background(mut self, weight: f64) -> Self {
        self.background_weight = weight.max(0.0);
        self
    }

    /// Adds a region.
    pub fn push(&mut self, region: Region) {
        self.regions.push(region);
    }

    /// Rasterizes into a `rows x cols` weight grid over `extent`:
    /// each cell takes the weight of the *last* containing region
    /// (later-added regions overlay earlier ones), or the background.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn rasterize(&self, extent: &GeoExtent, rows: usize, cols: usize) -> Grid2<f64> {
        assert!(rows > 0 && cols > 0, "raster dimensions must be non-zero");
        Grid2::from_fn(rows, cols, |r, c| {
            let (x, y) = extent.cell_center(crate::extent::CellCoord::new(r, c), rows, cols);
            self.regions
                .iter()
                .rev()
                .find(|region| region.polygon.contains(x, y))
                .map(|region| region.weight)
                .unwrap_or(self.background_weight)
        })
        .with_extent(*extent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Polygon {
        Polygon {
            vertices: vec![(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)],
        }
    }

    #[test]
    fn point_in_triangle() {
        let t = triangle();
        assert!(t.contains(1.0, 1.0));
        assert!(!t.contains(3.0, 3.0));
        assert!(!t.contains(-0.1, 0.5));
        assert!(!t.contains(5.0, 0.0));
    }

    #[test]
    fn point_in_concave_polygon() {
        // A "U" shape: the notch must be outside.
        let u = Polygon {
            vertices: vec![
                (0.0, 0.0),
                (6.0, 0.0),
                (6.0, 6.0),
                (4.0, 6.0),
                (4.0, 2.0),
                (2.0, 2.0),
                (2.0, 6.0),
                (0.0, 6.0),
            ],
        };
        assert!(u.contains(1.0, 3.0), "left arm");
        assert!(u.contains(5.0, 3.0), "right arm");
        assert!(u.contains(3.0, 1.0), "base");
        assert!(!u.contains(3.0, 4.0), "notch is outside");
    }

    #[test]
    fn rectangle_polygon_matches_extent() {
        let e = GeoExtent::new(1.0, 2.0, 5.0, 8.0);
        let p = Polygon::rectangle(&e);
        assert!(p.contains(3.0, 5.0));
        assert!(!p.contains(0.0, 5.0));
        assert_eq!(p.extent(), e);
    }

    #[test]
    fn rasterize_weights_with_overlay() {
        let extent = GeoExtent::new(0.0, 0.0, 10.0, 10.0);
        let mut layer = RegionLayer::new().with_background(1.0);
        layer.push(Region {
            name: "county".into(),
            polygon: Polygon::rectangle(&GeoExtent::new(0.0, 0.0, 10.0, 5.0)),
            weight: 10.0,
        });
        layer.push(Region {
            name: "city".into(),
            polygon: Polygon::rectangle(&GeoExtent::new(0.0, 0.0, 5.0, 2.5)),
            weight: 100.0,
        });
        let weights = layer.rasterize(&extent, 8, 8);
        // Top row (north) is background.
        assert_eq!(*weights.at(0, 0), 1.0);
        // Bottom-left cell is the city overlay, not the county.
        assert_eq!(*weights.at(7, 0), 100.0);
        // Bottom-right is county only.
        assert_eq!(*weights.at(7, 7), 10.0);
    }
}
