//! GIS vector layers: point features with typed attributes.
//!
//! Demographic layers and house/well locations enter the paper's models as
//! point data (houses at risk of HPS, candidate wells). A small typed
//! attribute map keeps the layer self-describing without pulling in a full
//! feature-store dependency.

use crate::extent::GeoExtent;
use std::collections::BTreeMap;
use std::fmt;

/// An attribute value attached to a feature.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AttrValue {
    /// Floating point attribute.
    Float(f64),
    /// Integer attribute.
    Int(i64),
    /// Boolean attribute.
    Bool(bool),
    /// Free-text attribute.
    Text(String),
}

impl AttrValue {
    /// The value as f64, when numeric (bools map to 0/1).
    fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            AttrValue::Int(v) => Some(*v as f64),
            AttrValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            AttrValue::Text(_) => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Text(t) => write!(f, "{t}"),
        }
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_owned())
    }
}

/// A point feature: location plus attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFeature {
    /// Map-space x coordinate.
    pub x: f64,
    /// Map-space y coordinate.
    pub y: f64,
    attrs: BTreeMap<String, AttrValue>,
}

impl PointFeature {
    /// Creates a feature at `(x, y)` with no attributes.
    pub fn new(x: f64, y: f64) -> Self {
        PointFeature {
            x,
            y,
            attrs: BTreeMap::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Looks up an attribute.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }

    /// Numeric view of an attribute.
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        self.attrs.get(key).and_then(AttrValue::as_f64)
    }

    /// Iterator over attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &AttrValue)> + '_ {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Euclidean distance to another feature.
    pub fn distance(&self, other: &PointFeature) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A named collection of point features.
///
/// # Examples
///
/// ```
/// use mbir_archive::gis::{PointFeature, PointLayer};
///
/// let mut layer = PointLayer::new("houses");
/// layer.push(PointFeature::new(0.2, 0.3).with_attr("population", 4i64));
/// assert_eq!(layer.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointLayer {
    name: String,
    features: Vec<PointFeature>,
}

impl PointLayer {
    /// Creates an empty layer.
    pub fn new(name: impl Into<String>) -> Self {
        PointLayer {
            name: name.into(),
            features: Vec::new(),
        }
    }

    /// The layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a feature.
    pub fn push(&mut self, feature: PointFeature) {
        self.features.push(feature);
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the layer has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Iterator over features.
    pub fn iter(&self) -> std::slice::Iter<'_, PointFeature> {
        self.features.iter()
    }

    /// Features inside a geographic extent.
    pub fn within(&self, extent: &GeoExtent) -> Vec<&PointFeature> {
        self.features
            .iter()
            .filter(|p| extent.contains(p.x, p.y))
            .collect()
    }

    /// Features within `radius` of `(x, y)`.
    pub fn near(&self, x: f64, y: f64, radius: f64) -> Vec<&PointFeature> {
        let probe = PointFeature::new(x, y);
        self.features
            .iter()
            .filter(|p| p.distance(&probe) <= radius)
            .collect()
    }

    /// The bounding extent of all features (`None` when empty).
    pub fn extent(&self) -> Option<GeoExtent> {
        let first = self.features.first()?;
        let mut e = GeoExtent::new(first.x, first.y, first.x, first.y);
        for p in &self.features[1..] {
            e = e.union(&GeoExtent::new(p.x, p.y, p.x, p.y));
        }
        Some(e)
    }
}

impl FromIterator<PointFeature> for PointLayer {
    fn from_iter<I: IntoIterator<Item = PointFeature>>(iter: I) -> Self {
        PointLayer {
            name: String::new(),
            features: iter.into_iter().collect(),
        }
    }
}

impl Extend<PointFeature> for PointLayer {
    fn extend<I: IntoIterator<Item = PointFeature>>(&mut self, iter: I) {
        self.features.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_roundtrip() {
        let p = PointFeature::new(1.0, 2.0)
            .with_attr("pop", 120i64)
            .with_attr("bushy", true)
            .with_attr("name", "farm");
        assert_eq!(p.attr_f64("pop"), Some(120.0));
        assert_eq!(p.attr_f64("bushy"), Some(1.0));
        assert_eq!(p.attr_f64("name"), None);
        assert_eq!(p.attr("missing"), None);
        assert_eq!(p.attrs().count(), 3);
    }

    #[test]
    fn spatial_queries() {
        let mut layer = PointLayer::new("test");
        layer.push(PointFeature::new(0.0, 0.0));
        layer.push(PointFeature::new(5.0, 5.0));
        layer.push(PointFeature::new(10.0, 0.0));
        let inside = layer.within(&GeoExtent::new(-1.0, -1.0, 6.0, 6.0));
        assert_eq!(inside.len(), 2);
        let near = layer.near(0.0, 0.0, 7.2);
        assert_eq!(near.len(), 2);
        let near = layer.near(0.0, 0.0, 0.5);
        assert_eq!(near.len(), 1);
    }

    #[test]
    fn extent_covers_all() {
        let layer: PointLayer = vec![
            PointFeature::new(2.0, 3.0),
            PointFeature::new(-1.0, 7.0),
            PointFeature::new(4.0, 0.0),
        ]
        .into_iter()
        .collect();
        let e = layer.extent().unwrap();
        assert_eq!(e, GeoExtent::new(-1.0, 0.0, 4.0, 7.0));
        assert!(PointLayer::new("empty").extent().is_none());
    }

    #[test]
    fn distance_is_euclidean() {
        let a = PointFeature::new(0.0, 0.0);
        let b = PointFeature::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
