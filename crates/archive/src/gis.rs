//! GIS vector layers: point features with typed attributes.
//!
//! Demographic layers and house/well locations enter the paper's models as
//! point data (houses at risk of HPS, candidate wells). A small typed
//! attribute map keeps the layer self-describing without pulling in a full
//! feature-store dependency.

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

    /// Numeric view of an attribute.
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        self.attrs.get(key).and_then(AttrValue::as_f64)
    }
}

/// A collection of point features.
///
/// # Examples
///
/// ```
/// use mbir_archive::gis::{PointFeature, PointLayer};
///
/// let mut layer = PointLayer::default();
/// layer.push(PointFeature::new(0.2, 0.3).with_attr("population", 4i64));
/// assert_eq!(layer.iter().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointLayer {
    features: Vec<PointFeature>,
}

impl PointLayer {
    /// Adds a feature.
    pub fn push(&mut self, feature: PointFeature) {
        self.features.push(feature);
    }

    /// Iterator over features.
    pub fn iter(&self) -> std::slice::Iter<'_, PointFeature> {
        self.features.iter()
    }
}

impl FromIterator<PointFeature> for PointLayer {
    fn from_iter<I: IntoIterator<Item = PointFeature>>(iter: I) -> Self {
        PointLayer {
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
        assert_eq!(p.attr_f64("missing"), None);
    }
}
