//! Geographic points.
//!
//! A [`Point`] is a two-dimensional coordinate. Throughout PS2Stream the
//! `x` axis corresponds to longitude and the `y` axis to latitude, matching
//! the paper's `o.loc` (latitude/longitude pair) of a spatio-textual object.

/// Approximate number of kilometres per degree of latitude.
///
/// Used by the query generators to convert the paper's "side length between
/// 1km and 50km" specification into degrees.
pub const KM_PER_DEGREE_LAT: f64 = 111.0;

/// A two-dimensional point (`x` = longitude, `y` = latitude).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Longitude (or generic x coordinate).
    pub x: f64,
    /// Latitude (or generic y coordinate).
    pub y: f64,
}

impl Point {
    /// Creates a new point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Returns the origin `(0, 0)`.
    #[inline]
    pub const fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to another point, in coordinate units.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in hot paths).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Coordinate along dimension `dim` (0 = x, 1 = y).
    ///
    /// # Panics
    /// Panics if `dim > 1`.
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        match dim {
            0 => self.x,
            1 => self.y,
            _ => panic!("Point::coord: dimension {dim} out of range (expected 0 or 1)"),
        }
    }

    /// Returns a copy of this point with the coordinate along `dim` replaced.
    #[inline]
    pub fn with_coord(&self, dim: usize, value: f64) -> Self {
        match dim {
            0 => Self::new(value, self.y),
            1 => Self::new(self.x, value),
            _ => panic!("Point::with_coord: dimension {dim} out of range (expected 0 or 1)"),
        }
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point) -> Self {
        Self::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point) -> Self {
        Self::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns true if every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Self::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

/// Converts a distance in kilometres to degrees of latitude.
#[inline]
pub fn km_to_degrees(km: f64) -> f64 {
    km / KM_PER_DEGREE_LAT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let p = Point::new(1.5, -2.0);
        assert_eq!(p.x, 1.5);
        assert_eq!(p.y, -2.0);
        assert_eq!(p.coord(0), 1.5);
        assert_eq!(p.coord(1), -2.0);
    }

    #[test]
    #[should_panic(expected = "dimension 2 out of range")]
    fn coord_out_of_range_panics() {
        let p = Point::origin();
        let _ = p.coord(2);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.0, 7.5);
        let b = Point::new(4.0, 2.25);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn with_coord_replaces_single_axis() {
        let p = Point::new(1.0, 2.0);
        assert_eq!(p.with_coord(0, 9.0), Point::new(9.0, 2.0));
        assert_eq!(p.with_coord(1, 9.0), Point::new(1.0, 9.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(&b), Point::new(1.0, 3.0));
        assert_eq!(a.max(&b), Point::new(2.0, 5.0));
    }

    #[test]
    fn tuple_conversions_roundtrip() {
        let p: Point = (3.0, 4.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (3.0, 4.0));
    }

    #[test]
    fn km_conversion() {
        assert!((km_to_degrees(111.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
