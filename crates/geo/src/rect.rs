//! Axis-aligned rectangles.
//!
//! An STS query's spatial predicate `q.R` is a rectangle; the dispatcher and
//! worker indexes operate on rectangles and grid cells. [`Rect`] is the
//! shared representation, stored as an inclusive min/max corner pair.

use crate::point::Point;

/// An axis-aligned rectangle defined by its lower-left (`min`) and
/// upper-right (`max`) corners. Boundaries are inclusive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalizing the corners so
    /// that `min` is component-wise below `max`.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a rectangle from raw coordinates `(x_min, y_min, x_max, y_max)`.
    #[inline]
    pub fn from_coords(x_min: f64, y_min: f64, x_max: f64, y_max: f64) -> Self {
        Self::new(Point::new(x_min, y_min), Point::new(x_max, y_max))
    }

    /// A degenerate rectangle covering a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Self { min: p, max: p }
    }

    /// A square centered at `center` with the given side length.
    #[inline]
    pub fn square(center: Point, side: f64) -> Self {
        let h = side.abs() / 2.0;
        Self::from_coords(center.x - h, center.y - h, center.x + h, center.y + h)
    }

    /// The "empty" rectangle: an inverted box that contains nothing and acts
    /// as the identity for [`Rect::union`].
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Returns true if this rectangle is the empty (inverted) rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width along the x axis (0 for the empty rectangle).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along the y axis (0 for the empty rectangle).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (used as the R-tree margin metric).
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Extent (max - min) along dimension `dim` (0 = x, 1 = y).
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        match dim {
            0 => self.width(),
            1 => self.height(),
            _ => panic!("Rect::extent: dimension {dim} out of range (expected 0 or 1)"),
        }
    }

    /// The dimension with the larger extent (ties broken towards x).
    #[inline]
    pub fn longest_dim(&self) -> usize {
        if self.height() > self.width() {
            1
        } else {
            0
        }
    }

    /// Returns true if the point lies inside the rectangle (inclusive).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns true if `other` is fully contained in `self` (inclusive).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && other.min.x >= self.min.x
            && other.max.x <= self.max.x
            && other.min.y >= self.min.y
            && other.max.y <= self.max.y
    }

    /// Returns true if the two rectangles overlap (inclusive of touching
    /// edges). The empty rectangle intersects nothing.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The intersection of two rectangles, or `None` if they do not overlap.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        })
    }

    /// The smallest rectangle containing both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Grows the rectangle to include a point.
    #[inline]
    pub fn expand_to_point(&mut self, p: &Point) {
        if self.is_empty() {
            self.min = *p;
            self.max = *p;
        } else {
            self.min = self.min.min(p);
            self.max = self.max.max(p);
        }
    }

    /// The increase in area required for this rectangle to cover `other`.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Splits the rectangle into two halves at `value` along dimension `dim`.
    ///
    /// The split value is clamped to the rectangle's extent, so both halves
    /// are always valid (possibly degenerate) rectangles.
    pub fn split_at(&self, dim: usize, value: f64) -> (Rect, Rect) {
        let v = match dim {
            0 => value.clamp(self.min.x, self.max.x),
            1 => value.clamp(self.min.y, self.max.y),
            _ => panic!("Rect::split_at: dimension {dim} out of range (expected 0 or 1)"),
        };
        let low = Rect {
            min: self.min,
            max: self.max.with_coord(dim, v),
        };
        let high = Rect {
            min: self.min.with_coord(dim, v),
            max: self.max,
        };
        (low, high)
    }
}

impl Default for Rect {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(Point::new(2.0, 3.0), Point::new(0.0, 1.0));
        assert_eq!(r.min, Point::new(0.0, 1.0));
        assert_eq!(r.max, Point::new(2.0, 3.0));
    }

    #[test]
    fn geometry_accessors() {
        let r = Rect::from_coords(1.0, 2.0, 4.0, 7.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 5.0);
        assert_eq!(r.area(), 15.0);
        assert_eq!(r.margin(), 8.0);
        assert_eq!(r.center(), Point::new(2.5, 4.5));
        assert_eq!(r.longest_dim(), 1);
        assert_eq!(r.extent(0), 3.0);
        assert_eq!(r.extent(1), 5.0);
    }

    #[test]
    fn empty_rect_properties() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains_point(&Point::origin()));
        assert!(!e.intersects(&unit()));
        assert_eq!(e.union(&unit()), unit());
    }

    #[test]
    fn contains_point_boundaries_inclusive() {
        let r = unit();
        assert!(r.contains_point(&Point::new(0.0, 0.0)));
        assert!(r.contains_point(&Point::new(1.0, 1.0)));
        assert!(r.contains_point(&Point::new(0.5, 0.5)));
        assert!(!r.contains_point(&Point::new(1.0001, 0.5)));
        assert!(!r.contains_point(&Point::new(0.5, -0.0001)));
    }

    #[test]
    fn contains_rect() {
        let outer = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::from_coords(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&Rect::empty()));
    }

    #[test]
    fn intersects_and_intersection() {
        let a = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        let b = Rect::from_coords(1.0, 1.0, 3.0, 3.0);
        let c = Rect::from_coords(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(
            a.intersection(&b),
            Some(Rect::from_coords(1.0, 1.0, 2.0, 2.0))
        );
        assert_eq!(a.intersection(&c), None);
        // touching edges count as intersecting
        let d = Rect::from_coords(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_coords(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, Rect::from_coords(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn enlargement() {
        let a = unit();
        let b = Rect::from_coords(0.0, 0.0, 2.0, 1.0);
        assert_eq!(a.enlargement(&b), 1.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn expand_to_point() {
        let mut r = Rect::empty();
        r.expand_to_point(&Point::new(1.0, 2.0));
        assert_eq!(r, Rect::from_point(Point::new(1.0, 2.0)));
        r.expand_to_point(&Point::new(-1.0, 5.0));
        assert_eq!(r, Rect::from_coords(-1.0, 2.0, 1.0, 5.0));
    }

    #[test]
    fn split_at_partitions_area() {
        let r = Rect::from_coords(0.0, 0.0, 4.0, 2.0);
        let (lo, hi) = r.split_at(0, 1.0);
        assert_eq!(lo, Rect::from_coords(0.0, 0.0, 1.0, 2.0));
        assert_eq!(hi, Rect::from_coords(1.0, 0.0, 4.0, 2.0));
        assert!((lo.area() + hi.area() - r.area()).abs() < 1e-12);
        // out-of-range split value is clamped
        let (lo, hi) = r.split_at(1, 100.0);
        assert_eq!(lo, r);
        assert_eq!(hi.area(), 0.0);
    }

    #[test]
    fn square_constructor() {
        let s = Rect::square(Point::new(1.0, 1.0), 2.0);
        assert_eq!(s, Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        assert_eq!(s.center(), Point::new(1.0, 1.0));
    }
}
