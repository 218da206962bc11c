//! Points in the `xy` plane and the distance metrics of the paper.
//!
//! The paper (Section 3.1) works on the plane with a user-specified
//! tolerance `eps` under the **max-distance** (L-infinity) metric:
//! `d(p, q) = max(|px - qx|, |py - qy|)`. The framework applies to any
//! `Lp` metric, so the Euclidean distance is provided as well (it is used
//! for path *lengths* when computing the score metric of Section 3.1).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point `p = (x, y)` in the plane. Coordinates are in meters.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting coordinate, meters.
    pub x: f64,
    /// Northing coordinate, meters.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    ///
    /// Debug builds assert that both coordinates are finite; the index and
    /// filter structures rely on total ordering of coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        debug_assert!(x.is_finite() && y.is_finite(), "non-finite point ({x}, {y})");
        Point { x, y }
    }

    /// Max-distance (L-infinity) between two points: the metric used for
    /// the tolerance test throughout the paper.
    #[inline]
    pub fn dist_linf(&self, other: &Point) -> f64 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Euclidean (L2) distance; used for motion-path lengths in the score.
    #[inline]
    pub fn dist_l2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx.hypot(dy)
    }

    /// General `Lp` distance for `p >= 1`. `p = 1` is Manhattan, `p = 2`
    /// Euclidean; `f64::INFINITY` yields the max-distance.
    pub fn dist_lp(&self, other: &Point, p: f64) -> f64 {
        assert!(p >= 1.0, "Lp distance requires p >= 1, got {p}");
        if p.is_infinite() {
            return self.dist_linf(other);
        }
        let dx = (self.x - other.x).abs();
        let dy = (self.y - other.y).abs();
        (dx.powf(p) + dy.powf(p)).powf(1.0 / p)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point { x: self.x.min(other.x), y: self.y.min(other.y) }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point { x: self.x.max(other.x), y: self.y.max(other.y) }
    }

    /// Linear interpolation `self + lambda * (other - self)`.
    ///
    /// For `lambda` in `[0, 1]` this walks the directed segment
    /// `self -> other`, matching the paper's
    /// `p(lambda) = pa + lambda (pb - pa)` parameterization.
    #[inline]
    pub fn lerp(&self, other: &Point, lambda: f64) -> Point {
        Point { x: self.x + lambda * (other.x - self.x), y: self.y + lambda * (other.y - self.y) }
    }

    /// Dot product when viewing the points as vectors.
    #[inline]
    pub fn dot(&self, other: &Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Euclidean norm when viewing the point as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Quantizes the point onto a `grain`-sized lattice. Used to derive
    /// exact-match keys for coordinator-created vertices so that hash
    /// lookups are immune to floating-point noise introduced by
    /// serialization round-trips.
    #[inline]
    pub fn quantize(&self, grain: f64) -> (i64, i64) {
        debug_assert!(grain > 0.0);
        ((self.x / grain).round() as i64, (self.y / grain).round() as i64)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point { x: self.x + rhs.x, y: self.y + rhs.y }
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point { x: self.x - rhs.x, y: self.y - rhs.y }
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point { x: self.x * rhs, y: self.y * rhs }
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point { x: self.x / rhs, y: self.y / rhs }
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point { x: -self.x, y: -self.y }
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linf_distance_is_max_of_axis_gaps() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, -4.0);
        assert_eq!(a.dist_linf(&b), 4.0);
        assert_eq!(b.dist_linf(&a), 4.0);
    }

    #[test]
    fn l2_distance_matches_pythagoras() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.dist_l2(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lp_distance_limits() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist_lp(&b, 1.0) - 7.0).abs() < 1e-12);
        assert!((a.dist_lp(&b, 2.0) - 5.0).abs() < 1e-12);
        assert_eq!(a.dist_lp(&b, f64::INFINITY), 4.0);
        // Large p approaches the max-distance from above.
        assert!((a.dist_lp(&b, 64.0) - 4.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn lp_distance_rejects_p_below_one() {
        let _ = Point::ORIGIN.dist_lp(&Point::new(1.0, 1.0), 0.5);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(-2.5, 7.1);
        let b = Point::new(9.0, -0.5);
        assert_eq!(a.dist_linf(&b), b.dist_linf(&a));
        assert_eq!(a.dist_linf(&a), 0.0);
        assert_eq!(a.dist_l2(&a), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -6.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, -3.0));
    }

    #[test]
    fn component_min_max() {
        let a = Point::new(1.0, 9.0);
        let b = Point::new(5.0, 2.0);
        assert_eq!(a.min(&b), Point::new(1.0, 2.0));
        assert_eq!(a.max(&b), Point::new(5.0, 9.0));
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(4.0, 1.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn dot_and_norm() {
        let a = Point::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(&Point::new(2.0, 0.5)), 8.0);
    }

    #[test]
    fn quantize_snaps_to_lattice() {
        let a = Point::new(10.04, -3.51);
        assert_eq!(a.quantize(0.1), (100, -35));
        // Nearby points with sub-grain noise map to the same key.
        let b = Point::new(10.0401, -3.5099);
        assert_eq!(a.quantize(0.1), b.quantize(0.1));
    }

    #[test]
    fn from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }
}
