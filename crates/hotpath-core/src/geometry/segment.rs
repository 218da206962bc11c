//! Directed line segments.
//!
//! A motion path is a *directed* segment `pa -> pb` (Section 3.1); the
//! DP competitor additionally needs point-to-segment distances under the
//! tolerance metric to validate opening-window simplifications.

use super::point::Point;
use super::rect::Rect;

/// A directed line segment from `a` to `b` (possibly degenerate).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates the directed segment `a -> b`.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Euclidean length; motion-path *score* is hotness times this length
    /// (Section 3.1).
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist_l2(&self.b)
    }

    /// Point at parameter `lambda` in `[0, 1]`:
    /// `p(lambda) = a + lambda (b - a)`.
    #[inline]
    pub fn point_at(&self, lambda: f64) -> Point {
        self.a.lerp(&self.b, lambda)
    }

    /// The segment with reversed direction.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment { a: self.b, b: self.a }
    }

    /// Minimum bounding box.
    #[inline]
    pub fn mbb(&self) -> Rect {
        Rect::from_corners(self.a, self.b)
    }

    /// True when the segment has zero length.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// Minimum Euclidean distance from `p` to the segment.
    pub fn dist_l2_point(&self, p: &Point) -> f64 {
        self.closest_lambda_l2(p)
            .map(|l| self.point_at(l).dist_l2(p))
            .unwrap_or_else(|| self.a.dist_l2(p))
    }

    /// Minimum **max-distance** (L-infinity) from `p` to the segment:
    /// `min over lambda in [0,1] of max(|x(lambda) - px|, |y(lambda) - py|)`.
    ///
    /// Each axis gap is a V-shaped (convex, piecewise-linear) function of
    /// `lambda`; their maximum is convex and piecewise-linear, so the
    /// minimum is attained at `lambda in {0, 1}`, at an axis-gap zero, or
    /// where the two gap lines cross. We evaluate all O(1) candidates.
    pub fn dist_linf_point(&self, p: &Point) -> f64 {
        let dx = self.b.x - self.a.x;
        let dy = self.b.y - self.a.y;
        let fx0 = self.a.x - p.x; // x-gap at lambda = 0 (signed)
        let fy0 = self.a.y - p.y; // y-gap at lambda = 0 (signed)

        let mut candidates = [0.0_f64, 1.0, f64::NAN, f64::NAN, f64::NAN, f64::NAN];
        let mut n = 2;
        // Zero of the signed x gap: fx0 + lambda*dx = 0.
        if dx != 0.0 {
            candidates[n] = -fx0 / dx;
            n += 1;
        }
        if dy != 0.0 {
            candidates[n] = -fy0 / dy;
            n += 1;
        }
        // Crossings |fx| = |fy| happen where fx = fy or fx = -fy.
        let d_sum = dx + dy;
        if d_sum != 0.0 {
            candidates[n] = -(fx0 + fy0) / d_sum;
            n += 1;
        }
        let d_diff = dx - dy;
        if d_diff != 0.0 {
            candidates[n] = -(fx0 - fy0) / d_diff;
            n += 1;
        }

        let mut best = f64::INFINITY;
        for &l in &candidates[..n] {
            if !l.is_finite() {
                continue;
            }
            let l = l.clamp(0.0, 1.0);
            let gx = (fx0 + l * dx).abs();
            let gy = (fy0 + l * dy).abs();
            best = best.min(gx.max(gy));
        }
        best
    }

    /// Parameter of the Euclidean-closest point, clamped to `[0, 1]`, or
    /// `None` for degenerate segments.
    #[inline]
    pub fn closest_lambda_l2(&self, p: &Point) -> Option<f64> {
        let d = self.b - self.a;
        let len_sq = d.dot(&d);
        if len_sq == 0.0 {
            return None;
        }
        Some(((*p - self.a).dot(&d) / len_sq).clamp(0.0, 1.0))
    }

    /// True when every point of the segment is within L-infinity distance
    /// `eps` of the corresponding point (same `lambda`) of `other`.
    ///
    /// This is the *synchronized* proximity used by motion paths: an
    /// object moving along `other` stays within tolerance of `self` when
    /// both are traversed over the same interval at constant speed.
    /// Because the gap between the two parameterized lines is an affine
    /// function of `lambda`, it suffices to check the endpoints.
    #[inline]
    pub fn within_sync_linf(&self, other: &Segment, eps: f64) -> bool {
        self.a.dist_linf(&other.a) <= eps && self.b.dist_linf(&other.b) <= eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_and_interp() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.point_at(0.0), s.a);
        assert_eq!(s.point_at(1.0), s.b);
        assert_eq!(s.point_at(0.5), Point::new(1.5, 2.0));
    }

    #[test]
    fn mbb_covers_endpoints() {
        let s = seg(4.0, 1.0, 0.0, 3.0);
        let mbb = s.mbb();
        assert!(mbb.contains(&s.a));
        assert!(mbb.contains(&s.b));
        assert_eq!(mbb.lo(), Point::new(0.0, 1.0));
        assert_eq!(mbb.hi(), Point::new(4.0, 3.0));
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let s = seg(1.0, 2.0, 3.0, 4.0);
        let r = s.reversed();
        assert_eq!(r.a, s.b);
        assert_eq!(r.b, s.a);
        assert_eq!(r.length(), s.length());
    }

    #[test]
    fn l2_point_distance_interior_and_endpoint() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Perpendicular drop in the interior.
        assert!((s.dist_l2_point(&Point::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        // Beyond the end: distance to endpoint.
        assert!((s.dist_l2_point(&Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        let d = seg(1.0, 1.0, 1.0, 1.0);
        assert!((d.dist_l2_point(&Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn linf_point_distance_axis_aligned() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Directly above the interior: only the y gap matters.
        assert!((s.dist_linf_point(&Point::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        // Past the right end: x gap 2, y gap 3 at the closest endpoint,
        // but moving lambda back trades them; optimum still max(0,3)=3
        // reached at lambda=1 (x gap 2 < 3).
        assert!((s.dist_linf_point(&Point::new(12.0, 3.0)) - 3.0).abs() < 1e-12);
        // Far past the end, x gap dominates.
        assert!((s.dist_linf_point(&Point::new(20.0, 1.0)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn linf_point_distance_diagonal() {
        let s = seg(0.0, 0.0, 10.0, 10.0);
        // Point on the segment.
        assert_eq!(s.dist_linf_point(&Point::new(5.0, 5.0)), 0.0);
        // Off-diagonal point (2, 8): gaps |lambda*10-2| and |lambda*10-8|
        // cross at lambda=0.5 with value 3.
        assert!((s.dist_linf_point(&Point::new(2.0, 8.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn linf_matches_brute_force_scan() {
        let cases = [
            (seg(0.0, 0.0, 7.0, 3.0), Point::new(2.0, 5.0)),
            (seg(-3.0, 4.0, 6.0, -2.0), Point::new(0.0, 0.0)),
            (seg(1.0, 1.0, 1.0, 9.0), Point::new(4.0, 4.0)), // vertical
            (seg(5.0, 2.0, -5.0, 2.0), Point::new(0.0, -1.0)), // horizontal
            (seg(2.0, 2.0, 2.0, 2.0), Point::new(5.0, 3.0)), // degenerate
        ];
        for (s, p) in cases {
            let analytic = s.dist_linf_point(&p);
            let mut brute = f64::INFINITY;
            for i in 0..=10_000 {
                let l = i as f64 / 10_000.0;
                brute = brute.min(s.point_at(l).dist_linf(&p));
            }
            assert!(
                (analytic - brute).abs() < 1e-3,
                "mismatch for {s:?} {p:?}: analytic={analytic} brute={brute}"
            );
            // The analytic answer must never exceed the sampled one by
            // more than sampling error, and never be larger.
            assert!(analytic <= brute + 1e-9);
        }
    }

    #[test]
    fn zero_length_segment_distances() {
        let d = seg(2.0, 3.0, 2.0, 3.0);
        assert!(d.is_degenerate());
        assert_eq!(d.length(), 0.0);
        // Both metrics collapse to point distance.
        assert_eq!(d.dist_l2_point(&Point::new(2.0, 3.0)), 0.0);
        assert_eq!(d.dist_linf_point(&Point::new(2.0, 3.0)), 0.0);
        assert!((d.dist_l2_point(&Point::new(5.0, 7.0)) - 5.0).abs() < 1e-12);
        assert_eq!(d.dist_linf_point(&Point::new(5.0, 7.0)), 4.0);
        // No closest parameter exists on a degenerate segment, and every
        // interpolation parameter yields the single point.
        assert_eq!(d.closest_lambda_l2(&Point::new(0.0, 0.0)), None);
        assert_eq!(d.point_at(0.0), d.a);
        assert_eq!(d.point_at(0.7), d.a);
        assert_eq!(d.point_at(1.0), d.a);
        // MBB of a degenerate segment is the point rect.
        assert!(d.mbb().is_degenerate());
    }

    #[test]
    fn degenerate_axis_segments() {
        // Zero extent along x only (vertical segment).
        let v = seg(1.0, 0.0, 1.0, 10.0);
        assert_eq!(v.dist_linf_point(&Point::new(4.0, 5.0)), 3.0);
        // Beyond the top end both gaps matter: x gap 3, y gap 2 -> 3.
        assert_eq!(v.dist_linf_point(&Point::new(4.0, 12.0)), 3.0);
        // Zero extent along y only (horizontal segment).
        let h = seg(0.0, 2.0, 10.0, 2.0);
        assert_eq!(h.dist_linf_point(&Point::new(5.0, 6.0)), 4.0);
        assert_eq!(h.dist_linf_point(&Point::new(-3.0, 2.0)), 3.0);
    }

    #[test]
    fn sync_proximity_with_degenerate_segments() {
        let stay = seg(1.0, 1.0, 1.0, 1.0);
        let drift = seg(1.0, 1.0, 1.5, 1.0);
        assert!(stay.within_sync_linf(&drift, 0.5));
        assert!(!stay.within_sync_linf(&drift, 0.4));
        assert!(stay.within_sync_linf(&stay, 0.0));
    }

    #[test]
    fn synchronized_proximity_checks_endpoints_only() {
        let a = seg(0.0, 0.0, 10.0, 0.0);
        let b = seg(0.5, 0.5, 10.5, 0.5);
        assert!(a.within_sync_linf(&b, 0.5));
        assert!(!a.within_sync_linf(&b, 0.4));
        // Shifted end pushes the affine gap beyond eps at lambda=1 even
        // though the start is identical.
        let c = seg(0.0, 0.0, 10.0, 2.0);
        assert!(!a.within_sync_linf(&c, 1.0));
        assert!(a.within_sync_linf(&c, 2.0));
    }
}
