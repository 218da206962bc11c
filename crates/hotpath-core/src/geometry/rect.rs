//! Axis-aligned rectangles.
//!
//! Rectangles are the workhorse of the paper: the *tolerance square*
//! (side `2 eps` around a measurement), the *Final Safe Area* (FSA) that
//! closes an SSA, the cells of the coordinator's grid index, and the
//! FSA-overlap regions examined by the SinglePath strategy are all
//! axis-aligned rectangles under the max-distance metric.

use super::point::Point;

/// A non-empty axis-aligned rectangle `[lo.x, hi.x] x [lo.y, hi.y]`.
///
/// Degenerate rectangles (zero width and/or height) are allowed: the SSA
/// starts as the degenerate rectangle at its apex point, and tolerance
/// intervals may collapse to points when uncertainty consumes the whole
/// tolerance budget.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    /// Panics if `lo` exceeds `hi` on either axis (use
    /// [`Rect::from_corners`] for unordered input).
    #[inline]
    pub fn new(lo: Point, hi: Point) -> Self {
        assert!(lo.x <= hi.x && lo.y <= hi.y, "rect corners out of order: lo={lo:?} hi={hi:?}");
        Rect { lo, hi }
    }

    /// Creates a rectangle from two arbitrary opposite corners.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect { lo: a.min(&b), hi: a.max(&b) }
    }

    /// The degenerate rectangle containing exactly `p`.
    #[inline]
    pub fn point(p: Point) -> Self {
        Rect { lo: p, hi: p }
    }

    /// The tolerance square of the paper: the L-infinity ball of radius
    /// `eps` centered at `p`, i.e. the square of side `2 eps`.
    #[inline]
    pub fn tolerance_square(p: Point, eps: f64) -> Self {
        debug_assert!(eps >= 0.0, "negative tolerance {eps}");
        let d = Point::new(eps, eps);
        Rect { lo: p - d, hi: p + d }
    }

    /// Lower-left corner.
    #[inline]
    pub fn lo(&self) -> Point {
        self.lo
    }

    /// Upper-right corner.
    #[inline]
    pub fn hi(&self) -> Point {
        self.hi
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of mass; the SinglePath strategy uses the centroid of the
    /// hottest overlap region as a generated candidate vertex (Alg. 2
    /// line 33).
    #[inline]
    pub fn centroid(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// True when the rectangle has zero width and height.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.lo == self.hi
    }

    /// Closed-set containment test.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// True when `other` lies entirely within `self` (closed sets).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// Closed-set intersection test (touching rectangles intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Intersection of two rectangles, or `None` when disjoint.
    ///
    /// This is the core SSA update of RayTrace (Alg. 1 lines 31-34):
    /// `l(te) <- max(l(ti), li)`, `u(te) <- min(u(ti), ui)` component-wise.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let lo = self.lo.max(&other.lo);
        let hi = self.hi.min(&other.hi);
        if lo.x <= hi.x && lo.y <= hi.y {
            Some(Rect { lo, hi })
        } else {
            None
        }
    }

    /// Smallest rectangle covering both inputs (bounding-box union).
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect { lo: self.lo.min(&other.lo), hi: self.hi.max(&other.hi) }
    }

    /// Rectangle grown by `margin` on every side. The DP competitor
    /// expands each candidate segment's MBB by the tolerance value
    /// (Section 6, "The DP Method").
    #[inline]
    pub fn expand(&self, margin: f64) -> Rect {
        debug_assert!(
            margin >= 0.0 || -2.0 * margin <= self.width().min(self.height()),
            "shrinking rect below empty"
        );
        let d = Point::new(margin, margin);
        Rect { lo: self.lo - d, hi: self.hi + d }
    }

    /// The point of `self` closest to `p` under any `Lp` metric
    /// (component-wise clamp).
    #[inline]
    pub fn clamp_point(&self, p: &Point) -> Point {
        Point::new(p.x.clamp(self.lo.x, self.hi.x), p.y.clamp(self.lo.y, self.hi.y))
    }

    /// Minimum L-infinity distance from `p` to the rectangle (zero when
    /// contained).
    #[inline]
    pub fn dist_linf_point(&self, p: &Point) -> f64 {
        self.clamp_point(p).dist_linf(p)
    }

    /// Scales the rectangle about an arbitrary `apex` point by `factor`:
    /// the projection of the SSA pyramid onto another time plane.
    ///
    /// With `factor = (ti - ts) / (te - ts)` this implements Alg. 1
    /// lines 26-27:
    /// `l(ti) = l(ts) + factor * (l(te) - l(ts))` and likewise for `u`.
    /// `factor > 1` extrapolates past the current FSA, which is exactly
    /// what RayTrace needs when probing a later timestamp.
    #[inline]
    pub fn scale_about(&self, apex: Point, factor: f64) -> Rect {
        debug_assert!(factor >= 0.0, "negative pyramid scale {factor}");
        let lo = apex + (self.lo - apex) * factor;
        let hi = apex + (self.hi - apex) * factor;
        // factor >= 0 preserves corner ordering.
        Rect { lo, hi }
    }

    /// Iterator over the four corner points (ll, lr, ur, ul).
    pub fn corners(&self) -> [Point; 4] {
        [self.lo, Point::new(self.hi.x, self.lo.y), self.hi, Point::new(self.lo.x, self.hi.y)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ax: f64, ay: f64, bx: f64, by: f64) -> Rect {
        Rect::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn construction_and_accessors() {
        let rect = r(0.0, 1.0, 4.0, 3.0);
        assert_eq!(rect.width(), 4.0);
        assert_eq!(rect.height(), 2.0);
        assert_eq!(rect.area(), 8.0);
        assert_eq!(rect.centroid(), Point::new(2.0, 2.0));
        assert!(!rect.is_degenerate());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn new_rejects_unordered_corners() {
        let _ = r(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn from_corners_normalizes() {
        let rect = Rect::from_corners(Point::new(4.0, 0.0), Point::new(1.0, 5.0));
        assert_eq!(rect.lo(), Point::new(1.0, 0.0));
        assert_eq!(rect.hi(), Point::new(4.0, 5.0));
    }

    #[test]
    fn degenerate_point_rect() {
        let p = Point::new(2.0, 3.0);
        let rect = Rect::point(p);
        assert!(rect.is_degenerate());
        assert_eq!(rect.area(), 0.0);
        assert!(rect.contains(&p));
        assert_eq!(rect.centroid(), p);
    }

    #[test]
    fn tolerance_square_has_side_two_eps() {
        let q = Rect::tolerance_square(Point::new(10.0, -5.0), 2.5);
        assert_eq!(q.width(), 5.0);
        assert_eq!(q.height(), 5.0);
        assert_eq!(q.centroid(), Point::new(10.0, -5.0));
        // Every point within L-inf distance eps is inside.
        assert!(q.contains(&Point::new(12.5, -7.5)));
        assert!(!q.contains(&Point::new(12.6, -5.0)));
    }

    #[test]
    fn containment_is_closed() {
        let rect = r(0.0, 0.0, 2.0, 2.0);
        assert!(rect.contains(&Point::new(0.0, 0.0)));
        assert!(rect.contains(&Point::new(2.0, 2.0)));
        assert!(rect.contains(&Point::new(1.0, 2.0)));
        assert!(!rect.contains(&Point::new(2.0001, 1.0)));
    }

    #[test]
    fn rect_containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 8.0, 8.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    fn intersection_overlapping() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 1.0, 6.0, 3.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r(2.0, 1.0, 4.0, 3.0));
        // Commutes.
        assert_eq!(b.intersection(&a).unwrap(), i);
    }

    #[test]
    fn intersection_touching_is_degenerate_not_none() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(2.0, 0.0, 4.0, 2.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.width(), 0.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersection_disjoint_is_none() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(3.0, 3.0, 4.0, 4.0);
        assert!(a.intersection(&b).is_none());
        assert!(!a.intersects(&b));
        // Disjoint on y only.
        let c = r(0.0, 5.0, 1.0, 6.0);
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(3.0, -2.0, 4.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -2.0, 4.0, 1.0));
    }

    #[test]
    fn expand_grows_every_side() {
        let a = r(1.0, 1.0, 2.0, 2.0);
        let e = a.expand(0.5);
        assert_eq!(e, r(0.5, 0.5, 2.5, 2.5));
    }

    #[test]
    fn clamp_and_distance() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.clamp_point(&Point::new(5.0, 1.0)), Point::new(2.0, 1.0));
        assert_eq!(a.dist_linf_point(&Point::new(5.0, 1.0)), 3.0);
        assert_eq!(a.dist_linf_point(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.dist_linf_point(&Point::new(-1.0, -2.0)), 2.0);
    }

    #[test]
    fn scale_about_apex_projects_pyramid() {
        // Apex at origin, FSA = [2,4]x[2,4] at te. Halfway (factor 0.5)
        // the projection is [1,2]x[1,2]; extrapolating (factor 2) gives
        // [4,8]x[4,8].
        let fsa = r(2.0, 2.0, 4.0, 4.0);
        let apex = Point::ORIGIN;
        assert_eq!(fsa.scale_about(apex, 0.5), r(1.0, 1.0, 2.0, 2.0));
        assert_eq!(fsa.scale_about(apex, 2.0), r(4.0, 4.0, 8.0, 8.0));
        assert_eq!(fsa.scale_about(apex, 0.0), Rect::point(apex));
        // Identity at factor 1.
        assert_eq!(fsa.scale_about(apex, 1.0), fsa);
    }

    #[test]
    fn scale_about_interior_apex() {
        let fsa = r(-2.0, -2.0, 2.0, 2.0);
        let apex = Point::new(0.0, 0.0);
        assert_eq!(fsa.scale_about(apex, 0.25), r(-0.5, -0.5, 0.5, 0.5));
    }

    #[test]
    fn degenerate_intersection_edge_cases() {
        // Two identical point rects intersect in themselves.
        let p = Rect::point(Point::new(1.0, 1.0));
        assert_eq!(p.intersection(&p), Some(p));
        // Distinct point rects are disjoint.
        let q = Rect::point(Point::new(1.0, 2.0));
        assert!(p.intersection(&q).is_none());
        // A point rect on a rectangle's edge intersects in itself.
        let a = r(0.0, 0.0, 2.0, 2.0);
        let edge = Rect::point(Point::new(2.0, 1.0));
        assert_eq!(a.intersection(&edge), Some(edge));
        assert!(a.contains_rect(&edge));
        // A point rect at a corner likewise.
        let corner = Rect::point(Point::new(2.0, 2.0));
        assert_eq!(a.intersection(&corner), Some(corner));
        // Zero-width (line) rects crossing meet in a point rect.
        let vline = r(1.0, -5.0, 1.0, 5.0);
        let hline = r(-5.0, 0.5, 5.0, 0.5);
        assert_eq!(vline.intersection(&hline), Some(Rect::point(Point::new(1.0, 0.5))));
    }

    #[test]
    fn corner_touching_rects_intersect_in_a_point() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 1.0, 2.0, 2.0);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert!(i.is_degenerate());
        assert_eq!(i, Rect::point(Point::new(1.0, 1.0)));
    }

    #[test]
    fn containment_edge_cases() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        // Shared edge still counts as containment (closed sets).
        assert!(a.contains_rect(&r(0.0, 0.0, 4.0, 2.0)));
        assert!(a.contains_rect(&r(2.0, 0.0, 4.0, 4.0)));
        // One-axis overflow by any amount breaks it.
        assert!(!a.contains_rect(&r(0.0, 0.0, 4.0 + 1e-12, 2.0)));
        assert!(!a.contains_rect(&r(-1e-12, 0.0, 1.0, 1.0)));
        // Containment implies intersection equals the inner rect.
        let inner = r(1.0, 1.0, 3.0, 4.0);
        assert!(a.contains_rect(&inner));
        assert_eq!(a.intersection(&inner), Some(inner));
        // Degenerate contains only itself.
        let p = Rect::point(Point::new(1.0, 1.0));
        assert!(p.contains_rect(&p));
        assert!(!p.contains_rect(&r(1.0, 1.0, 1.0, 2.0)));
    }

    #[test]
    fn zero_eps_tolerance_square_is_a_point() {
        let c = Point::new(3.0, -1.0);
        let q = Rect::tolerance_square(c, 0.0);
        assert!(q.is_degenerate());
        assert!(q.contains(&c));
        assert!(!q.contains(&Point::new(3.0 + 1e-12, -1.0)));
    }

    #[test]
    fn corners_are_ccw_from_lo() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(2.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 1.0));
        assert_eq!(c[3], Point::new(0.0, 1.0));
    }
}
