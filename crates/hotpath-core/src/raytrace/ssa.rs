//! The Spatial Safe Area (SSA).
//!
//! The SSA is a pyramid in `xyt` space: it has its apex at the initial
//! timepoint `<s, ts>` and widens linearly to the *Final Safe Area* (FSA)
//! rectangle at time `te` (Section 4). Its defining property: for every
//! endpoint `e` inside the FSA, the motion path `s -> e` crossed during
//! `[ts, te]` fits the object's movement within tolerance.

use crate::geometry::{Point, Rect, TimePoint};
use crate::time::Timestamp;

/// The time-parameterized safe area maintained by RayTrace.
///
/// Invariant maintained by [`Ssa::try_extend`]: for any `e` in the
/// current FSA and any previously accepted measurement `<p_j, t_j>`, the
/// constant-speed point of `s -> e` at `t_j` lies inside the tolerance
/// rectangle of `<p_j, t_j>`. (Each extension intersects the pyramid's
/// projection with the new tolerance rectangle, and re-anchoring the
/// pyramid through the shrunken FSA only narrows earlier sections.)
#[derive(Clone, Debug)]
pub struct Ssa {
    /// Apex point `s = l(ts)`.
    s: Point,
    /// Apex timestamp `ts`.
    ts: Timestamp,
    /// Final timestamp `te` (`te == ts` while only the apex is known).
    te: Timestamp,
    /// The FSA `(l(te), u(te))`; degenerate at the apex while `te == ts`.
    fsa: Rect,
}

impl Ssa {
    /// Creates the degenerate SSA anchored at `seed` (Alg. 1 lines 5-6 /
    /// 14-15).
    pub fn new(seed: TimePoint) -> Self {
        Ssa { s: seed.p, ts: seed.t, te: seed.t, fsa: Rect::point(seed.p) }
    }

    /// Apex point `s`.
    #[inline]
    pub fn start(&self) -> Point {
        self.s
    }

    /// Apex timestamp `ts`.
    #[inline]
    pub fn start_time(&self) -> Timestamp {
        self.ts
    }

    /// Final timestamp `te`.
    #[inline]
    pub fn end_time(&self) -> Timestamp {
        self.te
    }

    /// The current FSA.
    #[inline]
    pub fn fsa(&self) -> Rect {
        self.fsa
    }

    /// True while the SSA consists of the apex only (no measurement has
    /// been accepted since the last reset).
    #[inline]
    pub fn is_apex_only(&self) -> bool {
        self.te == self.ts
    }

    /// `SSA|ti`: the pyramid's cross-section at `ti >= ts` (Alg. 1
    /// lines 26-27). For `ti > te` this linearly extrapolates past the
    /// FSA, which is how RayTrace probes the next measurement's time.
    #[inline]
    pub fn project(&self, ti: Timestamp) -> Rect {
        debug_assert!(ti >= self.ts, "projection before apex");
        if self.is_apex_only() || ti == self.ts {
            return Rect::point(self.s);
        }
        self.fsa.scale_about(self.s, self.factor(ti))
    }

    /// The pyramid's scale at `ti`, `(ti - ts) / (te - ts)`: bit for bit
    /// what `ti.fraction_of(ts, te)` returns, since below 2^53 granules
    /// every timestamp and every difference of two is an exact `f64`.
    /// Subtracting first takes two `u64 -> f64` conversions, not three.
    #[inline]
    fn factor(&self, ti: Timestamp) -> f64 {
        debug_assert!(
            ti.0 < EXACT_TICKS && self.te.0 < EXACT_TICKS,
            "timestamp past 2^53 granules"
        );
        (ti.0 - self.ts.0) as f64 / (self.te.0 - self.ts.0) as f64
    }

    /// Attempts to extend the SSA through the tolerance rectangle `q` of
    /// a measurement at `ti` (Alg. 1 lines 20-34).
    ///
    /// Returns `true` and updates `(te, FSA)` when the projection at `ti`
    /// intersects `q`; returns `false` leaving the SSA untouched when the
    /// measurement escapes the safe area (the caller must then report to
    /// the coordinator).
    ///
    /// `q` must be finite with ordered corners; non-finite input is
    /// outside the contract (debug builds assert it). For such input the
    /// intersection below equals [`Rect::intersection`], bit for bit,
    /// without its NaN-propagating `f64::max` / `f64::min`: plain
    /// compare-selects that keep the projection's coordinate on a tie,
    /// as `f64::max(self, other)` does on x86-64.
    #[inline]
    pub fn try_extend(&mut self, ti: Timestamp, q: &Rect) -> bool {
        debug_assert!(ti > self.te, "measurements must arrive in time order");
        debug_assert!(
            q.lo().x.is_finite()
                && q.lo().y.is_finite()
                && q.hi().x.is_finite()
                && q.hi().y.is_finite()
                && q.lo().x <= q.hi().x
                && q.lo().y <= q.hi().y,
            "tolerance rectangle {q:?} is not finite and ordered"
        );
        if self.is_apex_only() {
            // First timepoint after the apex: FSA becomes the whole
            // tolerance rectangle (lines 20-23).
            self.te = ti;
            self.fsa = *q;
            return true;
        }
        let p = self.project(ti);
        let max = |a: f64, b: f64| if b > a { b } else { a };
        let min = |a: f64, b: f64| if b < a { b } else { a };
        let lo = Point { x: max(p.lo().x, q.lo().x), y: max(p.lo().y, q.lo().y) };
        let hi = Point { x: min(p.hi().x, q.hi().x), y: min(p.hi().y, q.hi().y) };
        if lo.x <= hi.x && lo.y <= hi.y {
            self.te = ti;
            self.fsa = Rect::new(lo, hi);
            true
        } else {
            false
        }
    }
}

/// Granule counts below this convert to `f64` exactly.
const EXACT_TICKS: u64 = 1 << 53;

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(x: f64, y: f64, t: u64) -> TimePoint {
        TimePoint::new(Point::new(x, y), Timestamp(t))
    }

    fn square(cx: f64, cy: f64, eps: f64) -> Rect {
        Rect::tolerance_square(Point::new(cx, cy), eps)
    }

    #[test]
    fn fresh_ssa_is_apex_only() {
        let ssa = Ssa::new(tp(1.0, 2.0, 5));
        assert!(ssa.is_apex_only());
        assert_eq!(ssa.start(), Point::new(1.0, 2.0));
        assert_eq!(ssa.start_time(), Timestamp(5));
        assert_eq!(ssa.end_time(), Timestamp(5));
        assert!(ssa.fsa().is_degenerate());
        assert_eq!(ssa.project(Timestamp(5)), Rect::point(Point::new(1.0, 2.0)));
    }

    /// Mirrors the paper's Example 1 / Figure 3: the first point's
    /// tolerance square becomes the FSA, the second narrows it by
    /// intersection with the projection.
    #[test]
    fn example_1_update_sequence() {
        let mut ssa = Ssa::new(tp(0.0, 0.0, 0));
        // First point: FSA = Q1 entirely.
        let q1 = square(10.0, 0.0, 2.0);
        assert!(ssa.try_extend(Timestamp(1), &q1));
        assert_eq!(ssa.fsa(), q1);
        assert_eq!(ssa.end_time(), Timestamp(1));

        // Second point at t=2: projection doubles the pyramid
        // ([16,24]x[-4,4]), intersect with Q2 around (21, 1).
        let q2 = square(21.0, 1.0, 2.0);
        assert!(ssa.try_extend(Timestamp(2), &q2));
        let fsa = ssa.fsa();
        assert_eq!(fsa.lo(), Point::new(19.0, -1.0));
        assert_eq!(fsa.hi(), Point::new(23.0, 3.0));
        assert_eq!(ssa.end_time(), Timestamp(2));
    }

    #[test]
    fn projection_interpolates_and_extrapolates() {
        let mut ssa = Ssa::new(tp(0.0, 0.0, 0));
        ssa.try_extend(Timestamp(10), &square(10.0, 0.0, 2.0));
        // Halfway: half-size square at half-way center.
        let mid = ssa.project(Timestamp(5));
        assert_eq!(mid.centroid(), Point::new(5.0, 0.0));
        assert_eq!(mid.width(), 2.0);
        // Extrapolation to t=20 doubles everything.
        let ext = ssa.project(Timestamp(20));
        assert_eq!(ext.centroid(), Point::new(20.0, 0.0));
        assert_eq!(ext.width(), 8.0);
    }

    #[test]
    fn violation_leaves_ssa_untouched() {
        let mut ssa = Ssa::new(tp(0.0, 0.0, 0));
        ssa.try_extend(Timestamp(1), &square(10.0, 0.0, 2.0));
        let before_fsa = ssa.fsa();
        let before_te = ssa.end_time();
        // An about-face at t=2: projection is near x=20, square near 0.
        assert!(!ssa.try_extend(Timestamp(2), &square(0.0, 0.0, 2.0)));
        assert_eq!(ssa.fsa(), before_fsa);
        assert_eq!(ssa.end_time(), before_te);
    }

    #[test]
    fn straight_motion_never_violates() {
        // Constant-velocity motion keeps the projection centered on the
        // measurement, so the tolerance squares always intersect.
        let mut ssa = Ssa::new(tp(0.0, 0.0, 0));
        for t in 1..=100u64 {
            let q = square(3.0 * t as f64, 4.0 * t as f64, 1.0);
            assert!(ssa.try_extend(Timestamp(t), &q), "violated at t={t}");
        }
        assert_eq!(ssa.end_time(), Timestamp(100));
    }

    /// The pyramid-safety invariant: any endpoint of the final FSA,
    /// interpolated back at each accepted time, lies within the tolerance
    /// square accepted at that time.
    #[test]
    fn invariant_path_stays_in_all_accepted_squares() {
        let mut ssa = Ssa::new(tp(0.0, 0.0, 0));
        let eps = 2.0;
        // A wavy but tolerant trajectory.
        let measurements: Vec<TimePoint> =
            (1..=20u64).map(|t| tp(5.0 * t as f64, (t as f64 * 0.7).sin() * 1.5, t)).collect();
        let mut accepted: Vec<(Timestamp, Rect)> = Vec::new();
        for m in &measurements {
            let q = Rect::tolerance_square(m.p, eps);
            if ssa.try_extend(m.t, &q) {
                accepted.push((m.t, q));
            } else {
                break;
            }
        }
        assert!(!accepted.is_empty());
        let (s, ts, te) = (ssa.start(), ssa.start_time(), ssa.end_time());
        for corner in ssa.fsa().corners() {
            for &(tj, qj) in &accepted {
                let lambda = tj.fraction_of(ts, te);
                let on_path = s.lerp(&corner, lambda);
                assert!(qj.contains(&on_path), "corner {corner:?} escapes square at {tj:?}");
            }
        }
    }

    #[test]
    fn narrowing_is_monotone() {
        // Re-anchoring through intersections can only narrow earlier
        // sections: FSA area never grows between consecutive accepts at
        // the same timestamp scale.
        let mut ssa = Ssa::new(tp(0.0, 0.0, 0));
        ssa.try_extend(Timestamp(1), &square(1.0, 0.0, 5.0));
        let prev_area_at_1 = ssa.project(Timestamp(1)).area();
        ssa.try_extend(Timestamp(2), &square(2.0, 0.0, 5.0));
        let new_area_at_1 = ssa.project(Timestamp(1)).area();
        assert!(new_area_at_1 <= prev_area_at_1 + 1e-9);
    }
}
