//! On-line opening-window Douglas-Peucker (Meratnia & de By \[20\]).
//!
//! Instead of multiple passes, the opening-window scheme fixes an anchor
//! and pushes a *floating endpoint* as far forward as possible: each new
//! point forms a candidate segment anchor→float, and all intermediate
//! points must lie within tolerance of it. On violation the segment's
//! endpoint is fixed by one of two policies (Section 2 of the hot-path
//! paper):
//!
//! * **DP-nopw** (conservative): the violating location — the one with
//!   the greatest distance from the examined segment;
//! * **DP-bopw** (eager): the location just before the floating
//!   endpoint.
//!
//! The fixed endpoint becomes the next anchor, chaining the synopsis.

use crate::douglas_peucker::Metric;
use hotpath_core::geometry::{Segment, TimePoint};

/// Endpoint-fixing policy on violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EndpointPolicy {
    /// Conservative: split at the point with the greatest distance.
    Nopw,
    /// Eager: split just before the floating endpoint.
    Bopw,
}

/// One emitted synopsis segment with its time extent.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EmittedSegment {
    /// Anchor (start) timepoint.
    pub from: TimePoint,
    /// Fixed endpoint timepoint.
    pub to: TimePoint,
}

impl EmittedSegment {
    /// The spatial segment.
    pub fn segment(&self) -> Segment {
        Segment::new(self.from.p, self.to.p)
    }
}

/// The streaming opening-window simplifier for one object.
#[derive(Clone, Debug)]
pub struct OpeningWindow {
    eps: f64,
    policy: EndpointPolicy,
    metric: Metric,
    anchor: TimePoint,
    /// Points strictly after the anchor, in time order; the last one is
    /// the current floating endpoint.
    window: Vec<TimePoint>,
    /// Total points examined in violation checks (the cost the paper
    /// calls "very costly").
    checks: u64,
}

impl OpeningWindow {
    /// Creates a simplifier anchored at the object's first timepoint.
    pub fn new(anchor: TimePoint, eps: f64, policy: EndpointPolicy, metric: Metric) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        OpeningWindow { eps, policy, metric, anchor, window: Vec::new(), checks: 0 }
    }

    /// The current anchor.
    pub fn anchor(&self) -> TimePoint {
        self.anchor
    }

    /// Total distance evaluations performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Feeds the next timepoint; returns the segments fixed by this
    /// arrival (usually none, occasionally one or more).
    pub fn push(&mut self, tp: TimePoint) -> Vec<EmittedSegment> {
        debug_assert!(
            self.window.last().map(|l| l.t < tp.t).unwrap_or(self.anchor.t < tp.t),
            "timepoints must arrive in time order"
        );
        self.window.push(tp);
        let mut emitted = Vec::new();
        // A violation split may itself induce another violation in the
        // remaining window; loop until the window is consistent.
        loop {
            match self.find_violation() {
                None => break,
                Some(worst_idx) => {
                    let split_idx = match self.policy {
                        EndpointPolicy::Nopw => worst_idx,
                        // "the location with the greatest possible
                        // timestamp, which is the one just before the
                        // floating endpoint"
                        EndpointPolicy::Bopw => self.window.len() - 2,
                    };
                    let endpoint = self.window[split_idx];
                    emitted.push(EmittedSegment { from: self.anchor, to: endpoint });
                    // Re-anchor: endpoint becomes the next anchor; the
                    // points after it stay in the window.
                    self.anchor = endpoint;
                    self.window.drain(..=split_idx);
                }
            }
        }
        emitted
    }

    /// Flushes the open segment (end of stream); returns it when the
    /// window is non-empty.
    pub fn finish(mut self) -> Option<EmittedSegment> {
        self.window.pop().map(|float| EmittedSegment { from: self.anchor, to: float })
    }

    /// Checks all intermediate points against anchor→float; returns the
    /// index (in `window`) of the most distant violating point.
    fn find_violation(&mut self) -> Option<usize> {
        if self.window.len() < 2 {
            return None; // no intermediates yet
        }
        let float = *self.window.last().expect("non-empty window");
        let candidate = Segment::new(self.anchor.p, float.p);
        let mut worst: Option<(usize, f64)> = None;
        for (i, tp) in self.window[..self.window.len() - 1].iter().enumerate() {
            self.checks += 1;
            let d = self.metric.dist(&candidate, &tp.p);
            if d > self.eps && worst.map(|(_, wd)| d > wd).unwrap_or(true) {
                worst = Some((i, d));
            }
        }
        worst.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::geometry::Point;
    use hotpath_core::time::Timestamp;

    fn tp(x: f64, y: f64, t: u64) -> TimePoint {
        TimePoint::new(Point::new(x, y), Timestamp(t))
    }

    fn feed(ow: &mut OpeningWindow, pts: &[TimePoint]) -> Vec<EmittedSegment> {
        pts.iter().flat_map(|&p| ow.push(p)).collect()
    }

    #[test]
    fn straight_motion_emits_nothing() {
        let mut ow = OpeningWindow::new(tp(0.0, 0.0, 0), 1.0, EndpointPolicy::Nopw, Metric::LInf);
        let pts: Vec<TimePoint> = (1..=100).map(|t| tp(t as f64, 0.0, t)).collect();
        assert!(feed(&mut ow, &pts).is_empty());
        // finish() closes the one long segment.
        let last = ow.finish().unwrap();
        assert_eq!(last.from.p, Point::new(0.0, 0.0));
        assert_eq!(last.to.p, Point::new(100.0, 0.0));
    }

    #[test]
    fn right_angle_turn_splits_nopw_at_corner() {
        let mut ow = OpeningWindow::new(tp(0.0, 0.0, 0), 1.0, EndpointPolicy::Nopw, Metric::LInf);
        let mut pts: Vec<TimePoint> = (1..=10).map(|t| tp(t as f64, 0.0, t)).collect();
        pts.extend((1..=10).map(|i| tp(10.0, i as f64, 10 + i)));
        let emitted = feed(&mut ow, &pts);
        assert!(!emitted.is_empty());
        // The first split's endpoint is the corner itself: the farthest
        // point from the diagonal candidate chord is (10, 0).
        assert_eq!(emitted[0].to.p, Point::new(10.0, 0.0));
        assert_eq!(emitted[0].from.p, Point::new(0.0, 0.0));
    }

    #[test]
    fn bopw_splits_just_before_float() {
        let mut ow = OpeningWindow::new(tp(0.0, 0.0, 0), 1.0, EndpointPolicy::Bopw, Metric::LInf);
        let mut pts: Vec<TimePoint> = (1..=10).map(|t| tp(t as f64, 0.0, t)).collect();
        pts.extend((1..=10).map(|i| tp(10.0, i as f64, 10 + i)));
        let emitted = feed(&mut ow, &pts);
        assert!(!emitted.is_empty());
        // The violation is detected at some float; bopw fixes the point
        // right before it, which lies on the first leg or the corner.
        let first = emitted[0];
        assert!(first.to.t > first.from.t);
        assert_eq!(first.from.p, Point::new(0.0, 0.0));
    }

    #[test]
    fn segments_chain_contiguously() {
        let mut ow = OpeningWindow::new(tp(0.0, 0.0, 0), 0.8, EndpointPolicy::Nopw, Metric::LInf);
        // A zigzag that forces several splits.
        let pts: Vec<TimePoint> = (1..=60)
            .map(|t| tp(t as f64 * 3.0, if (t / 5) % 2 == 0 { 0.0 } else { 6.0 }, t))
            .collect();
        let emitted = feed(&mut ow, &pts);
        assert!(emitted.len() >= 2, "zigzag must split: {}", emitted.len());
        for pair in emitted.windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "synopsis must chain");
        }
    }

    #[test]
    fn synopsis_respects_tolerance_nopw() {
        // Every original point must be within eps of its covering
        // synopsis segment (spatially).
        let eps = 1.0;
        let mut ow = OpeningWindow::new(tp(0.0, 0.0, 0), eps, EndpointPolicy::Nopw, Metric::LInf);
        let pts: Vec<TimePoint> =
            (1..=200).map(|t| tp(t as f64, (t as f64 * 0.25).sin() * 2.5, t)).collect();
        let mut segments = feed(&mut ow, &pts);
        if let Some(last) = ow.finish() {
            segments.push(last);
        }
        let all: Vec<TimePoint> = std::iter::once(tp(0.0, 0.0, 0)).chain(pts).collect();
        for p in &all {
            let covering: Vec<&EmittedSegment> =
                segments.iter().filter(|s| s.from.t <= p.t && p.t <= s.to.t).collect();
            assert!(!covering.is_empty(), "point at {:?} uncovered", p.t);
            for s in covering {
                let d = Metric::LInf.dist(&s.segment(), &p.p);
                assert!(d <= eps + 1e-9, "point {:?} deviates {d}", p.t);
            }
        }
    }

    #[test]
    fn violation_checks_grow_with_window() {
        let mut ow = OpeningWindow::new(tp(0.0, 0.0, 0), 5.0, EndpointPolicy::Nopw, Metric::LInf);
        let pts: Vec<TimePoint> = (1..=100).map(|t| tp(t as f64, 0.0, t)).collect();
        feed(&mut ow, &pts);
        // Quadratic-ish cost: n(n-1)/2 checks minus the first point.
        assert!(ow.checks() > 4000, "checks {}", ow.checks());
    }

    #[test]
    fn finish_on_empty_window_is_none() {
        let ow = OpeningWindow::new(tp(0.0, 0.0, 0), 1.0, EndpointPolicy::Nopw, Metric::LInf);
        assert!(ow.finish().is_none());
    }
}
