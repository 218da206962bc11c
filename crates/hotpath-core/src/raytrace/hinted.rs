//! Feedback-aware RayTrace (the Section 7 "future work" extension).
//!
//! The paper's conclusions sketch an improvement: give clients knowledge
//! of nearby hot motion paths so their splitting decisions favor path
//! reuse. We implement the lightest-weight variant: along with the
//! endpoint response, the coordinator piggybacks the hottest path
//! *leaving* that endpoint (the "hint"). While the hint stays consistent
//! with the object's measurements, the client narrows each tolerance
//! rectangle to the hint's eps-expanded corridor before extending the
//! SSA. Narrower rectangles ⇒ narrower FSAs around the existing path's
//! endpoint ⇒ more Case-1 matches at the coordinator.
//!
//! Correctness is unaffected: a narrowed tolerance rectangle is a subset
//! of the true one, so every SSA invariant still holds; when narrowing
//! would cause a spurious violation the filter transparently falls back
//! to the plain rectangle.

use super::filter::{ClientState, FilterStats, RayTraceCore};
use crate::geometry::{Rect, Segment, TimePoint};
use crate::ObjectId;

/// A hint: the hottest path leaving the endpoint the client resumes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathHint {
    /// The hinted path geometry (start is the resume endpoint).
    pub seg: Segment,
}

/// RayTrace with coordinator feedback.
#[derive(Clone, Debug)]
pub struct HintedRayTraceFilter {
    core: RayTraceCore,
    eps: f64,
    hint: Option<Rect>,
    /// How many observations were narrowed by an active hint.
    narrowed: u64,
}

impl HintedRayTraceFilter {
    /// Creates a hinted filter (no hint active until the first response).
    pub fn new(object: ObjectId, seed: TimePoint, eps: f64) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        HintedRayTraceFilter { core: RayTraceCore::new(object, seed), eps, hint: None, narrowed: 0 }
    }

    /// Feeds a measurement. While a hint is active and consistent, the
    /// tolerance square is first narrowed to the hint corridor.
    pub fn observe(&mut self, tp: TimePoint) -> Option<ClientState> {
        let square = Rect::tolerance_square(tp.p, self.eps);
        if let Some(corridor) = self.hint {
            if let Some(narrow) = square.intersection(&corridor) {
                // Offer the narrowed rectangle first (buffered as is
                // while waiting); the SSA takes it only if it fits, so
                // when the narrowing itself would violate, retry plain.
                if self.core.offer_rect(tp.t, narrow) {
                    self.narrowed += 1;
                    return None;
                }
            } else {
                // Measurement left the corridor for good: drop the hint.
                self.hint = None;
            }
        }
        let out = self.core.observe_rect(tp.t, square);
        if out.is_some() {
            self.hint = None; // hints never survive a violation
        }
        out
    }

    /// Delivers the coordinator's endpoint plus an optional hint.
    pub fn receive_endpoint(
        &mut self,
        endpoint: TimePoint,
        hint: Option<PathHint>,
    ) -> Option<ClientState> {
        self.hint = hint.map(|h| h.seg.mbb().expand(self.eps));
        let out = self.core.receive_endpoint(endpoint);
        if out.is_some() {
            self.hint = None;
        }
        out
    }

    /// True while awaiting a coordinator response.
    pub fn is_waiting(&self) -> bool {
        self.core.is_waiting()
    }

    /// Compression statistics of the underlying core.
    pub fn stats(&self) -> FilterStats {
        self.core.stats()
    }

    /// Observations narrowed by an active hint so far.
    pub fn narrowed_count(&self) -> u64 {
        self.narrowed
    }

    /// The object this filter runs on.
    pub fn object(&self) -> ObjectId {
        self.core.object()
    }

    /// Current FSA (for tests).
    pub fn fsa(&self) -> Rect {
        self.core.ssa().fsa()
    }

    /// Whether a hint corridor is currently active.
    pub fn hint_active(&self) -> bool {
        self.hint.is_some()
    }
}

/// Convenience: the corridor a hint induces for tolerance `eps`.
pub fn hint_corridor(seg: &Segment, eps: f64) -> Rect {
    seg.mbb().expand(eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::time::Timestamp;

    fn tp(x: f64, y: f64, t: u64) -> TimePoint {
        TimePoint::new(Point::new(x, y), Timestamp(t))
    }

    #[test]
    fn hint_narrows_fsa_toward_path() {
        let eps = 2.0;
        // Two identical filters; one receives a hint along y = 0. A
        // westward feint followed by an eastward jump trips both; the
        // buffered violator (5, 1)@2 then seeds the post-endpoint SSA
        // and the walk continues east at 5 m/granule.
        let mut plain = HintedRayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), eps);
        let mut hinted = HintedRayTraceFilter::new(ObjectId(1), tp(0.0, 0.0, 0), eps);
        for f in [&mut plain, &mut hinted] {
            assert!(f.observe(tp(-5.0, 0.0, 1)).is_none());
            assert!(f.observe(tp(5.0, 1.0, 2)).is_some(), "violation expected");
        }
        let ep = TimePoint::new(Point::new(0.0, 0.0), Timestamp(1));
        assert!(plain.receive_endpoint(ep, None).is_none());
        let hint = PathHint { seg: Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0)) };
        assert!(hinted.receive_endpoint(ep, Some(hint)).is_none());

        // Walk along y slightly above 0 — consistent with the corridor.
        for t in 3..=20u64 {
            let p = tp(5.0 * (t - 1) as f64, 1.0, t);
            assert!(plain.observe(p).is_none(), "plain violated at t={t}");
            assert!(hinted.observe(p).is_none(), "hinted violated at t={t}");
        }
        assert!(hinted.narrowed_count() > 0, "hint never engaged");
        // The hinted FSA is contained in the corridor, hence at least as
        // narrow in y as the plain one.
        let corridor = hint_corridor(&hint.seg, eps);
        assert!(corridor.contains_rect(&hinted.fsa()), "{:?}", hinted.fsa());
        assert!(hinted.fsa().height() <= plain.fsa().height() + 1e-9);
    }

    #[test]
    fn inconsistent_hint_is_dropped_without_spurious_reports() {
        let eps = 2.0;
        let mut f = HintedRayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), eps);
        // Southward feint, then a northward jump trips the filter.
        assert!(f.observe(tp(0.0, -5.0, 1)).is_none());
        let s = f.observe(tp(0.0, 5.0, 2)).expect("violation");
        assert_eq!(s.te, Timestamp(1));
        // Hint eastward, but the object keeps going north.
        let hint = PathHint { seg: Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0)) };
        let ep = TimePoint::new(Point::new(0.0, 0.0), s.te);
        assert!(f.receive_endpoint(ep, Some(hint)).is_none());
        assert!(!f.is_waiting());
        // The corridor caps y at 2; as soon as a square leaves it the
        // hint must drop silently without causing spurious reports.
        for t in 3..=10u64 {
            let out = f.observe(tp(0.0, 5.0 * (t - 1) as f64, t));
            assert!(out.is_none(), "northward walk should not violate at t={t}");
        }
        assert!(!f.hint_active(), "hint should be dropped after leaving corridor");
    }

    #[test]
    fn hint_never_changes_violation_outcome() {
        // Whatever the hint, a genuinely violating point still reports.
        let eps = 1.0;
        let mut f = HintedRayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), eps);
        let hintless_state = {
            let mut g = HintedRayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), eps);
            for t in 1..=5u64 {
                let _ = g.observe(tp(10.0 * t as f64, 0.0, t));
            }
            g.observe(tp(0.0, 0.0, 6)).expect("violation")
        };
        for t in 1..=5u64 {
            let _ = f.observe(tp(10.0 * t as f64, 0.0, t));
        }
        let hinted_state = f.observe(tp(0.0, 0.0, 6)).expect("violation");
        assert_eq!(hintless_state.te, hinted_state.te);
        assert_eq!(hintless_state.start, hinted_state.start);
    }
}
