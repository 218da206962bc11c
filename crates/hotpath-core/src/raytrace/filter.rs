//! The RayTrace client filter (Algorithm 1).
//!
//! RayTrace runs independently on every moving object. It swallows
//! measurements into the SSA for as long as possible; when a measurement
//! escapes, it ships the object's *state* to the coordinator, buffers
//! subsequent points, and resumes from the coordinator-chosen endpoint at
//! the next epoch. Constant space, constant time per point.

use super::ssa::Ssa;
use crate::geometry::{Point, Rect, TimePoint};
use crate::time::Timestamp;
use crate::uncertainty::{GaussianPoint, ToleranceTable2D};
use crate::ObjectId;
use std::collections::VecDeque;

/// The state message `<l(ts), ts, l(te), u(te), te>` sent to the
/// coordinator when the SSA cannot grow (Alg. 1 line 38).
///
/// `repr(C)`: 72 bytes with no padding (object 8, start 16, ts 8,
/// fsa 32, te 8) — matching [`ClientState::WIRE_BYTES`] exactly, so the
/// checkpoint's pending section is a direct cast of the batch buffer.
#[derive(Clone, Copy, PartialEq, Debug)]
#[repr(C)]
pub struct ClientState {
    /// Reporting object.
    pub object: ObjectId,
    /// Start vertex `s = l(ts)` of the path under construction.
    pub start: Point,
    /// Start timestamp `ts`.
    pub ts: Timestamp,
    /// The Final Safe Area `(l(te), u(te))`.
    pub fsa: Rect,
    /// Final timestamp `te`.
    pub te: Timestamp,
}

impl ClientState {
    /// Wire size in bytes: three points and two timestamps (Section 4),
    /// plus the object id. Used by the communication accounting.
    pub const WIRE_BYTES: usize = 3 * 16 + 2 * 8 + 8;
}

/// Per-filter accounting: how much the filter compressed.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FilterStats {
    /// Measurements fed to the filter.
    pub observed: u64,
    /// Measurements accepted into some SSA (suppressed updates).
    pub absorbed: u64,
    /// State messages sent to the coordinator.
    pub reports: u64,
    /// Measurements buffered while waiting for the coordinator.
    pub buffered: u64,
    /// Measurements dropped because no tolerance rectangle existed
    /// (uncertain mode with a rejecting fallback policy).
    pub dropped: u64,
}

impl FilterStats {
    /// Accumulates another filter's counters (fleet-wide aggregation).
    pub fn merge(&mut self, other: &FilterStats) {
        self.observed += other.observed;
        self.absorbed += other.absorbed;
        self.reports += other.reports;
        self.buffered += other.buffered;
        self.dropped += other.dropped;
    }
}

/// A buffered observation: timestamp plus its tolerance rectangle. The
/// SSA machinery only ever needs the rectangle, which lets the crisp and
/// uncertain variants share this core.
#[derive(Clone, Copy, Debug)]
struct Obs {
    t: Timestamp,
    rect: Rect,
}

/// What only a violation, waiting mode and a dropped measurement touch:
/// the backlog and three of the [`FilterStats`] counters. Boxed behind
/// [`RayTraceCore`] and allocated at the first violation or drop.
#[derive(Clone, Debug, Default)]
struct Cold {
    backlog: VecDeque<Obs>,
    reports: u64,
    buffered: u64,
    dropped: u64,
}

/// Generic RayTrace core over (timestamp, tolerance-rectangle) streams.
///
/// Inline is only what an observation outside waiting mode touches —
/// the SSA, the `absorbed` count and the `waiting` flag (plus the object
/// id); the backlog and the other counters live in a cold half, boxed
/// at the first violation or drop, so a filter that never violated
/// owns no heap.
#[derive(Clone, Debug)]
pub struct RayTraceCore {
    ssa: Ssa,
    absorbed: u64,
    object: ObjectId,
    cold: Option<Box<Cold>>,
    waiting: bool,
}

impl RayTraceCore {
    /// Creates a filter seeded at the object's first known timepoint.
    pub fn new(object: ObjectId, seed: TimePoint) -> Self {
        RayTraceCore { ssa: Ssa::new(seed), absorbed: 0, object, cold: None, waiting: false }
    }

    /// The object this filter runs on.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// True while awaiting a coordinator response (Alg. 1 "waiting mode").
    pub fn is_waiting(&self) -> bool {
        self.waiting
    }

    /// Compression statistics.
    ///
    /// `observed` is derived: by Alg. 1 every observation is absorbed
    /// exactly once, dropped, or still in the backlog.
    pub fn stats(&self) -> FilterStats {
        let (reports, buffered, dropped) =
            self.cold.as_deref().map_or((0, 0, 0), |c| (c.reports, c.buffered, c.dropped));
        FilterStats {
            observed: self.absorbed + self.buffered_len() as u64 + dropped,
            absorbed: self.absorbed,
            reports,
            buffered,
            dropped,
        }
    }

    /// Read access to the current SSA (exposed for tests and the hinted
    /// extension).
    pub fn ssa(&self) -> &Ssa {
        &self.ssa
    }

    /// Number of buffered observations.
    pub fn buffered_len(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.backlog.len())
    }

    /// Feeds one observation with a precomputed tolerance rectangle.
    /// Returns the state message when this observation escapes the SSA.
    ///
    /// Outside waiting mode the backlog is empty — `drain` returns
    /// `None` only on an empty buffer, and `new` / `receive_endpoint`
    /// either leave it empty or re-enter waiting — so the observation
    /// is offered to the SSA directly; the buffer is touched only by a
    /// violation and while waiting (Alg. 1 lines 13-16, 35-41).
    #[inline]
    pub fn observe_rect(&mut self, t: Timestamp, rect: Rect) -> Option<ClientState> {
        let obs = Obs { t, rect };
        if self.waiting {
            self.buffer(obs);
            return None;
        }
        debug_assert_eq!(self.buffered_len(), 0, "backlog outside waiting mode");
        if self.absorb(&obs) {
            None
        } else {
            Some(self.violate(obs))
        }
    }

    /// [`Self::observe_rect`] for an observation that must not cause a
    /// violation: while waiting it is buffered, otherwise it is offered
    /// to the SSA; `false` when it escapes, leaving the filter exactly as
    /// it was ([`Ssa::try_extend`] commits only on success).
    pub(super) fn offer_rect(&mut self, t: Timestamp, rect: Rect) -> bool {
        let obs = Obs { t, rect };
        if self.waiting {
            self.buffer(obs);
            return true;
        }
        self.absorb(&obs)
    }

    /// Delivers the coordinator's endpoint timepoint (next-epoch reply,
    /// Alg. 1 lines 13-16): resets the SSA and processes the buffered
    /// backlog, which may immediately produce the next report.
    pub fn receive_endpoint(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        debug_assert!(self.waiting, "endpoint delivered to a non-waiting filter");
        self.ssa = Ssa::new(endpoint);
        self.waiting = false;
        self.drain()
    }

    /// Processes buffered observations until one escapes or the buffer
    /// empties (Alg. 1 lines 18-41).
    fn drain(&mut self) -> Option<ClientState> {
        while let Some(obs) = self.cold.as_mut().and_then(|c| c.backlog.pop_front()) {
            if !self.absorb(&obs) {
                return Some(self.violate(obs));
            }
        }
        None
    }

    /// The cold half, allocated on first use.
    fn cold_mut(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Waiting mode: the observation joins the backlog (Alg. 1 lines
    /// 35-41, the only time the paper buffers).
    fn buffer(&mut self, obs: Obs) {
        let cold = self.cold_mut();
        cold.buffered += 1;
        cold.backlog.push_back(obs);
    }

    /// Offers one observation to the SSA; `true` when it was absorbed.
    #[inline]
    fn absorb(&mut self, obs: &Obs) -> bool {
        debug_assert!(
            obs.t > self.ssa.end_time() || self.ssa.is_apex_only(),
            "observation at {:?} not after SSA end {:?}",
            obs.t,
            self.ssa.end_time()
        );
        let absorbed = self.ssa.try_extend(obs.t, &obs.rect);
        self.absorbed += u64::from(absorbed);
        absorbed
    }

    /// Violation: go into waiting mode, keep the violating observation
    /// for re-processing against the next SSA, and build the state
    /// message (Alg. 1 lines 35-41).
    #[cold]
    fn violate(&mut self, obs: Obs) -> ClientState {
        self.waiting = true;
        let cold = self.cold_mut();
        cold.backlog.push_front(obs);
        cold.reports += 1;
        ClientState {
            object: self.object,
            start: self.ssa.start(),
            ts: self.ssa.start_time(),
            fsa: self.ssa.fsa(),
            te: self.ssa.end_time(),
        }
    }
}

/// The crisp-tolerance RayTrace filter of Algorithm 1: each measurement
/// contributes the tolerance square of side `2 eps` around itself.
///
/// `repr(C)` keeps `eps` after the core: placed next to the FSA, its
/// load is widened to 16 bytes that overlap the FSA the previous
/// observation stored, which defeats store-to-load forwarding on a
/// filter observed back to back.
#[derive(Clone, Debug)]
#[repr(C)]
pub struct RayTraceFilter {
    core: RayTraceCore,
    eps: f64,
}

impl RayTraceFilter {
    /// Creates a filter with tolerance `eps`, seeded at the object's
    /// first timepoint.
    pub fn new(object: ObjectId, seed: TimePoint, eps: f64) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        RayTraceFilter { core: RayTraceCore::new(object, seed), eps }
    }

    /// The tolerance radius.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Feeds a measurement; returns a state message when the SSA breaks.
    ///
    /// The measurement must be finite (`Point::new` asserts it in debug
    /// builds); non-finite input is outside the contract.
    #[inline]
    pub fn observe(&mut self, tp: TimePoint) -> Option<ClientState> {
        self.core.observe_rect(tp.t, Rect::tolerance_square(tp.p, self.eps))
    }

    /// Delivers the coordinator's endpoint (may immediately re-report).
    pub fn receive_endpoint(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.core.receive_endpoint(endpoint)
    }

    /// True while awaiting a coordinator response.
    pub fn is_waiting(&self) -> bool {
        self.core.is_waiting()
    }

    /// Compression statistics.
    pub fn stats(&self) -> FilterStats {
        self.core.stats()
    }

    /// The object this filter runs on.
    pub fn object(&self) -> ObjectId {
        self.core.object()
    }

    /// Read access to the SSA.
    pub fn ssa(&self) -> &Ssa {
        self.core.ssa()
    }

    /// Number of buffered observations (non-zero only while waiting).
    pub fn buffered_len(&self) -> usize {
        self.core.buffered_len()
    }
}

/// The `(eps, delta)`-tolerance RayTrace filter of Section 4.1: each
/// Gaussian measurement contributes its solved tolerance rectangle; the
/// SSA update is otherwise identical.
#[derive(Clone, Debug)]
pub struct UncertainRayTraceFilter {
    core: RayTraceCore,
    table: ToleranceTable2D,
}

impl UncertainRayTraceFilter {
    /// Creates an uncertainty-aware filter around a prebuilt per-axis
    /// tolerance table (share one table across all objects).
    pub fn new(object: ObjectId, seed: TimePoint, table: ToleranceTable2D) -> Self {
        UncertainRayTraceFilter { core: RayTraceCore::new(object, seed), table }
    }

    /// Feeds a Gaussian measurement at `t`. Measurements whose noise
    /// makes Equation 2 unsolvable are dropped (or shrunk, per the
    /// table's fallback policy) and counted in
    /// [`FilterStats::dropped`].
    pub fn observe_gaussian(&mut self, g: GaussianPoint, t: Timestamp) -> Option<ClientState> {
        match g.tolerance_rect(&self.table) {
            Some(rect) => self.core.observe_rect(t, rect),
            None => {
                self.core.cold_mut().dropped += 1;
                None
            }
        }
    }

    /// Delivers the coordinator's endpoint.
    pub fn receive_endpoint(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.core.receive_endpoint(endpoint)
    }

    /// True while awaiting a coordinator response.
    pub fn is_waiting(&self) -> bool {
        self.core.is_waiting()
    }

    /// Compression statistics.
    pub fn stats(&self) -> FilterStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uncertainty::FallbackPolicy;

    fn tp(x: f64, y: f64, t: u64) -> TimePoint {
        TimePoint::new(Point::new(x, y), Timestamp(t))
    }

    #[test]
    fn straight_mover_never_reports() {
        let mut f = RayTraceFilter::new(ObjectId(1), tp(0.0, 0.0, 0), 2.0);
        for t in 1..=200u64 {
            assert!(f.observe(tp(t as f64, 0.0, t)).is_none(), "report at t={t}");
        }
        let s = f.stats();
        assert_eq!(s.observed, 200);
        assert_eq!(s.absorbed, 200);
        assert_eq!(s.reports, 0);
        assert!(!f.is_waiting());
    }

    #[test]
    fn sharp_turn_triggers_report_with_correct_state() {
        let mut f = RayTraceFilter::new(ObjectId(7), tp(0.0, 0.0, 0), 1.0);
        // East for 10 steps of size 10 (fits one SSA)...
        for t in 1..=10u64 {
            assert!(f.observe(tp(10.0 * t as f64, 0.0, t)).is_none());
        }
        // ...then an abrupt jump back toward the origin.
        let state = f.observe(tp(0.0, 0.0, 11)).expect("turn must violate");
        assert_eq!(state.object, ObjectId(7));
        assert_eq!(state.start, Point::new(0.0, 0.0));
        assert_eq!(state.ts, Timestamp(0));
        assert_eq!(state.te, Timestamp(10));
        // The FSA must contain the true position at te.
        assert!(state.fsa.contains(&Point::new(100.0, 0.0)));
        assert!(f.is_waiting());
        assert_eq!(f.stats().reports, 1);
    }

    #[test]
    fn waiting_mode_buffers_and_resumes() {
        let mut f = RayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), 1.0);
        for t in 1..=5u64 {
            f.observe(tp(10.0 * t as f64, 0.0, t));
        }
        let state = f.observe(tp(0.0, 50.0, 6)).expect("violation");
        // Buffer more while waiting; no reports.
        assert!(f.observe(tp(0.0, 60.0, 7)).is_none());
        assert!(f.observe(tp(0.0, 70.0, 8)).is_none());
        assert_eq!(f.buffered_len(), 3); // violator + two buffered
        assert_eq!(f.stats().buffered, 2);

        // Coordinator picks an endpoint inside the FSA at te.
        let endpoint = TimePoint::new(state.fsa.centroid(), state.te);
        let next = f.receive_endpoint(endpoint);
        // The backlog (jump to (0,50) then northward) may or may not
        // violate the new SSA immediately; in this geometry it must:
        // centroid is near (50,0) and the violator is at (0,50).
        let next = next.expect("backlog must re-violate");
        assert_eq!(next.start, endpoint.p);
        assert_eq!(next.ts, endpoint.t);
        assert!(f.is_waiting());
        assert_eq!(f.stats().reports, 2);
    }

    #[test]
    fn resumed_filter_chains_from_endpoint() {
        let mut f = RayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), 1.0);
        for t in 1..=5u64 {
            f.observe(tp(10.0 * t as f64, 0.0, t));
        }
        let s1 = f.observe(tp(0.0, 0.0, 6)).expect("violation");
        assert_eq!(s1.te, Timestamp(5));
        let endpoint = TimePoint::new(Point::new(50.0, 0.0), s1.te);
        // After the endpoint, the violator (0,0)@6 seeds a fresh FSA (it
        // is the first point after the apex, so it cannot violate), and
        // subsequent motion consistent with the apex->violator velocity
        // (-50 m/granule) is absorbed.
        assert!(f.receive_endpoint(endpoint).is_none());
        assert!(!f.is_waiting());
        for t in 7..=12u64 {
            let x = 50.0 - 50.0 * (t - 5) as f64;
            assert!(f.observe(tp(x, 0.0, t)).is_none(), "unexpected report at t={t}");
        }
        // The next state's start must be the coordinator endpoint
        // (covering-set chaining).
        let s2 = f.observe(tp(1000.0, 1000.0, 13)).expect("forced violation");
        assert_eq!(s2.start, Point::new(50.0, 0.0));
        assert_eq!(s2.ts, s1.te);
    }

    #[test]
    fn state_wire_size_matches_paper_payload() {
        // 3 points (2 f64 each) + 2 timestamps + object id.
        assert_eq!(ClientState::WIRE_BYTES, 72);
    }

    #[test]
    fn first_report_start_is_seed_point() {
        let seed = tp(5.0, 5.0, 3);
        let mut f = RayTraceFilter::new(ObjectId(2), seed, 1.0);
        f.observe(tp(6.0, 5.0, 4));
        let s = f.observe(tp(-100.0, 5.0, 5)).expect("violation");
        assert_eq!(s.start, seed.p);
        assert_eq!(s.ts, seed.t);
    }

    #[test]
    fn uncertain_filter_tracks_and_drops() {
        let table = ToleranceTable2D::build(10.0, 0.05, 8.0, 128, FallbackPolicy::Reject);
        let mut f = UncertainRayTraceFilter::new(ObjectId(4), tp(0.0, 0.0, 0), table);
        // Accurate measurements along a line: absorbed.
        for t in 1..=20u64 {
            let g = GaussianPoint::isotropic(Point::new(5.0 * t as f64, 0.0), 1.0);
            assert!(f.observe_gaussian(g, Timestamp(t)).is_none(), "report at t={t}");
        }
        // A hopelessly noisy measurement is dropped, not violated.
        let noisy = GaussianPoint::isotropic(Point::new(105.0, 0.0), 50.0);
        assert!(f.observe_gaussian(noisy, Timestamp(21)).is_none());
        assert_eq!(f.stats().dropped, 1);
        assert!(!f.is_waiting());
        // A clean but contradictory measurement violates as usual.
        let back = GaussianPoint::isotropic(Point::new(0.0, 0.0), 1.0);
        assert!(f.observe_gaussian(back, Timestamp(22)).is_some());
        assert!(f.is_waiting());
    }

    #[test]
    fn uncertain_filter_narrower_rects_than_crisp() {
        // With noise, the tolerance rectangle half-width is strictly
        // below eps, so the uncertain filter violates earlier than the
        // crisp one on the same borderline drift.
        let eps = 5.0;
        let table = ToleranceTable2D::build(eps, 0.05, 8.0, 256, FallbackPolicy::Reject);
        let mut crisp = RayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), eps);
        let mut uncertain = UncertainRayTraceFilter::new(ObjectId(0), tp(0.0, 0.0, 0), table);
        let mut crisp_reports = 0u32;
        let mut uncertain_reports = 0u32;
        // Drift with a mild zig-zag that stresses the tolerance.
        for t in 1..=200u64 {
            let y = if t % 2 == 0 { 4.0 } else { -4.0 };
            let p = Point::new(3.0 * t as f64, y);
            if crisp.observe(TimePoint::new(p, Timestamp(t))).is_some() {
                crisp_reports += 1;
                let st = crisp.ssa().clone();
                let _ = st;
                let fsa_center = crisp.core.ssa.fsa().centroid();
                crisp.receive_endpoint(TimePoint::new(fsa_center, crisp.core.ssa.end_time()));
            }
            if uncertain.observe_gaussian(GaussianPoint::isotropic(p, 2.0), Timestamp(t)).is_some()
            {
                uncertain_reports += 1;
                let fsa_center = uncertain.core.ssa.fsa().centroid();
                uncertain
                    .receive_endpoint(TimePoint::new(fsa_center, uncertain.core.ssa.end_time()));
            }
        }
        assert!(
            uncertain_reports >= crisp_reports,
            "uncertain {uncertain_reports} < crisp {crisp_reports}"
        );
        assert!(uncertain_reports > 0);
    }
}
