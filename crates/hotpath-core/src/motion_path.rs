//! Motion paths, their identifiers, and covering-set validation.
//!
//! A *motion path* (Section 3.1) is a directed segment `pa -> pb` paired
//! with a crossing interval `[ta, tb]`: an object crossing it is always
//! within tolerance `eps` of the constant-speed point
//! `p(lambda) = pa + lambda (pb - pa)` at `t(lambda) = ta + lambda (tb - ta)`.

use crate::geometry::{Point, Segment, Trajectory};
use crate::time::TimeInterval;
use std::fmt;

/// Dense identifier of a motion path stored at the coordinator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(transparent)]
pub struct PathId(pub u64);

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mp{}", self.0)
    }
}

/// A motion path: directed segment plus geometry helpers. Crossing
/// intervals vary per crossing and live in the hotness bookkeeping, not
/// here — the same path may fit multiple objects over different
/// intervals (Section 3.1).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MotionPath {
    /// Identifier within the coordinator's index.
    pub id: PathId,
    /// The directed segment `start -> end`.
    pub seg: Segment,
}

impl MotionPath {
    /// Creates a motion path.
    #[inline]
    pub fn new(id: PathId, start: Point, end: Point) -> Self {
        MotionPath { id, seg: Segment::new(start, end) }
    }

    /// Start vertex.
    #[inline]
    pub fn start(&self) -> Point {
        self.seg.a
    }

    /// End vertex.
    #[inline]
    pub fn end(&self) -> Point {
        self.seg.b
    }

    /// Euclidean length, the factor in the score metric.
    #[inline]
    pub fn length(&self) -> f64 {
        self.seg.length()
    }
}

/// One crossing of a motion path by some object during `interval`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Crossing {
    /// The crossed path.
    pub path: PathId,
    /// The interval `[ts, te]` of the crossing.
    pub interval: TimeInterval,
}

/// Verifies that a path/interval pair *fits* a trajectory within `eps`
/// (max-distance), checking every granule of the interval against the
/// constant-speed interpolation of both the path and the trajectory.
///
/// This is the ground-truth validator used by tests and the property
/// suites; the on-line algorithms never need it.
pub fn fits_trajectory(seg: &Segment, interval: TimeInterval, traj: &Trajectory, eps: f64) -> bool {
    let dur = interval.duration();
    if dur == 0 {
        return match traj.position_at(interval.start) {
            Some(p) => p.dist_linf(&seg.a) <= eps + 1e-9 && seg.is_degenerate(),
            None => false,
        };
    }
    let mut t = interval.start;
    while t <= interval.end {
        let lambda = t.fraction_of(interval.start, interval.end);
        let on_path = seg.point_at(lambda);
        match traj.position_at(t) {
            Some(p) if p.dist_linf(&on_path) <= eps + 1e-9 => {}
            _ => return false,
        }
        t += 1;
    }
    true
}

/// A covering motion path set for a single object (Section 3.1): a
/// sequence of (path, interval) pairs in which consecutive elements chain
/// — the end time of one is the start time of the next, and the end
/// vertex of one is the start vertex of the next.
#[derive(Clone, Debug, Default)]
pub struct CoveringChain {
    entries: Vec<(Segment, TimeInterval)>,
}

impl CoveringChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a path crossing; enforces the chaining invariants against
    /// the previous entry.
    ///
    /// # Errors
    /// Returns a description of the violated invariant.
    pub fn push(&mut self, seg: Segment, interval: TimeInterval) -> Result<(), String> {
        if let Some((prev_seg, prev_iv)) = self.entries.last() {
            if prev_iv.end != interval.start {
                return Err(format!(
                    "time gap: previous ends at {:?}, next starts at {:?}",
                    prev_iv.end, interval.start
                ));
            }
            if prev_seg.b != seg.a {
                return Err(format!(
                    "vertex gap: previous ends at {:?}, next starts at {:?}",
                    prev_seg.b, seg.a
                ));
            }
        }
        self.entries.push((seg, interval));
        Ok(())
    }

    /// Number of chained crossings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no crossing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The chained crossings in order.
    pub fn entries(&self) -> &[(Segment, TimeInterval)] {
        &self.entries
    }

    /// Validates the whole chain against a trajectory: every element must
    /// fit within `eps` and the chain must be connected. Returns the
    /// first violation, if any.
    pub fn validate(&self, traj: &Trajectory, eps: f64) -> Result<(), String> {
        for (i, (seg, iv)) in self.entries.iter().enumerate() {
            if !fits_trajectory(seg, *iv, traj, eps) {
                return Err(format!("chain element {i} does not fit within eps={eps}"));
            }
        }
        Ok(())
    }

    /// Total time covered by the chain.
    pub fn covered(&self) -> Option<TimeInterval> {
        match (self.entries.first(), self.entries.last()) {
            (Some((_, f)), Some((_, l))) => Some(TimeInterval::new(f.start, l.end)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TimePoint;
    use crate::time::Timestamp;

    fn straight_traj(n: u64) -> Trajectory {
        (0..=n).map(|i| TimePoint::new(Point::new(i as f64, 0.0), Timestamp(i))).collect()
    }

    #[test]
    fn path_accessors() {
        let mp = MotionPath::new(PathId(3), Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert_eq!(mp.start(), Point::new(0.0, 0.0));
        assert_eq!(mp.end(), Point::new(3.0, 4.0));
        assert_eq!(mp.length(), 5.0);
        assert_eq!(format!("{}", mp.id), "mp3");
    }

    #[test]
    fn exact_path_fits() {
        let traj = straight_traj(10);
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let iv = TimeInterval::new(Timestamp(0), Timestamp(10));
        assert!(fits_trajectory(&seg, iv, &traj, 0.0));
    }

    #[test]
    fn offset_path_fits_within_eps_only() {
        let traj = straight_traj(10);
        // Path shifted up by 1.5 in y.
        let seg = Segment::new(Point::new(0.0, 1.5), Point::new(10.0, 1.5));
        let iv = TimeInterval::new(Timestamp(0), Timestamp(10));
        assert!(fits_trajectory(&seg, iv, &traj, 1.5));
        assert!(!fits_trajectory(&seg, iv, &traj, 1.4));
    }

    #[test]
    fn desynchronized_path_fails() {
        let traj = straight_traj(10);
        // Geometrically identical but crossed over half the time: the
        // synchronized positions drift apart by up to 5.
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let iv = TimeInterval::new(Timestamp(0), Timestamp(5));
        assert!(!fits_trajectory(&seg, iv, &traj, 1.0));
        assert!(fits_trajectory(&seg, iv, &traj, 5.0));
    }

    #[test]
    fn fit_outside_trajectory_span_fails() {
        let traj = straight_traj(5);
        let seg = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let iv = TimeInterval::new(Timestamp(0), Timestamp(10));
        assert!(!fits_trajectory(&seg, iv, &traj, 100.0));
    }

    #[test]
    fn chain_accepts_connected_rejects_gaps() {
        let mut chain = CoveringChain::new();
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(5.0, 0.0));
        let b = Segment::new(Point::new(5.0, 0.0), Point::new(10.0, 0.0));
        chain.push(a, TimeInterval::new(Timestamp(0), Timestamp(5))).unwrap();
        chain.push(b, TimeInterval::new(Timestamp(5), Timestamp(10))).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.covered(), Some(TimeInterval::new(Timestamp(0), Timestamp(10))));

        // Time gap.
        let c = Segment::new(Point::new(10.0, 0.0), Point::new(12.0, 0.0));
        let err = chain.push(c, TimeInterval::new(Timestamp(11), Timestamp(12))).unwrap_err();
        assert!(err.contains("time gap"), "{err}");

        // Vertex gap.
        let d = Segment::new(Point::new(99.0, 0.0), Point::new(100.0, 0.0));
        let err = chain.push(d, TimeInterval::new(Timestamp(10), Timestamp(12))).unwrap_err();
        assert!(err.contains("vertex gap"), "{err}");
    }

    #[test]
    fn chain_validates_against_trajectory() {
        let traj = straight_traj(10);
        let mut chain = CoveringChain::new();
        chain
            .push(
                Segment::new(Point::new(0.0, 0.0), Point::new(5.0, 0.0)),
                TimeInterval::new(Timestamp(0), Timestamp(5)),
            )
            .unwrap();
        chain
            .push(
                Segment::new(Point::new(5.0, 0.0), Point::new(10.0, 0.0)),
                TimeInterval::new(Timestamp(5), Timestamp(10)),
            )
            .unwrap();
        assert!(chain.validate(&traj, 0.1).is_ok());

        let mut bad = CoveringChain::new();
        bad.push(
            Segment::new(Point::new(0.0, 9.0), Point::new(5.0, 9.0)),
            TimeInterval::new(Timestamp(0), Timestamp(5)),
        )
        .unwrap();
        assert!(bad.validate(&traj, 1.0).is_err());
    }
}
