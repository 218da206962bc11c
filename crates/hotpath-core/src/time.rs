//! Discrete time: timestamps, sliding windows, and epochs.
//!
//! The paper assumes time is discrete with all timestamps multiples of a
//! granule (Section 3.1), a sliding window of `W` time units restricting
//! hotness (Problem 1), and client/coordinator communication batched at
//! *epochs* of `Lambda` time units (Section 3.2).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A discrete timestamp, counted in time granules since the start of the
/// stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Timestamp zero (stream start).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Raw granule count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The timestamp `delta` granules later.
    #[inline]
    pub fn after(self, delta: u64) -> Timestamp {
        Timestamp(self.0 + delta)
    }

    /// The timestamp `delta` granules earlier, saturating at zero.
    #[inline]
    pub fn before(self, delta: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta))
    }

    /// Granules elapsed from `earlier` to `self` (zero when `earlier` is
    /// in the future).
    #[inline]
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Fractional position of `self` within `[start, end]`, used by the
    /// SSA projection. `end` must be strictly after `start`.
    #[inline]
    pub fn fraction_of(self, start: Timestamp, end: Timestamp) -> f64 {
        debug_assert!(end > start, "degenerate interval [{start:?}, {end:?}]");
        (self.0 as f64 - start.0 as f64) / (end.0 as f64 - start.0 as f64)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: u64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl AddAssign<u64> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Timestamp) -> u64 {
        self.0.checked_sub(rhs.0).expect("timestamp subtraction underflow")
    }
}

/// A closed time interval `[start, end]` with `start <= end`; a motion
/// path is always paired with the interval during which it was crossed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TimeInterval {
    /// Inclusive start.
    pub start: Timestamp,
    /// Inclusive end.
    pub end: Timestamp,
}

impl TimeInterval {
    /// Creates `[start, end]`.
    ///
    /// # Panics
    /// Panics when `start > end`.
    #[inline]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "interval out of order: [{start:?}, {end:?}]");
        TimeInterval { start, end }
    }

    /// Number of granules covered (zero for instantaneous intervals).
    #[inline]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// True when `t` lies inside the closed interval.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }
}

/// The sliding time window of size `W`: only crossings whose exit
/// timestamp is within the last `W` granules count toward hotness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlidingWindow {
    /// Window length `W` in granules.
    pub len: u64,
}

impl SlidingWindow {
    /// Creates a window of `len` granules; `len` must be positive.
    #[inline]
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "window length must be positive");
        SlidingWindow { len }
    }

    /// Expiry time of a crossing that exited at `te`: the tuple
    /// `<te + W, id>` is pushed onto the expiry heap at this timestamp
    /// (Section 5.2).
    #[inline]
    pub fn expiry_of(&self, te: Timestamp) -> Timestamp {
        te.after(self.len)
    }

    /// True when a crossing with exit time `te` still counts at `now`.
    ///
    /// A crossing expires exactly when `now` reaches `te + W`, i.e. the
    /// half-open validity interval is `[te, te + W)`.
    #[inline]
    pub fn is_live(&self, te: Timestamp, now: Timestamp) -> bool {
        now < self.expiry_of(te)
    }
}

/// The epoch clock: objects listen for coordinator messages only every
/// `Lambda` granules (Section 3.2). Epoch boundaries are the timestamps
/// divisible by `Lambda`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochClock {
    /// Epoch length `Lambda` in granules.
    pub lambda: u64,
}

impl EpochClock {
    /// Creates an epoch clock with period `lambda > 0`.
    #[inline]
    pub fn new(lambda: u64) -> Self {
        assert!(lambda > 0, "epoch length must be positive");
        EpochClock { lambda }
    }

    /// True when `t` is an epoch boundary (coordinator replies are
    /// delivered at these instants).
    #[inline]
    pub fn is_epoch(&self, t: Timestamp) -> bool {
        t.0.is_multiple_of(self.lambda)
    }

    /// Ordinal number of the epoch containing `t` (epoch `e` spans
    /// `[e * lambda, (e+1) * lambda)`).
    #[inline]
    pub fn epoch_index(&self, t: Timestamp) -> u64 {
        t.0 / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(10);
        assert_eq!(t.after(5), Timestamp(15));
        assert_eq!(t.before(4), Timestamp(6));
        assert_eq!(t.before(100), Timestamp(0));
        assert_eq!(Timestamp(17).since(t), 7);
        assert_eq!(t.since(Timestamp(17)), 0);
        assert_eq!(t + 3, Timestamp(13));
        assert_eq!(Timestamp(13) - t, 3);
        let mut u = t;
        u += 2;
        assert_eq!(u, Timestamp(12));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn timestamp_subtraction_underflow_panics() {
        let _ = Timestamp(3) - Timestamp(5);
    }

    #[test]
    fn fraction_within_interval() {
        let s = Timestamp(10);
        let e = Timestamp(20);
        assert_eq!(Timestamp(10).fraction_of(s, e), 0.0);
        assert_eq!(Timestamp(15).fraction_of(s, e), 0.5);
        assert_eq!(Timestamp(20).fraction_of(s, e), 1.0);
        // Extrapolation beyond the interval is legal (SSA probing).
        assert_eq!(Timestamp(25).fraction_of(s, e), 1.5);
    }

    #[test]
    fn interval_basics() {
        let i = TimeInterval::new(Timestamp(5), Timestamp(15));
        assert_eq!(i.duration(), 10);
        assert!(i.contains(Timestamp(5)));
        assert!(i.contains(Timestamp(15)));
        assert!(!i.contains(Timestamp(16)));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn interval_rejects_reversed() {
        let _ = TimeInterval::new(Timestamp(3), Timestamp(1));
    }

    #[test]
    fn window_expiry_semantics() {
        let w = SlidingWindow::new(100);
        let te = Timestamp(40);
        assert_eq!(w.expiry_of(te), Timestamp(140));
        assert!(w.is_live(te, Timestamp(40)));
        assert!(w.is_live(te, Timestamp(139)));
        // "The counter will have to be decreased at time te + W".
        assert!(!w.is_live(te, Timestamp(140)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn window_rejects_zero_length() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn epoch_boundaries() {
        let c = EpochClock::new(10);
        assert!(c.is_epoch(Timestamp(0)));
        assert!(c.is_epoch(Timestamp(30)));
        assert!(!c.is_epoch(Timestamp(31)));
        assert_eq!(c.epoch_index(Timestamp(9)), 0);
        assert_eq!(c.epoch_index(Timestamp(10)), 1);
    }
}
