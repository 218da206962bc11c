//! A hierarchical timer wheel of [`ExpiryEvent`]s.
//!
//! The path table drives sliding-window expiry through it. The wheel
//! fires events in amortized
//! O(expired) per [`TimerWheel::advance_collect`]: events hash into
//! 64-slot levels by the position of the highest bit in which their
//! expiry differs from the wheel clock, occupancy bitmaps locate the
//! next non-empty bucket in a few instructions, and each event cascades
//! toward finer levels at most `LEVELS` times over its whole
//! lifetime. Cost never scales with the pending-set size — only with
//! what actually expires.

use crate::index::ExpiryEvent;

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed to cover the full `u64` timestamp range (6 × 11 = 66).
const LEVELS: usize = 11;

/// A hierarchical timer wheel over [`ExpiryEvent`]s.
///
/// An event with `expiry > clock` lives in bucket `(level, slot)` where
/// `level` is the index of the 6-bit digit holding the highest bit in
/// which `expiry` differs from `clock`, and `slot` is the event's digit
/// at that level. Two invariants hold between operations:
///
/// 1. every bucketed event agrees with `clock` on all digits above its
///    level, and its slot digit is strictly greater than the clock's —
///    so `slot_start` computed under the current clock is exact;
/// 2. per-level occupancy bitmaps mirror bucket non-emptiness, so the
///    earliest pending bucket is found with one `trailing_zeros` per
///    level.
///
/// Events inserted at or before `clock` (late or boundary events) go to
/// a `ready` list and fire on the first `advance_collect(now)` with
/// `now >= expiry`. Draining a bucket re-inserts not-yet-due events
/// under the advanced clock, which lands them on a strictly finer
/// level: each event cascades at most `LEVELS` times over its life,
/// making advance amortized O(expired).
#[derive(Clone, Debug)]
pub struct TimerWheel {
    /// The wheel's notion of now: the largest `advance_collect` time
    /// seen, or the clock the wheel was restored against.
    clock: u64,
    /// `levels[l][s]`: events whose expiry first differs from `clock`
    /// within bit range `[6l, 6l+6)` and whose level-`l` digit is `s`.
    levels: Vec<[Vec<ExpiryEvent>; SLOTS]>,
    /// Bit `s` of `occupied[l]` is set iff `levels[l][s]` is non-empty.
    occupied: [u64; LEVELS],
    /// Events inserted with `expiry <= clock`, awaiting advance.
    ready: Vec<ExpiryEvent>,
    /// Total events held (all buckets plus `ready`).
    len: usize,
    /// Reused scratch: the expired batch of the last `advance_collect`.
    expired: Vec<ExpiryEvent>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new(0)
    }
}

impl TimerWheel {
    /// An empty wheel whose notion of now starts at `clock`.
    pub fn new(clock: u64) -> Self {
        TimerWheel {
            clock,
            levels: (0..LEVELS).map(|_| std::array::from_fn(|_| Vec::new())).collect(),
            occupied: [0; LEVELS],
            ready: Vec::new(),
            len: 0,
            expired: Vec::new(),
        }
    }

    /// Number of events held (buckets plus the ready list).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel clock: the largest advance time seen.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Level of `expiry` relative to `clock`: the index of the 6-bit
    /// digit holding their highest differing bit. Requires
    /// `expiry > clock` (so the xor is non-zero).
    #[inline]
    fn level_for(clock: u64, expiry: u64) -> usize {
        ((63 - (clock ^ expiry).leading_zeros()) / LEVEL_BITS) as usize
    }

    /// The slot digit of `t` at `level`.
    #[inline]
    fn slot_of(level: usize, t: u64) -> u64 {
        (t >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)
    }

    /// First timestamp covered by bucket `(level, slot)` under the
    /// current clock prefix.
    #[inline]
    fn slot_start(&self, level: usize, slot: u64) -> u64 {
        let shift = LEVEL_BITS as u64 * (level as u64 + 1);
        let prefix = if shift >= 64 { 0 } else { (self.clock >> shift) << shift };
        prefix | (slot << (LEVEL_BITS as usize * level))
    }

    /// Schedules an event. Events at or before the wheel clock land in
    /// the ready list and fire on the next advance that reaches them.
    pub fn insert(&mut self, ev: ExpiryEvent) {
        let t = ev.expiry.raw();
        if t <= self.clock {
            self.ready.push(ev);
        } else {
            let level = Self::level_for(self.clock, t);
            let slot = Self::slot_of(level, t);
            self.levels[level][slot as usize].push(ev);
            self.occupied[level] |= 1u64 << slot;
        }
        self.len += 1;
    }

    /// Earliest occupied bucket as `(level, slot, start)`, or `None`.
    /// The lowest occupied slot per level is the earliest at that level
    /// (slots are absolute digits, all above the clock's), so this is a
    /// min over at most [`LEVELS`] candidates.
    fn earliest_bucket(&self) -> Option<(usize, u64, u64)> {
        let mut best: Option<(usize, u64, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let slot = occ.trailing_zeros() as u64;
            let start = self.slot_start(level, slot);
            if best.is_none_or(|(_, _, b)| start < b) {
                best = Some((level, slot, start));
            }
        }
        best
    }

    /// Advances the wheel to `now`, moving every event with
    /// `expiry <= now` into the internal expired scratch (bucket order,
    /// *not* time order — the caller sorts, see
    /// [`TimerWheel::take_expired`]) and cascading not-yet-due events
    /// toward finer levels.
    pub fn advance_collect(&mut self, now: u64) {
        self.expired.clear();
        // Late events fire as soon as the clock reaches their expiry;
        // `ready` is unordered, so filter in place.
        let mut i = 0;
        while i < self.ready.len() {
            if self.ready[i].expiry.raw() <= now {
                let ev = self.ready.swap_remove(i);
                self.expired.push(ev);
                self.len -= 1;
            } else {
                i += 1;
            }
        }
        while let Some((level, slot, start)) = self.earliest_bucket() {
            if start > now {
                break;
            }
            debug_assert!(start >= self.clock, "wheel clock ran past an occupied bucket");
            self.clock = start;
            let mut bucket = std::mem::take(&mut self.levels[level][slot as usize]);
            self.occupied[level] &= !(1u64 << slot);
            for ev in bucket.drain(..) {
                self.len -= 1;
                if ev.expiry.raw() <= now {
                    self.expired.push(ev);
                } else {
                    // Cascades to a strictly finer level under the
                    // advanced clock (never back into this bucket).
                    self.insert(ev);
                }
            }
            // Hand the drained allocation back to the bucket.
            self.levels[level][slot as usize] = bucket;
        }
        if now > self.clock {
            self.clock = now;
        }
    }

    /// Takes the batch collected by the last
    /// [`TimerWheel::advance_collect`], leaving an empty scratch.
    /// Callers sort by [`ExpiryEvent::sort_key`], process, and hand the
    /// allocation back with [`TimerWheel::give_expired`].
    pub fn take_expired(&mut self) -> Vec<ExpiryEvent> {
        std::mem::take(&mut self.expired)
    }

    /// Returns a drained batch's allocation for reuse.
    pub fn give_expired(&mut self, mut buf: Vec<ExpiryEvent>) {
        buf.clear();
        self.expired = buf;
    }

    /// Every held event, sorted by [`ExpiryEvent::sort_key`] — the
    /// canonical checkpoint order. Sorting makes the serialized section
    /// a pure function of the event *multiset*, independent of bucket
    /// layout, so `checkpoint(restore(image))` reproduces `image` byte
    /// for byte.
    pub fn sorted_events(&self) -> Vec<ExpiryEvent> {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.ready);
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                out.extend_from_slice(&self.levels[level][slot]);
            }
        }
        out.sort_unstable_by_key(ExpiryEvent::sort_key);
        out
    }

    /// Audits the wheel's structural invariants: occupancy bitmaps
    /// mirror bucket non-emptiness, the length ledger balances, and
    /// every bucketed event hashes to the bucket holding it under the
    /// current clock.
    pub fn check(&self) -> Result<(), String> {
        let mut counted = self.ready.len();
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let bucket = &self.levels[level][slot];
                let bit = (self.occupied[level] >> slot) & 1 == 1;
                if bucket.is_empty() == bit {
                    return Err(format!(
                        "wheel occupancy bit ({level},{slot}) is {bit} for {} events",
                        bucket.len()
                    ));
                }
                counted += bucket.len();
                for ev in bucket {
                    let t = ev.expiry.raw();
                    if t <= self.clock {
                        return Err(format!(
                            "bucketed event {ev:?} expires at {t}, at or before clock {}",
                            self.clock
                        ));
                    }
                    if Self::level_for(self.clock, t) != level
                        || Self::slot_of(level, t) != slot as u64
                    {
                        return Err(format!(
                            "event {ev:?} (expiry {t}) stranded in bucket ({level},{slot}) \
                             under clock {}",
                            self.clock
                        ));
                    }
                }
            }
        }
        if counted != self.len {
            return Err(format!("wheel ledger says {} events, buckets hold {counted}", self.len));
        }
        Ok(())
    }
}
