//! Sliding-window hotness maintenance (Section 5.2).
//!
//! A hash table keeps, per motion path, the number of crossings within
//! the last `W` time units; a hierarchical timer wheel fires expiry
//! events that decrement counters as crossings age out. When a counter
//! reaches zero the path id is surfaced so the caller can delete the
//! path from the MotionPath index.
//!
//! Alongside the counters the table keeps the paths **bucketed by
//! count**: `buckets[c]` lists the paths at hotness `c`, and every `±1`
//! moves one path between adjacent buckets in O(1) — on
//! [`Hotness::record_crossing`], [`Hotness::advance`], and
//! [`Hotness::forget`] alike. Most hot paths sit at hotness 1 while the
//! top-k lives in a handful of high counts, so [`Hotness::top_n`] walks
//! the buckets from the highest live count and orders only the few
//! entries it returns, never the whole hot set.
//!
//! # Why a timer wheel
//!
//! The expiry queue used to be a binary min-heap: every `advance` paid
//! O(expired · log pending) pops, and at 100k paths the per-epoch
//! expiry walk dominated window maintenance. The wheel makes `advance`
//! amortized **O(expired)**: events hash into 64-slot levels by the
//! position of the highest bit in which their expiry differs from the
//! wheel clock, occupancy bitmaps locate the next non-empty bucket in
//! a few instructions, and each event cascades toward finer levels at
//! most `LEVELS` times over its whole lifetime. Cost no longer scales
//! with the pending-set size at all — only with what actually expires.

use crate::fxhash::FxHashMap;
use crate::motion_path::PathId;
use crate::time::{SlidingWindow, Timestamp};
use crate::wheel::{TimerWheel, WheelEvent};
use std::cmp::Reverse;

/// Per-path hotness record: the live crossing count and the path's
/// length (IEEE-754 bit pattern), pinned at first recording — path
/// geometry is immutable, so every crossing of one id carries the same
/// length. Records live in a contiguous slab so the checkpoint's heat
/// section is a direct memcpy of the backing array.
///
/// `repr(C)`: three consecutive `u64`s, 24 bytes, no padding. The count
/// is widened to `u64` here purely for layout; it never exceeds `u32`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct HeatEntry {
    /// The hot path.
    pub id: PathId,
    /// Path length bit pattern (`f64::to_bits`), the rank tie-break key.
    pub len_bits: u64,
    /// Live crossing count within the window (always `>= 1` in the slab).
    pub count: u64,
}

/// One pending expiry: the counter of `id` decrements at `expiry`
/// (`te + W`, Section 5.2). `repr(C)`: 16 bytes, no padding — the
/// checkpoint's event section is a memcpy of the canonically sorted
/// event list (see [`Hotness::events_vec`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct ExpiryEvent {
    /// Expiry timestamp `te + W`.
    pub expiry: Timestamp,
    /// The path whose counter decrements then.
    pub id: PathId,
}

impl ExpiryEvent {
    #[inline]
    fn key(&self) -> (Timestamp, PathId) {
        (self.expiry, self.id)
    }
}

impl WheelEvent for ExpiryEvent {
    type Key = (Timestamp, PathId);

    #[inline]
    fn expiry_raw(&self) -> u64 {
        self.expiry.raw()
    }

    #[inline]
    fn sort_key(&self) -> Self::Key {
        self.key()
    }
}

/// Tombstone record for a forgotten id: how many queued expiry events it
/// still owns. `repr(C)`: 16 bytes, no padding (checkpoint section).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct DeadEntry {
    /// The forgotten path.
    pub id: PathId,
    /// Queued events awaiting reclamation (widened `u32`).
    pub events: u64,
}

/// The hotness table plus expiry wheel.
#[derive(Clone, Debug)]
pub struct Hotness {
    window: SlidingWindow,
    /// Contiguous per-path records; order is maintenance order (inserts
    /// append, deaths `swap_remove`) and is part of the checkpointed
    /// state, so a restored table continues identically.
    heat: Vec<HeatEntry>,
    /// Path id -> slot in `heat`.
    slot_of: FxHashMap<PathId, u32>,
    /// Count buckets: `buckets[c]` holds the slab slots of the paths at
    /// hotness `c`, in no particular order. `buckets[0]` stays empty and
    /// the vector ends at the highest live count. Derived from the slab,
    /// never checkpointed.
    buckets: Vec<Vec<u32>>,
    /// `pos[slot]`: where slab slot `slot` sits in its count's bucket.
    /// Parallel to `heat` rather than a [`HeatEntry`] field, so the
    /// checkpointed record layout does not carry it.
    pos: Vec<u32>,
    /// Timer wheel of `(expiry, id)` events keyed by the epoch clock.
    queue: TimerWheel<ExpiryEvent>,
    /// Tombstones for [`Hotness::forget`]-ed ids: how many queued events
    /// belong to each forgotten id, so [`Hotness::advance`] can reclaim
    /// them instead of decrementing a live counter.
    dead: FxHashMap<PathId, u32>,
    /// Total events covered by `dead` (kept in sync for O(1) accounting).
    dead_events: usize,
    /// Total crossings ever recorded (diagnostics).
    recorded: u64,
}

impl Hotness {
    /// Creates an empty table over the given window.
    pub fn new(window: SlidingWindow) -> Self {
        Hotness {
            window,
            heat: Vec::new(),
            slot_of: FxHashMap::default(),
            buckets: Vec::new(),
            pos: Vec::new(),
            queue: TimerWheel::default(),
            dead: FxHashMap::default(),
            dead_events: 0,
            recorded: 0,
        }
    }

    /// The sliding window in force.
    pub fn window(&self) -> SlidingWindow {
        self.window
    }

    /// The expiry wheel's clock: the largest [`Hotness::advance`] time
    /// seen (or the clock the table was restored against).
    pub fn clock(&self) -> Timestamp {
        Timestamp(self.queue.clock())
    }

    /// Records that an object crossed `id`, exiting at `te`: the counter
    /// is incremented and `<te + W, id>` enqueued on the expiry wheel
    /// (Section 5.2). `length` is the path's length — the top-k
    /// tie-break key — and is pinned at the first recording of each id
    /// (geometry is immutable).
    pub fn record_crossing(&mut self, id: PathId, te: Timestamp, length: f64) {
        debug_assert!(length >= 0.0 && length.is_finite(), "bad path length {length}");
        let slot = *self.slot_of.entry(id).or_insert_with(|| {
            self.heat.push(HeatEntry { id, len_bits: length.to_bits(), count: 0 });
            self.pos.push(0);
            (self.heat.len() - 1) as u32
        });
        let count = self.heat[slot as usize].count;
        if count > 0 {
            self.bucket_remove(slot, count);
        }
        self.heat[slot as usize].count = count + 1;
        self.bucket_push(slot, count + 1);
        self.queue.insert(ExpiryEvent { expiry: self.window.expiry_of(te), id });
        self.recorded += 1;
    }

    /// Current hotness of `id` (zero when unknown).
    #[inline]
    pub fn get(&self, id: PathId) -> u32 {
        self.slot_of.get(&id).map(|&s| self.heat[s as usize].count as u32).unwrap_or(0)
    }

    /// Number of paths with positive hotness.
    pub fn len(&self) -> usize {
        self.heat.len()
    }

    /// True when nothing is hot.
    pub fn is_empty(&self) -> bool {
        self.heat.is_empty()
    }

    /// Iterates over `(id, hotness)` pairs with positive hotness.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, u32)> + '_ {
        self.heat.iter().map(|e| (e.id, e.count as u32))
    }

    /// Appends slab slot `slot` to the bucket of `count`.
    fn bucket_push(&mut self, slot: u32, count: u64) {
        let c = count as usize;
        if self.buckets.len() <= c {
            self.buckets.resize_with(c + 1, Vec::new);
        }
        self.pos[slot as usize] = self.buckets[c].len() as u32;
        self.buckets[c].push(slot);
    }

    /// Takes slab slot `slot` out of the bucket of `count`; the bucket's
    /// last slot fills the gap.
    fn bucket_remove(&mut self, slot: u32, count: u64) {
        let bucket = &mut self.buckets[count as usize];
        let at = self.pos[slot as usize];
        bucket.swap_remove(at as usize);
        if let Some(&moved) = bucket.get(at as usize) {
            self.pos[moved as usize] = at;
        }
    }

    /// Drops empty buckets above the highest live count, which a
    /// decrement or removal may have left behind.
    fn trim_buckets(&mut self) {
        while self.buckets.last().is_some_and(Vec::is_empty) {
            self.buckets.pop();
        }
    }

    /// Removes the slab record at `slot` (already out of its bucket),
    /// keeping `slot_of` and the relocated record's bucket entry
    /// consistent with the `swap_remove`.
    fn remove_slot(&mut self, slot: u32) {
        let removed = self.heat.swap_remove(slot as usize);
        self.pos.swap_remove(slot as usize);
        self.slot_of.remove(&removed.id);
        if let Some(moved) = self.heat.get(slot as usize) {
            self.slot_of.insert(moved.id, slot);
            self.buckets[moved.count as usize][self.pos[slot as usize] as usize] = slot;
        }
    }

    /// The `n` hottest paths as `(id, hotness)`, hottest first: by
    /// `(hotness desc, length desc, id asc)` — exactly the coordinator's
    /// top-k order.
    ///
    /// Buckets are taken whole from the highest live count down; only
    /// the *threshold* bucket — the one that would overshoot `n` — is
    /// cut, by a selection on `(length desc, id asc)`, and only the
    /// returned entries are sorted. The cost is O(n log n) for that
    /// sort, plus O(|threshold bucket|) for the cut, plus O(highest live
    /// count) for the walk. The threshold bucket is small while at least
    /// `n` paths are hotter than 1; with fewer, it is the hotness-1
    /// bucket, i.e. most of the hot set, and the call copies and
    /// partitions that once.
    pub fn top_n(&self, n: usize) -> Vec<(PathId, u32)> {
        // Lengths are non-negative finite floats, so their IEEE-754 bit
        // patterns order the same way `f64::total_cmp` does.
        let key = |&slot: &u32| {
            let e = &self.heat[slot as usize];
            (Reverse(e.count), Reverse(e.len_bits), e.id)
        };
        let mut top: Vec<u32> = Vec::with_capacity(n.min(self.heat.len()));
        for bucket in self.buckets.iter().rev() {
            let room = n - top.len();
            if room == 0 {
                break;
            }
            let taken = top.len();
            top.extend_from_slice(bucket);
            if bucket.len() > room {
                top[taken..].select_nth_unstable_by_key(room - 1, key);
                top.truncate(n);
            }
        }
        top.sort_unstable_by_key(key);
        top.iter()
            .map(|&slot| {
                let e = &self.heat[slot as usize];
                (e.id, e.count as u32)
            })
            .collect()
    }

    /// Audits the count buckets against the counter table (every slab
    /// slot exactly once, in the bucket of its count, no empty bucket on
    /// top) and the timer wheel's structural invariants.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.slot_of.len() != self.heat.len() || self.pos.len() != self.heat.len() {
            return Err(format!(
                "{} slot-map entries and {} bucket positions for {} slab records",
                self.slot_of.len(),
                self.pos.len(),
                self.heat.len()
            ));
        }
        let bucketed: usize = self.buckets.iter().map(Vec::len).sum();
        if bucketed != self.heat.len() {
            return Err(format!("buckets hold {bucketed} slots for {} hot paths", self.heat.len()));
        }
        // With the totals equal, each slot found at its own recorded
        // position means no slot is missing and none is listed twice.
        for (slot, heat) in self.heat.iter().enumerate() {
            if self.slot_of.get(&heat.id) != Some(&(slot as u32)) {
                return Err(format!("slot map lost {} (slab slot {slot})", heat.id));
            }
            let at = self.pos[slot] as usize;
            let bucket = self.buckets.get(heat.count as usize);
            if bucket.and_then(|b| b.get(at)) != Some(&(slot as u32)) {
                return Err(format!("buckets lost {} (hotness {})", heat.id, heat.count));
            }
        }
        if self.buckets.last().is_some_and(Vec::is_empty) {
            return Err(format!(
                "{} buckets, the top one empty (not trimmed to the highest live count)",
                self.buckets.len()
            ));
        }
        self.queue.check()?;
        // Live-event accounting: every unit of hotness has exactly one
        // pending expiry event (tombstoned events are excluded by
        // `pending_events`).
        let total: usize = self.heat.iter().map(|h| h.count as usize).sum();
        if total != self.pending_events() {
            return Err(format!(
                "{total} units of hotness vs {} pending expiry events",
                self.pending_events()
            ));
        }
        Ok(())
    }

    /// Pending *live* expiry events (diagnostics; equals the sum of
    /// counters). Events tombstoned by [`Hotness::forget`] are excluded
    /// even while they still occupy the wheel awaiting reclamation or
    /// compaction.
    pub fn pending_events(&self) -> usize {
        self.queue.len() - self.dead_events
    }

    /// Physical wheel occupancy including not-yet-reclaimed tombstoned
    /// events (diagnostics for leak tests).
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Total crossings ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Advances the clock to `now`: collects every event with
    /// `expiry <= now` from the wheel, decrements the counters in
    /// `(expiry, id)` order, and returns the ids whose hotness dropped
    /// to zero (the caller deletes those paths from the index).
    /// Amortized O(expired) — cost is independent of the pending-set
    /// size.
    pub fn advance(&mut self, now: Timestamp) -> Vec<PathId> {
        self.queue.advance_collect(now.raw());
        let mut expired = self.queue.take_expired();
        // Apply in `(expiry, id)` order — exactly the order the old
        // min-heap popped in — so `died` (and every downstream removal
        // order, hence checkpoint bytes) is independent of the wheel's
        // internal bucket layout.
        expired.sort_unstable_by_key(|e| e.key());
        let mut died = Vec::new();
        for &ExpiryEvent { id, .. } in &expired {
            // Tombstoned events are reclaimed instead of decrementing a
            // live counter (an id re-recorded after `forget` sheds its
            // earliest-expiring events first, same as the heap did).
            if let Some(n) = self.dead.get_mut(&id) {
                *n -= 1;
                self.dead_events -= 1;
                if *n == 0 {
                    self.dead.remove(&id);
                }
                continue;
            }
            // Defensive: a counter should always exist for a live event.
            let Some(&slot) = self.slot_of.get(&id) else { continue };
            let count = self.heat[slot as usize].count;
            self.bucket_remove(slot, count);
            if count == 1 {
                self.remove_slot(slot);
                died.push(id);
            } else {
                self.heat[slot as usize].count = count - 1;
                self.bucket_push(slot, count - 1);
            }
        }
        self.trim_buckets();
        self.queue.give_expired(expired); // hand the allocation back
        died
    }

    /// Drops a path outright (used when the caller removes a path for
    /// reasons other than expiry). The counter's outstanding expiry
    /// events are tombstoned; they are reclaimed when they fire, or
    /// swept eagerly by compaction once tombstones outnumber live
    /// events — so long runs with many forgotten paths do not
    /// accumulate stale events for a whole window.
    ///
    /// Only call this for ids that will never be recorded again: events
    /// carry no generation, so a crossing recorded after `forget` whose
    /// expiry precedes a tombstoned event's would be reclaimed in its
    /// place, letting the stale event keep the counter alive too long.
    pub fn forget(&mut self, id: PathId) {
        if let Some(&slot) = self.slot_of.get(&id) {
            let heat = self.heat[slot as usize];
            self.bucket_remove(slot, heat.count);
            self.remove_slot(slot);
            self.trim_buckets();
            if heat.count > 0 {
                *self.dead.entry(id).or_insert(0) += heat.count as u32;
                self.dead_events += heat.count as usize;
                self.maybe_compact();
            }
        }
    }

    /// Sweeps tombstoned events out of the wheel once they outnumber
    /// live events. Only ids that are fully dead (not re-recorded since
    /// `forget`) are purged — a relived id keeps its tombstones in the
    /// wheel so expiry-order aliasing stays exact. The sweep is
    /// O(occupancy) but doubling-triggered, so amortized O(1) per
    /// forget.
    fn maybe_compact(&mut self) {
        if self.dead_events * 2 <= self.queue.len() {
            return;
        }
        let dead = &self.dead;
        let slot_of = &self.slot_of;
        let removed = self
            .queue
            .retain_events(|ev| !dead.contains_key(&ev.id) || slot_of.contains_key(&ev.id));
        let mut reclaimed = 0usize;
        self.dead.retain(|id, n| {
            if slot_of.contains_key(id) {
                true
            } else {
                reclaimed += *n as usize;
                false
            }
        });
        debug_assert_eq!(removed, reclaimed, "compaction ledger out of balance");
        self.dead_events -= reclaimed;
    }

    // ---- checkpoint surface -------------------------------------------

    /// The contiguous per-path heat slab (checkpoint section source; the
    /// slab order is state and must be restored verbatim).
    pub fn heat_slice(&self) -> &[HeatEntry] {
        &self.heat
    }

    /// Every pending expiry event in canonical `(expiry, id)` order
    /// (checkpoint section source). The canonical sort makes the
    /// section a pure function of the event multiset — independent of
    /// the wheel's internal bucket layout — so a checkpoint taken after
    /// a restore reproduces the image byte for byte.
    pub fn events_vec(&self) -> Vec<ExpiryEvent> {
        self.queue.sorted_events()
    }

    /// Tombstone records sorted by id (small; collected per checkpoint).
    pub fn dead_entries(&self) -> Vec<DeadEntry> {
        let mut out: Vec<DeadEntry> =
            self.dead.iter().map(|(&id, &n)| DeadEntry { id, events: n as u64 }).collect();
        out.sort_unstable_by_key(|d| d.id);
        out
    }

    /// Rebuilds a table from checkpointed sections: the heat slab is
    /// adopted verbatim; the event list (canonically sorted, see
    /// [`Hotness::events_vec`]) is re-inserted into a fresh wheel keyed
    /// by `clock` — the checkpoint header's epoch clock; the slot map
    /// and count buckets are derived from the slab, in slab order.
    ///
    /// # Errors
    /// Returns a description when the sections are structurally invalid
    /// (duplicate ids, zero counts, unsorted events, event/counter
    /// imbalance) — possible only for a checkpoint written by a buggy
    /// or hostile producer, since CRC validation happens before this
    /// runs.
    pub fn from_checkpoint_parts(
        window: SlidingWindow,
        heat: Vec<HeatEntry>,
        events: Vec<ExpiryEvent>,
        dead: Vec<DeadEntry>,
        recorded: u64,
        clock: Timestamp,
    ) -> Result<Self, String> {
        let mut slot_of = FxHashMap::default();
        for (slot, e) in heat.iter().enumerate() {
            if e.count == 0 || e.count > u64::from(u32::MAX) {
                return Err(format!("heat slab entry {} has count {}", e.id, e.count));
            }
            if slot_of.insert(e.id, slot as u32).is_some() {
                return Err(format!("duplicate heat slab entry for {}", e.id));
            }
        }
        if events.windows(2).any(|w| w[0].key() > w[1].key()) {
            return Err("event section is not sorted by (expiry, id)".into());
        }
        let mut dead_map = FxHashMap::default();
        let mut dead_events = 0usize;
        for d in &dead {
            if d.events == 0 || d.events > u64::from(u32::MAX) {
                return Err(format!("tombstone for {} has {} events", d.id, d.events));
            }
            if slot_of.contains_key(&d.id) || dead_map.insert(d.id, d.events as u32).is_some() {
                return Err(format!("conflicting tombstone for {}", d.id));
            }
            dead_events += d.events as usize;
        }
        let live: usize = heat.iter().map(|h| h.count as usize).sum();
        if live + dead_events != events.len() {
            return Err(format!(
                "{live} live + {dead_events} tombstoned events vs {} queued",
                events.len()
            ));
        }
        let mut queue = TimerWheel::new(clock.raw());
        for &ev in &events {
            queue.insert(ev);
        }
        let mut hot = Hotness {
            window,
            pos: vec![0; heat.len()],
            heat,
            slot_of,
            buckets: Vec::new(),
            queue,
            dead: dead_map,
            dead_events,
            recorded,
        };
        // Every count is bounded by the event total checked above, so
        // is the bucket vector's length.
        for slot in 0..hot.heat.len() {
            hot.bucket_push(slot as u32, hot.heat[slot].count);
        }
        Ok(hot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(window: u64) -> Hotness {
        Hotness::new(SlidingWindow::new(window))
    }

    #[test]
    fn crossings_accumulate() {
        let mut hot = h(100);
        hot.record_crossing(PathId(1), Timestamp(10), 1.0);
        hot.record_crossing(PathId(1), Timestamp(20), 1.0);
        hot.record_crossing(PathId(2), Timestamp(15), 1.0);
        assert_eq!(hot.get(PathId(1)), 2);
        assert_eq!(hot.get(PathId(2)), 1);
        assert_eq!(hot.get(PathId(3)), 0);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot.pending_events(), 3);
        assert_eq!(hot.total_recorded(), 3);
    }

    #[test]
    fn expiry_at_te_plus_w() {
        let mut hot = h(100);
        hot.record_crossing(PathId(1), Timestamp(10), 1.0);
        // Still hot one granule before expiry.
        assert!(hot.advance(Timestamp(109)).is_empty());
        assert_eq!(hot.get(PathId(1)), 1);
        // Dies exactly at te + W = 110.
        let died = hot.advance(Timestamp(110));
        assert_eq!(died, vec![PathId(1)]);
        assert_eq!(hot.get(PathId(1)), 0);
        assert!(hot.is_empty());
    }

    #[test]
    fn staggered_crossings_expire_independently() {
        let mut hot = h(50);
        hot.record_crossing(PathId(7), Timestamp(0), 1.0);
        hot.record_crossing(PathId(7), Timestamp(30), 1.0);
        // First crossing expires at 50; path stays hot.
        assert!(hot.advance(Timestamp(50)).is_empty());
        assert_eq!(hot.get(PathId(7)), 1);
        // Second expires at 80; path dies.
        assert_eq!(hot.advance(Timestamp(80)), vec![PathId(7)]);
    }

    #[test]
    fn advance_handles_batched_expiries() {
        let mut hot = h(10);
        for i in 0..5u64 {
            hot.record_crossing(PathId(i), Timestamp(i), 1.0);
        }
        let mut died = hot.advance(Timestamp(100));
        died.sort_unstable();
        assert_eq!(died, (0..5).map(PathId).collect::<Vec<_>>());
        assert_eq!(hot.pending_events(), 0);
    }

    #[test]
    fn advance_is_idempotent_per_timestamp() {
        let mut hot = h(10);
        hot.record_crossing(PathId(1), Timestamp(0), 1.0);
        assert_eq!(hot.advance(Timestamp(10)), vec![PathId(1)]);
        assert!(hot.advance(Timestamp(10)).is_empty());
        assert!(hot.advance(Timestamp(11)).is_empty());
    }

    #[test]
    fn advance_backwards_is_a_no_op() {
        // A non-monotone `now` must not fire events early or corrupt the
        // wheel clock.
        let mut hot = h(100);
        hot.record_crossing(PathId(1), Timestamp(50), 1.0); // expiry 150
        assert!(hot.advance(Timestamp(120)).is_empty());
        assert_eq!(hot.clock(), Timestamp(120));
        assert!(hot.advance(Timestamp(40)).is_empty());
        assert_eq!(hot.clock(), Timestamp(120), "clock must be monotone");
        assert_eq!(hot.advance(Timestamp(150)), vec![PathId(1)]);
        hot.check_consistency().unwrap();
    }

    #[test]
    fn matches_brute_force_recount() {
        // Property-style check on a deterministic pseudo-random schedule:
        // hotness(id) at time t equals the number of crossings with
        // te <= t < te + W.
        let w = 37u64;
        let mut hot = h(w);
        let mut crossings: Vec<(u64, Timestamp)> = Vec::new();
        let mut state = 12345u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for _ in 0..500 {
            now += rand() % 3;
            hot.advance(Timestamp(now));
            let id = rand() % 8;
            // te must not precede now in our usage (crossings end at or
            // before the current epoch); allow small past offsets.
            let te = Timestamp(now.saturating_sub(rand() % 5));
            hot.record_crossing(PathId(id), te, 1.0);
            crossings.push((id, te));

            for check_id in 0..8u64 {
                let expect = crossings
                    .iter()
                    .filter(|&&(i, te)| i == check_id && te.raw() + w > now)
                    .count() as u32;
                assert_eq!(
                    hot.get(PathId(check_id)),
                    expect,
                    "mismatch for id {check_id} at t={now}"
                );
            }
        }
    }

    /// The naive full-sort reference `top_n` must reproduce:
    /// `(hotness desc, length desc, id asc)`.
    fn oracle_order(hot: &Hotness, lengths: &dyn Fn(PathId) -> f64) -> Vec<(PathId, u32)> {
        let mut all: Vec<(PathId, u32)> = hot.iter().collect();
        all.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| lengths(b.0).total_cmp(&lengths(a.0)))
                .then_with(|| a.0.cmp(&b.0))
        });
        all
    }

    #[test]
    fn top_n_orders_by_hotness_length_id() {
        let mut hot = h(100);
        let len = |id: PathId| [30.0, 10.0, 30.0, 50.0][id.0 as usize];
        for (id, crossings) in [(0u64, 2), (1, 2), (2, 1), (3, 1)] {
            for _ in 0..crossings {
                hot.record_crossing(PathId(id), Timestamp(0), len(PathId(id)));
            }
        }
        // Hotness 2 beats 1; equal hotness breaks to longer; equal
        // length (none here at equal hotness) would break to lower id.
        let got = hot.top_n(4);
        assert_eq!(got, vec![(PathId(0), 2), (PathId(1), 2), (PathId(3), 1), (PathId(2), 1)]);
        assert_eq!(got, oracle_order(&hot, &len));
        hot.check_consistency().unwrap();
    }

    #[test]
    fn rank_tracks_advance_and_forget() {
        let mut hot = h(50);
        let len = |_: PathId| 1.0;
        hot.record_crossing(PathId(1), Timestamp(0), 1.0); // expires at 50
        hot.record_crossing(PathId(1), Timestamp(40), 1.0); // expires at 90
        hot.record_crossing(PathId(2), Timestamp(40), 1.0);
        hot.record_crossing(PathId(3), Timestamp(40), 1.0);
        assert_eq!(hot.top_n(1), vec![(PathId(1), 2)]);

        // First crossing of 1 expires: 1 drops to hotness 1, and the
        // rank falls back to id order among the three singletons.
        hot.advance(Timestamp(50));
        assert_eq!(hot.top_n(usize::MAX), oracle_order(&hot, &len));
        assert_eq!(hot.top_n(1), vec![(PathId(1), 1)]);

        hot.forget(PathId(1));
        assert_eq!(hot.top_n(1), vec![(PathId(2), 1)]);
        assert_eq!(hot.top_n(usize::MAX).len(), 2);
        hot.check_consistency().unwrap();

        // Everything expires; the buckets drain with the counters.
        hot.advance(Timestamp(1_000));
        assert!(hot.top_n(usize::MAX).is_empty());
        hot.check_consistency().unwrap();
    }

    #[test]
    fn consistency_audit_catches_bucket_drift() {
        let mut hot = h(100);
        hot.record_crossing(PathId(1), Timestamp(0), 1.0);
        hot.record_crossing(PathId(1), Timestamp(1), 1.0);
        hot.record_crossing(PathId(2), Timestamp(2), 1.0);
        hot.check_consistency().unwrap();
        // A slot listed under the wrong count.
        let mut bad = hot.clone();
        let slot = bad.buckets[2].pop().unwrap();
        bad.buckets[1].push(slot);
        assert!(bad.check_consistency().is_err());
        // A slot listed twice (and another not at all).
        let mut bad = hot.clone();
        bad.buckets[1][0] = bad.buckets[2][0];
        assert!(bad.check_consistency().is_err());
        // An empty bucket left above the highest live count.
        let mut bad = hot.clone();
        bad.buckets.push(Vec::new());
        assert!(bad.check_consistency().is_err());
    }

    #[test]
    fn rank_matches_oracle_under_random_churn() {
        // Deterministic pseudo-random schedule of record / advance /
        // forget; the bucket walk must equal the full sort at every
        // step, at every cut depth.
        let mut hot = h(23);
        let len = |id: PathId| ((id.0 * 37) % 101) as f64;
        let mut state = 7u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for step in 0..600 {
            now += rand() % 3;
            hot.advance(Timestamp(now));
            let id = PathId(rand() % 12);
            if rand() % 7 == 0 {
                hot.forget(id);
            } else {
                hot.record_crossing(id, Timestamp(now), len(id));
            }
            let oracle = oracle_order(&hot, &len);
            for n in [0, 1, 3, oracle.len(), oracle.len() + 1] {
                assert_eq!(
                    hot.top_n(n),
                    oracle[..n.min(oracle.len())],
                    "top_n({n}) diverged at step {step}, t={now}"
                );
            }
            hot.check_consistency().unwrap();
        }
    }

    #[test]
    fn forget_removes_counter() {
        let mut hot = h(100);
        hot.record_crossing(PathId(1), Timestamp(0), 1.0);
        hot.forget(PathId(1));
        assert_eq!(hot.get(PathId(1)), 0);
        assert!(hot.is_empty());
    }

    #[test]
    fn forget_tombstones_reclaim_or_compact() {
        let mut hot = h(100);
        hot.record_crossing(PathId(1), Timestamp(0), 1.0); // expiry 100
        hot.record_crossing(PathId(1), Timestamp(5), 1.0); // expiry 105
        hot.record_crossing(PathId(2), Timestamp(3), 1.0); // expiry 103
        assert_eq!(hot.pending_events(), 3);

        // Forgetting 1 tombstones its two events; they now outnumber the
        // single live event, so compaction sweeps them out of the wheel
        // immediately — no waiting for their natural expiry.
        hot.forget(PathId(1));
        assert_eq!(hot.pending_events(), 1);
        assert_eq!(hot.queued_events(), 1, "tombstones not compacted");
        hot.check_consistency().unwrap();

        // The live path expires normally.
        assert_eq!(hot.advance(Timestamp(103)), vec![PathId(2)]);
        assert_eq!(hot.queued_events(), 0);
        assert_eq!(hot.pending_events(), 0);
    }

    #[test]
    fn forget_tombstones_below_threshold_reclaim_on_expiry() {
        // With tombstones a minority, compaction does not trigger: the
        // dead events stay bucketed and are reclaimed as they fire.
        let mut hot = h(100);
        for i in 0..5u64 {
            hot.record_crossing(PathId(i), Timestamp(i), 1.0); // expiries 100..105
        }
        hot.forget(PathId(0));
        assert_eq!(hot.pending_events(), 4);
        assert_eq!(hot.queued_events(), 5, "minority tombstone swept too eagerly");
        hot.check_consistency().unwrap();

        // The tombstoned event fires at t=100 and is reclaimed silently;
        // nobody dies until the live paths expire.
        assert!(hot.advance(Timestamp(100)).is_empty());
        assert_eq!(hot.queued_events(), 4);
        assert_eq!(hot.pending_events(), 4);
        let mut died = hot.advance(Timestamp(200));
        died.sort_unstable();
        assert_eq!(died, (1..5).map(PathId).collect::<Vec<_>>());
        hot.check_consistency().unwrap();
    }

    #[test]
    fn same_timestamp_events_expire_in_id_order() {
        // Many events sharing one expiry instant: `died` must come back
        // ordered by id — the `(expiry, id)` order the heap produced.
        let mut hot = h(10);
        for id in [9u64, 3, 7, 1, 5] {
            hot.record_crossing(PathId(id), Timestamp(4), 1.0); // all expire at 14
        }
        assert_eq!(hot.advance(Timestamp(14)), [1u64, 3, 5, 7, 9].map(PathId).to_vec());
        hot.check_consistency().unwrap();
    }

    #[test]
    fn far_future_events_cascade_across_levels() {
        // A huge window puts the expiry many wheel levels above the
        // clock; advancing in uneven steps must cascade it down without
        // firing early, and fire it exactly on time.
        let w = (1u64 << 40) + 12345;
        let mut hot = h(w);
        hot.record_crossing(PathId(1), Timestamp(7), 1.0);
        let expiry = 7 + w;
        let mut now = 0u64;
        // Uneven exponential-ish steps that cross several level
        // boundaries, stopping just short of the expiry.
        while now + (now / 2) + 13 < expiry {
            now += now / 2 + 13;
            assert!(hot.advance(Timestamp(now)).is_empty(), "fired early at t={now}");
            assert_eq!(hot.get(PathId(1)), 1);
            hot.check_consistency().unwrap();
        }
        assert!(hot.advance(Timestamp(expiry - 1)).is_empty());
        assert_eq!(hot.advance(Timestamp(expiry)), vec![PathId(1)]);
        hot.check_consistency().unwrap();
    }

    #[test]
    fn late_events_land_in_ready_and_fire_next_advance() {
        // A crossing whose expiry is at or before the wheel clock (the
        // window already slid past it) must still fire — on the next
        // advance that reaches its expiry, not before.
        let mut hot = h(10);
        hot.advance(Timestamp(100));
        hot.record_crossing(PathId(1), Timestamp(85), 1.0); // expiry 95 <= clock 100
        assert_eq!(hot.pending_events(), 1);
        hot.check_consistency().unwrap();
        // Clock is already past the expiry; the event fires immediately.
        assert_eq!(hot.advance(Timestamp(100)), vec![PathId(1)]);
        assert_eq!(hot.pending_events(), 0);
        hot.check_consistency().unwrap();
    }

    #[test]
    fn checkpoint_parts_roundtrip_continues_identically() {
        // Drive a table through deterministic churn, snapshot its slab /
        // events / tombstones, rebuild, and check both copies stay in
        // lock-step through further churn — the in-crate version of the
        // restart-parity property the checkpoint module relies on.
        let mut hot = h(23);
        let len = |id: PathId| ((id.0 * 37) % 101) as f64;
        let mut state = 99u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for _ in 0..300 {
            now += rand() % 3;
            hot.advance(Timestamp(now));
            let id = PathId(rand() % 12);
            if rand() % 7 == 0 {
                hot.forget(id);
            } else {
                hot.record_crossing(id, Timestamp(now), len(id));
            }
        }
        let mut copy = Hotness::from_checkpoint_parts(
            hot.window(),
            hot.heat_slice().to_vec(),
            hot.events_vec(),
            hot.dead_entries(),
            hot.total_recorded(),
            hot.clock(),
        )
        .unwrap();
        copy.check_consistency().unwrap();
        assert_eq!(copy.heat_slice(), hot.heat_slice());
        assert_eq!(copy.events_vec(), hot.events_vec());
        for _ in 0..300 {
            now += rand() % 3;
            assert_eq!(hot.advance(Timestamp(now)), copy.advance(Timestamp(now)));
            let id = PathId(rand() % 12);
            if rand() % 7 == 0 {
                hot.forget(id);
                copy.forget(id);
            } else {
                hot.record_crossing(id, Timestamp(now), len(id));
                copy.record_crossing(id, Timestamp(now), len(id));
            }
            assert_eq!(hot.heat_slice(), copy.heat_slice());
            assert_eq!(hot.events_vec(), copy.events_vec());
            assert_eq!(hot.top_n(usize::MAX), copy.top_n(usize::MAX));
        }
    }

    #[test]
    fn checkpoint_restore_is_byte_idempotent() {
        // The canonical event order makes checkpoint-of-restore
        // reproduce the original sections exactly, even though the
        // restored wheel's internal bucket layout differs from the
        // original's (restore inserts against the final clock; the
        // original cascaded its way there).
        let mut hot = h(1 << 20);
        let mut state = 3u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for _ in 0..200 {
            now += rand() % 1000;
            hot.advance(Timestamp(now));
            hot.record_crossing(PathId(rand() % 40), Timestamp(now), 1.0);
        }
        let restore = |h: &Hotness| {
            Hotness::from_checkpoint_parts(
                h.window(),
                h.heat_slice().to_vec(),
                h.events_vec(),
                h.dead_entries(),
                h.total_recorded(),
                h.clock(),
            )
            .unwrap()
        };
        let once = restore(&hot);
        let twice = restore(&once);
        assert_eq!(once.events_vec(), hot.events_vec());
        assert_eq!(twice.events_vec(), hot.events_vec());
        assert_eq!(once.heat_slice(), hot.heat_slice());
        assert_eq!(once.dead_entries(), hot.dead_entries());
        assert_eq!(once.clock(), hot.clock());
        once.check_consistency().unwrap();
        twice.check_consistency().unwrap();
    }

    #[test]
    fn checkpoint_parts_reject_structural_corruption() {
        let mut hot = h(10);
        hot.record_crossing(PathId(1), Timestamp(0), 2.0);
        hot.record_crossing(PathId(2), Timestamp(1), 3.0);
        let heat = hot.heat_slice().to_vec();
        let events = hot.events_vec();
        let w = hot.window();
        let t0 = Timestamp(0);

        // Duplicate slab id.
        let mut dup = heat.clone();
        dup.push(heat[0]);
        assert!(Hotness::from_checkpoint_parts(w, dup, events.clone(), vec![], 3, t0).is_err());
        // Zero count.
        let mut zero = heat.clone();
        zero[0].count = 0;
        assert!(Hotness::from_checkpoint_parts(w, zero, events.clone(), vec![], 2, t0).is_err());
        // Canonical (expiry, id) order violated.
        let mut bad = events.clone();
        bad.reverse();
        if bad != events {
            assert!(Hotness::from_checkpoint_parts(w, heat.clone(), bad, vec![], 2, t0).is_err());
        }
        // Event/counter imbalance.
        assert!(Hotness::from_checkpoint_parts(w, heat.clone(), vec![], vec![], 2, t0).is_err());
        // Tombstone colliding with a live id.
        assert!(Hotness::from_checkpoint_parts(
            w,
            heat,
            events,
            vec![DeadEntry { id: PathId(1), events: 1 }],
            2,
            t0
        )
        .is_err());
    }

    #[test]
    fn layouts_are_padding_free() {
        assert_eq!(std::mem::size_of::<HeatEntry>(), 24);
        assert_eq!(std::mem::size_of::<ExpiryEvent>(), 16);
        assert_eq!(std::mem::size_of::<DeadEntry>(), 16);
        assert_eq!(std::mem::align_of::<HeatEntry>(), 8);
    }

    #[test]
    fn forget_heavy_churn_does_not_leak() {
        // A long run that records and immediately forgets distinct ids:
        // without compaction the wheel would hold every event for a
        // whole window (here 10_000 timestamps deep).
        let mut hot = h(10_000);
        for i in 0..1_000u64 {
            hot.advance(Timestamp(i));
            hot.record_crossing(PathId(i), Timestamp(i), 1.0);
            hot.forget(PathId(i));
        }
        hot.advance(Timestamp(1_000));
        assert_eq!(hot.pending_events(), 0);
        // Compaction has swept every tombstone; the wheel is empty even
        // though no event has naturally expired.
        assert_eq!(hot.queued_events(), 0);
        assert!(hot.is_empty());
    }

    /// A minimal `(expiry, id)` min-heap — the semantics the wheel must
    /// reproduce — driven side by side with the wheel-backed table
    /// through adversarial schedules. This is the in-module complement
    /// to the whole-table model proptest in `tests/props.rs`.
    #[test]
    fn wheel_matches_heap_reference_side_by_side() {
        use std::collections::BinaryHeap;
        let w = 97u64;
        let mut hot = h(w);
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
        let mut state = 2024u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for step in 0..2_000 {
            // Occasional large jumps exercise multi-level cascades.
            now += if rand() % 50 == 0 { 1 + rand() % 500 } else { rand() % 4 };
            // Reference: pop everything due, in (expiry, id) order.
            let mut ref_died: Vec<u64> = Vec::new();
            while let Some(&Reverse((exp, id))) = heap.peek() {
                if exp > now {
                    break;
                }
                heap.pop();
                let c = counts.get_mut(&id).unwrap();
                *c -= 1;
                if *c == 0 {
                    counts.remove(&id);
                    ref_died.push(id);
                }
            }
            let died: Vec<u64> = hot.advance(Timestamp(now)).iter().map(|p| p.0).collect();
            assert_eq!(died, ref_died, "died order diverged at step {step}, t={now}");

            let id = rand() % 16;
            hot.record_crossing(PathId(id), Timestamp(now), 1.0);
            heap.push(Reverse((now + w, id)));
            *counts.entry(id).or_insert(0) += 1;

            for check in 0..16u64 {
                assert_eq!(
                    hot.get(PathId(check)),
                    counts.get(&check).copied().unwrap_or(0),
                    "count diverged for {check} at step {step}"
                );
            }
            assert_eq!(hot.pending_events(), heap.len(), "pending diverged at step {step}");
            if step % 64 == 0 {
                hot.check_consistency().unwrap();
            }
        }
    }
}
