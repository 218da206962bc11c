//! The path table: every stored motion path with its sliding-window
//! hotness, in one slab (Sections 5.1 and 5.2).
//!
//! The paper's index stores each motion path together with its hotness
//! counter, and a path lives exactly as long as it has an unexpired
//! crossing. [`PathTable`] keeps it that way: one slab row per path
//! holds the record, its count, its position in the count buckets and
//! its position in its end-vertex grid cell, and one id → slot map finds
//! the row. Around the slab sit the structures the queries need:
//!
//! * *available motion paths* (Case 1): paths starting at a given vertex
//!   whose end falls inside an FSA, answered from the start vertex's
//!   exact out-adjacency list, whose entries carry the end vertex and
//!   length, so it costs one hash probe plus the vertex's out-degree;
//! * *available vertices* (Case 2): end vertices of stored paths inside
//!   an FSA, each with its converging paths — the one true range query,
//!   answered from the end-vertex grid;
//! * *count buckets*: `buckets[c]` lists the paths at hotness `c`, and
//!   every `±1` moves one path between adjacent buckets in O(1), so
//!   [`PathTable::top_n`] walks down from the highest live count and
//!   orders only what it returns;
//! * *the expiry wheel*: one `<te + W, id>` event per unexpired crossing,
//!   fired in amortized O(expired) per advance (see [`crate::wheel`]).
//!
//! A path enters with its first crossing ([`PathTable::insert_edge`]),
//! gains crossings through [`PathTable::record`], and leaves only by
//! expiry: when [`PathTable::advance`] drops a count to zero, the path
//! leaves the buckets, the slab, the grid and its adjacency list in that
//! same call. Stored and hot are therefore the same set.
//!
//! Vertex identity is quantized to a configurable grain: vertices are
//! only ever minted by the coordinator, so equality is exact in practice
//! and the grain merely guards against float noise.

use super::grid::{EndpointGrid, Entry};
use super::vertex_groups::VertexGroups;
use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};
use crate::motion_path::{MotionPath, PathId};
use crate::time::{SlidingWindow, Timestamp};
use crate::wheel::TimerWheel;
use std::cmp::Reverse;

/// Quantized vertex key.
pub type VertexKey = (i64, i64);

/// Lexicographic `(x, y)` order on raw points (total, NaN-safe).
#[inline]
pub(crate) fn point_lt(a: &Point, b: &Point) -> bool {
    a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)).is_lt()
}

/// One out-adjacency entry: a stored path's id with copies of its end
/// vertex and length, so the Case-1 filter and ranking read the
/// adjacency list alone — no per-entry slab lookup. Both copies are
/// bit-equal to the row's ([`PathTable::check_consistency`] audits it);
/// path geometry is immutable, so they never go stale.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OutEdge {
    /// The path.
    pub id: PathId,
    /// Its end vertex ([`MotionPath::end`]).
    pub end: Point,
    /// Its length ([`MotionPath::length`]).
    pub len: f64,
}

impl OutEdge {
    fn of(path: &MotionPath) -> Self {
        OutEdge { id: path.id, end: path.end(), len: path.length() }
    }
}

/// One pending expiry: a crossing of `id` leaves the window at `expiry`
/// (`te + W`, Section 5.2). `repr(C)`: 16 bytes, no padding — the
/// checkpoint's event section is a memcpy of the canonically sorted
/// event list (see [`PathTable::events_vec`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct ExpiryEvent {
    /// Expiry timestamp `te + W`.
    pub expiry: Timestamp,
    /// The path whose count decrements then.
    pub id: PathId,
}

impl ExpiryEvent {
    /// The canonical `(expiry, id)` order: an expired batch is processed
    /// in it, and the checkpoint's event section is sorted by it.
    #[inline]
    pub fn sort_key(&self) -> (Timestamp, PathId) {
        (self.expiry, self.id)
    }
}

/// One stored path and where it sits in the derived structures.
#[derive(Clone, Copy, Debug)]
struct Row {
    path: MotionPath,
    /// [`MotionPath::length`], computed once: the top-k tie-break key.
    len: f64,
    /// Unexpired crossings; at least 1 between calls.
    count: u32,
    /// Position of this row's slot in `buckets[count]`.
    bucket_pos: u32,
    /// Position of the end-vertex entry within its grid cell.
    cell_pos: u32,
}

/// The coordinator's one path store: paths, hotness, and every index
/// over them (see the module docs).
#[derive(Clone, Debug)]
pub struct PathTable {
    window: SlidingWindow,
    vertex_grain: f64,
    /// One row per stored path, in maintenance order (inserts append,
    /// expiries `swap_remove`). Not visible in checkpoints, which list
    /// the paths by id.
    rows: Vec<Row>,
    /// Path id -> slot in `rows`.
    slot_of: FxHashMap<PathId, u32>,
    grid: EndpointGrid,
    /// Outgoing adjacency: start vertex -> paths leaving it.
    out_adj: FxHashMap<VertexKey, Vec<OutEdge>>,
    /// Emptied adjacency lists, kept for the next new start vertex.
    spare_adj: Vec<Vec<OutEdge>>,
    /// `buckets[c]`: the slots of the rows at hotness `c`, in no
    /// particular order. `buckets[0]` stays empty and the vector ends at
    /// the highest live count.
    buckets: Vec<Vec<u32>>,
    /// One `(te + W, id)` event per unexpired crossing.
    wheel: TimerWheel,
    /// The paths the last [`PathTable::advance`] removed, in order.
    died: Vec<PathId>,
    /// The id the next created path gets.
    next_id: u64,
    /// Crossings ever recorded (diagnostics).
    recorded: u64,
}

impl PathTable {
    /// Creates an empty table over the sliding window, with the given
    /// end-vertex grid cell side and vertex quantization grain (meters).
    /// The cell side affects performance only; about one FSA side keeps
    /// a Case-2 query to at most four cells.
    pub fn new(window: SlidingWindow, cell: f64, vertex_grain: f64) -> Self {
        assert!(vertex_grain > 0.0, "vertex grain must be positive");
        PathTable {
            window,
            vertex_grain,
            rows: Vec::new(),
            slot_of: FxHashMap::default(),
            grid: EndpointGrid::new(cell),
            out_adj: FxHashMap::default(),
            spare_adj: Vec::new(),
            buckets: Vec::new(),
            wheel: TimerWheel::default(),
            died: Vec::new(),
            next_id: 0,
            recorded: 0,
        }
    }

    /// The expiry wheel's clock: the largest [`PathTable::advance`] time
    /// seen, or the clock the table was restored against.
    pub fn clock(&self) -> Timestamp {
        Timestamp(self.wheel.clock())
    }

    /// Number of stored paths — the paper's *index size*, and equally
    /// the number of paths with positive hotness.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no path is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Quantized identity key of a vertex.
    #[inline]
    pub fn vertex_key(&self, p: &Point) -> VertexKey {
        p.quantize(self.vertex_grain)
    }

    /// Looks up a path by id.
    pub fn get(&self, id: PathId) -> Option<&MotionPath> {
        self.slot_of.get(&id).map(|&s| &self.rows[s as usize].path)
    }

    /// Current hotness of `id`: its crossings inside the window, zero
    /// when it is not stored. One map probe and one slab read — the
    /// ranking of Phases A and B calls it per candidate.
    #[inline]
    pub fn hotness(&self, id: PathId) -> u32 {
        self.slot_of.get(&id).map_or(0, |&s| self.rows[s as usize].count)
    }

    /// Every stored path with its hotness, in slab order (which is not
    /// canonical: a restored table holds its rows in id order).
    pub fn iter(&self) -> impl Iterator<Item = (&MotionPath, u32)> {
        self.rows.iter().map(|r| (&r.path, r.count))
    }

    /// Pending expiry events: one per unexpired crossing, so the sum of
    /// all hotness counts.
    pub fn pending_events(&self) -> usize {
        self.wheel.len()
    }

    /// Total crossings ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// The id the next created path gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Records a crossing of the path `start -> end` exiting at `te`,
    /// storing the path first unless one with the same quantized
    /// endpoints (and direction) is stored already — crossings of one
    /// geometry belong to one path. Returns the stored path's adjacency
    /// entry (on a dedup hit the *existing* end vertex and length, which
    /// is what the caller must respond with) and whether it was created.
    /// Ids come from the table's own counter, advanced only on creation.
    pub fn insert_edge(&mut self, start: Point, end: Point, te: Timestamp) -> (OutEdge, bool) {
        let grain = self.vertex_grain;
        let ekey = end.quantize(grain);
        // One probe finds the start vertex's list for both the dedup
        // scan and the push.
        let outs = self
            .out_adj
            .entry(start.quantize(grain))
            .or_insert_with(|| self.spare_adj.pop().unwrap_or_default());
        if let Some(&existing) = outs.iter().find(|e| e.end.quantize(grain) == ekey) {
            self.record(existing.id, te);
            return (existing, false);
        }
        let path = MotionPath::new(PathId(self.next_id), start, end);
        let edge = OutEdge::of(&path);
        outs.push(edge);
        self.next_id += 1;
        let slot = self.place(path, edge.len);
        self.bump(slot, te);
        (edge, true)
    }

    /// Records that an object crossed the stored path `id`, exiting at
    /// `te`: the count rises by one and `<te + W, id>` joins the expiry
    /// wheel (Section 5.2).
    ///
    /// # Panics
    /// When `id` is not stored: crossings are only ever recorded on
    /// paths a query just returned.
    pub fn record(&mut self, id: PathId, te: Timestamp) {
        let slot = *self.slot_of.get(&id).expect("crossing recorded on a path the table lacks");
        self.bump(slot, te);
    }

    /// Appends a zero-count row for `path`, already in its adjacency
    /// list, and enters it into the grid and the id map.
    fn place(&mut self, path: MotionPath, len: f64) -> u32 {
        let cell_pos = self.grid.insert(Entry { endpoint: path.end(), path: path.id });
        let slot = self.rows.len() as u32;
        self.slot_of.insert(path.id, slot);
        self.rows.push(Row { path, len, count: 0, bucket_pos: 0, cell_pos });
        slot
    }

    /// One more crossing of the row at `slot`, exiting at `te`.
    fn bump(&mut self, slot: u32, te: Timestamp) {
        let Row { path, count, .. } = self.rows[slot as usize];
        if count > 0 {
            self.bucket_remove(slot, count);
        }
        self.rows[slot as usize].count = count + 1;
        self.bucket_push(slot, count + 1);
        self.wheel.insert(ExpiryEvent { expiry: self.window.expiry_of(te), id: path.id });
        self.recorded += 1;
    }

    /// Appends `slot` to the bucket of `count`.
    fn bucket_push(&mut self, slot: u32, count: u32) {
        let c = count as usize;
        if self.buckets.len() <= c {
            self.buckets.resize_with(c + 1, Vec::new);
        }
        self.rows[slot as usize].bucket_pos = self.buckets[c].len() as u32;
        self.buckets[c].push(slot);
    }

    /// Takes `slot` out of the bucket of `count`; the bucket's last slot
    /// fills the gap.
    fn bucket_remove(&mut self, slot: u32, count: u32) {
        let bucket = &mut self.buckets[count as usize];
        let at = self.rows[slot as usize].bucket_pos;
        bucket.swap_remove(at as usize);
        if let Some(&moved) = bucket.get(at as usize) {
            self.rows[moved as usize].bucket_pos = at;
        }
    }

    /// Advances the clock to `now`: takes every event with
    /// `expiry <= now` off the wheel and decrements the counts in
    /// `(expiry, id)` order. A path whose count reaches zero leaves the
    /// table at once. Returns the removed paths in removal order.
    /// Amortized O(expired), independent of the pending-set size.
    pub fn advance(&mut self, now: Timestamp) -> &[PathId] {
        self.died.clear();
        self.wheel.advance_collect(now.raw());
        let mut expired = self.wheel.take_expired();
        // Apply in `(expiry, id)` order, so removal order — and hence
        // slab order — is independent of the wheel's bucket layout.
        expired.sort_unstable_by_key(ExpiryEvent::sort_key);
        for ev in &expired {
            let slot = self.slot_of[&ev.id];
            let count = self.rows[slot as usize].count;
            self.bucket_remove(slot, count);
            if count == 1 {
                self.remove_slot(slot);
                self.died.push(ev.id);
            } else {
                self.rows[slot as usize].count = count - 1;
                self.bucket_push(slot, count - 1);
            }
        }
        // Drop empty buckets above the highest live count.
        while self.buckets.last().is_some_and(Vec::is_empty) {
            self.buckets.pop();
        }
        self.wheel.give_expired(expired);
        &self.died
    }

    /// Removes the row at `slot` (already out of its bucket) from the
    /// slab, the id map, the grid and its adjacency list, fixing up the
    /// rows the `swap_remove`s relocate.
    fn remove_slot(&mut self, slot: u32) {
        let row = self.rows.swap_remove(slot as usize);
        let id = row.path.id;
        self.slot_of.remove(&id);
        if let Some(moved) = self.rows.get(slot as usize) {
            self.slot_of.insert(moved.path.id, slot);
            self.buckets[moved.count as usize][moved.bucket_pos as usize] = slot;
        }
        if let Some(moved) = self.grid.remove(&row.path.end(), row.cell_pos) {
            let moved = self.slot_of[&moved];
            self.rows[moved as usize].cell_pos = row.cell_pos;
        }
        let skey = self.vertex_key(&row.path.start());
        if let Some(list) = self.out_adj.get_mut(&skey) {
            list.retain(|e| e.id != id);
            if list.is_empty() {
                self.spare_adj.extend(self.out_adj.remove(&skey));
            }
        }
    }

    /// Case-1 query (Alg. 2 GetCandidatePaths): paths starting at the
    /// vertex of `start` whose end vertex lies inside `fsa`.
    pub fn paths_from_into(&self, start: &Point, fsa: &Rect) -> Vec<PathId> {
        let mut out = Vec::new();
        self.paths_from_into_buf(start, fsa, &mut out);
        out.iter().map(|e| e.id).collect()
    }

    /// [`PathTable::paths_from_into`] appending into a caller buffer —
    /// the allocation-free form the epoch hot loop uses (the buffer
    /// lives in the coordinator's scratch arena). Entries are appended
    /// in adjacency-list order; the strategy's selection is a strict
    /// total order over candidates, so candidate order is unobservable.
    pub fn paths_from_into_buf(&self, start: &Point, fsa: &Rect, out: &mut Vec<OutEdge>) {
        out.extend(self.paths_starting_at(start).iter().filter(|e| fsa.contains(&e.end)));
    }

    /// Case-2 query (Alg. 2 GetCandidateVertices): distinct end vertices
    /// inside `fsa`, each with the ids of the paths converging to it.
    ///
    /// When float-noisy copies of one vertex (same quantized key,
    /// different raw coordinates) converge, the group's representative
    /// point is the lexicographically smallest raw endpoint — canonical,
    /// so the answer is independent of grid visit order. Groups come
    /// sorted by representative `(x, y)`, ids ascending within each.
    pub fn end_vertices_in(&self, fsa: &Rect) -> Vec<(Point, Vec<PathId>)> {
        let mut groups = VertexGroups::new();
        self.end_vertices_into(fsa, &mut groups);
        groups.to_vec()
    }

    /// [`PathTable::end_vertices_in`] writing into a reusable
    /// [`VertexGroups`] accumulator (cleared here) instead of
    /// materializing a fresh vector of vectors per call — unsorted: the
    /// form `phase_b` uses, which cannot observe group or id order.
    pub fn end_vertices_into(&self, fsa: &Rect, out: &mut VertexGroups) {
        out.clear();
        self.grid.for_each_in(fsa, |entry| {
            out.push(self.vertex_key(&entry.endpoint), entry.endpoint, entry.path);
        });
    }

    /// Paths leaving the vertex of `p`: the adjacency Case 1 filters.
    pub fn paths_starting_at(&self, p: &Point) -> &[OutEdge] {
        self.out_adj.get(&self.vertex_key(p)).map_or(&[], Vec::as_slice)
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
    /// bucket, i.e. most of the table, and the call copies and
    /// partitions that once.
    pub fn top_n(&self, n: usize) -> Vec<(PathId, u32)> {
        // Lengths are non-negative finite floats, so their IEEE-754 bit
        // patterns order the same way `f64::total_cmp` does.
        let key = |&slot: &u32| {
            let r = &self.rows[slot as usize];
            (Reverse(r.count), Reverse(r.len.to_bits()), r.path.id)
        };
        let mut top: Vec<u32> = Vec::with_capacity(n.min(self.rows.len()));
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
                let r = &self.rows[slot as usize];
                (r.path.id, r.count)
            })
            .collect()
    }

    /// Internal-consistency audit used by tests and debug assertions:
    /// every row is found through the id map, its bucket position and
    /// its grid position; every adjacency entry matches its row; no
    /// emptied cell, list or bucket is left live or dirty; the wheel is
    /// sound and holds exactly one event per unit of hotness.
    pub fn check_consistency(&self) -> Result<(), String> {
        let n = self.rows.len();
        if self.slot_of.len() != n || self.grid.len() != n {
            return Err(format!(
                "{} map entries and {} grid entries for {n} rows",
                self.slot_of.len(),
                self.grid.len()
            ));
        }
        for (slot, r) in self.rows.iter().enumerate() {
            let id = r.path.id;
            if self.slot_of.get(&id) != Some(&(slot as u32)) {
                return Err(format!("id map lost {id} (slot {slot})"));
            }
            if r.count == 0 {
                return Err(format!("{id} is stored with no crossing"));
            }
            if r.len.to_bits() != r.path.length().to_bits() {
                return Err(format!("{id} carries a stale length"));
            }
            let bucket = self.buckets.get(r.count as usize);
            if bucket.and_then(|b| b.get(r.bucket_pos as usize)) != Some(&(slot as u32)) {
                return Err(format!("buckets lost {id} (hotness {})", r.count));
            }
            let entry = Entry { endpoint: r.path.end(), path: id };
            if self.grid.get(&r.path.end(), r.cell_pos) != Some(&entry) {
                return Err(format!("grid position {} does not hold {id}", r.cell_pos));
            }
        }
        // With the totals equal, each slot found at its own recorded
        // position means no slot is missing and none is listed twice.
        let bucketed: usize = self.buckets.iter().map(Vec::len).sum();
        if bucketed != n {
            return Err(format!("buckets hold {bucketed} slots for {n} rows"));
        }
        if self.buckets.last().is_some_and(Vec::is_empty) {
            return Err(format!("{} buckets, the top one empty", self.buckets.len()));
        }
        self.grid.check()?;
        if self.spare_adj.iter().any(|v| !v.is_empty()) {
            return Err("a kept buffer of an emptied adjacency list is not empty".into());
        }
        let mut out_total = 0;
        for (key, edges) in &self.out_adj {
            if edges.is_empty() {
                return Err(format!("empty adjacency list left live at {key:?}"));
            }
            out_total += edges.len();
            for e in edges {
                let id = e.id;
                let p = self.get(id).ok_or(format!("dangling out id {id}"))?;
                if self.vertex_key(&p.start()) != *key {
                    return Err(format!("out-adjacency key mismatch for {id}"));
                }
                let bits = |e: &OutEdge| [e.end.x, e.end.y, e.len].map(f64::to_bits);
                if bits(e) != bits(&OutEdge::of(p)) {
                    return Err(format!("out-adjacency copy of {id} differs from its record"));
                }
            }
        }
        if out_total != n {
            return Err(format!("adjacency size {out_total} vs {n} rows"));
        }
        self.wheel.check()?;
        let total: usize = self.rows.iter().map(|r| r.count as usize).sum();
        if total != self.wheel.len() {
            return Err(format!(
                "{total} units of hotness vs {} pending expiry events",
                self.wheel.len()
            ));
        }
        Ok(())
    }

    // ---- checkpoint surface -------------------------------------------

    /// Every stored path, sorted by id (the checkpoint's Paths section).
    pub fn paths_by_id(&self) -> Vec<MotionPath> {
        let mut paths: Vec<MotionPath> = self.rows.iter().map(|r| r.path).collect();
        paths.sort_unstable_by_key(|p| p.id);
        paths
    }

    /// Every pending expiry event in canonical `(expiry, id)` order (the
    /// checkpoint's Events section): a pure function of the event
    /// multiset, independent of the wheel's bucket layout.
    pub fn events_vec(&self) -> Vec<ExpiryEvent> {
        self.wheel.sorted_events()
    }

    /// Fills this empty table from checkpointed sections: `paths` sorted
    /// by id ([`PathTable::paths_by_id`]) and `events` in canonical order
    /// ([`PathTable::events_vec`]). The rows go in in id order; each
    /// count is the number of the path's events, which re-enter a fresh
    /// wheel keyed by `clock`, the checkpoint's epoch clock; the grid,
    /// adjacency and buckets are rebuilt. Nothing of the old slab order
    /// survives, so the image is independent of it.
    ///
    /// # Errors
    /// Returns a description when the sections do not describe a table
    /// this code could have built — possible only for an image from a
    /// buggy or hostile producer, since CRCs are checked first: paths
    /// not strictly ascending by id, an id at or above `next_id`,
    /// non-finite endpoints, two paths with one quantized geometry,
    /// events out of order, an event naming no stored path, or a stored
    /// path without an event.
    pub fn restore(
        mut self,
        paths: Vec<MotionPath>,
        events: Vec<ExpiryEvent>,
        next_id: u64,
        recorded: u64,
        clock: Timestamp,
    ) -> Result<Self, String> {
        debug_assert!(self.is_empty(), "restore into a non-empty table");
        let grain = self.vertex_grain;
        self.rows.reserve(paths.len());
        for (i, path) in paths.into_iter().enumerate() {
            if i > 0 && self.rows[i - 1].path.id >= path.id {
                return Err(format!("paths section is not strictly ascending at {}", path.id));
            }
            if path.id.0 >= next_id {
                return Err(format!("path {} is not below the id counter {next_id}", path.id));
            }
            if !path.start().is_finite() || !path.end().is_finite() {
                return Err(format!("path {} has non-finite endpoints", path.id));
            }
            let ekey = path.end().quantize(grain);
            let outs = self.out_adj.entry(path.start().quantize(grain)).or_default();
            if let Some(twin) = outs.iter().find(|e| e.end.quantize(grain) == ekey) {
                return Err(format!("paths {} and {} share one geometry", twin.id, path.id));
            }
            let edge = OutEdge::of(&path);
            outs.push(edge);
            self.place(path, edge.len);
        }
        if events.windows(2).any(|w| w[0].sort_key() > w[1].sort_key()) {
            return Err("events section is not sorted by (expiry, id)".into());
        }
        self.wheel = TimerWheel::new(clock.raw());
        for ev in events {
            let Some(&slot) = self.slot_of.get(&ev.id) else {
                return Err(format!("an expiry event names {}, which is not stored", ev.id));
            };
            let count = &mut self.rows[slot as usize].count;
            *count = count.checked_add(1).ok_or(format!("{} has too many events", ev.id))?;
            self.wheel.insert(ev);
        }
        for slot in 0..self.rows.len() as u32 {
            let Row { path, count, .. } = self.rows[slot as usize];
            if count == 0 {
                return Err(format!("stored path {} has no expiry event", path.id));
            }
            self.bucket_push(slot, count);
        }
        self.next_id = next_id;
        self.recorded = recorded;
        Ok(self)
    }
}

/// Handles on the derived structures, for tests that corrupt them on
/// purpose to prove the audit notices.
#[cfg(test)]
impl PathTable {
    pub(crate) fn buckets_mut(&mut self) -> &mut Vec<Vec<u32>> {
        &mut self.buckets
    }

    pub(crate) fn out_adj_mut(&mut self) -> &mut FxHashMap<VertexKey, Vec<OutEdge>> {
        &mut self.out_adj
    }
}
