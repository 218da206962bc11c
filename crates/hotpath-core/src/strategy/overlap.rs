//! FSA-overlap analysis (Alg. 2 lines 8-12 and 23-34).
//!
//! The paper materializes `Rall`, the set of all intersections among the
//! reporting objects' FSAs, each tagged with the number of FSAs it lies
//! in. `Rall` is only ever consumed through two queries, both answered
//! exactly here without enumerating the (worst-case exponential) power
//! set:
//!
//! * *smallest overlap containing a vertex* (line 24): its count equals
//!   the **stabbing depth** — the number of FSAs containing the vertex;
//! * *highest-count overlap intersecting an FSA* (lines 28-32): the
//!   **maximum-depth region** of the rectangle arrangement, computed by a
//!   slab sweep and clipped to the object's own FSA so the generated
//!   vertex is always valid for the reporting object (see DESIGN.md).

use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};

/// Reusable query scratch: the stamped `seen` bitmap behind the
/// allocation- and sort-free intersection query, plus the buffers of
/// the [`FsaSet::max_depth_region_in`] sweep. The scratch is
/// *owned by the caller*, not by the set: the set itself is immutable
/// (`Sync`) during queries, so parallel Phase B hands each worker
/// thread its own `QueryScratch` and they all query one shared
/// `&FsaSet` concurrently. The allocating convenience wrappers
/// ([`FsaSet::intersecting`], [`FsaSet::max_depth_region`]) build a
/// throwaway scratch per call for tests and diagnostics.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    /// Per-rect generation stamps: `stamps[i] == gen` means rect `i` was
    /// already accepted by the current `intersecting` call.
    stamps: Vec<u32>,
    /// Current stamp generation (bumped per call; stamps are cleared
    /// only on the rare wrap-around).
    gen: u32,
    /// Accepted rect indices, ascending.
    hits: Vec<u32>,
    /// `max_depth_region`: rects clipped to the query window.
    local: Vec<Rect>,
    /// `max_depth_region`: candidate slab boundaries.
    xs: Vec<f64>,
    /// `max_depth_region`: rect indices by left edge / by right edge.
    starts: Vec<u32>,
    ends: Vec<u32>,
    /// `max_depth_region`: the y-sorted interval events of the rects
    /// covering the sweep's current slab.
    events: Vec<(f64, i32)>,
}

/// An epoch-scoped set of FSA rectangles with depth queries.
///
/// # Invariant: queries are multiset-determined
///
/// Both hot-loop queries — [`FsaSet::stab_count`] and
/// [`FsaSet::max_depth_region`] — are pure functions of the *multiset*
/// of live rectangles: `stab_count` counts containment, and the slab
/// sweep orders everything by coordinates before deciding anything.
/// Slot numbering and per-cell list order never leak into results
/// (the public [`FsaSet::intersecting`] wrapper sorts its own copy).
/// That invariant is what lets [`FsaCache`] maintain one set
/// incrementally across epochs: reassigning slots or reordering cell
/// lists is unobservable, so an incrementally maintained set answers
/// bit-for-bit identically to a from-scratch build of the same batch.
#[derive(Clone, Debug)]
pub struct FsaSet {
    /// Rect slab; under [`FsaCache`] maintenance it may contain free
    /// (unreferenced) slots, which no grid cell points to.
    rects: Vec<Rect>,
    cell: f64,
    grid: FxHashMap<(i64, i64), Vec<u32>>,
    /// Live rect count (equals `rects.len()` for from-scratch builds;
    /// excludes free slots under incremental maintenance).
    live: usize,
}

impl FsaSet {
    /// Builds the set. `cell` should be on the order of an FSA diameter
    /// (e.g. `2 eps`); it only affects performance, not results.
    pub fn build(rects: Vec<Rect>, cell: f64) -> Self {
        Self::build_parallel(rects, cell, 1)
    }

    /// [`FsaSet::build`] rasterizing on up to `threads` scoped worker
    /// threads. Rects are split into contiguous index chunks, each chunk
    /// rasterized into its own sub-grid, and the sub-grids merged in
    /// chunk order — so every cell's id list is ascending exactly as the
    /// sequential build produces, and the result is bit-for-bit
    /// identical at every thread count.
    pub fn build_parallel(rects: Vec<Rect>, cell: f64, threads: usize) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell must be positive");
        // One chunk per thread, but never spawn for small epochs where
        // rasterization is cheaper than thread launches plus the merge,
        // and never more threads than the machine can actually run —
        // oversubscribing a CPU-bound rasterization only adds merge
        // overhead (on a single-core host this degrades to the
        // sequential build, which is exactly break-even).
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let threads = threads.max(1).min(hw).min(rects.len() / 256).max(1);
        let mut grid: FxHashMap<(i64, i64), Vec<u32>> = FxHashMap::default();
        if threads == 1 {
            Self::rasterize(&rects, cell, 0, &mut grid);
        } else {
            let chunk = rects.len().div_ceil(threads);
            let parts: Vec<FxHashMap<(i64, i64), Vec<u32>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = rects
                    .chunks(chunk)
                    .enumerate()
                    .map(|(c, slice)| {
                        scope.spawn(move || {
                            let mut part = FxHashMap::default();
                            Self::rasterize(slice, cell, (c * chunk) as u32, &mut part);
                            part
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("rasterizer panicked")).collect()
            });
            // Chunks hold disjoint ascending id ranges; appending them in
            // chunk order keeps every cell's list ascending, matching the
            // sequential single-pass build. The first part is adopted as
            // the base map outright — its cells (roughly 1/threads of
            // the total) pay no re-hash and no re-copy at all, and the
            // remaining parts merge into pre-reserved entries instead of
            // growing them one extend at a time.
            let mut parts = parts.into_iter();
            grid = parts.next().unwrap_or_default();
            let rest: Vec<_> = parts.collect();
            grid.reserve(rest.iter().map(|p| p.len()).sum());
            for mut part in rest {
                for (key, mut ids) in part.drain() {
                    match grid.entry(key) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            // Most cells belong to exactly one chunk
                            // (chunks are spatially coherent): move the
                            // whole list, no copy.
                            e.insert(ids);
                        }
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().append(&mut ids);
                        }
                    }
                }
            }
            debug_assert!(grid.values().all(|ids| ids.windows(2).all(|w| w[0] < w[1])));
        }
        let live = rects.len();
        FsaSet { rects, cell, grid, live }
    }

    /// Rasterizes `rects` (whose global indices start at `base`) into
    /// `grid`: each rect's index is pushed into every cell it covers.
    fn rasterize(rects: &[Rect], cell: f64, base: u32, grid: &mut FxHashMap<(i64, i64), Vec<u32>>) {
        for (i, r) in rects.iter().enumerate() {
            let (lx, ly) = Self::key(cell, &r.lo());
            let (hx, hy) = Self::key(cell, &r.hi());
            for cx in lx..=hx {
                for cy in ly..=hy {
                    grid.entry((cx, cy)).or_default().push(base + i as u32);
                }
            }
        }
    }

    #[inline]
    fn key(cell: f64, p: &Point) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Number of live FSAs in the set.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the set holds no live FSAs.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cell edge length of the rasterization grid.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// The rasterization-grid cell key containing `p`. Parallel Phase B
    /// orders its deferred states by this key so one worker chunk
    /// touches spatially coherent FSAs (shared grid cells stay warm and
    /// a flash crowd's states land in contiguous chunks that the
    /// stealing deque can redistribute).
    #[inline]
    pub fn cell_key(&self, p: &Point) -> (i64, i64) {
        Self::key(self.cell, p)
    }

    /// The grid cells covered by `r` at this set's resolution, as the
    /// inclusive key range `((lx, ly), (hx, hy))`.
    #[inline]
    fn coverage(&self, r: &Rect) -> ((i64, i64), (i64, i64)) {
        (Self::key(self.cell, &r.lo()), Self::key(self.cell, &r.hi()))
    }

    /// Writes `rect` into slot `slot` (growing the slab if needed) and
    /// pushes the slot id into every covered grid cell. The slot must
    /// currently be free: not referenced by any cell list.
    fn insert_slot(&mut self, slot: u32, rect: Rect) {
        let idx = slot as usize;
        if self.rects.len() <= idx {
            self.rects.resize(idx + 1, rect);
        }
        self.rects[idx] = rect;
        let ((lx, ly), (hx, hy)) = self.coverage(&rect);
        for cx in lx..=hx {
            for cy in ly..=hy {
                self.grid.entry((cx, cy)).or_default().push(slot);
            }
        }
        self.live += 1;
    }

    /// Removes slot `slot` from every grid cell its rect covers,
    /// dropping cells that become empty so the grid never accumulates
    /// dead entries across epochs. The rect itself stays in the slab as
    /// an inert free slot until the slot is reused.
    fn remove_slot(&mut self, slot: u32) {
        let rect = self.rects[slot as usize];
        let ((lx, ly), (hx, hy)) = self.coverage(&rect);
        for cx in lx..=hx {
            for cy in ly..=hy {
                let ids =
                    self.grid.get_mut(&(cx, cy)).expect("live slot absent from a covered cell");
                let pos = ids
                    .iter()
                    .position(|&i| i == slot)
                    .expect("live slot absent from a covered cell list");
                ids.swap_remove(pos);
                if ids.is_empty() {
                    self.grid.remove(&(cx, cy));
                }
            }
        }
        self.live -= 1;
    }

    /// Stabbing depth at `p`: how many FSAs contain it. Equals the count
    /// of the smallest `Rall` region containing `p`.
    pub fn stab_count(&self, p: &Point) -> usize {
        let key = Self::key(self.cell, p);
        let Some(candidates) = self.grid.get(&key) else { return 0 };
        candidates.iter().filter(|&&i| self.rects[i as usize].contains(p)).count()
    }

    /// Indices of FSAs intersecting `r` (deduplicated, ascending).
    /// Allocating convenience wrapper over the stamped internal query
    /// (tests and diagnostics; the hot loop goes through
    /// [`FsaSet::max_depth_region_in`] with a caller-owned scratch).
    pub fn intersecting(&self, r: &Rect) -> Vec<u32> {
        let mut s = QueryScratch::default();
        self.collect_intersecting(r, &mut s);
        let mut out = s.hits;
        out.sort_unstable();
        out
    }

    /// The stamped dedup query behind [`FsaSet::intersecting`]: no
    /// allocation and no sort in the steady state. Every candidate id is
    /// stamped with the call's generation on first acceptance and
    /// pushed once, in grid-walk encounter order — deterministic (the
    /// cell walk and per-cell id lists are fixed by construction) but
    /// not ascending; the only order-sensitive consumer is the public
    /// wrapper above, which sorts its own copy. O(candidates), never a
    /// pass over the whole id space.
    fn collect_intersecting(&self, r: &Rect, s: &mut QueryScratch) {
        s.hits.clear();
        if s.stamps.len() < self.rects.len() {
            s.stamps.resize(self.rects.len(), 0);
        }
        s.gen = match s.gen.checked_add(1) {
            Some(g) => g,
            None => {
                s.stamps.fill(0);
                1
            }
        };
        let (lx, ly) = Self::key(self.cell, &r.lo());
        let (hx, hy) = Self::key(self.cell, &r.hi());
        for cx in lx..=hx {
            for cy in ly..=hy {
                let Some(v) = self.grid.get(&(cx, cy)) else { continue };
                for &i in v {
                    if s.stamps[i as usize] != s.gen && self.rects[i as usize].intersects(r) {
                        s.stamps[i as usize] = s.gen;
                        s.hits.push(i);
                    }
                }
            }
        }
    }

    /// The deepest region of the arrangement restricted to `clip`: a
    /// rectangle of maximal stabbing depth inside `clip`, together with
    /// that depth. Returns `None` when no FSA intersects `clip`.
    ///
    /// Allocating convenience wrapper over
    /// [`FsaSet::max_depth_region_in`] — a throwaway scratch per call.
    /// Fine for tests and one-off diagnostics; the Phase-B hot loop
    /// passes a reused per-worker scratch instead.
    pub fn max_depth_region(&self, clip: &Rect) -> Option<(Rect, usize)> {
        self.max_depth_region_in(clip, &mut QueryScratch::default())
    }

    /// [`FsaSet::max_depth_region`] with a caller-owned scratch: the
    /// set is only read (`&self`), so any number of worker threads can
    /// run this concurrently against one shared set, each with its own
    /// `scratch` — the `Sync` query path parallel Phase B rides on.
    ///
    /// Closed-set semantics throughout: rectangles touching only at an
    /// edge still overlap there, matching [`Rect::intersects`].
    ///
    /// The answer is the leftmost deepest *full-width* x-slab (between
    /// two consecutive distinct x-boundaries of the clipped rects),
    /// replaced by the leftmost deepest boundary *line* only when that
    /// line is strictly deeper — depth achieved only where rectangles
    /// touch edge-to-edge; at equal depth a proper slab beats a
    /// degenerate line (larger region, better centroid). Within the
    /// winning slab or line, the region spans the first maximal
    /// y-stretch.
    ///
    /// One left-to-right sweep: the rects covering the current slab are
    /// kept as a y-sorted event list edited in place as rects start and
    /// end, and a slab or line is y-swept only when an upper bound on
    /// its depth beats the best already found. The cost is
    /// `O(m log m)` plus `O(covering rects)` per y-sweep for `m` rects
    /// intersecting `clip` — in particular constant when the clip meets
    /// only one rect, the common case away from hubs.
    pub fn max_depth_region_in(
        &self,
        clip: &Rect,
        scratch: &mut QueryScratch,
    ) -> Option<(Rect, usize)> {
        self.collect_intersecting(clip, scratch);
        let QueryScratch { hits, local, xs, starts, ends, events, .. } = scratch;
        local.clear();
        local.extend(hits.iter().map(|&i| {
            self.rects[i as usize]
                .intersection(clip)
                .expect("collect_intersecting guarantees overlap")
        }));
        let local: &[Rect] = local;
        match local {
            [] => return None,
            // A lone rect (in the hot loop, the querying object's own
            // FSA) is its own deepest region: one slab, or one line when
            // it has no width, spanning its whole height.
            [only] => return Some((*only, 1)),
            _ => {}
        }
        xs.clear();
        xs.extend(local.iter().flat_map(|r| [r.lo().x, r.hi().x]));
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        // Sweep orders: rects by left edge (activation) and by right
        // edge (retirement).
        let by = |edge: fn(&Rect) -> f64, order: &mut Vec<u32>| {
            order.clear();
            order.extend(0..local.len() as u32);
            order.sort_unstable_by(|&a, &b| {
                edge(&local[a as usize]).total_cmp(&edge(&local[b as usize]))
            });
        };
        by(|r| r.lo().x, starts);
        by(|r| r.hi().x, ends);

        events.clear();
        let mut starts = starts.iter().map(|&k| &local[k as usize]).peekable();
        let mut ends = ends.iter().map(|&k| &local[k as usize]).peekable();
        let mut best_slab: Option<(Rect, usize)> = None;
        let mut best_line: Option<(Rect, usize)> = None;
        let depth_of = |best: &Option<(Rect, usize)>| best.map_or(0, |(_, d)| d);
        // Upper bound on the depth of the rects currently in `events`:
        // exact after a y-sweep, +1 per rect added since, never more
        // than the rect count.
        let mut bound = 0usize;
        for (i, &x) in xs.iter().enumerate() {
            // The line at `x` is covered by every rect with
            // `lo.x <= x <= hi.x`: the previous slab's rects plus those
            // starting here.
            while let Some(r) = starts.next_if(|r| r.lo().x <= x) {
                insert_event(events, (r.lo().y, 1));
                insert_event(events, (r.hi().y, -1));
                bound += 1;
            }
            let floor = depth_of(&best_slab).max(depth_of(&best_line));
            if let Some(deeper) = deeper_region(events, &mut bound, floor, x, x) {
                best_line = Some(deeper);
            }
            // The slab from `x` to the next boundary is covered by the
            // line's rects minus those ending here.
            while let Some(r) = ends.next_if(|r| r.hi().x <= x) {
                remove_event(events, (r.lo().y, 1));
                remove_event(events, (r.hi().y, -1));
            }
            bound = bound.min(events.len() / 2);
            let Some(&next) = xs.get(i + 1) else { break };
            let floor = depth_of(&best_slab);
            if let Some(deeper) = deeper_region(events, &mut bound, floor, x, next) {
                best_slab = Some(deeper);
            }
        }
        if depth_of(&best_line) > depth_of(&best_slab) {
            best_line
        } else {
            best_slab
        }
    }
}

/// Order of the y-sweep events: by `y`, starts before ends at equal `y`
/// so closed intervals touching at a line count as overlapping there.
fn event_order(a: &(f64, i32), b: &(f64, i32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(b.1.cmp(&a.1))
}

/// Inserts `event` into the [`event_order`]-sorted list.
fn insert_event(events: &mut Vec<(f64, i32)>, event: (f64, i32)) {
    let at = events.partition_point(|e| event_order(e, &event).is_lt());
    events.insert(at, event);
}

/// Removes one occurrence of `event` from the [`event_order`]-sorted
/// list, where it must be present.
fn remove_event(events: &mut Vec<(f64, i32)>, event: (f64, i32)) {
    let at = events.partition_point(|e| event_order(e, &event).is_lt());
    debug_assert!(event_order(&events[at], &event).is_eq(), "retiring an absent interval");
    events.remove(at);
}

/// y-sweeps the sorted `events` of the rects covering `[x_lo, x_hi]`,
/// unless `bound` (an upper bound on their depth, tightened here to the
/// exact depth) already rules out beating `floor`. Returns the region of
/// the first y-stretch attaining the maximum depth, with that depth,
/// when it exceeds `floor`.
fn deeper_region(
    events: &[(f64, i32)],
    bound: &mut usize,
    floor: usize,
    x_lo: f64,
    x_hi: f64,
) -> Option<(Rect, usize)> {
    if *bound <= floor {
        return None;
    }
    let mut depth = 0i32;
    let mut d_max = 0i32;
    for &(_, delta) in events {
        depth += delta;
        d_max = d_max.max(depth);
    }
    *bound = d_max as usize;
    if *bound <= floor {
        return None;
    }
    let mut depth = 0i32;
    let mut y_lo = f64::NAN;
    let mut y_hi = f64::NAN;
    for &(y, delta) in events {
        depth += delta;
        if y_lo.is_nan() && depth == d_max {
            y_lo = y;
        } else if !y_lo.is_nan() && depth < d_max {
            y_hi = y;
            break;
        }
    }
    if y_hi.is_nan() {
        y_hi = y_lo;
    }
    let region = Rect::new(Point::new(x_lo, y_lo), Point::new(x_hi, y_hi.max(y_lo)));
    Some((region, *bound))
}

/// Epoch-to-epoch incremental maintenance of an [`FsaSet`].
///
/// A from-scratch [`FsaSet::build`] re-rasterizes every reporting
/// object's FSA each epoch, but between consecutive epochs the
/// reporting population barely changes: most objects report again with
/// an FSA that moved a little (often not even across a grid-cell
/// boundary), a few appear, a few fall silent. The cache retains the
/// rasterized grid across epochs and applies only the delta:
///
/// * **unchanged rect** — no work at all;
/// * **moved within the same cell coverage** — one slab write, zero
///   grid edits (the common case when `cell ~ 2 eps` dwarfs per-epoch
///   displacement);
/// * **moved across cells** — remove from old cells, insert into new;
/// * **appeared** — insert into a recycled or fresh slot;
/// * **disappeared** — swept out after the batch by an epoch-stamp
///   scan over the registry.
///
/// Per-epoch cost is `O(batch + changed-cell edits)` instead of
/// `O(batch * cells-per-rect)` rasterization plus a full grid rebuild.
///
/// Correctness leans on the multiset invariant documented on
/// [`FsaSet`]: queries cannot observe slot numbering or cell-list
/// order, so the incrementally maintained set answers exactly like a
/// fresh build of the same batch. Debug builds verify that equivalence
/// against a real from-scratch rebuild after every update, so the full
/// rebuild stays in the tree as the oracle.
///
/// The cache is deliberately **not** checkpointed: it is a pure
/// function of the batches since construction, and a restored
/// coordinator starts from a fresh cache whose first update rebuilds
/// the grid — bit-for-bit parity follows from the same invariant.
///
/// Duplicate object ids inside one batch are legal (the protocol layer
/// may submit several crossings for one object in an epoch); each extra
/// occurrence takes a temporary *overflow* slot that lives exactly one
/// epoch, keeping the multiset faithful to the batch.
#[derive(Clone, Debug)]
pub struct FsaCache {
    set: FsaSet,
    /// Registry: object id -> its primary slot in the set.
    slot_of: FxHashMap<u64, u32>,
    /// Reverse of `slot_of` for the sweep: slot -> object id. Indexed by
    /// slot; entries for free/overflow slots are stale and never read.
    obj_of: Vec<u64>,
    /// Per-slot epoch stamp: `stamp[s] == epoch` means slot `s` was
    /// refreshed by the current update.
    stamp: Vec<u64>,
    /// Update generation counter (monotone; one tick per `update`).
    epoch: u64,
    /// Slots holding duplicate same-batch occurrences; cleared at the
    /// start of the next update.
    overflow: Vec<u32>,
    /// Recycled slot ids.
    free: Vec<u32>,
    /// Sweep scratch: slots of objects absent from the current batch.
    stale: Vec<u32>,
    /// Statistics of the most recent update.
    last_delta: FsaDelta,
}

/// One epoch's delta statistics from [`FsaCache::update`], exposed so
/// benches and diagnostics can see how much grid work the deltas did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsaDelta {
    /// Rects identical to the previous epoch (zero work).
    pub unchanged: usize,
    /// Rects that moved without crossing a cell boundary (slab write
    /// only).
    pub moved_in_place: usize,
    /// Rects that moved across cell boundaries (remove + insert).
    pub moved_rekeyed: usize,
    /// Objects that newly appeared (insert).
    pub inserted: usize,
    /// Objects that fell silent and were swept (remove).
    pub removed: usize,
    /// Duplicate same-batch occurrences parked in overflow slots.
    pub duplicates: usize,
}

impl FsaCache {
    /// Creates an empty cache whose sets rasterize at `cell` (same
    /// meaning as [`FsaSet::build`]'s `cell`).
    pub fn new(cell: f64) -> Self {
        FsaCache {
            set: FsaSet::build(Vec::new(), cell),
            slot_of: FxHashMap::default(),
            obj_of: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            overflow: Vec::new(),
            free: Vec::new(),
            stale: Vec::new(),
            last_delta: FsaDelta::default(),
        }
    }

    /// Delta statistics of the most recent [`FsaCache::update`].
    pub fn last_delta(&self) -> FsaDelta {
        self.last_delta
    }

    /// The maintained set as of the last [`FsaCache::update`] (empty on
    /// a fresh cache).
    pub fn set(&self) -> &FsaSet {
        &self.set
    }

    /// Applies one epoch's batch — `(object id, FSA rect)` pairs — and
    /// returns the maintained set, query-equivalent to
    /// `FsaSet::build(batch rects, cell)`.
    pub fn update<I>(&mut self, batch: I) -> &FsaSet
    where
        I: IntoIterator<Item = (u64, Rect)>,
    {
        self.epoch += 1;
        let mut delta = FsaDelta::default();
        // Last epoch's duplicate occurrences expire first; their slots
        // go straight back on the free list for this batch to reuse.
        for slot in std::mem::take(&mut self.overflow) {
            self.set.remove_slot(slot);
            self.free.push(slot);
        }
        for (obj, rect) in batch {
            match self.slot_of.get(&obj).copied() {
                Some(slot) if self.stamp[slot as usize] != self.epoch => {
                    self.stamp[slot as usize] = self.epoch;
                    let old = self.set.rects[slot as usize];
                    if old == rect {
                        delta.unchanged += 1;
                    } else if self.set.coverage(&old) == self.set.coverage(&rect) {
                        // Same cell footprint: the grid is already
                        // correct, only the slab entry changes.
                        self.set.rects[slot as usize] = rect;
                        delta.moved_in_place += 1;
                    } else {
                        self.set.remove_slot(slot);
                        self.set.insert_slot(slot, rect);
                        delta.moved_rekeyed += 1;
                    }
                }
                Some(_) => {
                    // Second occurrence of `obj` in this same batch: park
                    // it in a one-epoch overflow slot so the rect
                    // multiset matches the batch exactly.
                    let slot = self.place(rect);
                    self.overflow.push(slot);
                    delta.duplicates += 1;
                }
                None => {
                    let slot = self.place(rect);
                    self.stamp[slot as usize] = self.epoch;
                    self.obj_of[slot as usize] = obj;
                    self.slot_of.insert(obj, slot);
                    delta.inserted += 1;
                }
            }
        }
        // Sweep objects that reported last epoch but not this one.
        self.stale.clear();
        self.stale.extend(
            self.slot_of.values().copied().filter(|&s| self.stamp[s as usize] != self.epoch),
        );
        for i in 0..self.stale.len() {
            let slot = self.stale[i];
            self.slot_of.remove(&self.obj_of[slot as usize]);
            self.set.remove_slot(slot);
            self.free.push(slot);
            delta.removed += 1;
        }
        self.last_delta = delta;
        #[cfg(debug_assertions)]
        self.debug_verify_against_rebuild();
        &self.set
    }

    /// Allocates a slot (recycled or fresh), writes `rect` into it, and
    /// keeps the per-slot side tables sized with the slab.
    fn place(&mut self, rect: Rect) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => self.set.rects.len() as u32,
        };
        self.set.insert_slot(slot, rect);
        let slab = self.set.rects.len();
        if self.stamp.len() < slab {
            self.stamp.resize(slab, 0);
            self.obj_of.resize(slab, u64::MAX);
        }
        slot
    }

    /// Structural self-check: registry, stamps, free list, and grid all
    /// agree. `Err` describes the first violation found.
    pub fn check_consistency(&self) -> Result<(), String> {
        let slab = self.set.rects.len();
        if self.stamp.len() != slab || self.obj_of.len() != slab {
            return Err(format!(
                "side tables out of step with slab: {} stamps / {} objs for {slab} slots",
                self.stamp.len(),
                self.obj_of.len()
            ));
        }
        if self.set.live != self.slot_of.len() + self.overflow.len() {
            return Err(format!(
                "live count {} != {} registered + {} overflow",
                self.set.live,
                self.slot_of.len(),
                self.overflow.len()
            ));
        }
        // Every slot is exactly one of: registered, overflow, free.
        let mut role = vec![0u8; slab];
        for (&obj, &slot) in self.slot_of.iter() {
            let s = slot as usize;
            if s >= slab {
                return Err(format!("object {obj} registered to out-of-range slot {slot}"));
            }
            if self.obj_of[s] != obj {
                return Err(format!("slot {slot} reverse-maps to {} not {obj}", self.obj_of[s]));
            }
            role[s] += 1;
        }
        for &slot in self.overflow.iter().chain(self.free.iter()) {
            let s = slot as usize;
            if s >= slab {
                return Err(format!("slot {slot} out of range in overflow/free list"));
            }
            role[s] += 1;
        }
        if let Some(slot) = role.iter().position(|&r| r != 1) {
            return Err(format!("slot {slot} claimed by {} roles (want exactly 1)", role[slot]));
        }
        // Grid <-> slab cross-check: each live slot appears exactly once
        // in each covered cell and nowhere else, no cell list is empty.
        let mut refs: FxHashMap<u32, usize> = FxHashMap::default();
        for (key, ids) in self.set.grid.iter() {
            if ids.is_empty() {
                return Err(format!("empty cell list left behind at {key:?}"));
            }
            for &id in ids {
                *refs.entry(id).or_default() += 1;
            }
        }
        let free: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        for slot in 0..slab as u32 {
            let expected = if free.contains(&slot) {
                0
            } else {
                let r = &self.set.rects[slot as usize];
                let ((lx, ly), (hx, hy)) = self.set.coverage(r);
                ((hx - lx + 1) * (hy - ly + 1)) as usize
            };
            let got = refs.get(&slot).copied().unwrap_or(0);
            if got != expected {
                return Err(format!("slot {slot} referenced by {got} cells, expected {expected}"));
            }
        }
        Ok(())
    }

    /// Debug-build oracle: the incrementally maintained set must be
    /// query-equivalent to a from-scratch build of the live rects. Since
    /// every query is a pure function of per-cell rect multisets (see
    /// [`FsaSet`]), comparing those multisets cell by cell *is* a
    /// complete equivalence check — every test that drives epochs
    /// through the cache exercises it for free.
    #[cfg(debug_assertions)]
    fn debug_verify_against_rebuild(&self) {
        if let Err(e) = self.check_consistency() {
            panic!("FsaCache inconsistent after update: {e}");
        }
        let live: Vec<Rect> = self
            .slot_of
            .values()
            .chain(self.overflow.iter())
            .map(|&s| self.set.rects[s as usize])
            .collect();
        let oracle = FsaSet::build(live, self.set.cell);
        type CanonCells = Vec<((i64, i64), Vec<[u64; 4]>)>;
        let canon = |set: &FsaSet| -> CanonCells {
            let mut cells: Vec<_> = set
                .grid
                .iter()
                .map(|(&key, ids)| {
                    let mut rects: Vec<[u64; 4]> = ids
                        .iter()
                        .map(|&i| {
                            let r = &set.rects[i as usize];
                            [
                                r.lo().x.to_bits(),
                                r.lo().y.to_bits(),
                                r.hi().x.to_bits(),
                                r.hi().y.to_bits(),
                            ]
                        })
                        .collect();
                    rects.sort_unstable();
                    (key, rects)
                })
                .collect();
            cells.sort_unstable();
            cells
        };
        assert_eq!(
            canon(&self.set),
            canon(&oracle),
            "incremental FsaSet diverged from from-scratch rebuild"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ax: f64, ay: f64, bx: f64, by: f64) -> Rect {
        Rect::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// The paper's Example 2 / Figure 5 layout: three FSAs with a common
    /// triple intersection.
    fn example2() -> Vec<Rect> {
        vec![
            r(0.0, 0.0, 10.0, 10.0), // R1
            r(6.0, 4.0, 16.0, 14.0), // R2
            r(4.0, 6.0, 14.0, 16.0), // R3
        ]
    }

    #[test]
    fn stab_counts_match_example2() {
        let set = FsaSet::build(example2(), 8.0);
        assert_eq!(set.stab_count(&Point::new(1.0, 1.0)), 1); // R1 only
        assert_eq!(set.stab_count(&Point::new(15.0, 5.0)), 1); // R2 only
        assert_eq!(set.stab_count(&Point::new(8.0, 5.0)), 2); // R12
        assert_eq!(set.stab_count(&Point::new(5.0, 8.0)), 2); // R13
        assert_eq!(set.stab_count(&Point::new(12.0, 12.0)), 2); // R23
        assert_eq!(set.stab_count(&Point::new(8.0, 8.0)), 3); // R123
        assert_eq!(set.stab_count(&Point::new(-5.0, -5.0)), 0);
    }

    /// Pins the stamped-bitmap query's contract: ascending, deduped
    /// output on every call, with the generation counter isolating
    /// repeated and interleaved queries from each other.
    #[test]
    fn intersecting_order_is_ascending_across_repeated_calls() {
        // Many identical rects over tiny cells: each id lands in many
        // cells, so the stamp dedup does real work, and the stamp range
        // scan must still emit ids ascending.
        let mut rects = example2();
        rects.extend(example2()); // ids 3..6 duplicate 0..3
        let set = FsaSet::build(rects, 2.0);
        for _ in 0..3 {
            assert_eq!(set.intersecting(&r(7.0, 7.0, 9.0, 9.0)), vec![0, 1, 2, 3, 4, 5]);
            // A disjoint query between identical ones must not inherit
            // stale stamps from the previous generation.
            assert!(set.intersecting(&r(100.0, 100.0, 101.0, 101.0)).is_empty());
            assert_eq!(set.intersecting(&r(0.0, 0.0, 1.0, 1.0)), vec![0, 3]);
            // Interleave the sweep (which shares the scratch) and
            // re-check: the hit list must be rebuilt, not reused.
            let _ = set.max_depth_region(&r(0.0, 0.0, 16.0, 16.0));
            assert_eq!(set.intersecting(&r(15.0, 5.0, 15.5, 5.5)), vec![1, 4]);
        }
    }

    #[test]
    fn parallel_build_matches_sequential_at_every_thread_count() {
        // 300 deterministic rects; compare every query the strategy
        // issues between the sequential build and parallel builds.
        let mut state = 5u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 2000) as f64 / 10.0
        };
        let rects: Vec<Rect> = (0..300)
            .map(|_| {
                let x = rand();
                let y = rand();
                r(x, y, x + rand() * 0.1 + 1.0, y + rand() * 0.1 + 1.0)
            })
            .collect();
        let sequential = FsaSet::build(rects.clone(), 15.0);
        for threads in [2, 3, 8] {
            let parallel = FsaSet::build_parallel(rects.clone(), 15.0, threads);
            for probe in 0..60 {
                let q = r(
                    (probe * 7 % 200) as f64,
                    (probe * 13 % 200) as f64,
                    (probe * 7 % 200) as f64 + 8.0,
                    (probe * 13 % 200) as f64 + 8.0,
                );
                assert_eq!(
                    sequential.intersecting(&q),
                    parallel.intersecting(&q),
                    "intersecting diverged at {threads} threads"
                );
                assert_eq!(
                    sequential.max_depth_region(&q),
                    parallel.max_depth_region(&q),
                    "max_depth diverged at {threads} threads"
                );
                assert_eq!(
                    sequential.stab_count(&q.centroid()),
                    parallel.stab_count(&q.centroid()),
                    "stab diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn max_depth_region_finds_triple_overlap() {
        let set = FsaSet::build(example2(), 8.0);
        // Clipped to R1: the deepest region is R123 = [6,10]x[6,10].
        let clip = r(0.0, 0.0, 10.0, 10.0);
        let (region, depth) = set.max_depth_region(&clip).unwrap();
        assert_eq!(depth, 3);
        assert_eq!(region, r(6.0, 6.0, 10.0, 10.0));
        // The centroid (the paper's generated vertex) is inside all
        // three FSAs and inside the clip.
        let c = region.centroid();
        assert_eq!(set.stab_count(&c), 3);
        assert!(clip.contains(&c));
    }

    #[test]
    fn max_depth_region_respects_clip() {
        let set = FsaSet::build(example2(), 8.0);
        // Clip to a corner of R1 away from the triple overlap.
        let clip = r(0.0, 0.0, 3.0, 3.0);
        let (region, depth) = set.max_depth_region(&clip).unwrap();
        assert_eq!(depth, 1);
        assert!(clip.contains_rect(&region));
    }

    #[test]
    fn max_depth_none_when_disjoint() {
        let set = FsaSet::build(vec![r(0.0, 0.0, 1.0, 1.0)], 4.0);
        assert!(set.max_depth_region(&r(10.0, 10.0, 11.0, 11.0)).is_none());
    }

    #[test]
    fn intersecting_filters_and_dedups() {
        let set = FsaSet::build(example2(), 2.0); // small cells force dedup
        let ids = set.intersecting(&r(7.0, 7.0, 9.0, 9.0));
        assert_eq!(ids, vec![0, 1, 2]);
        let ids = set.intersecting(&r(0.0, 0.0, 1.0, 1.0));
        assert_eq!(ids, vec![0]);
        let ids = set.intersecting(&r(100.0, 100.0, 101.0, 101.0));
        assert!(ids.is_empty());
    }

    #[test]
    fn touching_rects_overlap_at_the_shared_edge() {
        let set = FsaSet::build(vec![r(0.0, 0.0, 5.0, 5.0), r(5.0, 0.0, 10.0, 5.0)], 4.0);
        // Depth 2 exists only on the shared line x = 5.
        let (region, depth) = set.max_depth_region(&r(0.0, 0.0, 10.0, 5.0)).unwrap();
        assert_eq!(depth, 2);
        assert_eq!(region.lo().x, 5.0);
        assert_eq!(region.hi().x, 5.0);
        assert_eq!(set.stab_count(&Point::new(5.0, 2.0)), 2);
    }

    #[test]
    fn identical_rects_stack() {
        let q = r(2.0, 2.0, 4.0, 4.0);
        let set = FsaSet::build(vec![q, q, q], 4.0);
        let (region, depth) = set.max_depth_region(&q).unwrap();
        assert_eq!(depth, 3);
        assert_eq!(region, q);
    }

    /// Drives a cache and a from-scratch build through the same batches
    /// and asserts query equivalence on a probe set. (Debug builds also
    /// verify the per-cell multisets after every update internally.)
    fn assert_cache_matches_rebuild(cache: &mut FsaCache, batch: &[(u64, Rect)], cell: f64) {
        let inc = cache.update(batch.iter().copied());
        let oracle = FsaSet::build(batch.iter().map(|&(_, r)| r).collect(), cell);
        assert_eq!(inc.len(), oracle.len());
        // Slot ids are not comparable across the two sets (the cache
        // recycles slots); only rect multisets are observable.
        let rects_of = |set: &FsaSet, q: &Rect| -> Vec<(u64, u64, u64, u64)> {
            let mut v: Vec<_> = set
                .intersecting(q)
                .iter()
                .map(|&i| {
                    let r = &set.rects[i as usize];
                    (r.lo().x.to_bits(), r.lo().y.to_bits(), r.hi().x.to_bits(), r.hi().y.to_bits())
                })
                .collect();
            v.sort_unstable();
            v
        };
        for probe in 0..40 {
            let q = r(
                (probe * 11 % 25) as f64 - 2.0,
                (probe * 17 % 25) as f64 - 2.0,
                (probe * 11 % 25) as f64 + 3.0,
                (probe * 17 % 25) as f64 + 3.0,
            );
            assert_eq!(rects_of(inc, &q), rects_of(&oracle, &q), "intersecting({q:?})");
            assert_eq!(
                inc.max_depth_region(&q),
                oracle.max_depth_region(&q),
                "max_depth_region({q:?})"
            );
            assert_eq!(inc.stab_count(&q.centroid()), oracle.stab_count(&q.centroid()));
        }
        cache.check_consistency().expect("cache consistent");
    }

    #[test]
    fn cache_tracks_add_move_remove_churn() {
        let cell = 4.0;
        let mut cache = FsaCache::new(cell);
        // Epoch 1: three objects.
        let b1: Vec<(u64, Rect)> = vec![
            (7, r(0.0, 0.0, 2.0, 2.0)),
            (8, r(5.0, 5.0, 7.0, 7.0)),
            (9, r(10.0, 0.0, 12.0, 2.0)),
        ];
        assert_cache_matches_rebuild(&mut cache, &b1, cell);
        assert_eq!(cache.last_delta(), FsaDelta { inserted: 3, ..FsaDelta::default() });
        // Epoch 2: 7 unchanged, 8 nudged within its cells, 9 teleports
        // across cells, 11 appears.
        let b2: Vec<(u64, Rect)> = vec![
            (7, r(0.0, 0.0, 2.0, 2.0)),
            (8, r(5.1, 5.1, 7.1, 7.1)),
            (9, r(0.0, 10.0, 2.0, 12.0)),
            (11, r(6.0, 6.0, 8.0, 8.0)),
        ];
        assert_cache_matches_rebuild(&mut cache, &b2, cell);
        assert_eq!(
            cache.last_delta(),
            FsaDelta {
                unchanged: 1,
                moved_in_place: 1,
                moved_rekeyed: 1,
                inserted: 1,
                ..FsaDelta::default()
            }
        );
        // Epoch 3: 7 and 11 fall silent; 8 unchanged, 9 moves back.
        let b3: Vec<(u64, Rect)> = vec![(8, r(5.1, 5.1, 7.1, 7.1)), (9, r(10.0, 0.0, 12.0, 2.0))];
        assert_cache_matches_rebuild(&mut cache, &b3, cell);
        assert_eq!(cache.last_delta().removed, 2);
        // Epoch 4: everyone gone.
        assert_cache_matches_rebuild(&mut cache, &[], cell);
        assert!(cache.update(std::iter::empty()).is_empty());
    }

    #[test]
    fn cache_duplicate_ids_keep_multiset_faithful() {
        let cell = 4.0;
        let mut cache = FsaCache::new(cell);
        // Object 3 reports twice in one batch (two crossings in one
        // epoch): both rects must count, e.g. for stacking depth.
        let b1: Vec<(u64, Rect)> = vec![
            (3, r(1.0, 1.0, 3.0, 3.0)),
            (3, r(1.0, 1.0, 3.0, 3.0)),
            (4, r(2.0, 2.0, 4.0, 4.0)),
        ];
        let set = cache.update(b1.iter().copied());
        assert_eq!(set.len(), 3);
        assert_eq!(set.stab_count(&Point::new(2.0, 2.0)), 3);
        assert_cache_matches_rebuild(&mut cache, &b1, cell);
        // Next epoch the duplicate collapses to one occurrence; the
        // overflow slot must expire with its epoch.
        let b2: Vec<(u64, Rect)> = vec![(3, r(1.0, 1.0, 3.0, 3.0))];
        assert_cache_matches_rebuild(&mut cache, &b2, cell);
        assert_eq!(cache.update(b2.iter().copied()).stab_count(&Point::new(2.0, 2.0)), 1);
    }

    #[test]
    fn cache_random_churn_matches_rebuild_every_epoch() {
        let cell = 3.0;
        let mut cache = FsaCache::new(cell);
        let mut state = 0xfeed_beefu64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..30 {
            // Random population of up to 40 objects, ids drawn from a
            // small pool so objects persist, vanish, and return; small
            // random displacements make same-coverage moves common.
            let n = (rand() % 40) as usize;
            let batch: Vec<(u64, Rect)> = (0..n)
                .map(|_| {
                    let id = rand() % 16;
                    let x = (rand() % 200) as f64 / 10.0;
                    let y = (rand() % 200) as f64 / 10.0;
                    let w = (rand() % 30) as f64 / 10.0 + 0.5;
                    (id, r(x, y, x + w, y + w))
                })
                .collect();
            assert_cache_matches_rebuild(&mut cache, &batch, cell);
        }
    }

    #[test]
    fn depth_matches_brute_force_grid_scan() {
        // Deterministic pseudo-random rectangles; compare the sweep's
        // depth to brute-force point sampling.
        let mut state = 99u64;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 10.0
        };
        let rects: Vec<Rect> = (0..30)
            .map(|_| {
                let x = rand();
                let y = rand();
                let w = rand() * 0.2 + 1.0;
                let h = rand() * 0.2 + 1.0;
                r(x, y, x + w, y + h)
            })
            .collect();
        let clip = r(0.0, 0.0, 120.0, 120.0);
        let set = FsaSet::build(rects.clone(), 10.0);
        let (region, depth) = set.max_depth_region(&clip).unwrap();
        // The reported region really has that depth.
        let c = region.centroid();
        assert_eq!(set.stab_count(&c), depth, "centroid depth mismatch");
        // No sampled point exceeds it.
        let mut max_sampled = 0;
        for i in 0..100 {
            for j in 0..100 {
                let p = Point::new(i as f64 * 1.2, j as f64 * 1.2);
                max_sampled = max_sampled.max(set.stab_count(&p));
            }
        }
        assert!(depth >= max_sampled, "sweep depth {depth} < sampled {max_sampled}");
    }
}
