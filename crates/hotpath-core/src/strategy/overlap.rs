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
//!   vertex is always valid for the reporting object (the argument is in
//!   docs/ARCHITECTURE.md, "FSA overlap: a flat grid rebuilt in place,
//!   and the max-depth sweep").

use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};

/// Reusable query scratch: the stamped `seen` bitmap behind the
/// allocation- and sort-free intersection query, the rects it found (a
/// [`Neighbourhood`]), and the buffers of the
/// [`Neighbourhood::deepest_above`] sweep. The scratch is *owned by the
/// caller*, not by the set: the set itself is immutable during queries,
/// and `phase_b` keeps one `QueryScratch` (inside its `PhaseBScratch`)
/// across deferred states and epochs. Only the allocating convenience
/// wrappers ([`FsaSet::intersecting`], [`FsaSet::max_depth_region`])
/// build a throwaway scratch per call; nothing on the coordinator's path
/// calls them.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    /// Per-rect generation stamps: `stamps[i] == gen` means rect `i` was
    /// already accepted by the current collection.
    stamps: Vec<u32>,
    /// Current stamp generation (bumped per call; stamps are cleared
    /// only on the rare wrap-around).
    gen: u32,
    /// Accepted rect indices, in grid-walk order.
    hits: Vec<u32>,
    /// Sweep: rects clipped to the query window.
    local: Vec<Rect>,
    /// Sweep: candidate slab boundaries.
    xs: Vec<f64>,
    /// Sweep: rect indices by left edge / by right edge.
    starts: Vec<u32>,
    ends: Vec<u32>,
    /// Sweep: the y-sorted interval events of the rects covering the
    /// current slab.
    events: Vec<(f64, i32)>,
}

/// An epoch-scoped set of FSA rectangles with depth queries.
///
/// The set is a flat uniform grid: `rects` in batch order, one map from
/// grid cell to a span of `ids`, and `ids` holding each cell's rect
/// indices contiguously (ascending within a cell). Nearly every FSA
/// changes its cell footprint from one epoch to the next, so the grid is
/// not maintained across epochs — [`FsaSet::rebuild`] refills the same
/// three allocations in place.
///
/// Every query — the stabbing counts and the slab sweep of a
/// [`Neighbourhood`] — is a pure function of the *multiset* of
/// rectangles: a stabbing count counts containment, and the sweep orders
/// everything by coordinates before deciding anything, so rect numbering
/// and grid-walk order never leak into results.
#[derive(Clone, Debug)]
pub struct FsaSet {
    rects: Vec<Rect>,
    cell: f64,
    /// Grid cell -> `(offset, len)` of its span in `ids`.
    cells: FxHashMap<(i64, i64), (u32, u32)>,
    /// Per-cell rect indices, one contiguous span per occupied cell.
    ids: Vec<u32>,
}

impl FsaSet {
    /// An empty set rasterizing at `cell`, which should be on the order
    /// of an FSA diameter (e.g. `2 eps`); it only affects performance,
    /// not results.
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell must be positive");
        FsaSet { rects: Vec::new(), cell, cells: FxHashMap::default(), ids: Vec::new() }
    }

    /// Builds a fresh set over `rects` (see [`FsaSet::new`] for `cell`).
    pub fn build(rects: Vec<Rect>, cell: f64) -> Self {
        let mut set = Self::new(cell);
        set.rebuild(rects);
        set
    }

    /// Replaces the set's contents with `rects`, reusing every
    /// allocation: one pass counts each cell's population, a prefix sum
    /// lays the spans out, and a second pass fills them in rect order —
    /// so per-cell ids are ascending and nothing of the previous
    /// contents survives.
    pub fn rebuild(&mut self, rects: impl IntoIterator<Item = Rect>) {
        self.rects.clear();
        self.rects.extend(rects);
        self.cells.clear();
        for r in &self.rects {
            let ((lx, ly), (hx, hy)) = Self::coverage(self.cell, r);
            for cx in lx..=hx {
                for cy in ly..=hy {
                    self.cells.entry((cx, cy)).or_insert((0, 0)).1 += 1;
                }
            }
        }
        let mut total = 0usize;
        for span in self.cells.values_mut() {
            let count = span.1 as usize;
            *span = (total as u32, 0);
            total += count;
        }
        assert!(total <= u32::MAX as usize, "FSA grid spans overflow u32 offsets");
        self.ids.clear();
        self.ids.resize(total, 0);
        for (i, r) in self.rects.iter().enumerate() {
            let ((lx, ly), (hx, hy)) = Self::coverage(self.cell, r);
            for cx in lx..=hx {
                for cy in ly..=hy {
                    let (offset, len) = self.cells.get_mut(&(cx, cy)).expect("cell counted above");
                    self.ids[(*offset + *len) as usize] = i as u32;
                    *len += 1;
                }
            }
        }
    }

    #[inline]
    fn key(cell: f64, p: &Point) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// The grid cells covered by `r` at resolution `cell`, as the
    /// inclusive key range `((lx, ly), (hx, hy))`.
    #[inline]
    fn coverage(cell: f64, r: &Rect) -> ((i64, i64), (i64, i64)) {
        (Self::key(cell, &r.lo()), Self::key(cell, &r.hi()))
    }

    /// The rect indices rasterized into grid cell `key`, ascending.
    #[inline]
    fn cell_ids(&self, key: (i64, i64)) -> &[u32] {
        match self.cells.get(&key) {
            Some(&(offset, len)) => &self.ids[offset as usize..(offset + len) as usize],
            None => &[],
        }
    }

    /// Number of FSAs in the set.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the set holds no FSAs.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Stabbing depth at `p`: how many FSAs contain it. Equals the count
    /// of the smallest `Rall` region containing `p`. A one-off probe of
    /// `p`'s grid cell; `phase_b` counts over the [`Neighbourhood`] it
    /// already holds instead.
    pub fn stab_count(&self, p: &Point) -> usize {
        let candidates = self.cell_ids(Self::key(self.cell, p));
        candidates.iter().filter(|&&i| self.rects[i as usize].contains(p)).count()
    }

    /// Indices of FSAs intersecting `r` (deduplicated, ascending).
    /// Allocating convenience wrapper over the stamped internal query
    /// (tests and diagnostics; the hot loop holds a [`Neighbourhood`]
    /// over a caller-owned scratch).
    pub fn intersecting(&self, r: &Rect) -> Vec<u32> {
        let mut s = QueryScratch::default();
        self.collect_intersecting(r, &mut s);
        let mut out = s.hits;
        out.sort_unstable();
        out
    }

    /// The FSAs meeting `clip`, collected once into `scratch`, which is
    /// reused across calls so a query allocates nothing.
    pub fn neighbourhood<'a>(
        &'a self,
        clip: &Rect,
        scratch: &'a mut QueryScratch,
    ) -> Neighbourhood<'a> {
        self.collect_intersecting(clip, scratch);
        Neighbourhood { set: self, clip: *clip, scratch }
    }

    /// The stamped dedup query behind [`FsaSet::neighbourhood`] and
    /// [`FsaSet::intersecting`]: no allocation and no sort in the steady
    /// state. Every candidate id is stamped with the call's generation
    /// on first acceptance and pushed once, in grid-walk encounter order
    /// — deterministic (the cell walk and per-cell id lists are fixed by
    /// construction) but not ascending; every consumer is a count or a
    /// coordinate sort except the public wrapper above, which sorts its
    /// own copy. O(candidates), never a pass over the whole id space.
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
        let ((lx, ly), (hx, hy)) = Self::coverage(self.cell, r);
        for cx in lx..=hx {
            for cy in ly..=hy {
                for &i in self.cell_ids((cx, cy)) {
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
    /// [`Neighbourhood::deepest_above`]`(0)` — a throwaway scratch per
    /// call, including a zeroed stamp per rect of the set, so its cost
    /// grows with the set where the query's does not. For tests and
    /// one-off diagnostics only.
    pub fn max_depth_region(&self, clip: &Rect) -> Option<(Rect, usize)> {
        self.neighbourhood(clip, &mut QueryScratch::default()).deepest_above(0)
    }
}

/// The FSAs meeting one clip, collected once by
/// [`FsaSet::neighbourhood`] into a caller's [`QueryScratch`]: every
/// question Phase B asks the set about one deferred state.
///
/// * [`Neighbourhood::stab_count`] is exact for points inside the clip,
///   since an FSA containing such a point meets the clip.
/// * [`Neighbourhood::len`] bounds the depth of any region inside the
///   clip, which lets [`Neighbourhood::deepest_above`] skip its sweep
///   when no region can beat the floor.
#[derive(Debug)]
pub struct Neighbourhood<'a> {
    set: &'a FsaSet,
    clip: Rect,
    scratch: &'a mut QueryScratch,
}

impl Neighbourhood<'_> {
    /// Number of FSAs meeting the clip.
    pub fn len(&self) -> usize {
        self.scratch.hits.len()
    }

    /// True when no FSA meets the clip.
    pub fn is_empty(&self) -> bool {
        self.scratch.hits.is_empty()
    }

    /// Stabbing depth at `p`, which must lie inside the clip; there it
    /// equals [`FsaSet::stab_count`].
    pub fn stab_count(&self, p: &Point) -> usize {
        self.scratch.hits.iter().filter(|&&i| self.set.rects[i as usize].contains(p)).count()
    }

    /// The deepest region of the arrangement restricted to the clip,
    /// with its depth, when that depth exceeds `floor`; `None` otherwise.
    /// `deepest_above(0)` is the unbounded query.
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
    /// y-stretch. Whenever that answer is deeper than `floor`, every
    /// `floor` returns the same region.
    ///
    /// Nothing is swept when at most `floor` rects meet the clip.
    /// Otherwise one left-to-right sweep: the rects covering the current
    /// slab are kept as a y-sorted event list edited in place as rects
    /// start and end, and a slab or line is y-swept only when an upper
    /// bound on its depth beats both `floor` and the best already found.
    /// The cost is `O(m log m)` plus `O(covering rects)` per y-sweep for
    /// `m` rects meeting the clip — in particular constant when the clip
    /// meets only one rect, the common case away from hubs.
    pub fn deepest_above(&mut self, floor: usize) -> Option<(Rect, usize)> {
        // The depth cannot exceed the number of rects meeting the clip.
        if self.len() <= floor {
            return None;
        }
        let (set, clip) = (self.set, self.clip);
        let QueryScratch { hits, local, xs, starts, ends, events, .. } = &mut *self.scratch;
        local.clear();
        local.extend(hits.iter().map(|&i| {
            set.rects[i as usize]
                .intersection(&clip)
                .expect("collect_intersecting guarantees overlap")
        }));
        let local: &[Rect] = local;
        // A lone rect (in the hot loop, the querying object's own FSA)
        // is its own deepest region, at depth 1 > floor: one slab, or
        // one line when it has no width, spanning its whole height.
        if let [only] = local {
            return Some((*only, 1));
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
        // Anything recorded is deeper than `floor`, so this is the depth
        // a slab or line must beat.
        let depth_of = |best: &Option<(Rect, usize)>| best.map_or(floor, |(_, d)| d);
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
            let to_beat = depth_of(&best_slab).max(depth_of(&best_line));
            if let Some(deeper) = deeper_region(events, &mut bound, to_beat, x, x) {
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
            let to_beat = depth_of(&best_slab);
            if let Some(deeper) = deeper_region(events, &mut bound, to_beat, x, next) {
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

/// The coordinator's holder of the one [`FsaSet`] it rebuilds in place
/// every epoch, so the steady state allocates nothing for `Rall`.
///
/// Deliberately **not** checkpointed: the set is a pure function of the
/// current batch, so a restored coordinator starts from an empty holder
/// and its first update fills it.
#[derive(Clone, Debug)]
pub struct FsaCache {
    set: FsaSet,
}

impl FsaCache {
    /// Creates a holder whose set rasterizes at `cell` (same meaning as
    /// [`FsaSet::new`]'s `cell`).
    pub fn new(cell: f64) -> Self {
        FsaCache { set: FsaSet::new(cell) }
    }

    /// The set as of the last [`FsaCache::update`] (empty on a fresh
    /// holder).
    pub fn set(&self) -> &FsaSet {
        &self.set
    }

    /// Rebuilds the set over one epoch's batch of `(object id, FSA
    /// rect)` pairs and returns it. Object ids are ignored: the set is
    /// the multiset of the batch's rects, duplicates included.
    pub fn update<I>(&mut self, batch: I) -> &FsaSet
    where
        I: IntoIterator<Item = (u64, Rect)>,
    {
        self.set.rebuild(batch.into_iter().map(|(_, rect)| rect));
        &self.set
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

    /// Drives the reused set and a from-scratch build through the same
    /// batch and asserts query equivalence on a probe set — a stale span
    /// or rect surviving from the previous batch shows up as a
    /// divergence.
    fn assert_cache_matches_rebuild(cache: &mut FsaCache, batch: &[(u64, Rect)], cell: f64) {
        let inc = cache.update(batch.iter().copied());
        let oracle = FsaSet::build(batch.iter().map(|&(_, r)| r).collect(), cell);
        assert_eq!(inc.len(), oracle.len());
        for probe in 0..40 {
            let q = r(
                (probe * 11 % 25) as f64 - 2.0,
                (probe * 17 % 25) as f64 - 2.0,
                (probe * 11 % 25) as f64 + 3.0,
                (probe * 17 % 25) as f64 + 3.0,
            );
            assert_eq!(inc.intersecting(&q), oracle.intersecting(&q), "intersecting({q:?})");
            assert_eq!(
                inc.max_depth_region(&q),
                oracle.max_depth_region(&q),
                "max_depth_region({q:?})"
            );
            assert_eq!(inc.stab_count(&q.centroid()), oracle.stab_count(&q.centroid()));
        }
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
        // Epoch 2: 7 unchanged, 8 nudged within its cells, 9 teleports
        // across cells, 11 appears.
        let b2: Vec<(u64, Rect)> = vec![
            (7, r(0.0, 0.0, 2.0, 2.0)),
            (8, r(5.1, 5.1, 7.1, 7.1)),
            (9, r(0.0, 10.0, 2.0, 12.0)),
            (11, r(6.0, 6.0, 8.0, 8.0)),
        ];
        assert_cache_matches_rebuild(&mut cache, &b2, cell);
        // Epoch 3: 7 and 11 fall silent; 8 unchanged, 9 moves back.
        let b3: Vec<(u64, Rect)> = vec![(8, r(5.1, 5.1, 7.1, 7.1)), (9, r(10.0, 0.0, 12.0, 2.0))];
        assert_cache_matches_rebuild(&mut cache, &b3, cell);
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
        // Next epoch the duplicate collapses to one occurrence.
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
            // Random population of up to 40 objects: batches grow and
            // shrink, and ids repeat within a batch.
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
