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
//!   docs/ARCHITECTURE.md, "FSA overlap: a grid grown as states arrive,
//!   and the max-depth sweep").

use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};

/// Reusable query scratch, *owned by the caller* and kept across
/// epochs: the stamped `seen` bitmap that deduplicates
/// [`FsaSet::push`]'s probe, the hit list it fills (which
/// [`FsaSet::neighbourhood_of`] refills with a [`Neighbourhood`]'s
/// rects), and the buffers of the [`Neighbourhood::deepest_above`]
/// sweep. The coordinator keeps one for `push` as states arrive and
/// `phase_b` another (inside its `PhaseBScratch`).
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

impl QueryScratch {
    /// Starts a collection over a set of `n` rects: no hits, and a fresh
    /// stamp generation.
    fn start(&mut self, n: usize) {
        self.hits.clear();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Accepts each of `ids` not yet stamped this generation that
    /// `meets`.
    #[inline]
    fn accept(&mut self, ids: impl IntoIterator<Item = u32>, meets: impl Fn(u32) -> bool) {
        for i in ids {
            if self.stamps[i as usize] != self.gen && meets(i) {
                self.stamps[i as usize] = self.gen;
                self.hits.push(i);
            }
        }
    }
}

/// An epoch-scoped set of FSA rectangles, grown as states arrive.
///
/// The set is a uniform grid grown one rect at a time: `rects` in
/// insertion order and one map from grid cell to the indices of the
/// rects covering it, ascending. It answers one question, at arrival:
/// [`FsaSet::push`] reports the earlier rects meeting the new one and
/// then files it, so the coordinator learns each pending state's
/// overlaps as the state arrives. At the boundary Phase B hands a
/// state's overlaps back through [`FsaSet::neighbourhood_of`], and the
/// [`Neighbourhood`] answers the stabbing counts and the deepest region
/// without a grid walk. [`FsaSet::clear`] keeps the emptied cells'
/// buffers for the next epoch's cells, so steady-state epochs allocate
/// nothing.
///
/// A rect covering more than `MAX_FILED_CELLS` cells is not filed
/// under them but kept in a list every push scans, and its own push
/// scans every earlier rect: no FSA is that large, but a forged one
/// (say, 1e300 m wide) then costs O(rects), not O(cells).
///
/// Every answer is a pure function of the *multiset* of rectangles: a
/// hit list is compared as a set, a stabbing count counts containment,
/// and the sweep orders everything by coordinates before deciding
/// anything, so rect numbering and grid-walk order never leak into
/// results.
#[derive(Clone, Debug)]
pub struct FsaSet {
    rects: Vec<Rect>,
    cell: f64,
    /// Grid cell -> the indices of the rects covering it, ascending.
    cells: FxHashMap<(i64, i64), Vec<u32>>,
    /// Emptied cells' buffers, kept for the next new cell.
    spare: Vec<Vec<u32>>,
    /// The indices of the rects covering more than `MAX_FILED_CELLS`
    /// cells, ascending.
    wide: Vec<u32>,
}

/// The most grid cells a rect is filed under; see [`FsaSet`].
const MAX_FILED_CELLS: u128 = 1 << 10;

impl FsaSet {
    /// An empty set rasterizing at `cell`, which should be on the order
    /// of an FSA diameter (e.g. `2 eps`); it only affects performance,
    /// not results.
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell must be positive");
        FsaSet {
            rects: Vec::new(),
            cell,
            cells: FxHashMap::default(),
            spare: Vec::new(),
            wide: Vec::new(),
        }
    }

    /// Builds a fresh set over `rects` (see [`FsaSet::new`] for `cell`).
    pub fn build(rects: Vec<Rect>, cell: f64) -> Self {
        let mut set = Self::new(cell);
        set.rebuild(rects);
        set
    }

    /// Replaces the set's contents with `rects`: [`FsaSet::clear`], then
    /// each rect filed as [`FsaSet::push`] files it, without the query.
    pub fn rebuild(&mut self, rects: impl IntoIterator<Item = Rect>) {
        self.clear();
        for r in rects {
            self.file(r, None);
        }
    }

    /// Empties the set, keeping every allocation.
    pub fn clear(&mut self) {
        self.rects.clear();
        self.wide.clear();
        self.spare.extend(self.cells.drain().map(|(_, mut ids)| {
            ids.clear();
            ids
        }));
    }

    /// Adds `rect` as the set's next index and returns the indices of
    /// the rects already in the set that meet it, each once, in
    /// grid-walk order: one half of a symmetric overlap list, the other
    /// half being reported when the later rects arrive. A rect covering
    /// several cells is met in each; the scratch's stamps, bumped per
    /// call, report it once. No allocation and no sort in the steady
    /// state, and O(candidates), never a pass over the whole set.
    pub fn push<'s>(&mut self, rect: Rect, scratch: &'s mut QueryScratch) -> &'s [u32] {
        scratch.start(self.rects.len());
        self.file(rect, Some(&mut *scratch));
        &scratch.hits
    }

    /// Files `rect` under every cell it covers, or with the wide rects
    /// when it covers more than `MAX_FILED_CELLS`; with a `query`, the
    /// same probe first collects the rects meeting `rect`: the wide
    /// ones, then those filed in each cell, or every earlier rect for a
    /// wide `rect`.
    fn file(&mut self, rect: Rect, mut query: Option<&mut QueryScratch>) {
        let i = self.rects.len() as u32;
        if let Some(s) = query.as_deref_mut() {
            s.accept(self.wide.iter().copied(), |j| self.rects[j as usize].intersects(&rect));
        }
        let ((lx, ly), (hx, hy)) = Self::coverage(self.cell, &rect);
        let span = |a: i64, b: i64| (i128::from(b) - i128::from(a) + 1) as u128;
        if span(lx, hx).saturating_mul(span(ly, hy)) > MAX_FILED_CELLS {
            if let Some(s) = query {
                s.accept(0..i, |j| self.rects[j as usize].intersects(&rect));
            }
            self.wide.push(i);
            self.rects.push(rect);
            return;
        }
        for cx in lx..=hx {
            for cy in ly..=hy {
                let ids = self
                    .cells
                    .entry((cx, cy))
                    .or_insert_with(|| self.spare.pop().unwrap_or_default());
                if let Some(s) = query.as_deref_mut() {
                    s.accept(ids.iter().copied(), |j| self.rects[j as usize].intersects(&rect));
                }
                ids.push(i);
            }
        }
        self.rects.push(rect);
    }

    /// Keeps the rects `keep` selects by index, renumbered in order, and
    /// files them anew.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let rects = std::mem::take(&mut self.rects);
        self.clear();
        for (i, r) in rects.into_iter().enumerate() {
            if keep(i) {
                self.file(r, None);
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

    /// Number of FSAs in the set.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the set holds no FSAs.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The neighbourhood of `clip` over `hits`, which must be exactly
    /// the set's rects meeting `clip`, each once — in Phase B a member's
    /// own index plus what [`FsaSet::push`] reported for it and about
    /// it. Copies `hits` into `scratch`; walks no grid.
    pub fn neighbourhood_of<'a>(
        &'a self,
        clip: &Rect,
        hits: impl IntoIterator<Item = u32>,
        scratch: &'a mut QueryScratch,
    ) -> Neighbourhood<'a> {
        scratch.hits.clear();
        scratch.hits.extend(hits);
        Neighbourhood { set: self, clip: *clip, scratch }
    }
}

/// The FSAs meeting one clip, handed to [`FsaSet::neighbourhood_of`]
/// in a caller's [`QueryScratch`]: every question Phase B asks the set
/// about one deferred state.
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

    /// Stabbing depth at `p`, which must lie inside the clip: how many
    /// FSAs of the set contain it, the count of the smallest `Rall`
    /// region containing `p`.
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
            set.rects[i as usize].intersection(&clip).expect("every hit meets the clip")
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

/// A holder of one [`FsaSet`] rebuilt in place per batch. The
/// coordinator no longer uses it — its set grows as states arrive — and
/// it stays only because the frozen benchmark harness names it.
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

    /// The rects of `set` meeting `clip`, ascending: what `push` reports
    /// when `clip` arrives in a copy of the set.
    fn probe(set: &FsaSet, clip: &Rect) -> Vec<u32> {
        let mut hits = set.clone().push(*clip, &mut QueryScratch::default()).to_vec();
        hits.sort_unstable();
        hits
    }

    /// The deepest region inside `clip`, over the neighbourhood its
    /// probe hands back.
    fn deepest(set: &FsaSet, clip: &Rect) -> Option<(Rect, usize)> {
        set.neighbourhood_of(clip, probe(set, clip), &mut QueryScratch::default()).deepest_above(0)
    }

    /// The stabbing depth at `p`, over the neighbourhood of `p` alone.
    fn stab(set: &FsaSet, p: Point) -> usize {
        let at = Rect::point(p);
        set.neighbourhood_of(&at, probe(set, &at), &mut QueryScratch::default()).stab_count(&p)
    }

    #[test]
    fn stab_counts_match_example2() {
        let set = FsaSet::build(example2(), 8.0);
        assert_eq!(stab(&set, Point::new(1.0, 1.0)), 1); // R1 only
        assert_eq!(stab(&set, Point::new(15.0, 5.0)), 1); // R2 only
        assert_eq!(stab(&set, Point::new(8.0, 5.0)), 2); // R12
        assert_eq!(stab(&set, Point::new(5.0, 8.0)), 2); // R13
        assert_eq!(stab(&set, Point::new(12.0, 12.0)), 2); // R23
        assert_eq!(stab(&set, Point::new(8.0, 8.0)), 3); // R123
        assert_eq!(stab(&set, Point::new(-5.0, -5.0)), 0);
    }

    /// `push` reports each earlier rect meeting the new one exactly
    /// once: small cells file every rect under many cells, identical
    /// rects stack, and the stamp generation isolates each push, and
    /// each epoch after `clear`, from the last.
    #[test]
    fn intersecting_filters_and_dedups() {
        let mut rects = example2();
        rects.extend(example2()); // ids 3..6 duplicate 0..3
        rects.extend([r(100.0, 100.0, 101.0, 101.0), r(0.0, 0.0, 1.0, 1.0)]);
        rects.push(r(15.0, 5.0, 15.5, 5.5));
        let mut set = FsaSet::new(2.0);
        let mut scratch = QueryScratch::default();
        for _ in 0..3 {
            set.clear();
            for (i, rect) in rects.iter().enumerate() {
                let mut got = set.push(*rect, &mut scratch).to_vec();
                got.sort_unstable();
                let want: Vec<u32> =
                    (0..i as u32).filter(|&j| rects[j as usize].intersects(rect)).collect();
                assert_eq!(got, want, "push of rect {i}");
            }
            assert_eq!(probe(&set, &r(7.0, 7.0, 9.0, 9.0)), vec![0, 1, 2, 3, 4, 5]);
            assert_eq!(probe(&set, &r(0.0, 0.0, 1.0, 1.0)), vec![0, 3, 7]);
            assert_eq!(probe(&set, &r(15.0, 5.0, 15.5, 5.5)), vec![1, 4, 8]);
            assert!(probe(&set, &r(50.0, 50.0, 51.0, 51.0)).is_empty());
            // A sweep on the same scratch between rounds: the next
            // round's pushes must start from a fresh hit list.
            let all = r(0.0, 0.0, 16.0, 16.0);
            let mut near = set.neighbourhood_of(&all, probe(&set, &all), &mut scratch);
            assert_eq!(near.deepest_above(0).map(|(_, d)| d), Some(6));
        }
    }

    /// A rect covering more cells than a rect is filed under goes into
    /// no cell, yet meets the rects before and after it as any other
    /// rect does; without the limit, `huge` would be filed under some
    /// 1e38 cells (its cell keys saturate at the `i64` range).
    #[test]
    fn a_rect_covering_more_cells_than_are_filed_is_met_by_a_scan() {
        let huge = r(-1e300, -1e300, 1e300, 1e300);
        let wide = r(0.0, 0.0, 100.0, 100.0); // 51 x 51 cells of 2 m
        let mut rects = example2();
        rects.extend([huge, r(50.0, 50.0, 51.0, 51.0), wide, r(200.0, 0.0, 201.0, 1.0)]);
        rects.extend(example2());
        let mut set = FsaSet::new(2.0);
        let mut scratch = QueryScratch::default();
        for (i, rect) in rects.iter().enumerate() {
            let mut got = set.push(*rect, &mut scratch).to_vec();
            got.sort_unstable();
            let want: Vec<u32> =
                (0..i as u32).filter(|&j| rects[j as usize].intersects(rect)).collect();
            assert_eq!(got, want, "push of rect {i}");
        }
        assert_eq!(set.wide, vec![3, 5]);
        assert_eq!(probe(&set, &r(300.0, 300.0, 301.0, 301.0)), vec![3]);
        assert_eq!(stab(&set, Point::new(8.0, 8.0)), 3 + 1 + 1 + 3);
    }

    /// Repeated pushes sharing one scratch, interleaved with a sweep on
    /// it: the stamp generations keep each call's hit list its own.
    #[test]
    fn intersecting_order_is_ascending_across_repeated_calls() {
        // Many identical rects over tiny cells: each id lands in many
        // cells, so the stamp dedup does real work. Every hit of each
        // query below sits in the first cell the walk visits, whose
        // list is ascending, so the hit list must come out ascending.
        let mut rects = example2();
        rects.extend(example2()); // ids 3..6 duplicate 0..3
        let set = FsaSet::build(rects, 2.0);
        let mut scratch = QueryScratch::default();
        let push = |q: Rect, scratch: &mut QueryScratch| set.clone().push(q, scratch).to_vec();
        for _ in 0..3 {
            assert_eq!(push(r(7.0, 7.0, 9.0, 9.0), &mut scratch), vec![0, 1, 2, 3, 4, 5]);
            // A disjoint query between identical ones must not inherit
            // stale stamps from the previous generation.
            assert!(push(r(100.0, 100.0, 101.0, 101.0), &mut scratch).is_empty());
            assert_eq!(push(r(0.0, 0.0, 1.0, 1.0), &mut scratch), vec![0, 3]);
            // Interleave the sweep (which shares the scratch) and
            // re-check: the hit list must be rebuilt, not reused.
            let all = r(0.0, 0.0, 16.0, 16.0);
            let mut near = set.neighbourhood_of(&all, probe(&set, &all), &mut scratch);
            assert_eq!(near.deepest_above(0).map(|(_, d)| d), Some(6));
            assert_eq!(push(r(15.0, 5.0, 15.5, 5.5), &mut scratch), vec![1, 4]);
        }
    }

    #[test]
    fn deepest_region_finds_triple_overlap() {
        let set = FsaSet::build(example2(), 8.0);
        // Clipped to R1: the deepest region is R123 = [6,10]x[6,10].
        let clip = r(0.0, 0.0, 10.0, 10.0);
        let (region, depth) = deepest(&set, &clip).unwrap();
        assert_eq!(depth, 3);
        assert_eq!(region, r(6.0, 6.0, 10.0, 10.0));
        // The centroid (the paper's generated vertex) is inside all
        // three FSAs and inside the clip.
        let c = region.centroid();
        assert_eq!(stab(&set, c), 3);
        assert!(clip.contains(&c));
    }

    #[test]
    fn deepest_region_respects_clip() {
        let set = FsaSet::build(example2(), 8.0);
        // Clip to a corner of R1 away from the triple overlap.
        let clip = r(0.0, 0.0, 3.0, 3.0);
        let (region, depth) = deepest(&set, &clip).unwrap();
        assert_eq!(depth, 1);
        assert!(clip.contains_rect(&region));
    }

    #[test]
    fn max_depth_none_when_disjoint() {
        let set = FsaSet::build(vec![r(0.0, 0.0, 1.0, 1.0)], 4.0);
        assert!(deepest(&set, &r(10.0, 10.0, 11.0, 11.0)).is_none());
    }

    #[test]
    fn touching_rects_overlap_at_the_shared_edge() {
        let set = FsaSet::build(vec![r(0.0, 0.0, 5.0, 5.0), r(5.0, 0.0, 10.0, 5.0)], 4.0);
        // Depth 2 exists only on the shared line x = 5.
        let (region, depth) = deepest(&set, &r(0.0, 0.0, 10.0, 5.0)).unwrap();
        assert_eq!(depth, 2);
        assert_eq!(region.lo().x, 5.0);
        assert_eq!(region.hi().x, 5.0);
        assert_eq!(stab(&set, Point::new(5.0, 2.0)), 2);
    }

    #[test]
    fn identical_rects_stack() {
        let q = r(2.0, 2.0, 4.0, 4.0);
        let set = FsaSet::build(vec![q, q, q], 4.0);
        let (region, depth) = deepest(&set, &q).unwrap();
        assert_eq!(depth, 3);
        assert_eq!(region, q);
    }

    /// Drives the reused set and a from-scratch build through the same
    /// batch and pushes the same probes into a copy of each: equal hit
    /// lists mean equal rects *and* equal grids, so a stale cell or rect
    /// surviving from the previous batch shows up as a divergence.
    fn assert_cache_matches_rebuild(cache: &mut FsaCache, batch: &[(u64, Rect)], cell: f64) {
        let inc = cache.update(batch.iter().copied());
        let oracle = FsaSet::build(batch.iter().map(|&(_, r)| r).collect(), cell);
        assert_eq!(inc.len(), oracle.len());
        for i in 0..40 {
            let q = r(
                (i * 11 % 25) as f64 - 2.0,
                (i * 17 % 25) as f64 - 2.0,
                (i * 11 % 25) as f64 + 3.0,
                (i * 17 % 25) as f64 + 3.0,
            );
            assert_eq!(probe(inc, &q), probe(&oracle, &q), "push({q:?})");
            assert_eq!(deepest(inc, &q), deepest(&oracle, &q), "deepest({q:?})");
            assert_eq!(stab(inc, q.centroid()), stab(&oracle, q.centroid()));
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
        assert_eq!(stab(set, Point::new(2.0, 2.0)), 3);
        assert_cache_matches_rebuild(&mut cache, &b1, cell);
        // Next epoch the duplicate collapses to one occurrence.
        let b2: Vec<(u64, Rect)> = vec![(3, r(1.0, 1.0, 3.0, 3.0))];
        assert_cache_matches_rebuild(&mut cache, &b2, cell);
        assert_eq!(stab(cache.update(b2.iter().copied()), Point::new(2.0, 2.0)), 1);
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
        let set = FsaSet::build(rects, 10.0);
        let mut scratch = QueryScratch::default();
        let mut near = set.neighbourhood_of(&clip, probe(&set, &clip), &mut scratch);
        let (region, depth) = near.deepest_above(0).unwrap();
        // The reported region really has that depth.
        let c = region.centroid();
        assert_eq!(near.stab_count(&c), depth, "centroid depth mismatch");
        // No sampled point of the clip exceeds it.
        let mut max_sampled = 0;
        for i in 0..100 {
            for j in 0..100 {
                let p = Point::new(i as f64 * 1.2, j as f64 * 1.2);
                max_sampled = max_sampled.max(near.stab_count(&p));
            }
        }
        assert!(depth >= max_sampled, "sweep depth {depth} < sampled {max_sampled}");
    }
}
