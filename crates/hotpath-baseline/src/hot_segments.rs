//! The paper's "DP" competitor (Section 6, "The DP Method").
//!
//! Windowed Douglas-Peucker synopses per object, relaxed for hot-segment
//! discovery: time is ignored and a candidate segment is *not* stored
//! when an already-stored segment falls completely within the
//! candidate's eps-expanded MBB — instead that segment's hotness is
//! incremented. Stored segments are disconnected (no covering-set
//! requirement), which is why the paper treats DP's hotness as an upper
//! bound rather than proper motion paths.

use crate::douglas_peucker::Metric;
use crate::opening_window::{EndpointPolicy, OpeningWindow};
use hotpath_core::fxhash::FxHashMap;
use hotpath_core::geometry::{Rect, Segment, TimePoint};
use hotpath_core::motion_path::PathId;
use hotpath_core::time::{SlidingWindow, Timestamp};
use hotpath_core::ObjectId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stored hot segment.
#[derive(Clone, Copy, Debug)]
pub struct HotSegment {
    /// Identifier, from the pipeline's own counter.
    pub id: PathId,
    /// Geometry.
    pub seg: Segment,
    /// Current hotness.
    pub hotness: u32,
    /// `hotness x length` (same score metric as SinglePath).
    pub score: f64,
}

/// The DP hot-segment pipeline: per-object opening windows feeding a
/// shared segment store with MBB-reuse and sliding-window hotness.
pub struct DpHotSegments {
    eps: f64,
    policy: EndpointPolicy,
    metric: Metric,
    windows: FxHashMap<ObjectId, OpeningWindow>,
    segments: FxHashMap<PathId, Segment>,
    /// Uniform grid over segment MBBs for the reuse query.
    grid: FxHashMap<(i64, i64), Vec<PathId>>,
    cell: f64,
    window: SlidingWindow,
    /// Crossings inside the window per stored segment (always >= 1).
    hotness: FxHashMap<PathId, u32>,
    /// One `(te + W, id)` expiry per counted crossing, earliest first.
    expiries: BinaryHeap<Reverse<(Timestamp, PathId)>>,
    next_id: u64,
    /// Range queries issued (one per discovered segment, as the paper
    /// notes when explaining why DP runs fast).
    range_queries: u64,
}

impl DpHotSegments {
    /// Creates the pipeline. `window` is the same sliding window the
    /// SinglePath coordinator uses, for a fair comparison.
    pub fn new(eps: f64, policy: EndpointPolicy, window: SlidingWindow) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        DpHotSegments {
            eps,
            policy,
            metric: Metric::LInf,
            windows: FxHashMap::default(),
            segments: FxHashMap::default(),
            grid: FxHashMap::default(),
            cell: (4.0 * eps).max(50.0),
            window,
            hotness: FxHashMap::default(),
            expiries: BinaryHeap::new(),
            next_id: 0,
            range_queries: 0,
        }
    }

    /// Number of stored segments (the paper's DP *index size*).
    pub fn index_size(&self) -> usize {
        self.segments.len()
    }

    /// Range queries issued so far.
    pub fn range_queries(&self) -> u64 {
        self.range_queries
    }

    /// Feeds one measurement of `obj`; runs its opening window and
    /// absorbs any fixed segments into the store.
    pub fn observe(&mut self, obj: ObjectId, tp: TimePoint) {
        let emitted = match self.windows.get_mut(&obj) {
            None => {
                let ow = OpeningWindow::new(tp, self.eps, self.policy, self.metric);
                self.windows.insert(obj, ow);
                Vec::new()
            }
            Some(ow) => ow.push(tp),
        };
        for e in emitted {
            self.insert_or_bump(e.segment(), e.to.t);
        }
    }

    /// Expires old crossings in `(expiry, id)` order and drops the
    /// segments whose last crossing expired.
    pub fn advance_time(&mut self, now: Timestamp) {
        while let Some(&Reverse((expiry, id))) = self.expiries.peek() {
            if expiry > now {
                break;
            }
            self.expiries.pop();
            let count = self.hotness.get_mut(&id).expect("expiry of an uncounted segment");
            *count -= 1;
            if *count == 0 {
                self.hotness.remove(&id);
                if let Some(seg) = self.segments.remove(&id) {
                    self.remove_from_grid(id, &seg);
                }
            }
        }
    }

    /// Counts one crossing of `id` exiting at `te`.
    fn record_crossing(&mut self, id: PathId, te: Timestamp) {
        *self.hotness.entry(id).or_insert(0) += 1;
        self.expiries.push(Reverse((self.window.expiry_of(te), id)));
    }

    /// The paper's reuse rule: if a stored segment lies completely
    /// within the candidate's eps-expanded MBB, bump it; otherwise store
    /// the candidate with hotness 1.
    pub fn insert_or_bump(&mut self, candidate: Segment, te: Timestamp) -> PathId {
        let probe = candidate.mbb().expand(self.eps);
        self.range_queries += 1;
        // Hottest matching segment wins; ties to the lower id.
        let mut best: Option<(u32, PathId)> = None;
        self.for_each_in_grid(&probe, |id, seg| {
            if probe.contains(&seg.a) && probe.contains(&seg.b) {
                let h = self.hotness.get(&id).copied().unwrap_or(0);
                if best
                    .map(|(bh, bid)| (h, std::cmp::Reverse(id)) > (bh, std::cmp::Reverse(bid)))
                    .unwrap_or(true)
                {
                    best = Some((h, id));
                }
            }
        });
        match best {
            Some((_, id)) => {
                self.record_crossing(id, te);
                id
            }
            None => {
                let id = PathId(self.next_id);
                self.next_id += 1;
                self.segments.insert(id, candidate);
                self.add_to_grid(id, &candidate);
                self.record_crossing(id, te);
                id
            }
        }
    }

    /// All stored segments with their (positive) hotness, in id order.
    pub fn hot_segments(&self) -> Vec<HotSegment> {
        let mut hot: Vec<HotSegment> = self
            .hotness
            .iter()
            .filter_map(|(&id, &h)| {
                self.segments.get(&id).map(|&seg| HotSegment {
                    id,
                    seg,
                    hotness: h,
                    score: h as f64 * seg.length(),
                })
            })
            .collect();
        hot.sort_unstable_by_key(|h| h.id);
        hot
    }

    /// Top-`n` hottest segments (ties: longer, then lower id).
    pub fn top_n(&self, n: usize) -> Vec<HotSegment> {
        let mut all = self.hot_segments();
        all.sort_by(|a, b| {
            b.hotness
                .cmp(&a.hotness)
                .then_with(|| b.seg.length().total_cmp(&a.seg.length()))
                .then_with(|| a.id.cmp(&b.id))
        });
        all.truncate(n);
        all
    }

    /// Average score of the top-`n` set (the Figure 7b/8b metric).
    pub fn top_n_score(&self, n: usize) -> f64 {
        let top = self.top_n(n);
        if top.is_empty() {
            return 0.0;
        }
        top.iter().map(|h| h.score).sum::<f64>() / top.len() as f64
    }

    fn cell_of(&self, x: f64, y: f64) -> (i64, i64) {
        ((x / self.cell).floor() as i64, (y / self.cell).floor() as i64)
    }

    fn cells_of(&self, r: &Rect) -> impl Iterator<Item = (i64, i64)> {
        let lo = self.cell_of(r.lo().x, r.lo().y);
        let hi = self.cell_of(r.hi().x, r.hi().y);
        (lo.0..=hi.0).flat_map(move |cx| (lo.1..=hi.1).map(move |cy| (cx, cy)))
    }

    fn add_to_grid(&mut self, id: PathId, seg: &Segment) {
        let mbb = seg.mbb();
        let cells: Vec<(i64, i64)> = self.cells_of(&mbb).collect();
        for c in cells {
            self.grid.entry(c).or_default().push(id);
        }
    }

    fn remove_from_grid(&mut self, id: PathId, seg: &Segment) {
        let mbb = seg.mbb();
        let cells: Vec<(i64, i64)> = self.cells_of(&mbb).collect();
        for c in cells {
            if let Some(v) = self.grid.get_mut(&c) {
                v.retain(|&x| x != id);
                if v.is_empty() {
                    self.grid.remove(&c);
                }
            }
        }
    }

    fn for_each_in_grid(&self, range: &Rect, mut f: impl FnMut(PathId, &Segment)) {
        let mut seen: Vec<PathId> = Vec::new();
        for c in self.cells_of(range) {
            let Some(ids) = self.grid.get(&c) else { continue };
            for &id in ids {
                if seen.contains(&id) {
                    continue;
                }
                seen.push(id);
                if let Some(seg) = self.segments.get(&id) {
                    f(id, seg);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::geometry::Point;

    fn tp(x: f64, y: f64, t: u64) -> TimePoint {
        TimePoint::new(Point::new(x, y), Timestamp(t))
    }

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    fn dp() -> DpHotSegments {
        DpHotSegments::new(2.0, EndpointPolicy::Nopw, SlidingWindow::new(100))
    }

    #[test]
    fn first_segment_is_stored_with_hotness_one() {
        let mut d = dp();
        let id = d.insert_or_bump(seg(0.0, 0.0, 50.0, 0.0), Timestamp(10));
        assert_eq!(d.index_size(), 1);
        let hot = d.hot_segments();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].id, id);
        assert_eq!(hot[0].hotness, 1);
    }

    #[test]
    fn near_duplicate_bumps_instead_of_storing() {
        let mut d = dp();
        let a = d.insert_or_bump(seg(0.0, 0.0, 50.0, 0.0), Timestamp(10));
        // A slightly longer parallel candidate whose expanded MBB
        // swallows the stored segment.
        let b = d.insert_or_bump(seg(-1.0, 1.0, 51.0, 1.0), Timestamp(11));
        assert_eq!(a, b);
        assert_eq!(d.index_size(), 1);
        assert_eq!(d.hot_segments()[0].hotness, 2);
    }

    #[test]
    fn contained_rule_is_directional() {
        let mut d = dp();
        // Store a long segment first; a *short* candidate's expanded MBB
        // does NOT contain it, so the short one is stored separately.
        d.insert_or_bump(seg(0.0, 0.0, 100.0, 0.0), Timestamp(10));
        d.insert_or_bump(seg(40.0, 0.0, 60.0, 0.0), Timestamp(11));
        assert_eq!(d.index_size(), 2);
    }

    #[test]
    fn disjoint_segments_accumulate() {
        let mut d = dp();
        d.insert_or_bump(seg(0.0, 0.0, 50.0, 0.0), Timestamp(10));
        d.insert_or_bump(seg(500.0, 500.0, 550.0, 500.0), Timestamp(10));
        assert_eq!(d.index_size(), 2);
    }

    #[test]
    fn hotness_expires_and_segment_is_dropped() {
        let mut d = dp();
        d.insert_or_bump(seg(0.0, 0.0, 50.0, 0.0), Timestamp(10));
        d.advance_time(Timestamp(109));
        assert_eq!(d.index_size(), 1);
        d.advance_time(Timestamp(110));
        assert_eq!(d.index_size(), 0);
        assert!(d.hot_segments().is_empty());
    }

    #[test]
    fn observe_runs_the_opening_window() {
        let mut d = dp();
        let obj = ObjectId(1);
        // Straight east, then a sharp turn north: one fixed segment.
        for t in 0..=10u64 {
            d.observe(obj, tp(10.0 * t as f64, 0.0, t));
        }
        assert_eq!(d.index_size(), 0, "no violation yet");
        for i in 1..=10u64 {
            d.observe(obj, tp(100.0, 10.0 * i as f64, 10 + i));
        }
        assert!(d.index_size() >= 1, "turn must fix a segment");
    }

    #[test]
    fn two_objects_on_same_road_share_a_segment() {
        let mut d = dp();
        // Both walk the same east leg then turn north at slightly
        // different offsets (within eps).
        for (oid, dy) in [(ObjectId(1), 0.0), (ObjectId(2), 0.5)] {
            for t in 0..=10u64 {
                d.observe(oid, tp(10.0 * t as f64, dy, t));
            }
            for i in 1..=10u64 {
                d.observe(oid, tp(100.0, dy + 10.0 * i as f64, 10 + i));
            }
        }
        // The second object's fixed segment reuses the first one's.
        let hot = d.hot_segments();
        assert!(hot.iter().any(|h| h.hotness >= 2), "no shared segment: {hot:?}");
    }

    #[test]
    fn top_n_score_matches_manual_computation() {
        let mut d = dp();
        let a = d.insert_or_bump(seg(0.0, 0.0, 100.0, 0.0), Timestamp(1));
        d.insert_or_bump(seg(0.0, 50.0, 10.0, 50.0), Timestamp(1));
        // Bump `a` twice more (identical geometry → contained in own MBB).
        d.insert_or_bump(seg(0.0, 0.0, 100.0, 0.0), Timestamp(2));
        d.insert_or_bump(seg(0.0, 0.0, 100.0, 0.0), Timestamp(3));
        let top = d.top_n(2);
        assert_eq!(top[0].id, a);
        assert_eq!(top[0].hotness, 3);
        // Scores: 3 * 100 = 300 and 1 * 10 = 10 → avg 155.
        assert!((d.top_n_score(2) - 155.0).abs() < 1e-9);
    }

    #[test]
    fn range_queries_counted_per_discovered_segment() {
        let mut d = dp();
        d.insert_or_bump(seg(0.0, 0.0, 10.0, 0.0), Timestamp(1));
        d.insert_or_bump(seg(0.0, 0.0, 10.0, 0.0), Timestamp(2));
        assert_eq!(d.range_queries(), 2);
    }
}
