//! The paper's SinglePath coordinator (Algorithm 2, Sections 5.1-5.3)
//! by full scan: the specification `hotpath_core`'s coordinator must
//! reproduce bit for bit.
//!
//! Paths live in one `Vec` in id order, each with the exit times of its
//! crossings inside the window. Every query scans that `Vec`: none of
//! the core's path table, endpoint grid, timer wheel, FSA grid, vertex
//! groups, read cache or max-depth sweep is used, so a bug in any of
//! them shows up as a disagreement (`tests/reference.rs`). The rules
//! are the ones `hotpath_core::strategy` documents:
//!
//! * **Case 1**: the candidate paths start at the state's start vertex
//!   and end inside its FSA; rank is hotness plus the number of this
//!   epoch's candidate sets holding the path, ties to the longer path,
//!   then the lower id.
//! * **Case 2**: the end vertices inside the FSA, grouped by quantized
//!   key (the group's point is its lexicographically smallest raw end),
//!   rank as the converging hotness plus, under [`OverlapPolicy::Full`],
//!   the number of the batch's FSAs containing the vertex.
//! * **Case 3**: a vertex at the centroid of the deepest region of the
//!   batch's FSAs inside this FSA ([`max_depth_region`]), which must be
//!   strictly deeper than the best existing rank; under
//!   [`OverlapPolicy::Own`], the FSA's own centroid at rank 1. Vertex
//!   ties go to existing vertices, then the smaller `(x, y)`.
//!
//! Hotness is the number of crossings with `te + W > now` at the last
//! [`Coordinator::advance_time`]: a crossing recorded already outside
//! the window counts until the next advance, as in the core.
//!
//! Sessions and the admission cap are out of scope; the degrade
//! threshold is honoured.

use hotpath_core::config::Config;
use hotpath_core::coordinator::{EndpointResponse, HotPath};
use hotpath_core::geometry::{Point, Rect, TimePoint};
use hotpath_core::motion_path::{MotionPath, PathId};
use hotpath_core::raytrace::ClientState;
use hotpath_core::strategy::{CaseTally, OverlapPolicy};
use hotpath_core::time::Timestamp;
use std::collections::BTreeMap;

/// One stored path and the exit times of its unexpired crossings.
#[derive(Clone, Debug)]
struct Stored {
    path: MotionPath,
    crossings: Vec<Timestamp>,
}

impl Stored {
    fn hotness(&self) -> u32 {
        self.crossings.len() as u32
    }
}

/// The reference coordinator (see the module docs).
#[derive(Clone, Debug)]
pub struct Coordinator {
    config: Config,
    /// Stored paths, ascending by id.
    paths: Vec<Stored>,
    next_id: u64,
    pending: Vec<ClientState>,
    tally: CaseTally,
    degraded_epochs: u64,
}

impl Coordinator {
    /// A coordinator for `config`, which must leave sessions and the
    /// admission cap off.
    pub fn new(config: Config) -> Self {
        assert!(
            !config.admission.sessions_enabled() && config.admission.queue_cap == 0,
            "the reference models neither sessions nor the admission cap"
        );
        Coordinator {
            config,
            paths: Vec::new(),
            next_id: 0,
            pending: Vec::new(),
            tally: CaseTally::default(),
            degraded_epochs: 0,
        }
    }

    /// Buffers a state until the next epoch.
    pub fn submit(&mut self, state: ClientState) {
        self.pending.push(state);
    }

    /// Drops every crossing with `te + W <= now`, and every path left
    /// without one.
    pub fn advance_time(&mut self, now: Timestamp) {
        let w = self.config.window.len;
        for p in &mut self.paths {
            p.crossings.retain(|te| te.raw() + w > now.raw());
        }
        self.paths.retain(|p| !p.crossings.is_empty());
    }

    /// Advances to `now` and runs SinglePath over the pending batch:
    /// Case 1 in batch order, then Cases 2-3 over the rest in batch
    /// order. Returns one response per state, in that order.
    pub fn process_epoch(&mut self, now: Timestamp) -> Vec<EndpointResponse> {
        self.advance_time(now);
        let states = std::mem::take(&mut self.pending);
        let degrade = self.config.admission.degrade_threshold;
        let policy = if degrade > 0 && states.len() > degrade {
            self.degraded_epochs += 1;
            OverlapPolicy::Own
        } else {
            self.config.overlap
        };
        let fsas: Vec<Rect> = states.iter().map(|s| s.fsa).collect();

        // Case 1 (Alg. 2 lines 4-20): candidate sets first, then one
        // selection per state against the hotness recorded so far.
        let candidates: Vec<Vec<usize>> = states.iter().map(|s| self.case1(s)).collect();
        let mut occurrences: BTreeMap<usize, u32> = BTreeMap::new();
        for &i in candidates.iter().flatten() {
            *occurrences.entry(i).or_insert(0) += 1;
        }
        let mut chosen: Vec<(usize, Point)> = Vec::new();
        let mut deferred = Vec::new();
        for (i, st) in states.iter().enumerate() {
            let best = candidates[i].iter().copied().max_by(|&a, &b| {
                let rank = |j: usize| self.paths[j].hotness() + occurrences[&j];
                let (pa, pb) = (&self.paths[a].path, &self.paths[b].path);
                rank(a)
                    .cmp(&rank(b))
                    .then(pa.length().total_cmp(&pb.length()))
                    .then(pb.id.cmp(&pa.id))
            });
            match best {
                Some(j) => {
                    self.paths[j].crossings.push(st.te);
                    self.tally.case1 += 1;
                    chosen.push((i, self.paths[j].path.end()));
                }
                None => deferred.push(i),
            }
        }

        // Cases 2-3 (lines 21-37), sequentially: paths minted for one
        // state are candidates for the next.
        for i in deferred {
            let st = &states[i];
            let (existing, vertex) = self.case23(st, &fsas, policy);
            if existing {
                self.tally.case2 += 1;
            } else {
                self.tally.case3 += 1;
            }
            chosen.push((i, self.insert(st.start, vertex, st.te)));
        }

        chosen
            .into_iter()
            .map(|(i, endpoint)| EndpointResponse {
                object: states[i].object,
                endpoint: TimePoint::new(endpoint, states[i].te),
                hint: None,
            })
            .collect()
    }

    /// Quantized identity of a vertex.
    fn key(&self, p: &Point) -> (i64, i64) {
        p.quantize(self.config.vertex_grain)
    }

    /// Case-1 candidates: positions of the paths leaving `st`'s start
    /// vertex and ending inside its FSA.
    fn case1(&self, st: &ClientState) -> Vec<usize> {
        let start = self.key(&st.start);
        (0..self.paths.len())
            .filter(|&j| {
                let p = &self.paths[j].path;
                self.key(&p.start()) == start && st.fsa.contains(&p.end())
            })
            .collect()
    }

    /// The Case-2/3 choice for `st`: whether the vertex exists, and the
    /// vertex.
    fn case23(&self, st: &ClientState, fsas: &[Rect], policy: OverlapPolicy) -> (bool, Point) {
        // Vertex candidates compare by (rank, existing, -x, -y).
        let mut best: Option<(u32, bool, Point)> = None;
        let mut offer = |cand: (u32, bool, Point)| {
            let key = |c: &(u32, bool, Point)| (c.0, c.1, -c.2.x, -c.2.y);
            if best.is_none_or(|b| key(&cand) > key(&b)) {
                best = Some(cand);
            }
        };
        let mut groups: BTreeMap<(i64, i64), (Point, u32)> = BTreeMap::new();
        for p in self.paths.iter().filter(|p| st.fsa.contains(&p.path.end())) {
            let end = p.path.end();
            let group = groups.entry(self.key(&end)).or_insert((end, 0));
            if end.x.total_cmp(&group.0.x).then(end.y.total_cmp(&group.0.y)).is_lt() {
                group.0 = end;
            }
            group.1 += p.hotness();
        }
        for (vertex, converging) in groups.into_values() {
            let boost = match policy {
                OverlapPolicy::Full => fsas.iter().filter(|f| f.contains(&vertex)).count() as u32,
                OverlapPolicy::Own => 0,
            };
            offer((converging + boost, true, vertex));
        }
        match policy {
            OverlapPolicy::Full => {
                if let Some((region, depth)) = max_depth_region(fsas, &st.fsa) {
                    offer((depth as u32, false, region.centroid()));
                }
            }
            OverlapPolicy::Own => offer((1, false, st.fsa.centroid())),
        }
        let (_, existing, vertex) = best.unwrap_or((0, false, st.fsa.centroid()));
        (existing, vertex)
    }

    /// Records a crossing of `start -> end` at `te` on the stored path
    /// of that quantized geometry, storing it first if there is none;
    /// returns the stored path's end vertex.
    fn insert(&mut self, start: Point, end: Point, te: Timestamp) -> Point {
        let key = (self.key(&start), self.key(&end));
        let found = self
            .paths
            .iter()
            .position(|p| (self.key(&p.path.start()), self.key(&p.path.end())) == key);
        let j = found.unwrap_or_else(|| {
            let path = MotionPath::new(PathId(self.next_id), start, end);
            self.next_id += 1;
            self.paths.push(Stored { path, crossings: Vec::new() });
            self.paths.len() - 1
        });
        self.paths[j].crossings.push(te);
        self.paths[j].path.end()
    }

    /// Every stored path with its hotness, in id order.
    pub fn hot_paths(&self) -> Vec<HotPath> {
        self.paths
            .iter()
            .map(|s| HotPath {
                path: s.path,
                hotness: s.hotness(),
                score: s.hotness() as f64 * s.path.length(),
            })
            .collect()
    }

    /// The `k` hottest paths by a full sort: hotness desc, length desc,
    /// id asc.
    pub fn top_k(&self) -> Vec<HotPath> {
        let mut all = self.hot_paths();
        all.sort_by(|a, b| {
            b.hotness
                .cmp(&a.hotness)
                .then(b.path.length().total_cmp(&a.path.length()))
                .then(a.path.id.cmp(&b.path.id))
        });
        all.truncate(self.config.k);
        all
    }

    /// The mean score of [`Coordinator::top_k`], zero when nothing is
    /// hot.
    pub fn top_k_score(&self) -> f64 {
        let top = self.top_k();
        if top.is_empty() {
            return 0.0;
        }
        top.iter().map(|h| h.score).sum::<f64>() / top.len() as f64
    }

    /// Case tallies over every epoch so far.
    pub fn tally(&self) -> CaseTally {
        self.tally
    }

    /// Epochs run under the degraded (`Own`) policy.
    pub fn degraded_epochs(&self) -> u64 {
        self.degraded_epochs
    }
}

/// The deepest region of `rects` inside `clip`, with its depth, by the
/// per-slab rescan: for every x-slab between consecutive distinct
/// boundaries of the clipped rects (then every boundary line), collect
/// the rects covering it, sort their y-events and keep the first
/// strictly deeper result. A line wins only when strictly deeper than
/// every slab. `None` when no rect meets `clip`.
pub fn max_depth_region(rects: &[Rect], clip: &Rect) -> Option<(Rect, usize)> {
    let local: Vec<Rect> = rects.iter().filter_map(|r| r.intersection(clip)).collect();
    if local.is_empty() {
        return None;
    }
    let mut xs: Vec<f64> = local.iter().flat_map(|r| [r.lo().x, r.hi().x]).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();

    let mut best: Option<(Rect, usize)> = None;
    let mut consider = |slab_lo: f64, slab_hi: f64| {
        let mut events: Vec<(f64, i32)> = Vec::new();
        for r in &local {
            if r.lo().x <= slab_lo && slab_hi <= r.hi().x {
                events.push((r.lo().y, 1));
                events.push((r.hi().y, -1));
            }
        }
        if events.is_empty() {
            return;
        }
        // Starts before ends at equal y: closed intervals touching at a
        // line overlap there.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut depth = 0i32;
        let mut d_max = 0i32;
        for &(_, delta) in events.iter() {
            depth += delta;
            d_max = d_max.max(depth);
        }
        if d_max <= 0 || best.as_ref().is_some_and(|&(_, bd)| d_max as usize <= bd) {
            return;
        }
        let mut depth = 0i32;
        let mut y_lo = f64::NAN;
        let mut y_hi = f64::NAN;
        for &(y, delta) in events.iter() {
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
        let region = Rect::new(Point::new(slab_lo, y_lo), Point::new(slab_hi, y_hi.max(y_lo)));
        best = Some((region, d_max as usize));
    };
    for i in 0..xs.len().saturating_sub(1) {
        consider(xs[i], xs[i + 1]);
    }
    for &x in xs.iter() {
        consider(x, x);
    }
    best
}
