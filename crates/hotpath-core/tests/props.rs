//! Property suites over the core data structures: geometry algebra, SSA
//! safety, tolerance-solver analytics, the expiry wheel, checkpoint
//! round trips, drain to empty, arrival-order invariance and the
//! RayTrace filters —
//! each invariant checked against a brute-force oracle. The coordinator
//! as a whole (path table, grid, FSA overlap, Phase B, top-k) is checked
//! against the paper-level reference in `hotpath-baseline`'s
//! `tests/reference.rs`.

use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::{Coordinator, EndpointResponse};
use hotpath_core::geometry::{Point, Rect, Segment, TimePoint};
use hotpath_core::index::PathTable;
use hotpath_core::motion_path::PathId;
use hotpath_core::raytrace::{
    ClientState, FilterStats, RayTraceCore, RayTraceFilter, Ssa, UncertainRayTraceFilter,
};
use hotpath_core::time::{SlidingWindow, Timestamp};
use hotpath_core::uncertainty::{
    coverage, half_width_exact, FallbackPolicy, GaussianPoint, ToleranceTable2D,
};
use hotpath_core::ObjectId;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

fn point() -> impl Strategy<Value = Point> {
    (-1e4..1e4f64, -1e4..1e4f64).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), 0.0..500.0f64, 0.0..500.0f64)
        .prop_map(|(lo, w, h)| Rect::new(lo, lo + Point::new(w, h)))
}

/// A path table over `window`, with a 100 m grid.
fn table(window: u64) -> PathTable {
    PathTable::new(SlidingWindow::new(window), 100.0, 1e-3)
}

/// Corridor `k`: its own start vertex, and an end `len` meters east.
fn corridor(k: u64, len: f64) -> (Point, Point) {
    let start = Point::new(k as f64 * 1_000.0, 0.0);
    (start, start + Point::new(len, 0.0))
}

/// One crossing of corridor `k` exiting at `te`; the corridor's path is
/// stored on its first crossing (and again after it expired).
fn cross(t: &mut PathTable, k: u64, te: u64, len: f64) -> PathId {
    let (s, e) = corridor(k, len);
    t.insert_edge(s, e, Timestamp(te)).0.id
}

proptest! {
    // Fixed case count and (via the vendored proptest's fixed default
    // `rng_seed`) a deterministic stream: tier-1 runs are reproducible.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // ---------------- geometry ----------------

    #[test]
    fn rect_intersection_commutes_and_shrinks(a in rect(), b in rect()) {
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x, y);
                prop_assert!(a.contains_rect(&x));
                prop_assert!(b.contains_rect(&x));
                prop_assert!(x.area() <= a.area().min(b.area()) + 1e-9);
            }
            (None, None) => prop_assert!(!a.intersects(&b)),
            _ => prop_assert!(false, "intersection not symmetric"),
        }
    }

    #[test]
    fn rect_union_contains_both(a in rect(), b in rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn containment_implies_intersection(a in rect(), b in rect()) {
        if a.contains_rect(&b) {
            prop_assert!(a.intersects(&b));
            prop_assert!(a.intersection(&b) == Some(b));
        }
    }

    #[test]
    fn clamp_point_is_nearest(r in rect(), p in point()) {
        let c = r.clamp_point(&p);
        prop_assert!(r.contains(&c));
        // No corner is closer under L-inf.
        for corner in r.corners() {
            prop_assert!(c.dist_linf(&p) <= corner.dist_linf(&p) + 1e-9);
        }
        // Containment means the clamp is the identity.
        if r.contains(&p) {
            prop_assert_eq!(c, p);
        }
    }

    #[test]
    fn tolerance_square_membership_is_linf_ball(c in point(), eps in 0.1..100.0f64, p in point()) {
        let q = Rect::tolerance_square(c, eps);
        prop_assert_eq!(q.contains(&p), c.dist_linf(&p) <= eps);
    }

    #[test]
    fn segment_linf_distance_lower_bounds_samples(
        a in point(), b in point(), p in point()
    ) {
        let seg = Segment::new(a, b);
        let d = seg.dist_linf_point(&p);
        // The analytic minimum never exceeds any sampled value...
        let mut sampled_min = f64::INFINITY;
        for i in 0..=200 {
            let s = seg.point_at(i as f64 / 200.0).dist_linf(&p);
            prop_assert!(d <= s + 1e-9, "analytic {d} above sample {s}");
            sampled_min = sampled_min.min(s);
        }
        // ...and is close to the sampled minimum, up to the sampling
        // resolution (the distance changes by at most one step's length
        // between adjacent samples).
        let step = seg.length() / 200.0;
        prop_assert!(sampled_min - d <= step + 1e-6);
    }

    // ---------------- SSA ----------------

    /// After any accept sequence, every FSA corner interpolated back to
    /// each accepted time lies inside the rectangle accepted then.
    #[test]
    fn ssa_pyramid_safety(
        deltas in prop::collection::vec((-15.0..15.0f64, -15.0..15.0f64), 1..40),
        eps in 1.0..20.0f64,
    ) {
        let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));
        let mut ssa = Ssa::new(seed);
        let mut pos = Point::new(0.0, 0.0);
        let mut accepted: Vec<(Timestamp, Rect)> = Vec::new();
        for (i, (dx, dy)) in deltas.iter().enumerate() {
            pos = Point::new(pos.x + dx, pos.y + dy);
            let t = Timestamp(i as u64 + 1);
            let q = Rect::tolerance_square(pos, eps);
            if ssa.try_extend(t, &q) {
                accepted.push((t, q));
            } else {
                break;
            }
        }
        prop_assume!(!accepted.is_empty());
        let (s, ts, te) = (ssa.start(), ssa.start_time(), ssa.end_time());
        for corner in ssa.fsa().corners() {
            for &(tj, qj) in &accepted {
                let lambda = tj.fraction_of(ts, te);
                let on_path = s.lerp(&corner, lambda);
                prop_assert!(
                    qj.expand(1e-6).contains(&on_path),
                    "corner {corner:?} escapes {qj:?} at {tj:?}"
                );
            }
        }
    }

    // ---------------- tolerance intervals ----------------

    #[test]
    fn half_width_brackets_equation2(
        eps in 1.0..50.0f64,
        delta in 0.01..0.3f64,
        sigma in 0.0..20.0f64,
    ) {
        match half_width_exact(eps, delta, sigma) {
            Some(w) => {
                prop_assert!(w >= 0.0 && w <= eps + 1e-9);
                prop_assert!(coverage(w, eps, sigma) >= 1.0 - delta - 1e-6);
                if sigma > 0.0 {
                    prop_assert!(coverage(w + 1e-3, eps, sigma) < 1.0 - delta + 1e-6);
                }
            }
            None => {
                // Unsolvable iff even the mean fails.
                prop_assert!(coverage(0.0, eps, sigma) < 1.0 - delta);
            }
        }
    }

    #[test]
    fn half_width_monotone_in_all_arguments(
        eps in 5.0..30.0f64,
        delta in 0.02..0.2f64,
        sigma in 0.1..5.0f64,
    ) {
        let base = half_width_exact(eps, delta, sigma);
        prop_assume!(base.is_some());
        let base = base.unwrap();
        // Wider tolerance, looser delta, or less noise all widen the
        // admissible interval.
        if let Some(w) = half_width_exact(eps + 1.0, delta, sigma) {
            prop_assert!(w >= base - 1e-9);
        }
        if let Some(w) = half_width_exact(eps, (delta + 0.05).min(0.99), sigma) {
            prop_assert!(w >= base - 1e-9);
        }
        if let Some(w) = half_width_exact(eps, delta, (sigma - 0.05).max(0.0)) {
            prop_assert!(w >= base - 1e-9);
        }
    }

    // ---------------- hotness window ----------------

    // The timer wheel behind the path table must reproduce the retired
    // binary heap's externally observable behavior exactly: identical
    // death order out of `advance` (the heap popped `(expiry, id)`
    // ascending; the wheel sorts each epoch's expired batch the same
    // way) and identical counts, after any schedule of crossings, idle
    // steps and clock jumps. The reference heap here *is* the old
    // algorithm: pop due events in order, decrement, drop at zero.
    #[test]
    fn wheel_expiry_order_matches_heap_reference(
        schedule in prop::collection::vec((0u64..12, 0u64..60, 0u64..8), 1..250),
        window in 1u64..1500,
    ) {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};
        let mut hot = table(window);
        let mut heap: BinaryHeap<Reverse<(u64, PathId)>> = BinaryHeap::new();
        let mut counts: HashMap<PathId, u32> = HashMap::new();
        let mut now = 0u64;
        for (k, g, action) in schedule {
            // Mostly small steps, occasionally a jump past several wheel
            // slots (and, with a large window, across wheel levels).
            now += if g >= 55 { g * 37 } else { g % 9 };
            let mut ref_died: Vec<PathId> = Vec::new();
            while heap.peek().is_some_and(|&Reverse((e, _))| e <= now) {
                let Reverse((_, rid)) = heap.pop().unwrap();
                let c = counts.get_mut(&rid).unwrap();
                *c -= 1;
                if *c == 0 {
                    counts.remove(&rid);
                    ref_died.push(rid);
                }
            }
            prop_assert_eq!(hot.advance(Timestamp(now)), &ref_died[..]);
            if action != 0 {
                let id = cross(&mut hot, k, now, 1.0);
                *counts.entry(id).or_insert(0) += 1;
                heap.push(Reverse((now + window, id)));
            }
            prop_assert_eq!(hot.len(), counts.len());
            for (&id, &count) in &counts {
                prop_assert_eq!(hot.hotness(id), count);
            }
            prop_assert!(hot.check_consistency().is_ok());
        }
    }

}

// ---------------- checkpoint ----------------

proptest! {
    // Each case grows and round-trips a whole coordinator, so a smaller
    // deterministic case count keeps tier-1 wall time in check.
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// `restore(checkpoint(c))` is the identity on a coordinator grown
    /// from any random schedule: the restored state is consistent,
    /// queries agree, and a second checkpoint of the
    /// restored coordinator — and of a double-restored one — is
    /// byte-identical to the first (restore is idempotent).
    #[test]
    fn checkpoint_restore_roundtrips_random_coordinators(
        seed in 0u64..100_000,
        epochs in 1u64..8,
        leftover in 0u64..10,
    ) {
        let config = Config::builder().window(30).k(6).build().unwrap();
        let mut c = Coordinator::new(config);
        // An LCG-driven schedule over a coarse lattice: corridors repeat
        // so crossings accumulate, expire, and evict along the way.
        let mut s = seed | 1;
        let mut roll = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let state = |obj: u64, r: u64, te: u64| {
            let x = ((r % 7) * 400) as f64;
            let y = ((r % 5) * 250) as f64;
            let end = Point::new(x + 60.0, y);
            ClientState {
                object: ObjectId(obj),
                start: Point::new(x, y),
                ts: Timestamp(te.saturating_sub(8)),
                fsa: Rect::new(end - Point::new(2.0, 2.0), end + Point::new(2.0, 2.0)),
                te: Timestamp(te),
            }
        };
        for e in 1..=epochs {
            for i in 0..10u64 {
                c.submit(state(i, roll(), e * 10 - 1));
            }
            let _ = c.process_epoch(Timestamp(e * 10));
        }
        // Undelivered states must travel inside the pending list.
        for i in 0..leftover {
            c.submit(state(i, roll(), epochs * 10 + 9));
        }

        let image = Checkpoint::new(c.image());
        let restored = Coordinator::from_image(config, image.image())
            .expect("restore of a fresh image");
        restored.check_consistency().expect("restored coordinator inconsistent");
        prop_assert_eq!(restored.index_size(), c.index_size());
        prop_assert_eq!(restored.hot_count(), c.hot_count());
        prop_assert_eq!(
            restored.top_k_score().to_bits(),
            c.top_k_score().to_bits()
        );

        let second = Checkpoint::from_bytes(Checkpoint::new(restored.image()).as_bytes().to_vec())
            .expect("the re-checkpoint decodes");
        prop_assert_eq!(second.as_bytes(), image.as_bytes(), "re-checkpoint drifted");
        let twice = Coordinator::from_image(config, second.image())
            .expect("double restore");
        twice.check_consistency().expect("double-restored coordinator inconsistent");
        let third = Checkpoint::new(twice.image());
        prop_assert_eq!(third.as_bytes(), image.as_bytes(), "double restore drifted");
    }
}

// ---------------- drain to empty ----------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Expiry is the exact inverse of recording: once the clock passes
    /// the last crossing's `te + W`, every crossing has expired and taken
    /// its path with it, so a coordinator grown from any random schedule
    /// holds no path, no hot path and no pending event; its table audit
    /// passes, which leaves no grid cell, adjacency list or count bucket
    /// live or dirty; and its image's path and event lists equal a
    /// fresh coordinator's.
    #[test]
    fn drained_coordinator_matches_a_fresh_one(
        seed in 0u64..100_000,
        epochs in 1u64..10,
        per_epoch in 1u64..40,
        window in 10u64..60,
    ) {
        let config = Config::builder().window(window).k(6).build().unwrap();
        let mut c = Coordinator::new(config);
        let mut s = seed | 1;
        let mut roll = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        // Starts and ends on a small lattice with jittered, overlapping
        // FSAs, so all three cases occur and corridors repeat.
        let mut last_te = 0;
        for e in 1..=epochs {
            for i in 0..per_epoch {
                let r = roll();
                let start = Point::new((r % 5) as f64 * 60.0, (r / 5 % 3) as f64 * 60.0);
                let end = start + Point::new(60.0 + (r % 7) as f64, (r % 3) as f64);
                let half = Point::new(1.0, 1.0) * (2 + r % 5) as f64;
                let te = e * 10 - 1 - r % 4;
                last_te = last_te.max(te);
                c.submit(ClientState {
                    object: ObjectId(i),
                    start,
                    ts: Timestamp(te.saturating_sub(8)),
                    fsa: Rect::new(end - half, end + half),
                    te: Timestamp(te),
                });
            }
            let _ = c.process_epoch(Timestamp(e * 10));
        }
        prop_assert!(c.index_size() > 0);

        c.advance_time(Timestamp(last_te + window));
        prop_assert_eq!(c.index_size(), 0);
        prop_assert_eq!(c.hot_count(), 0);
        prop_assert_eq!(c.pending_expiry_events(), 0);
        c.check_consistency().expect("drained coordinator inconsistent");
        let (image, fresh) = (c.image(), Coordinator::new(config).image());
        prop_assert_eq!(image.paths, fresh.paths);
        prop_assert_eq!(image.events, fresh.events);
    }
}

// ---------------- arrival-order invariance ----------------

/// The paper's Example 2 / Figure 5 FSAs, shifted by `at`: the first
/// state to be deferred mints a vertex in their triple overlap, and the
/// paths the others then build to it join their converging sums.
fn example2(at: Point) -> [Rect; 3] {
    [((0.0, 0.0), (10.0, 10.0)), ((6.0, 4.0), (16.0, 14.0)), ((4.0, 6.0), (14.0, 16.0))]
        .map(|((ax, ay), (bx, by))| Rect::new(at + Point::new(ax, ay), at + Point::new(bx, by)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// What a state's arrival gathers cannot show in the result. An
    /// epoch's states arrive spread over its ticks, with a window advance
    /// at every tick, so paths some of them gathered expire before the
    /// boundary (the seeding epoch's crossings leave the window at ticks
    /// 21-30); the same states submitted in the same order after the
    /// last advance must publish the same responses, case tallies,
    /// snapshot and stored paths. Hubs of overlapping FSAs, shared
    /// starts and an optional Example-2 triple make all three cases
    /// and same-pass joins occur.
    #[test]
    fn arrival_time_gathering_matches_gathering_after_the_last_advance(
        seed in 0u64..100_000,
        seeded in 1usize..40,
        arriving in 1usize..40,
        with_example2 in 0u8..2,
    ) {
        let config = Config::builder()
            .tolerance(Tolerance::crisp(5.0))
            .window(20)
            .epoch(10)
            .k(6)
            .build()
            .unwrap();
        let mut s = seed | 1;
        let mut roll = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let fsa_and_start = |r: u64| {
            let end = Point::new((r % 4) as f64 * 40.0 + (r / 4 % 5) as f64 * 1.5, (r / 20 % 5) as f64 * 1.5);
            let half = Point::new(1.0, 1.0) * (1 + r / 100 % 4) as f64;
            (Rect::new(end - half, end + half), Point::new(-100.0, (r / 400 % 6) as f64 * 20.0))
        };
        let state = |i: usize, (fsa, start): (Rect, Point), te: u64| ClientState {
            object: ObjectId(i as u64),
            start,
            ts: Timestamp(te.saturating_sub(5)),
            fsa,
            te: Timestamp(te),
        };
        let seeding: Vec<ClientState> =
            (0..seeded).map(|i| state(i, fsa_and_start(roll()), 1 + roll() % 10)).collect();
        let mut batch: Vec<ClientState> =
            (0..arriving).map(|i| state(i, fsa_and_start(roll()), 20 + roll() % 10)).collect();
        if with_example2 == 1 {
            for (k, fsa) in example2(Point::new(200.0, 0.0)).into_iter().enumerate() {
                let start = Point::new(300.0, k as f64 * 50.0);
                batch.push(state(arriving + k, (fsa, start), 20 + roll() % 10));
            }
        }
        // Each state arrives at its `te`.
        batch.sort_by_key(|st| st.te);

        let seeded_coordinator = || {
            let mut c = Coordinator::new(config);
            c.submit_batch(seeding.iter().copied());
            let _ = c.process_epoch(Timestamp(10));
            c
        };
        let mut spread = seeded_coordinator();
        for t in 20..30 {
            spread.advance_time(Timestamp(t));
            spread.submit_batch(batch.iter().filter(|st| st.te.raw() == t).copied());
        }
        let mut last = seeded_coordinator();
        last.advance_time(Timestamp(29));
        last.submit_batch(batch.iter().copied());

        let response = |r: &EndpointResponse| {
            (r.object.0, [r.endpoint.p.x.to_bits(), r.endpoint.p.y.to_bits()], r.endpoint.t.raw())
        };
        let got: Vec<_> = spread.process_epoch(Timestamp(30)).iter().map(response).collect();
        let want: Vec<_> = last.process_epoch(Timestamp(30)).iter().map(response).collect();
        prop_assert_eq!(got, want);
        let tally = |c: &Coordinator| {
            let p = c.processing_stats();
            (p.case1, p.case2, p.case3)
        };
        prop_assert_eq!(tally(&spread), tally(&last));
        let published = |c: &Coordinator| {
            let snap = c.snapshot();
            let top: Vec<_> = snap.top_k.iter().map(|h| (h.path, h.hotness, h.score.to_bits())).collect();
            let head = (snap.epoch, snap.timestamp, snap.index_size, snap.phase_b.deferred);
            (head, snap.top_k_score.to_bits(), top)
        };
        prop_assert_eq!(published(&spread), published(&last));
        prop_assert_eq!(spread.image().paths, last.image().paths);
        prop_assert_eq!(spread.image().events, last.image().events);
        spread.check_consistency().map_err(TestCaseError::fail)?;
    }
}

// ---------------- RayTrace: direct path vs always-queue filter ----------------

/// The RayTrace core as it stood before the direct path — PR 18's
/// `observe_rect` / `drain`, verbatim on the public [`Ssa`]: every
/// observation is pushed onto the queue and drained straight back. The
/// reference the in-place [`RayTraceCore`] is compared against.
#[derive(Clone, Debug)]
struct QueueCore {
    object: ObjectId,
    ssa: Ssa,
    waiting: bool,
    buffer: VecDeque<(Timestamp, Rect)>,
    stats: FilterStats,
}

impl QueueCore {
    fn new(object: ObjectId, seed: TimePoint) -> Self {
        QueueCore {
            object,
            ssa: Ssa::new(seed),
            waiting: false,
            buffer: VecDeque::new(),
            stats: FilterStats::default(),
        }
    }

    fn observe_rect(&mut self, t: Timestamp, rect: Rect) -> Option<ClientState> {
        self.stats.observed += 1;
        self.buffer.push_back((t, rect));
        if self.waiting {
            self.stats.buffered += 1;
            return None;
        }
        self.drain()
    }

    fn receive_endpoint(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.ssa = Ssa::new(endpoint);
        self.waiting = false;
        self.drain()
    }

    fn drain(&mut self) -> Option<ClientState> {
        while let Some((t, rect)) = self.buffer.pop_front() {
            if self.ssa.try_extend(t, &rect) {
                self.stats.absorbed += 1;
                continue;
            }
            self.waiting = true;
            self.buffer.push_front((t, rect));
            self.stats.reports += 1;
            return Some(ClientState {
                object: self.object,
                start: self.ssa.start(),
                ts: self.ssa.start_time(),
                fsa: self.ssa.fsa(),
                te: self.ssa.end_time(),
            });
        }
        None
    }
}

/// PR 18's `UncertainRayTraceFilter::observe_gaussian` over [`QueueCore`].
struct QueueUncertain {
    core: QueueCore,
    table: ToleranceTable2D,
}

/// One step of the shared schedule: `(kind, dx, dy, a, b, delay, u, v)`.
/// `kind` picks the time gap, the turns, the degenerate rectangles, and
/// whether a response is quick; `(dx, dy)` wobbles
/// and steers; `(a, b)` size the rectangle or the noise; a report issued
/// at this step is answered `delay` observations late, at the point
/// `(u, v)` of its FSA.
type Step = (u8, f64, f64, f64, f64, usize, f64, f64);

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    let unit = || 0.0..1.0f64;
    let fsa_coord = || 0.0..=1.0f64;
    let step = (
        0u8..24,
        -1.0..1.0f64,
        -1.0..1.0f64,
        unit(),
        unit(),
        0usize..=40,
        fsa_coord(),
        fsa_coord(),
    );
    prop::collection::vec(step, 1..max)
}

/// Everything a filter variant lets a caller see after a call.
#[derive(PartialEq, Debug)]
struct View {
    waiting: bool,
    stats: FilterStats,
    /// The core's `(buffered_len, start, ts, te, fsa)`, where exposed.
    core: Option<(usize, Point, Timestamp, Timestamp, Rect)>,
}

/// A filter variant under the shared schedule: how it turns a step at
/// position `pos` into an observation, how it takes a response, and
/// what it exposes.
trait Variant {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState>;
    fn receive(&mut self, endpoint: TimePoint) -> Option<ClientState>;
    fn view(&self) -> View;

    fn call(&mut self, call: Call<'_>) -> Option<ClientState> {
        match call {
            Call::Observe(step, pos, t) => self.observe(step, pos, t),
            Call::Receive(endpoint) => self.receive(endpoint),
        }
    }
}

/// One call a schedule makes on a filter.
#[derive(Clone, Copy, Debug)]
enum Call<'a> {
    Observe(&'a Step, Point, Timestamp),
    Receive(TimePoint),
}

/// The rectangle the core variants observe at a step: 4 to 16 m a
/// side, zero-width for `kind` 1 and a single point for `kind` 0.
fn step_rect(&(kind, _, _, a, b, ..): &Step, pos: Point) -> Rect {
    let half = match kind {
        0 => Point::new(0.0, 0.0),
        1 => Point::new(0.0, 2.0 + b * 6.0),
        _ => Point::new(2.0 + a * 6.0, 2.0 + b * 6.0),
    };
    Rect::new(pos - half, pos + half)
}

/// The Gaussian measurement the uncertain variants observe at a step;
/// the widest sigmas are unsolvable for `(eps, 0.05)`.
fn step_gaussian(&(_, _, _, a, b, ..): &Step, pos: Point, eps: f64) -> GaussianPoint {
    let sigma = |x: f64| eps * (0.02 + x * 0.46);
    GaussianPoint { mean: pos, sigma_x: sigma(a), sigma_y: sigma(b) }
}

/// The `(eps, 0.05)` table covering every sigma [`step_gaussian`] draws.
fn step_table(eps: f64, fallback: FallbackPolicy) -> ToleranceTable2D {
    ToleranceTable2D::build(eps, 0.05, eps / 2.0, 64, fallback)
}

fn core_view(waiting: bool, stats: FilterStats, buffered: usize, ssa: &Ssa) -> View {
    let core = (buffered, ssa.start(), ssa.start_time(), ssa.end_time(), ssa.fsa());
    View { waiting, stats, core: Some(core) }
}

impl Variant for RayTraceCore {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        self.observe_rect(t, step_rect(step, pos))
    }
    fn receive(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        core_view(self.is_waiting(), self.stats(), self.buffered_len(), self.ssa())
    }
}

impl Variant for QueueCore {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        self.observe_rect(t, step_rect(step, pos))
    }
    fn receive(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        core_view(self.waiting, self.stats, self.buffer.len(), &self.ssa)
    }
}

/// The uncertain filter with the `eps` its table was built for.
impl Variant for (UncertainRayTraceFilter, f64) {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        self.0.observe_gaussian(step_gaussian(step, pos, self.1), t)
    }
    fn receive(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.0.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        View { waiting: self.0.is_waiting(), stats: self.0.stats(), core: None }
    }
}

impl Variant for RayTraceFilter {
    fn observe(&mut self, _: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        RayTraceFilter::observe(self, TimePoint::new(pos, t))
    }
    fn receive(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        core_view(self.is_waiting(), self.stats(), self.buffered_len(), self.ssa())
    }
}

impl Variant for QueueUncertain {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        let eps = self.table.axis().eps();
        match step_gaussian(step, pos, eps).tolerance_rect(&self.table) {
            Some(rect) => self.core.observe_rect(t, rect),
            None => {
                self.core.stats.observed += 1;
                self.core.stats.dropped += 1;
                None
            }
        }
    }
    fn receive(&mut self, endpoint: TimePoint) -> Option<ClientState> {
        self.core.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        View { waiting: self.core.waiting, stats: self.core.stats, core: None }
    }
}

/// Walks one schedule — a wobbling walk with sharp turns, each report
/// answered `delay` observations late at a point of its FSA (a corner,
/// a third of the time) — handing every call to `filter`, whose return
/// value is what the filter under test reported.
fn walk(
    schedule: &[Step],
    mut filter: impl FnMut(Call<'_>) -> Result<Option<ClientState>, TestCaseError>,
) -> Result<(), TestCaseError> {
    let (mut pos, mut vel, mut t) = (Point::new(0.0, 0.0), Point::new(6.0, 0.0), 0u64);
    // The unanswered report: the state, the observations still to pass
    // before its response, and the FSA point the response uses.
    let mut pending: Option<(ClientState, usize, Point)> = None;
    for step in schedule {
        let &(kind, dx, dy, _, _, delay, u, v) = step;
        let wobble = Point::new(dx, dy);
        match kind {
            // A turn, every other one onto an axis.
            22 => vel = wobble * 14.0,
            23 => vel = Point::new(dx * 14.0, 0.0),
            _ => {}
        }
        let dt = 1 + u64::from(kind % 3);
        let answer = |state: ClientState| {
            let (fsa, snap) = (state.fsa, |x: f64| if kind % 3 == 0 { x.round() } else { x });
            let at = fsa.lo() + Point::new(snap(u) * fsa.width(), snap(v) * fsa.height());
            (state, if kind % 2 == 0 { delay % 3 } else { delay }, at)
        };
        while let Some((state, wait, at)) = pending.take() {
            if wait > 0 {
                pending = Some((state, wait - 1, at));
                break;
            }
            pending = filter(Call::Receive(TimePoint::new(at, state.te)))?.map(answer);
        }
        pos = pos + vel * dt as f64 + wobble;
        t += dt;
        if let Some(state) = filter(Call::Observe(step, pos, Timestamp(t)))? {
            prop_assert!(pending.is_none(), "a waiting filter reported at t={}", t);
            pending = Some(answer(state));
        }
    }
    Ok(())
}

/// [`walk`]s `subject` and `reference` through one schedule and requires
/// the same output and the same [`View`] after every single call.
fn drive_pair<A: Variant, B: Variant>(
    subject: &mut A,
    reference: &mut B,
    schedule: &[Step],
) -> Result<(), TestCaseError> {
    walk(schedule, |call| {
        let got = subject.call(call);
        prop_assert_eq!(&got, &reference.call(call), "{:?}", call);
        prop_assert_eq!(subject.view(), reference.view(), "after {:?}", call);
        Ok(got)
    })
}

/// The paper's client guarantee for one reported state: whichever point
/// of the FSA the coordinator picks — checked at the four corners, the
/// extremes of the pyramid — the constant-speed point of `start ->
/// endpoint` at the time of every measurement the state covers
/// (`ts < t <= te`) lies inside that measurement's tolerance rectangle.
fn check_state_covers(
    state: &ClientState,
    measured: &[(Timestamp, Rect)],
) -> Result<(), TestCaseError> {
    prop_assert!(state.ts < state.te, "a state must cover a measurement: {:?}", state);
    let covered = measured.iter().filter(|(t, _)| state.ts < *t && *t <= state.te);
    for (t, tolerance) in covered {
        for corner in state.fsa.corners() {
            let on_path = state.start.lerp(&corner, t.fraction_of(state.ts, state.te));
            prop_assert!(
                tolerance.expand(1e-6).contains(&on_path),
                "{:?} -> {:?} is at {:?} at {:?}, outside {:?}",
                state.start,
                corner,
                on_path,
                t,
                tolerance
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// `RayTraceCore` offers an observation to the SSA directly and
    /// touches its queue only on a violation and while waiting; the
    /// always-queue filter it replaced must be indistinguishable from it
    /// through every public accessor, after every call, under late
    /// responses (0..=40 observations), endpoints anywhere in the FSA
    /// (corners included), backlogs that re-violate on delivery, and
    /// zero-width / zero-area rectangles. The uncertain wrapper (drops)
    /// runs the same schedule against its always-queue self. As measured
    /// on the fixed-seed cases (16 253 observations per variant): 4 411
    /// responses, two in three of which re-violate on delivery and 1 590
    /// of the core's meet a backlog beyond the violator.
    #[test]
    fn direct_path_filter_matches_always_queue_filter(schedule in steps(160)) {
        let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));
        let object = ObjectId(7);

        drive_pair(
            &mut RayTraceCore::new(object, seed),
            &mut QueueCore::new(object, seed),
            &schedule,
        )?;

        let table = step_table(10.0, FallbackPolicy::Reject);
        drive_pair(
            &mut (UncertainRayTraceFilter::new(object, seed, table.clone()), 10.0),
            &mut QueueUncertain { core: QueueCore::new(object, seed), table },
            &schedule,
        )?;
    }

    /// ROADMAP *Check against the paper (c)*: for any trajectory, `eps`
    /// and response delays, through whole report -> endpoint -> resume
    /// chains, every state the filter reports keeps the paper's promise
    /// ([`check_state_covers`]) — what `ssa_pyramid_safety` shows for one
    /// SSA, shown for the filter as a whole: for the crisp filter each
    /// raw measurement is within `eps` (L-inf) of the path, and for the
    /// `(eps, delta)` filter the path threads each measurement's solved
    /// rectangle under both fallback policies (dropped measurements
    /// promise nothing).
    #[test]
    fn reported_states_cover_their_measurements_within_tolerance(
        schedule in steps(160),
        eps in 1.0..20.0f64,
    ) {
        let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));
        let object = ObjectId(7);
        // Runs `filter` over the schedule, recording what `tolerance`
        // makes of each measurement and checking each reported state.
        let run = |filter: &mut dyn Variant, tolerance: &dyn Fn(&Step, Point) -> Option<Rect>| {
            let mut measured: Vec<(Timestamp, Rect)> = Vec::new();
            walk(&schedule, |call| {
                if let Call::Observe(step, pos, t) = call {
                    measured.extend(tolerance(step, pos).map(|rect| (t, rect)));
                }
                let got = filter.call(call);
                if let Some(state) = &got {
                    check_state_covers(state, &measured)?;
                }
                Ok(got)
            })
        };

        let crisp = |_: &Step, pos: Point| Some(Rect::tolerance_square(pos, eps));
        run(&mut RayTraceFilter::new(object, seed, eps), &crisp)?;

        for fallback in [FallbackPolicy::Reject, FallbackPolicy::MinimalArea(eps / 20.0)] {
            let table = step_table(eps, fallback);
            let solved = |step: &Step, pos: Point| {
                let rect = step_gaussian(step, pos, eps).tolerance_rect(&table)?;
                // A solved rectangle never reaches past the crisp square.
                assert!(Rect::tolerance_square(pos, eps).contains_rect(&rect));
                Some(rect)
            };
            run(&mut (UncertainRayTraceFilter::new(object, seed, table.clone()), eps), &solved)?;
        }
    }
}
