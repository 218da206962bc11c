//! Property suites over the core data structures: geometry algebra, SSA
//! safety, tolerance-solver analytics, and the path table's
//! sliding-window hotness and endpoint grid — each invariant checked
//! against a brute-force oracle.

use hotpath_core::checkpoint::SectionKind;
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, Rect, Segment, TimePoint};
use hotpath_core::index::{ExpiryEvent, PathTable};
use hotpath_core::motion_path::{MotionPath, PathId};
use hotpath_core::raytrace::hinted::{HintedRayTraceFilter, PathHint};
use hotpath_core::raytrace::{
    ClientState, FilterStats, RayTraceCore, RayTraceFilter, Ssa, UncertainRayTraceFilter,
};
use hotpath_core::session::{SessionTable, SessionTransition};
use hotpath_core::strategy::{CaseKind, CaseTally, FsaSet, OverlapPolicy, Selection};
use hotpath_core::time::{SlidingWindow, Timestamp};
use hotpath_core::uncertainty::{
    coverage, half_width_exact, FallbackPolicy, GaussianPoint, ToleranceTable2D,
};
use hotpath_core::ObjectId;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, VecDeque};

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

/// Current hotness of corridor `k` (zero while it is not stored).
fn heat(t: &PathTable, k: u64) -> u32 {
    t.paths_starting_at(&corridor(k, 0.0).0).first().map_or(0, |e| t.hotness(e.id))
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

    #[test]
    fn hotness_matches_brute_force(
        schedule in prop::collection::vec((0u64..6, 0u64..3), 1..200),
        window in 1u64..50,
    ) {
        let mut hot = table(window);
        let mut crossings: Vec<(u64, u64)> = Vec::new(); // (corridor, te)
        let mut now = 0u64;
        for (k, gap) in schedule {
            now += gap;
            hot.advance(Timestamp(now));
            cross(&mut hot, k, now, 1.0);
            crossings.push((k, now));
            for check in 0u64..6 {
                let expect = crossings
                    .iter()
                    .filter(|&&(i, te)| i == check && te + window > now)
                    .count() as u32;
                prop_assert_eq!(heat(&hot, check), expect);
            }
        }
    }

    // The count-bucket top-k walk must match a naive full sort of the
    // hot set — `(hotness desc, length desc, id asc)`, the coordinator's
    // `top_n` order — at every cut depth, after any schedule of
    // crossings, idle steps, expiries and re-crossings of expired
    // corridors, and on a table rebuilt from its checkpoint sections.
    #[test]
    fn hotness_top_n_matches_full_sort(
        schedule in prop::collection::vec((0u64..10, 0u64..4, 0u64..7), 1..250),
        window in 1u64..60,
        k in 2usize..6,
    ) {
        let length = |lane: u64| ((lane * 29) % 83) as f64;
        let mut hot = table(window);
        let mut now = 0u64;
        for (lane, gap, action) in schedule {
            now += gap;
            hot.advance(Timestamp(now));
            if action != 0 {
                cross(&mut hot, lane, now, length(lane));
            }

            let mut oracle: Vec<(&MotionPath, u32)> = hot.iter().collect();
            oracle.sort_by(|a, b| {
                b.1.cmp(&a.1)
                    .then_with(|| b.0.length().total_cmp(&a.0.length()))
                    .then_with(|| a.0.id.cmp(&b.0.id))
            });
            let oracle: Vec<(PathId, u32)> = oracle.into_iter().map(|(p, c)| (p.id, c)).collect();
            let restored = table(window)
                .restore(hot.paths_by_id(), hot.events_vec(), hot.next_id(), 0, hot.clock())
                .unwrap();
            let p = oracle.len();
            for n in [0, 1, k, p, p + 1] {
                let want = &oracle[..n.min(p)];
                prop_assert_eq!(&hot.top_n(n)[..], want, "top_n({})", n);
                prop_assert_eq!(&restored.top_n(n)[..], want, "restored top_n({})", n);
            }
            prop_assert!(hot.check_consistency().is_ok());
            prop_assert!(restored.check_consistency().is_ok());
        }
    }

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

    // ---------------- endpoint index ----------------

    #[test]
    fn index_queries_match_linear_scan(
        paths in prop::collection::vec((point(), point()), 1..60),
        query in rect(),
    ) {
        let mut index = table(10);
        let mut stored: Vec<(PathId, Point, Point)> = Vec::new();
        for (s, e) in paths {
            let (edge, _) = index.insert_edge(s, e, Timestamp(0));
            stored.push((edge.id, s, e));
        }
        index.check_consistency().unwrap();

        // Case-2 oracle: distinct end vertices inside the query.
        let got: Vec<Point> = index
            .end_vertices_in(&query)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let mut want: Vec<(i64, i64)> = stored
            .iter()
            .filter(|(_, _, e)| query.contains(e))
            .map(|(_, _, e)| e.quantize(1e-3))
            .collect();
        want.sort_unstable();
        want.dedup();
        let mut got_keys: Vec<(i64, i64)> = got.iter().map(|p| p.quantize(1e-3)).collect();
        got_keys.sort_unstable();
        prop_assert_eq!(got_keys, want);

        // Case-1 oracle for a stored start vertex.
        if let Some((_, s, _)) = stored.first() {
            let mut got: Vec<PathId> = index.paths_from_into(s, &query);
            got.sort_unstable();
            let skey = s.quantize(1e-3);
            let mut want: Vec<PathId> = stored
                .iter()
                .filter(|(_, ss, ee)| ss.quantize(1e-3) == skey && query.contains(ee))
                .map(|(id, _, _)| *id)
                .collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn index_remove_restores_consistency(
        paths in prop::collection::vec((point(), point()), 1..40),
        victim in 0usize..40,
    ) {
        // Paths leave by expiry: the victim's one crossing exits at 0,
        // every other path's at 1, so advancing to `W` removes the victim
        // alone — unless a twin geometry deduped a later crossing onto it.
        let mut index = table(10);
        let victim = victim % paths.len();
        let mut ids = Vec::new();
        for (k, (s, e)) in paths.iter().enumerate() {
            let te = Timestamp(u64::from(k != victim));
            ids.push(index.insert_edge(*s, *e, te).0.id);
        }
        let victim = ids[victim];
        let twinned = ids.iter().filter(|&&id| id == victim).count() > 1;
        index.advance(Timestamp(10));
        index.check_consistency().unwrap();
        prop_assert_eq!(index.get(victim).is_some(), twinned);
        prop_assume!(!twinned);
        // The inserted endpoints' bounding box, padded by one cell.
        let everywhere = paths
            .iter()
            .map(|(_, e)| Rect::point(*e))
            .reduce(|a, b| a.union(&b))
            .expect("at least one path")
            .expand(100.0);
        prop_assert!(!index
            .end_vertices_in(&everywhere)
            .iter()
            .any(|(_, ids)| ids.contains(&victim)));
    }
}

// ---------------- sessions ----------------

/// Transition codes for the naive reference's event log.
const CONNECTED: u8 = 0;
const DROPPED: u8 = 1;
const RECONNECTED: u8 = 2;
const EJECTED: u8 = 3;

fn code(t: SessionTransition) -> u8 {
    match t {
        SessionTransition::Connected => CONNECTED,
        SessionTransition::Dropped => DROPPED,
        SessionTransition::Reconnected => RECONNECTED,
        SessionTransition::Ejected => EJECTED,
    }
}

/// A naive session table: a sorted map scanned front to back, applying
/// each due deadline by repeatedly taking the minimum `(deadline,
/// object)` — the specification the wheel-backed [`SessionTable`] must
/// reproduce event for event.
struct NaiveSessions {
    lease: u64,
    grace: u64,
    /// object -> (state: 0 healthy / 1 dropped, deadline, last_heartbeat)
    records: BTreeMap<u64, (u8, u64, u64)>,
    events: Vec<(u64, u64, u8)>,
}

impl NaiveSessions {
    fn heartbeat(&mut self, obj: u64, at: u64) {
        let deadline = at + self.lease;
        match self.records.get_mut(&obj) {
            None => {
                self.records.insert(obj, (0, deadline, at));
                self.events.push((obj, at, CONNECTED));
            }
            Some(r) => {
                r.2 = r.2.max(at);
                if r.0 == 1 {
                    *r = (0, deadline, r.2);
                    self.events.push((obj, at, RECONNECTED));
                } else if deadline > r.1 {
                    r.1 = deadline;
                }
            }
        }
    }

    fn advance(&mut self, now: u64) {
        loop {
            let due = self.records.iter().filter(|(_, r)| r.1 <= now).map(|(&o, r)| (r.1, o)).min();
            let Some((deadline, obj)) = due else { break };
            if self.records[&obj].0 == 0 {
                self.events.push((obj, deadline, DROPPED));
                let eject_at = deadline + self.grace;
                if eject_at <= now {
                    self.records.remove(&obj);
                    self.events.push((obj, eject_at, EJECTED));
                } else {
                    let r = self.records.get_mut(&obj).expect("due record");
                    r.0 = 1;
                    r.1 = eject_at;
                }
            } else {
                self.records.remove(&obj);
                self.events.push((obj, deadline, EJECTED));
            }
        }
    }

    fn eject_now(&mut self, obj: u64, at: u64) {
        if self.records.remove(&obj).is_some() {
            self.events.push((obj, at, EJECTED));
        }
    }

    fn records_flat(&self) -> Vec<(u64, u64, u64, u64)> {
        self.records.iter().map(|(&o, &(s, d, h))| (o, s as u64, d, h)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The wheel-backed session table must match the naive
    /// sorted-by-deadline reference exactly — same transition stream
    /// (eviction order included), same surviving records — through any
    /// schedule of heartbeats, clock jumps, and forced ejections, and
    /// straight through a checkpoint/restore performed mid-schedule
    /// (i.e. mid-lease for whatever sessions are then alive).
    #[test]
    fn session_table_matches_naive_deadline_reference(
        lease in 1u64..20,
        grace in 0u64..15,
        schedule in prop::collection::vec((0u64..6, 0u64..12, 0u64..8), 1..200),
        restore_ix in 0usize..200,
    ) {
        let mut real = SessionTable::new(lease, grace, Timestamp(0));
        let mut naive = NaiveSessions {
            lease,
            grace,
            records: BTreeMap::new(),
            events: Vec::new(),
        };
        let mut now = 0u64;
        for (i, &(gap, obj, action)) in schedule.iter().enumerate() {
            now += gap;
            real.advance(Timestamp(now));
            naive.advance(now);
            if action == 0 {
                real.eject_now(ObjectId(obj), Timestamp(now));
                naive.eject_now(obj, now);
            } else if action < 6 {
                real.heartbeat(ObjectId(obj), Timestamp(now));
                naive.heartbeat(obj, now);
            }
            let got: Vec<(u64, u64, u8)> = real
                .drain_events()
                .into_iter()
                .map(|e| (e.object.0, e.at.raw(), code(e.transition)))
                .collect();
            prop_assert_eq!(got, std::mem::take(&mut naive.events), "events at step {}", i);
            let flat: Vec<(u64, u64, u64, u64)> = real
                .records_vec()
                .iter()
                .map(|r| (r.object, r.state, r.deadline, r.last_heartbeat))
                .collect();
            prop_assert_eq!(flat, naive.records_flat(), "records at step {}", i);

            if i == restore_ix % schedule.len() {
                // Mid-lease restore: the rebuilt table (no stale wheel
                // events) must keep tracking the reference.
                real = SessionTable::from_checkpoint_parts(
                    lease,
                    grace,
                    real.records_vec(),
                    real.counters(),
                    Timestamp(now),
                )
                .expect("clean section");
                real.check().expect("restored table audits");
            }
        }
        real.check().expect("final audit");
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
        let config = Config::paper_defaults()
            .with_tolerance(Tolerance::crisp(10.0))
            .with_window(30)
            .with_epoch(10)
            .with_k(6);
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
        // Undelivered states must travel inside the pending section.
        for i in 0..leftover {
            c.submit(state(i, roll(), epochs * 10 + 9));
        }

        let image = c.checkpoint();
        let restored = Coordinator::from_checkpoint(config, &image)
            .expect("restore of a fresh image");
        restored.check_consistency().expect("restored coordinator inconsistent");
        prop_assert_eq!(restored.index_size(), c.index_size());
        prop_assert_eq!(restored.hot_count(), c.hot_count());
        prop_assert_eq!(
            restored.top_k_score().to_bits(),
            c.top_k_score().to_bits()
        );

        let second = restored.checkpoint();
        prop_assert_eq!(second.as_bytes(), image.as_bytes(), "re-checkpoint drifted");
        let twice = Coordinator::from_checkpoint(config, &second)
            .expect("double restore");
        twice.check_consistency().expect("double-restored coordinator inconsistent");
        let third = twice.checkpoint();
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
    /// live or dirty; and its image's Paths and Events sections equal a
    /// fresh coordinator's.
    #[test]
    fn drained_coordinator_matches_a_fresh_one(
        seed in 0u64..100_000,
        epochs in 1u64..10,
        per_epoch in 1u64..40,
        window in 10u64..60,
    ) {
        let config = Config::paper_defaults()
            .with_tolerance(Tolerance::crisp(10.0))
            .with_window(window)
            .with_epoch(10)
            .with_k(6);
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
        let (image, fresh) = (c.checkpoint(), Coordinator::new(config).checkpoint());
        prop_assert_eq!(
            image.section::<MotionPath>(SectionKind::Paths).unwrap(),
            fresh.section::<MotionPath>(SectionKind::Paths).unwrap()
        );
        prop_assert_eq!(
            image.section::<ExpiryEvent>(SectionKind::Events).unwrap(),
            fresh.section::<ExpiryEvent>(SectionKind::Events).unwrap()
        );
    }
}

// ---------------- index access paths vs brute force ----------------

/// Lattice vertex `v` (6 x 6, 10 m pitch — every other one sits exactly
/// on a border of the 20 m grid cells used below), optionally nudged by
/// sub-grain float noise that keeps its quantized key but can push it
/// into the neighbouring grid cell.
fn lattice_vertex(v: usize, noise: u8) -> Point {
    let nudge = [0.0, 2e-4, -2e-4][noise as usize % 3];
    Point::new((v % 6) as f64 * 10.0 + nudge, (v / 6 % 6) as f64 * 10.0 - nudge)
}

/// The Case-2 answer computed the slow way: scan the whole slab, group
/// by quantized key, lexicographic-min representative, ids ascending,
/// groups by representative `(x, y)`.
fn brute_end_vertices(index: &PathTable, fsa: &Rect) -> Vec<(Point, Vec<PathId>)> {
    let mut groups: BTreeMap<(i64, i64), (Point, Vec<PathId>)> = BTreeMap::new();
    for (p, _) in index.iter().filter(|(p, _)| fsa.contains(&p.end())) {
        let g = groups.entry(index.vertex_key(&p.end())).or_insert((p.end(), Vec::new()));
        if hotpath_core::index::point_lt(&p.end(), &g.0) {
            g.0 = p.end();
        }
        g.1.push(p.id);
    }
    let mut out: Vec<(Point, Vec<PathId>)> = groups.into_values().collect();
    for (_, ids) in &mut out {
        ids.sort_unstable();
    }
    out.sort_by(|a, b| a.0.x.total_cmp(&b.0.x).then(a.0.y.total_cmp(&b.0.y)));
    out
}

/// The pre-sweep `max_depth_region` algorithm, kept verbatim as the
/// oracle: for every x-slab between consecutive distinct boundaries
/// (then every boundary line), rescan all rects for the ones covering
/// it, sort their y-events, and keep the first strictly deeper result.
fn reference_max_depth_region(rects: &[Rect], clip: &Rect) -> Option<(Rect, usize)> {
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

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.lo().x.to_bits(), r.lo().y.to_bits(), r.hi().x.to_bits(), r.hi().y.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Case 1 (out-adjacency filtered by the FSA) and Case 2 (end-vertex
    /// grid range query) must answer exactly what a scan of the whole
    /// path slab answers, after every step of a random schedule of
    /// crossings and clock jumps that expire paths — including
    /// float-noisy copies of one vertex that straddle a grid-cell border
    /// and FSAs whose edges lie exactly on cell borders.
    #[test]
    fn index_access_paths_match_brute_force_under_churn(
        ops in prop::collection::vec((0u8..4, 0usize..36, 0usize..36, 0u8..3, 0usize..64), 1..120),
        probes in prop::collection::vec(
            (0u32..7, 0u32..7, 0u32..5, 0u32..5, 0usize..36, 0u8..3),
            1..6,
        ),
    ) {
        let grain = 1e-3;
        let window = 6;
        let mut index = PathTable::new(SlidingWindow::new(window), 20.0, grain);
        // Each stored path's latest crossing, the model of what is live.
        let mut live: BTreeMap<PathId, u64> = BTreeMap::new();
        let mut now = 0u64;
        for (kind, s, e, noise, pick) in ops {
            // A crossing per step, or (kind 0) a jump that expires paths.
            now += if kind == 0 { pick as u64 % 8 } else { 1 };
            index.advance(Timestamp(now));
            live.retain(|_, te| *te + window > now);
            if kind != 0 {
                let from = lattice_vertex(s, noise);
                let (edge, _) = index.insert_edge(from, lattice_vertex(e, noise + kind), Timestamp(now));
                live.insert(edge.id, now);
            }
            prop_assert!(index.check_consistency().is_ok());
            prop_assert_eq!(index.len(), live.len());

            for &(x, y, w, h, start, noise) in &probes {
                // Edges on multiples of 10 m: on cell borders and on
                // lattice vertices (closed containment at the edge).
                let lo = Point::new(x as f64 * 10.0, y as f64 * 10.0);
                let fsa = Rect::new(lo, lo + Point::new(w as f64 * 10.0, h as f64 * 10.0));

                prop_assert_eq!(index.end_vertices_in(&fsa), brute_end_vertices(&index, &fsa));

                let from = lattice_vertex(start, noise);
                let mut got = index.paths_from_into(&from, &fsa);
                got.sort_unstable();
                let mut want: Vec<PathId> = index
                    .iter()
                    .map(|(p, _)| p)
                    .filter(|p| {
                        index.vertex_key(&p.start()) == index.vertex_key(&from)
                            && fsa.contains(&p.end())
                    })
                    .map(|p| p.id)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// One `FsaSet` rebuilt in place over a grow → grow-with-duplicates →
    /// shrink → empty → grow sequence of batches must answer every batch
    /// exactly as brute force over that batch alone does: `stab_count`
    /// is the containment count and `max_depth_region` the per-slab
    /// reference, and occupy exactly the cells that batch covers. A
    /// rect or cell left over from an earlier batch shows up as a wrong
    /// count. Rects sit on a unit lattice (edges touch, probes land on
    /// edges), may have zero width or height, and at the small cell
    /// sizes span dozens of cells.
    #[test]
    fn reused_fsa_set_matches_brute_force_across_batches(
        pool in prop::collection::vec((0u32..30, 0u32..30, 0u32..12, 0u32..12), 1..120),
        probes in prop::collection::vec((0u32..45, 0u32..45), 1..16),
        shift in 0u32..8,
        cell in 1.5..25.0f64,
    ) {
        let rect = |&(x, y, w, h): &(u32, u32, u32, u32), dx: u32| {
            let lo = Point::new((x + dx) as f64, y as f64);
            Rect::new(lo, lo + Point::new(w as f64, h as f64))
        };
        let all: Vec<Rect> = pool.iter().map(|r| rect(r, 0)).collect();
        let n = all.len();
        let batches: Vec<Vec<Rect>> = vec![
            all[..n.div_ceil(3)].to_vec(),
            all.iter().chain(&all[..n / 2]).copied().collect(),
            all[..n.min(2)].to_vec(),
            Vec::new(),
            pool.iter().rev().map(|r| rect(r, shift)).collect(),
        ];
        let mut set = FsaSet::new(cell);
        for (b, batch) in batches.iter().enumerate() {
            set.rebuild(batch.iter().copied());
            prop_assert_eq!(set.len(), batch.len());
            let mut covered = std::collections::HashSet::new();
            for r in batch {
                let (lo, hi) = (set.cell_key(&r.lo()), set.cell_key(&r.hi()));
                covered.extend((lo.0..=hi.0).flat_map(|cx| (lo.1..=hi.1).map(move |cy| (cx, cy))));
            }
            prop_assert_eq!(set.occupied_cells(), covered.len(), "batch {} cells", b);
            for &(x, y) in &probes {
                let p = Point::new(x as f64, y as f64);
                let want = batch.iter().filter(|r| r.contains(&p)).count();
                prop_assert_eq!(set.stab_count(&p), want, "batch {} stab at {:?}", b, p);
            }
            let everything = Rect::new(Point::new(-1.0, -1.0), Point::new(60.0, 60.0));
            for clip in batch.iter().take(24).chain([&everything]) {
                let got = set.max_depth_region(clip);
                let want = reference_max_depth_region(batch, clip);
                prop_assert_eq!(
                    got.map(|(r, d)| (rect_bits(&r), d)),
                    want.map(|(r, d)| (rect_bits(&r), d)),
                    "batch {} clip {:?}",
                    b,
                    clip
                );
            }
        }
    }

    /// The one-pass sweep behind `Neighbourhood::deepest_above` must
    /// return the very `(Rect, depth)` the old per-slab rescan returned —
    /// bit for bit — at every floor below that depth and nothing at or
    /// above it, over rect sets from one rect to a few hundred, drawn
    /// from a coarse lattice so duplicates, edge-touching neighbours, and
    /// zero-width/zero-height rects are common. The neighbourhood's
    /// stabbing counts must equal the set's anywhere inside the clip.
    #[test]
    fn max_depth_sweep_matches_per_slab_reference(
        rects in prop::collection::vec((0u32..40, 0u32..40, 0u32..9, 0u32..9, 0.0..1.0f64), 1..300),
        clips in prop::collection::vec((0u32..40, 0u32..40, 0u32..30, 0u32..30), 1..8),
        lattice in 0u8..3,
        hub in 0u8..3,
        cell in 1.0..40.0f64,
    ) {
        use hotpath_core::strategy::QueryScratch;
        // `lattice` picks the coordinate pitch (the last one adds
        // off-lattice jitter so most boundaries are distinct); `hub`
        // picks how hard the rects pile up — at the tightest setting
        // every rect of the set overlaps every clip.
        let pitch = [1.0, 2.5, 0.37][lattice as usize];
        let span = [40, 8, 3][hub as usize];
        let rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h, jitter)| {
                let j = if lattice == 2 { jitter } else { 0.0 };
                let (x, y) = (x % span, y % span);
                let lo = Point::new(x as f64 * pitch + j, y as f64 * pitch - j);
                Rect::new(lo, lo + Point::new(w as f64 * pitch, h as f64 * pitch))
            })
            .collect();
        let set = FsaSet::build(rects.clone(), cell);
        let mut scratch = QueryScratch::default();
        // Every rect as its own clip (the hot loop's shape) plus free
        // clips, some far larger than any rect.
        let clips = rects.iter().copied().take(40).chain(clips.into_iter().map(|(x, y, w, h)| {
            let lo = Point::new(x as f64 * pitch, y as f64 * pitch);
            Rect::new(lo, lo + Point::new(w as f64 * pitch, h as f64 * pitch))
        }));
        for clip in clips {
            let mut near = set.neighbourhood(&clip, &mut scratch);
            let want = reference_max_depth_region(&rects, &clip);
            let want_depth = want.map_or(0, |(_, d)| d);
            prop_assert!(want_depth <= near.len(), "depth {} over {} rects", want_depth, near.len());
            // The unbounded query, the floors just below, at and above
            // the answer, and a floor in between: the same region while
            // it is strictly deeper, then nothing — a tie included.
            let floors = [0, want_depth / 2, want_depth.saturating_sub(1), want_depth, want_depth + 1];
            for floor in floors {
                prop_assert_eq!(
                    near.deepest_above(floor).map(|(r, d)| (rect_bits(&r), d)),
                    want.filter(|&(_, d)| d > floor).map(|(r, d)| (rect_bits(&r), d)),
                    "clip {:?} floor {}",
                    clip,
                    floor
                );
            }
            // Stabbing counts over the neighbourhood are exact inside the
            // clip: its corners, edge midpoints and centroid, and every
            // corner of a set rect that lies in the clip.
            let (lo, hi) = (clip.lo(), clip.hi());
            let (mx, my) = ((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0);
            let own = [(lo.x, lo.y), (lo.x, hi.y), (hi.x, lo.y), (hi.x, hi.y), (mx, lo.y), (mx, hi.y), (lo.x, my), (hi.x, my), (mx, my)];
            let corners = rects.iter().take(16).flat_map(|r| {
                [(r.lo().x, r.lo().y), (r.lo().x, r.hi().y), (r.hi().x, r.lo().y), (r.hi().x, r.hi().y)]
            });
            for p in own.into_iter().chain(corners).map(|(x, y)| Point::new(x, y)) {
                if clip.contains(&p) {
                    prop_assert_eq!(near.stab_count(&p), set.stab_count(&p), "clip {:?} at {:?}", clip, p);
                }
            }
        }
    }
}

// ---------------- Phase B against its parent ----------------

/// One Phase-B selection, bit for bit: object, path, endpoint bits, exit
/// time, case, created.
type SelectionRow = (u64, u64, u64, u64, u64, CaseKind, bool);

fn selection_row(s: &Selection) -> SelectionRow {
    let p = s.endpoint;
    (s.object.0, s.path.0, p.x.to_bits(), p.y.to_bits(), s.te.raw(), s.case, s.created)
}

/// `phase_b` as it stood before the FSA-neighbourhood query, kept as the
/// reference: vertex groups sorted by representative `(x, y)` with ids
/// ascending (the slab scan of `brute_end_vertices`), `FsaSet::stab_count`
/// per vertex, and an unbounded max-depth query (the per-slab oracle
/// over the batch's `rects`) whose candidate competes with the existing
/// vertices — higher rank, then existing, then smaller `(x, y)`.
fn reference_phase_b(
    states: &[ClientState],
    deferred: &[u32],
    index: &mut PathTable,
    rects: &[Rect],
    fsas: &FsaSet,
    policy: OverlapPolicy,
) -> (Vec<SelectionRow>, CaseTally) {
    let better = |cand: &(u32, bool, Point), best: &Option<(u32, bool, Point)>| {
        best.is_none_or(|b| (cand.0, cand.1, -cand.2.x, -cand.2.y) > (b.0, b.1, -b.2.x, -b.2.y))
    };
    let mut rows = Vec::new();
    let mut tally = CaseTally::default();
    for &i in deferred {
        let st = &states[i as usize];
        let mut best: Option<(u32, bool, Point)> = None;
        for (vertex, incoming) in brute_end_vertices(index, &st.fsa) {
            let converging: u32 = incoming.iter().map(|&id| index.hotness(id)).sum();
            let boost = match policy {
                OverlapPolicy::Full => fsas.stab_count(&vertex) as u32,
                OverlapPolicy::Own => 0,
            };
            let cand = (converging + boost, true, vertex);
            if better(&cand, &best) {
                best = Some(cand);
            }
        }
        let generated = match policy {
            OverlapPolicy::Full => reference_max_depth_region(rects, &st.fsa)
                .map(|(region, depth)| (depth as u32, false, region.centroid())),
            OverlapPolicy::Own => Some((1, false, st.fsa.centroid())),
        };
        if let Some(cand) = generated {
            if better(&cand, &best) {
                best = Some(cand);
            }
        }
        let (_, existing, vertex) = best.unwrap_or((0, false, st.fsa.centroid()));
        let (edge, created) = index.insert_edge(st.start, vertex, st.te);
        let case = if existing {
            tally.case2 += 1;
            CaseKind::ExistingVertex
        } else {
            tally.case3 += 1;
            CaseKind::NewVertex
        };
        rows.push((
            st.object.0,
            edge.id.0,
            edge.end.x.to_bits(),
            edge.end.y.to_bits(),
            st.te.raw(),
            case,
            created,
        ));
    }
    (rows, tally)
}

/// Where generated FSAs and vertices sit: three hubs where they pile up,
/// and a sparse lattice where most FSAs meet no other.
fn phase_b_site(kind: u8, x: u32, y: u32) -> Point {
    match kind {
        0..=2 => Point::new(kind as f64 * 300.0 + x as f64 * 3.0, y as f64 * 3.0),
        _ => Point::new(1_000.0 + x as f64 * 97.0, 500.0 + y as f64 * 89.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The bounded `phase_b` — one neighbourhood per deferred state, a
    /// sweep only above the best existing rank, unsorted vertex groups —
    /// makes the parent's choices: identical selections, tallies, and
    /// path table rows, over deferred batches that pile many FSAs onto a
    /// few hubs beside isolated ones, against a random prior table whose
    /// paths hold 1-3 crossings (with float-noisy copies of one vertex),
    /// under both overlap policies.
    #[test]
    fn bounded_phase_b_matches_parent_phase_b(
        picks in prop::collection::vec(
            (0u8..4, 0u32..9, 0u32..9, 0usize..4, 0u32..6, 0u8..4),
            1..48,
        ),
        prior in prop::collection::vec(
            (0u8..4, 0u32..9, 0u32..9, 0u8..3, 0u32..4, 0u32..6),
            0..40,
        ),
        cell in 5.0..60.0f64,
    ) {
        use hotpath_core::strategy::{build_fsa_set, phase_b, PhaseBScratch};
        // A few shared starts, so some commits dedup onto a stored path.
        let start = |s: u32| Point::new(-1_000.0 - s as f64 * 50.0, 7.0);
        let states: Vec<ClientState> = picks
            .iter()
            .enumerate()
            .map(|(i, &(kind, x, y, half, s, _))| {
                let c = phase_b_site(kind, x, y);
                let half = Point::new(1.0, 1.0) * [4.0, 10.0, 15.0, 20.0][half];
                ClientState {
                    object: ObjectId(i as u64),
                    start: if s < 2 { start(s) } else { Point::new(-9_000.0, i as f64) },
                    ts: Timestamp(1),
                    fsa: Rect::new(c - half, c + half),
                    te: Timestamp(10 + i as u64),
                }
            })
            .collect();
        // One state in four is left out of the deferred list.
        let deferred: Vec<u32> =
            (0..picks.len() as u32).filter(|&i| picks[i as usize].5 != 0).collect();
        let rects: Vec<Rect> = states.iter().map(|s| s.fsa).collect();

        let mut index = PathTable::new(SlidingWindow::new(100), cell, 1e-3);
        for &(kind, x, y, noise, crossings, s) in &prior {
            let nudge = [0.0, 2e-4, -2e-4][noise as usize];
            let end = phase_b_site(kind, x, y) + Point::new(nudge, -nudge);
            let (edge, _) = index.insert_edge(start(s), end, Timestamp(5));
            for _ in 1..crossings {
                index.record(edge.id, Timestamp(5));
            }
        }

        for policy in [OverlapPolicy::Full, OverlapPolicy::Own] {
            let fsas = build_fsa_set(&states, cell, policy);
            let mut ref_index = index.clone();
            let (want, want_tally) =
                reference_phase_b(&states, &deferred, &mut ref_index, &rects, &fsas, policy);

            let mut new_index = index.clone();
            let mut tally = CaseTally::default();
            let mut selections = Vec::new();
            let load = phase_b(
                &states,
                &deferred,
                &mut new_index,
                &fsas,
                policy,
                &mut tally,
                &mut selections,
                &mut PhaseBScratch::default(),
            );
            let got: Vec<SelectionRow> = selections.iter().map(selection_row).collect();
            prop_assert_eq!(&got, &want, "{:?} selections", policy);
            prop_assert_eq!(tally, want_tally, "{:?} tallies", policy);
            prop_assert_eq!(load.deferred, deferred.len());
            let rows = |t: &PathTable| t.iter().map(|(p, c)| (*p, c)).collect::<Vec<_>>();
            prop_assert_eq!(rows(&new_index), rows(&ref_index), "{:?} path table rows", policy);
            prop_assert_eq!(new_index.events_vec(), ref_index.events_vec(), "{:?} events", policy);
            prop_assert!(new_index.check_consistency().is_ok());
        }
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

/// PR 18's `HintedRayTraceFilter` over [`QueueCore`].
struct QueueHinted {
    core: QueueCore,
    eps: f64,
    hint: Option<Rect>,
    narrowed: u64,
}

/// One step of the shared schedule: `(kind, dx, dy, a, b, delay, u, v)`.
/// `kind` picks the time gap, the turns, the degenerate rectangles, and
/// whether a response is quick and carries a hint; `(dx, dy)` wobbles
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
    /// The hinted filter's `(narrowed_count, hint_active, fsa)`.
    hinted: Option<(u64, bool, Rect)>,
}

/// A filter variant under the shared schedule: how it turns a step at
/// position `pos` into an observation, how it takes a response (`hint`
/// is ignored by the variants without one), and what it exposes.
trait Variant {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState>;
    fn receive(&mut self, endpoint: TimePoint, hint: Option<PathHint>) -> Option<ClientState>;
    fn view(&self) -> View;

    fn call(&mut self, call: Call<'_>) -> Option<ClientState> {
        match call {
            Call::Observe(step, pos, t) => self.observe(step, pos, t),
            Call::Receive(endpoint, hint) => self.receive(endpoint, hint),
        }
    }
}

/// One call a schedule makes on a filter.
#[derive(Clone, Copy, Debug)]
enum Call<'a> {
    Observe(&'a Step, Point, Timestamp),
    Receive(TimePoint, Option<PathHint>),
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
    View { waiting, stats, core: Some(core), hinted: None }
}

impl Variant for RayTraceCore {
    fn observe(&mut self, step: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        self.observe_rect(t, step_rect(step, pos))
    }
    fn receive(&mut self, endpoint: TimePoint, _: Option<PathHint>) -> Option<ClientState> {
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
    fn receive(&mut self, endpoint: TimePoint, _: Option<PathHint>) -> Option<ClientState> {
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
    fn receive(&mut self, endpoint: TimePoint, _: Option<PathHint>) -> Option<ClientState> {
        self.0.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        View { waiting: self.0.is_waiting(), stats: self.0.stats(), core: None, hinted: None }
    }
}

impl Variant for RayTraceFilter {
    fn observe(&mut self, _: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        RayTraceFilter::observe(self, TimePoint::new(pos, t))
    }
    fn receive(&mut self, endpoint: TimePoint, _: Option<PathHint>) -> Option<ClientState> {
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
    fn receive(&mut self, endpoint: TimePoint, _: Option<PathHint>) -> Option<ClientState> {
        self.core.receive_endpoint(endpoint)
    }
    fn view(&self) -> View {
        View { waiting: self.core.waiting, stats: self.core.stats, core: None, hinted: None }
    }
}

impl Variant for HintedRayTraceFilter {
    fn observe(&mut self, _: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        HintedRayTraceFilter::observe(self, TimePoint::new(pos, t))
    }
    fn receive(&mut self, endpoint: TimePoint, hint: Option<PathHint>) -> Option<ClientState> {
        self.receive_endpoint(endpoint, hint)
    }
    fn view(&self) -> View {
        let hinted = (self.narrowed_count(), self.hint_active(), self.fsa());
        View { waiting: self.is_waiting(), stats: self.stats(), core: None, hinted: Some(hinted) }
    }
}

impl Variant for QueueHinted {
    fn observe(&mut self, _: &Step, pos: Point, t: Timestamp) -> Option<ClientState> {
        let square = Rect::tolerance_square(pos, self.eps);
        if let Some(corridor) = self.hint {
            if let Some(narrow) = square.intersection(&corridor) {
                let mut probe = self.core.clone();
                if probe.observe_rect(t, narrow).is_none() {
                    self.core = probe;
                    self.narrowed += 1;
                    return None;
                }
            } else {
                self.hint = None;
            }
        }
        let out = self.core.observe_rect(t, square);
        if out.is_some() {
            self.hint = None;
        }
        out
    }
    fn receive(&mut self, endpoint: TimePoint, hint: Option<PathHint>) -> Option<ClientState> {
        self.hint = hint.map(|h| h.seg.mbb().expand(self.eps));
        let out = self.core.receive_endpoint(endpoint);
        if out.is_some() {
            self.hint = None;
        }
        out
    }
    fn view(&self) -> View {
        let hinted = (self.narrowed, self.hint.is_some(), self.core.ssa.fsa());
        View {
            waiting: self.core.waiting,
            stats: self.core.stats,
            core: None,
            hinted: Some(hinted),
        }
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
    // before its response, and the FSA point and hint the response uses.
    let mut pending: Option<(ClientState, usize, Point, Option<PathHint>)> = None;
    for step in schedule {
        let &(kind, dx, dy, _, _, delay, u, v) = step;
        let wobble = Point::new(dx, dy);
        match kind {
            // A turn, every other one onto an axis (where a hint's
            // corridor is at its tightest).
            22 => vel = wobble * 14.0,
            23 => vel = Point::new(dx * 14.0, 0.0),
            _ => {}
        }
        let dt = 1 + u64::from(kind % 3);
        let answer = |state: ClientState| {
            let (fsa, snap) = (state.fsa, |x: f64| if kind % 3 == 0 { x.round() } else { x });
            let at = fsa.lo() + Point::new(snap(u) * fsa.width(), snap(v) * fsa.height());
            let hint = (kind % 4 != 0).then(|| PathHint { seg: Segment::new(at, at + vel * 20.0) });
            (state, if kind % 2 == 0 { delay % 3 } else { delay }, at, hint)
        };
        while let Some((state, wait, at, hint)) = pending.take() {
            if wait > 0 {
                pending = Some((state, wait - 1, at, hint));
                break;
            }
            pending = filter(Call::Receive(TimePoint::new(at, state.te), hint))?.map(answer);
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
    /// zero-width / zero-area rectangles. The uncertain (drops) and
    /// hinted (narrow, then retry plain) wrappers run the same schedule
    /// against their PR 18 selves. As measured on the fixed-seed cases
    /// (16 253 observations per variant): 4 411 responses, two in three
    /// of which re-violate on delivery and 1 590 of the core's meet a
    /// backlog beyond the violator; 499 squares are strictly narrowed by
    /// a hint and 11 narrowings are retried plain.
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

        let eps = 4.0;
        drive_pair(
            &mut HintedRayTraceFilter::new(object, seed, eps),
            &mut QueueHinted { core: QueueCore::new(object, seed), eps, hint: None, narrowed: 0 },
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
