use crate::fxhash::FxHashMap;
use crate::geometry::Point;
use crate::index::{ExpiryEvent, PathTable};
use crate::motion_path::{MotionPath, PathId};
use crate::time::{SlidingWindow, Timestamp};
use std::cmp::Reverse;

fn h(window: u64) -> PathTable {
    PathTable::new(SlidingWindow::new(window), 50.0, 1e-3)
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

fn restore(t: &PathTable, window: u64) -> PathTable {
    h(window)
        .restore(&t.paths_by_id(), &t.events_vec(), t.next_id(), t.total_recorded(), t.clock())
        .unwrap()
}

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    }
}

#[test]
fn crossings_accumulate() {
    let mut hot = h(100);
    let p1 = cross(&mut hot, 1, 10, 1.0);
    cross(&mut hot, 1, 20, 1.0);
    let p2 = cross(&mut hot, 2, 15, 1.0);
    assert_eq!(hot.hotness(p1), 2);
    assert_eq!(hot.hotness(p2), 1);
    assert_eq!(hot.hotness(PathId(99)), 0);
    assert_eq!(hot.len(), 2);
    assert_eq!(hot.pending_events(), 3);
    assert_eq!(hot.total_recorded(), 3);
}

#[test]
fn expiry_at_te_plus_w() {
    let mut hot = h(100);
    let p = cross(&mut hot, 1, 10, 1.0);
    // Still hot one granule before expiry.
    assert!(hot.advance(Timestamp(109)).is_empty());
    assert_eq!(hot.hotness(p), 1);
    // Dies exactly at te + W = 110.
    assert_eq!(hot.advance(Timestamp(110)), [p]);
    assert_eq!(hot.hotness(p), 0);
    assert!(hot.is_empty());
}

#[test]
fn staggered_crossings_expire_independently() {
    let mut hot = h(50);
    let p = cross(&mut hot, 7, 0, 1.0);
    cross(&mut hot, 7, 30, 1.0);
    // First crossing expires at 50; path stays hot.
    assert!(hot.advance(Timestamp(50)).is_empty());
    assert_eq!(hot.hotness(p), 1);
    // Second expires at 80; path dies.
    assert_eq!(hot.advance(Timestamp(80)), [p]);
}

#[test]
fn advance_handles_batched_expiries() {
    let mut hot = h(10);
    let ids: Vec<PathId> = (0..5u64).map(|i| cross(&mut hot, i, i, 1.0)).collect();
    let mut died = hot.advance(Timestamp(100)).to_vec();
    died.sort_unstable();
    assert_eq!(died, ids);
    assert_eq!(hot.pending_events(), 0);
}

#[test]
fn advance_is_idempotent_per_timestamp() {
    let mut hot = h(10);
    let p = cross(&mut hot, 1, 0, 1.0);
    assert_eq!(hot.advance(Timestamp(10)), [p]);
    assert!(hot.advance(Timestamp(10)).is_empty());
    assert!(hot.advance(Timestamp(11)).is_empty());
}

#[test]
fn advance_backwards_is_a_no_op() {
    // A non-monotone `now` must not fire events early or move the
    // table's clock back.
    let mut hot = h(100);
    let p = cross(&mut hot, 1, 50, 1.0); // expiry 150
    assert!(hot.advance(Timestamp(120)).is_empty());
    assert_eq!(hot.clock(), Timestamp(120));
    assert!(hot.advance(Timestamp(40)).is_empty());
    assert_eq!(hot.clock(), Timestamp(120), "clock must be monotone");
    assert_eq!(hot.advance(Timestamp(150)), [p]);
    hot.check_consistency().unwrap();
}

#[test]
fn matches_brute_force_recount() {
    // Property-style check on a deterministic pseudo-random schedule:
    // the hotness of a corridor at time t equals the number of its
    // crossings with te <= t < te + W.
    let w = 37u64;
    let mut hot = h(w);
    let mut crossings: Vec<(u64, u64)> = Vec::new();
    let mut rand = lcg(12345);
    let mut now = 0u64;
    for _ in 0..500 {
        now += rand() % 3;
        hot.advance(Timestamp(now));
        let k = rand() % 8;
        // te must not precede now in our usage (crossings end at or
        // before the current epoch); allow small past offsets.
        let te = now.saturating_sub(rand() % 5);
        cross(&mut hot, k, te, 1.0);
        crossings.push((k, te));

        for check in 0..8u64 {
            let expect =
                crossings.iter().filter(|&&(i, te)| i == check && te + w > now).count() as u32;
            assert_eq!(heat(&hot, check), expect, "mismatch for corridor {check} at t={now}");
        }
    }
}

/// The naive full-sort reference `top_n` must reproduce:
/// `(hotness desc, length desc, id asc)`.
fn oracle_order(hot: &PathTable) -> Vec<(PathId, u32)> {
    let mut all: Vec<(&MotionPath, u32)> = hot.iter().collect();
    all.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| b.0.length().total_cmp(&a.0.length()))
            .then_with(|| a.0.id.cmp(&b.0.id))
    });
    all.into_iter().map(|(p, c)| (p.id, c)).collect()
}

#[test]
fn top_n_orders_by_hotness_length_id() {
    let mut hot = h(100);
    let mut ids = Vec::new();
    for (k, (crossings, len)) in
        [(2, 30.0), (2, 10.0), (1, 30.0), (1, 50.0)].into_iter().enumerate()
    {
        for _ in 0..crossings {
            let id = cross(&mut hot, k as u64, 0, len);
            if ids.len() == k {
                ids.push(id);
            }
        }
    }
    // A hotness of 2 beats 1; equal hotness breaks to longer; equal length
    // (none here at equal hotness) would break to lower id.
    let got = hot.top_n(4);
    assert_eq!(got, vec![(ids[0], 2), (ids[1], 2), (ids[3], 1), (ids[2], 1)]);
    assert_eq!(got, oracle_order(&hot));
    hot.check_consistency().unwrap();
}

#[test]
fn rank_tracks_advance() {
    let mut hot = h(50);
    let p1 = cross(&mut hot, 1, 0, 1.0); // expires at 50
    cross(&mut hot, 1, 40, 1.0); // expires at 90
    let p2 = cross(&mut hot, 2, 40, 1.0);
    cross(&mut hot, 3, 40, 1.0);
    assert_eq!(hot.top_n(1), vec![(p1, 2)]);

    // First crossing of 1 expires: 1 drops to hotness 1, and the rank
    // falls back to id order among the three singletons.
    hot.advance(Timestamp(50));
    assert_eq!(hot.top_n(usize::MAX), oracle_order(&hot));
    assert_eq!(hot.top_n(1), vec![(p1, 1)]);
    assert_eq!(hot.top_n(2), vec![(p1, 1), (p2, 1)]);
    hot.check_consistency().unwrap();

    // Everything expires; the buckets drain with the counts.
    hot.advance(Timestamp(1_000));
    assert!(hot.top_n(usize::MAX).is_empty());
    hot.check_consistency().unwrap();
}

#[test]
fn consistency_audit_catches_bucket_drift() {
    let mut hot = h(100);
    cross(&mut hot, 1, 0, 1.0);
    cross(&mut hot, 1, 1, 1.0);
    cross(&mut hot, 2, 2, 1.0);
    hot.check_consistency().unwrap();
    // A slot listed under the wrong count.
    let mut bad = hot.clone();
    let slot = bad.buckets_mut()[2].pop().unwrap();
    bad.buckets_mut()[1].push(slot);
    assert!(bad.check_consistency().is_err());
    // A slot listed twice (and another not at all).
    let mut bad = hot.clone();
    let twice = bad.buckets_mut()[2][0];
    bad.buckets_mut()[1][0] = twice;
    assert!(bad.check_consistency().is_err());
    // An empty bucket left above the highest live count.
    let mut bad = hot.clone();
    bad.buckets_mut().push(Vec::new());
    assert!(bad.check_consistency().is_err());
}

#[test]
fn rank_matches_oracle_under_random_churn() {
    // Deterministic pseudo-random schedule of crossings and clock
    // jumps; the bucket walk must equal the full sort at every step, at
    // every cut depth.
    let mut hot = h(23);
    let mut rand = lcg(7);
    let mut now = 0u64;
    for step in 0..600 {
        now += rand() % 3;
        if rand().is_multiple_of(7) {
            now += 11; // expire a good part of the window at once
        }
        hot.advance(Timestamp(now));
        let k = rand() % 12;
        cross(&mut hot, k, now, ((k * 37) % 101) as f64);
        let oracle = oracle_order(&hot);
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
fn same_timestamp_events_expire_in_id_order() {
    // Many events sharing one expiry instant fire in id order — the
    // `(expiry, id)` order a min-heap pops in — not in recording order.
    let mut hot = h(10);
    let ids: Vec<PathId> = (0..10u64).map(|k| cross(&mut hot, k, 0, 1.0)).collect();
    for k in [9u64, 3, 7, 1, 5] {
        cross(&mut hot, k, 4, 1.0); // expire at 14
    }
    let even: Vec<PathId> = ids.iter().copied().step_by(2).collect();
    assert_eq!(hot.advance(Timestamp(10)), even);
    let odd: Vec<PathId> = ids.iter().copied().skip(1).step_by(2).collect();
    assert_eq!(hot.advance(Timestamp(14)), odd);
    hot.check_consistency().unwrap();
}

#[test]
fn far_future_events_fire_exactly_on_time() {
    // A huge window puts the expiry ~2^40 ticks past the clock;
    // advancing in uneven steps must not fire it early, and must fire
    // it exactly on time.
    let w = (1u64 << 40) + 12345;
    let mut hot = h(w);
    let p = cross(&mut hot, 1, 7, 1.0);
    let expiry = 7 + w;
    let mut now = 0u64;
    // Uneven exponential-ish steps that cross several level
    // boundaries, stopping just short of the expiry.
    while now + (now / 2) + 13 < expiry {
        now += now / 2 + 13;
        assert!(hot.advance(Timestamp(now)).is_empty(), "fired early at t={now}");
        assert_eq!(hot.hotness(p), 1);
        hot.check_consistency().unwrap();
    }
    assert!(hot.advance(Timestamp(expiry - 1)).is_empty());
    assert_eq!(hot.advance(Timestamp(expiry)), [p]);
    hot.check_consistency().unwrap();
}

#[test]
fn late_events_fire_on_the_next_advance() {
    // A crossing whose expiry is at or before the table's clock (the
    // window already slid past it) must still fire — on the next
    // advance that reaches its expiry, not before.
    let mut hot = h(10);
    hot.advance(Timestamp(100));
    let p = cross(&mut hot, 1, 85, 1.0); // expiry 95 <= clock 100
    assert_eq!(hot.pending_events(), 1);
    hot.check_consistency().unwrap();
    // Clock is already past the expiry; the event fires immediately.
    assert_eq!(hot.advance(Timestamp(100)), [p]);
    assert_eq!(hot.pending_events(), 0);
    hot.check_consistency().unwrap();
}

#[test]
fn checkpoint_parts_roundtrip_continues_identically() {
    // Drive a table through deterministic churn, rebuild it from its
    // path and event lists, and check both copies stay in
    // lock-step through further churn — the in-crate version of the
    // restart-parity property a coordinator image relies on. The
    // copy's slab is in id order, the original's is not, so only the
    // canonical views are compared.
    let mut hot = h(23);
    let mut rand = lcg(99);
    let mut now = 0u64;
    for _ in 0..300 {
        now += rand() % 3;
        hot.advance(Timestamp(now));
        let k = rand() % 12;
        cross(&mut hot, k, now, ((k * 37) % 101) as f64);
    }
    let mut copy = restore(&hot, 23);
    copy.check_consistency().unwrap();
    assert_eq!(copy.paths_by_id(), hot.paths_by_id());
    assert_eq!(copy.events_vec(), hot.events_vec());
    for _ in 0..300 {
        now += rand() % 3;
        assert_eq!(hot.advance(Timestamp(now)), copy.advance(Timestamp(now)));
        let k = rand() % 12;
        let len = ((k * 37) % 101) as f64;
        assert_eq!(cross(&mut hot, k, now, len), cross(&mut copy, k, now, len));
        assert_eq!(hot.paths_by_id(), copy.paths_by_id());
        assert_eq!(hot.events_vec(), copy.events_vec());
        assert_eq!(hot.top_n(usize::MAX), copy.top_n(usize::MAX));
    }
    copy.check_consistency().unwrap();
}

#[test]
fn checkpoint_restore_is_byte_idempotent() {
    // The canonical path and event orders make image-of-restore
    // reproduce the original lists exactly, even though the restored
    // slab and heap layouts differ from the original's (restore inserts
    // by id and heapifies the sorted events; the original pushed and
    // popped its way there).
    let mut hot = h(1 << 20);
    let mut rand = lcg(3);
    let mut now = 0u64;
    for _ in 0..200 {
        now += rand() % 1000;
        hot.advance(Timestamp(now));
        cross(&mut hot, rand() % 40, now, 1.0);
    }
    let once = restore(&hot, 1 << 20);
    let twice = restore(&once, 1 << 20);
    assert_eq!(once.events_vec(), hot.events_vec());
    assert_eq!(twice.events_vec(), hot.events_vec());
    assert_eq!(once.paths_by_id(), hot.paths_by_id());
    assert_eq!(twice.paths_by_id(), hot.paths_by_id());
    assert_eq!(once.clock(), hot.clock());
    once.check_consistency().unwrap();
    twice.check_consistency().unwrap();
}

#[test]
fn checkpoint_parts_reject_structural_corruption() {
    let mut hot = h(10);
    cross(&mut hot, 1, 0, 2.0);
    cross(&mut hot, 2, 1, 3.0);
    let paths = hot.paths_by_id();
    let events = hot.events_vec();
    let t0 = Timestamp(0);
    let try_restore = |paths: &[MotionPath], events: &[ExpiryEvent]| {
        h(10).restore(paths, events, hot.next_id(), 2, t0)
    };
    try_restore(&paths, &events).unwrap();

    // Duplicate path.
    let mut dup = paths.clone();
    dup.push(paths[1]);
    assert!(try_restore(&dup, &events).is_err());
    // Canonical (expiry, id) order violated.
    let mut bad = events.clone();
    bad.reverse();
    assert!(try_restore(&paths, &bad).is_err());
    // A path without an event, and an event without a path.
    assert!(try_restore(&paths, &events[..1]).is_err());
    assert!(try_restore(&paths[..1], &events).is_err());
}

/// A minimal `(expiry, id)` min-heap over bare tuples — the semantics
/// the table's expiry must reproduce — driven side by side with the
/// table through adversarial schedules. This is the in-module
/// complement to the whole-table model proptest in `tests/props.rs`.
#[test]
fn expiry_matches_heap_reference_side_by_side() {
    use std::collections::BinaryHeap;
    let w = 97u64;
    let mut hot = h(w);
    let mut heap: BinaryHeap<Reverse<(u64, PathId)>> = BinaryHeap::new();
    let mut counts: FxHashMap<PathId, u32> = FxHashMap::default();
    let mut rand = lcg(2024);
    let mut now = 0u64;
    for step in 0..2_000 {
        // Occasional large jumps expire many events in one advance.
        now += if rand().is_multiple_of(50) { 1 + rand() % 500 } else { rand() % 4 };
        // Reference: pop everything due, in (expiry, id) order.
        let mut ref_died: Vec<PathId> = Vec::new();
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
        assert_eq!(hot.advance(Timestamp(now)), ref_died, "died order diverged at step {step}");

        let id = cross(&mut hot, rand() % 16, now, 1.0);
        heap.push(Reverse((now + w, id)));
        *counts.entry(id).or_insert(0) += 1;

        for (&id, &count) in &counts {
            assert_eq!(hot.hotness(id), count, "count diverged for {id} at step {step}");
        }
        assert_eq!(hot.len(), counts.len());
        assert_eq!(hot.pending_events(), heap.len(), "pending diverged at step {step}");
        if step % 64 == 0 {
            hot.check_consistency().unwrap();
        }
    }
}
