//! Property-based integration tests: the core guarantees must hold for
//! arbitrary motion, not just the scripted scenarios.

use hotpath_core::geometry::{Point, Rect, Segment, TimePoint, Trajectory};
use hotpath_core::motion_path::fits_trajectory;
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::strategy::{FsaSet, QueryScratch};
use hotpath_core::time::{TimeInterval, Timestamp};
use hotpath_core::ObjectId;
use proptest::prelude::*;

/// Random bounded step sequences: arbitrary (jumpy) motion.
fn steps(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-40.0..40.0f64, -40.0..40.0f64), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The RayTrace guarantee: every reported state admits a motion path
    /// from its start to ANY point of the FSA that fits the measured
    /// trajectory within eps over [ts, te].
    #[test]
    fn raytrace_states_always_fit(deltas in steps(60), eps in 2.0..20.0f64) {
        let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));
        let mut filter = RayTraceFilter::new(ObjectId(0), seed, eps);
        let mut traj = Trajectory::new();
        traj.push(seed);
        let mut pos = Point::new(0.0, 0.0);
        let mut states = Vec::new();
        for (i, (dx, dy)) in deltas.iter().enumerate() {
            pos = Point::new(pos.x + dx, pos.y + dy);
            let t = Timestamp(i as u64 + 1);
            traj.push(TimePoint::new(pos, t));
            if let Some(state) = filter.observe(TimePoint::new(pos, t)) {
                states.push(state);
                // Resume from the FSA centroid, like the coordinator
                // would (any FSA point is legal).
                let endpoint = TimePoint::new(state.fsa.centroid(), state.te);
                if let Some(next) = filter.receive_endpoint(endpoint) {
                    states.push(next);
                    // A second violation straight from the buffer: the
                    // next endpoint comes at the following epoch; emulate
                    // immediately for the test.
                    let ep2 = TimePoint::new(next.fsa.centroid(), next.te);
                    let _ = filter.receive_endpoint(ep2);
                }
            }
        }
        for state in &states {
            let iv = TimeInterval::new(state.ts, state.te);
            // Check the centroid and all four corners of the FSA.
            let mut endpoints = vec![state.fsa.centroid()];
            endpoints.extend(state.fsa.corners());
            for e in endpoints {
                let seg = Segment::new(state.start, e);
                prop_assert!(
                    fits_trajectory(&seg, iv, &traj, eps),
                    "state {state:?} endpoint {e:?} does not fit"
                );
            }
        }
    }

    /// Each FSA's `push` reports exactly the earlier FSAs meeting it,
    /// and the stabbing depth over a point's neighbourhood equals a
    /// brute-force containment count.
    #[test]
    fn stab_count_matches_brute_force(
        rects in prop::collection::vec((0.0..200.0f64, 0.0..200.0f64, 1.0..50.0f64, 1.0..50.0f64), 1..40),
        px in -10.0..210.0f64,
        py in -10.0..210.0f64,
    ) {
        let rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h)| Rect::new(Point::new(x, y), Point::new(x + w, y + h)))
            .collect();
        let mut set = FsaSet::new(25.0);
        let mut scratch = QueryScratch::default();
        for (i, rect) in rects.iter().enumerate() {
            let mut hits = set.push(*rect, &mut scratch).to_vec();
            hits.sort_unstable();
            let brute: Vec<u32> = (0..i as u32).filter(|&j| rects[j as usize].intersects(rect)).collect();
            prop_assert_eq!(hits, brute, "push of rect {}", i);
        }
        // The point arrives last: its hits are its neighbourhood.
        let p = Point::new(px, py);
        let at = Rect::point(p);
        let hits = set.push(at, &mut scratch).to_vec();
        let near = set.neighbourhood_of(&at, hits, &mut scratch);
        let brute = rects.iter().filter(|r| r.contains(&p)).count();
        prop_assert_eq!(near.stab_count(&p), brute);
    }

    /// The deepest region's depth is achievable and maximal among
    /// sampled points of the clip.
    #[test]
    fn deepest_region_is_sound(
        rects in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64, 5.0..40.0f64, 5.0..40.0f64), 1..25),
    ) {
        let rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h)| Rect::new(Point::new(x, y), Point::new(x + w, y + h)))
            .collect();
        let clip = Rect::new(Point::new(0.0, 0.0), Point::new(150.0, 150.0));
        let set = FsaSet::build(rects.clone(), 20.0);
        let hits = (0..rects.len() as u32).filter(|&j| rects[j as usize].intersects(&clip));
        let mut scratch = QueryScratch::default();
        let (region, depth) =
            set.neighbourhood_of(&clip, hits, &mut scratch).deepest_above(0).expect("rects exist");
        let depth_at = |p: &Point| rects.iter().filter(|r| r.contains(p)).count();
        // Achievable: the centroid really is covered `depth` times.
        prop_assert_eq!(depth_at(&region.centroid()), depth);
        // Maximal: no rect corner (the only candidate extrema) exceeds it.
        for r in &rects {
            for c in r.corners() {
                if clip.contains(&c) {
                    prop_assert!(depth_at(&c) <= depth);
                }
            }
        }
    }

    /// Filter compression only improves as motion straightens.
    #[test]
    fn straighter_motion_reports_less(noise_scale in 0.0..1.0f64) {
        let eps = 5.0;
        let run_with = |scale: f64| -> u64 {
            let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));
            let mut f = RayTraceFilter::new(ObjectId(0), seed, eps);
            for t in 1..=100u64 {
                let y = (t as f64 * 1.7).sin() * 30.0 * scale;
                let tp = TimePoint::new(Point::new(10.0 * t as f64, y), Timestamp(t));
                if let Some(s) = f.observe(tp) {
                    let _ = f.receive_endpoint(TimePoint::new(s.fsa.centroid(), s.te));
                }
            }
            f.stats().reports
        };
        let wavy = run_with(noise_scale);
        let straight = run_with(0.0);
        prop_assert!(straight <= wavy, "straight {straight} > wavy {wavy}");
    }
}
