//! Parallel Phase-B evaluation: sequential vs worker pools, uniform vs
//! flash-crowd-skewed deferred sets.
//!
//! Measures `phase_b_eval` — the pure per-state evaluation that the
//! strategy fans out over region-partitioned work-stealing workers —
//! against a prepared read-only index, so iterations are side-effect
//! free and comparable. `uniform` spreads the deferred FSAs evenly over
//! 16 clusters (regions balance naturally); `skewed` piles 90% of them
//! onto one cluster, the flash-crowd shape where a static region
//! partition starves all but one worker and only stealing rebalances.
//!
//! Worker counts are passed straight to `phase_b_eval`, bypassing the
//! coordinator's hardware clamp: on a single-core machine (the dev
//! container, some CI runners) the workers timeshare one core, so the
//! multi-worker rows measure overhead rather than speedup and the
//! busy-time imbalance printed at the end is scheduler noise. Speedup
//! and the `< 1.5x` skewed imbalance claim are only meaningful on
//! multi-core hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::index::MotionPathIndex;
use hotpath_core::raytrace::ClientState;
use hotpath_core::strategy::{build_fsa_set, phase_b_eval, OverlapPolicy, SingleReader};
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;

const CLUSTERS: usize = 16;
const DEFERRED: usize = 512;

fn cluster_center(c: usize) -> Point {
    Point::new((c % 4) as f64 * 700.0, (c / 4) as f64 * 700.0)
}

/// A deferred batch of `DEFERRED` states with unique starts; `hot_frac`
/// of the FSAs land on cluster 0, the rest rotate over all clusters.
fn batch(hot_frac: f64) -> Vec<ClientState> {
    let mut s = 0x5EED_u64 | 1;
    let mut roll = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    (0..DEFERRED)
        .map(|i| {
            let r = roll();
            let hot = (r % 1000) as f64 / 1000.0 < hot_frac;
            let c = if hot { 0 } else { (r as usize) % CLUSTERS };
            let center = cluster_center(c);
            let jx = (r % 157) as f64;
            let jy = (r % 113) as f64;
            let half = 30.0;
            let end = Point::new(center.x + jx, center.y + jy);
            ClientState {
                object: ObjectId(i as u64),
                start: Point::new(20_000.0 + i as f64 * 3.0, 20_000.0),
                ts: Timestamp(1),
                fsa: Rect::new(
                    Point::new(end.x - half, end.y - half),
                    Point::new(end.x + half, end.y + half),
                ),
                te: Timestamp(9),
            }
        })
        .collect()
}

/// An index with stored endpoints inside every cluster, so each eval
/// finds non-trivial base vertex groups.
fn seeded_index() -> MotionPathIndex {
    let mut index = MotionPathIndex::new(50.0, 1e-3);
    for c in 0..CLUSTERS {
        let center = cluster_center(c);
        for j in 0..8 {
            let start = Point::new(-500.0 - j as f64 * 10.0, c as f64 * 10.0);
            let end =
                Point::new(center.x + (j % 4) as f64 * 15.0, center.y + (j / 4) as f64 * 15.0);
            index.insert(start, end);
        }
    }
    index
}

fn bench_phase_b(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase_b_eval");
    let index = seeded_index();
    let deferred: Vec<u32> = (0..DEFERRED as u32).collect();
    for (dist, hot_frac) in [("uniform", 0.0), ("skewed", 0.9)] {
        let states = batch(hot_frac);
        let fsas = build_fsa_set(&states, 40.0, OverlapPolicy::Full);
        for workers in [1usize, 2, 4] {
            g.bench_with_input(
                BenchmarkId::new(dist, format!("w{workers}")),
                &workers,
                |b, &workers| {
                    b.iter(|| {
                        phase_b_eval(
                            &states,
                            &deferred,
                            &SingleReader { index: &index },
                            &fsas,
                            OverlapPolicy::Full,
                            workers,
                        )
                        .load
                        .chunks
                    });
                },
            );
        }
        // One untimed parallel pass, to surface the steal counters and
        // busy-time ratio next to the timings (single-core caveat in
        // the module docs applies).
        let eval = phase_b_eval(
            &states,
            &deferred,
            &SingleReader { index: &index },
            &fsas,
            OverlapPolicy::Full,
            4,
        );
        eprintln!(
            "phase_b_eval/{dist}: w4 regions={} chunks={} stolen={} imbalance={:.2}",
            eval.load.regions, eval.load.chunks, eval.load.stolen, eval.load.imbalance
        );
    }
    g.finish();
}

criterion_group!(benches, bench_phase_b);
criterion_main!(benches);
