//! Phase B (SinglePath Cases 2-3) kernel: the sequential `phase_b` loop
//! over a 512-state deferred set, uniform vs flash-crowd-skewed.
//!
//! Each row times all of Phase B's per-state work: the gather each
//! state's arrival runs (its FSA pushed into the overlap grid, the end
//! vertices inside it collected), then one whole `phase_b` call — per
//! deferred state the liveness filter, the neighbourhood, ranking, the
//! max-depth sweep when it can win, and the commit. `uniform` spreads
//! the deferred FSAs evenly over 16 clusters; `skewed` piles 90% of
//! them onto one cluster, the hub shape where a clip meets hundreds of
//! overlapping rects and every Case-2 query sees the vertices earlier
//! states just minted. The seeded index holds 8 paths per cluster with
//! 1-3 crossings each, because the coordinator only ever indexes paths
//! that are being crossed; their ranks are what lets the sweep be
//! skipped, as it is in the running system. `phase_b` commits as it
//! goes, so each sample runs against a fresh path table built outside
//! the timed region; the gathered rows and the scratch are reused
//! across samples, as the coordinator reuses them across epochs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::index::PathTable;
use hotpath_core::raytrace::ClientState;
use hotpath_core::strategy::{phase_b, Arrivals, CaseTally, OverlapPolicy, PhaseBScratch};
use hotpath_core::time::{SlidingWindow, Timestamp};
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

/// A table with stored endpoints inside every cluster, so each Case-2
/// query finds non-trivial vertex groups, and 1-3 crossings per path.
fn seeded_store() -> PathTable {
    let mut table = PathTable::new(SlidingWindow::new(100), 50.0, 1e-3);
    for c in 0..CLUSTERS {
        let center = cluster_center(c);
        for j in 0..8 {
            let start = Point::new(-500.0 - j as f64 * 10.0, c as f64 * 10.0);
            let end =
                Point::new(center.x + (j % 4) as f64 * 15.0, center.y + (j / 4) as f64 * 15.0);
            let (edge, _) = table.insert_edge(start, end, Timestamp(1));
            for _ in 0..(c + j) % 3 {
                table.record(edge.id, Timestamp(1));
            }
        }
    }
    table
}

fn bench_phase_b(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase_b");
    let deferred: Vec<u32> = (0..DEFERRED as u32).collect();
    let mut scratch = PhaseBScratch::default();
    let mut arrivals = Arrivals::new(40.0);
    for (dist, hot_frac) in [("uniform", 0.0), ("skewed", 0.9)] {
        let states = batch(hot_frac);
        g.bench_function(dist, |b| {
            b.iter_batched_ref(
                || (seeded_store(), Vec::with_capacity(DEFERRED)),
                |(table, selections)| {
                    arrivals.clear();
                    for st in &states {
                        arrivals.gather(&st.fsa, table);
                    }
                    let mut tally = CaseTally::default();
                    phase_b(
                        &states,
                        &deferred,
                        table,
                        &arrivals,
                        OverlapPolicy::Full,
                        &mut tally,
                        selections,
                        &mut scratch,
                    );
                    tally
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_phase_b);
criterion_main!(benches);
