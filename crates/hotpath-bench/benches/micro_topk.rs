//! Top-k query micro-bench: `top_k()` / `top_k_score()` read the live
//! path table, one `PathTable::top_n` walk of its count buckets per
//! call (no cached copy). Thirty-two paths are re-crossed, so more than
//! `k` sit above the hotness-1 bucket and the walk never copies it: the
//! medians must stay flat as the hot-set size grows from 1k to 50k
//! paths (a full sort per query would not).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;

/// A coordinator whose hot set holds `p` distinct one-crossing paths
/// (plus a handful of hotter ones so the top-k is non-trivial).
fn with_hot_paths(p: usize) -> Coordinator {
    let mut c =
        Coordinator::new(Config::builder().window(1_000_000).build().expect("valid config"));
    let states = (0..p).map(|i| {
        // Distinct corridors on a coarse lattice: every state mints its
        // own path (Case 3), far enough apart that FSAs never overlap.
        let x = (i % 1_000) as f64 * 120.0;
        let y = (i / 1_000) as f64 * 120.0;
        let end = Point::new(x + 40.0, y);
        ClientState {
            object: ObjectId(i as u64),
            start: Point::new(x, y),
            ts: Timestamp(0),
            fsa: Rect::new(end - Point::new(2.0, 2.0), end + Point::new(2.0, 2.0)),
            te: Timestamp(9),
        }
    });
    c.submit_batch(states);
    let _ = c.process_epoch(Timestamp(10));
    // Re-cross a few corridors so hotness values differentiate.
    for round in 0..3usize {
        let states = (0..32 - round * 10).map(|i| {
            let x = (i % 1_000) as f64 * 120.0;
            let y = (i / 1_000) as f64 * 120.0;
            let end = Point::new(x + 40.0, y);
            ClientState {
                object: ObjectId(i as u64),
                start: Point::new(x, y),
                ts: Timestamp(10),
                fsa: Rect::new(end - Point::new(2.0, 2.0), end + Point::new(2.0, 2.0)),
                te: Timestamp(19),
            }
        });
        c.submit_batch(states);
        let _ = c.process_epoch(Timestamp(20));
    }
    assert!(c.hot_count() >= p, "hot set smaller than intended");
    c
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk");
    for p in [1_000usize, 10_000, 50_000] {
        let coord = with_hot_paths(p);
        g.bench_with_input(BenchmarkId::new("top_k", p), &coord, |b, coord| {
            b.iter(|| coord.top_k());
        });
        g.bench_with_input(BenchmarkId::new("top_k_score", p), &coord, |b, coord| {
            b.iter(|| coord.top_k_score());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
