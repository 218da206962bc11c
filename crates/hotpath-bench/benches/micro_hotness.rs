//! Path-table hotness micro-bench (Section 5.2): recording a crossing is
//! an expected-O(1) hash probe plus the count-bucket move and one heap
//! push, expiry O(log pending) per expired event (a path whose count
//! reaches zero leaves the table in the same call), and the top-k bucket walk O(k log k + threshold bucket +
//! highest live count). The load here is the walk's worst case: every
//! path sits at one count, so the threshold bucket is the whole table.
//! The table is built and dropped outside the timed region.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hotpath_core::geometry::Point;
use hotpath_core::index::PathTable;
use hotpath_core::motion_path::PathId;
use hotpath_core::time::{SlidingWindow, Timestamp};

/// `n` crossings spread over 1 000 paths, each from its own start
/// vertex, with lengths from 0 to 96 m.
fn loaded(n: u64) -> PathTable {
    let mut t = PathTable::new(SlidingWindow::new(100), 20.0, 1e-3);
    for i in 0..n {
        let k = i % 1000;
        let start = Point::new(k as f64 * 100.0, 0.0);
        t.insert_edge(start, start + Point::new((k % 97) as f64, 0.0), Timestamp(i));
    }
    t
}

fn bench_hotness(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotness");
    for n in [1_000u64, 100_000] {
        g.bench_with_input(BenchmarkId::new("record", n), &n, |b, &n| {
            b.iter_batched_ref(
                || loaded(n),
                |t| t.record(PathId(7), Timestamp(n)),
                BatchSize::LargeInput,
            );
        });
        g.bench_with_input(BenchmarkId::new("advance_full_window", n), &n, |b, &n| {
            b.iter_batched_ref(
                || loaded(n),
                |t| t.advance(Timestamp(n + 200)).len(),
                BatchSize::LargeInput,
            );
        });
        let t = loaded(n);
        g.bench_with_input(BenchmarkId::new("top8", n), &t, |b, t| {
            b.iter(|| t.top_n(8).iter().map(|&(id, hot)| id.0 + hot as u64).sum::<u64>());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hotness);
criterion_main!(benches);
