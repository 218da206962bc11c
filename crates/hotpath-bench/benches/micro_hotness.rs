//! Hotness table micro-bench (Section 5.2): hash updates are expected
//! O(1) including the count-bucket move, timer-wheel expiry O(expired)
//! amortized per advance (no per-event heap churn), and the top-k
//! bucket walk O(k log k + threshold bucket + highest live count). The
//! load here is the walk's worst case: every path sits at one count, so
//! the threshold bucket is the whole hot set.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hotpath_core::hotness::Hotness;
use hotpath_core::motion_path::PathId;
use hotpath_core::time::{SlidingWindow, Timestamp};

fn loaded(n: u64) -> Hotness {
    let mut h = Hotness::new(SlidingWindow::new(100));
    for i in 0..n {
        let id = i % 1000;
        h.record_crossing(PathId(id), Timestamp(i), (id % 97) as f64);
    }
    h
}

fn bench_hotness(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotness");
    for n in [1_000u64, 100_000] {
        g.bench_with_input(BenchmarkId::new("record", n), &n, |b, &n| {
            b.iter_batched(
                || loaded(n),
                |mut h| {
                    h.record_crossing(PathId(7), Timestamp(n), 7.0);
                    h
                },
                BatchSize::LargeInput,
            );
        });
        g.bench_with_input(BenchmarkId::new("advance_full_window", n), &n, |b, &n| {
            b.iter_batched(
                || loaded(n),
                |mut h| {
                    h.advance(Timestamp(n + 200));
                    h
                },
                BatchSize::LargeInput,
            );
        });
        let h = loaded(n);
        g.bench_with_input(BenchmarkId::new("top8", n), &h, |b, h| {
            b.iter(|| h.top_n(8).iter().map(|&(id, hot)| id.0 + hot as u64).sum::<u64>());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hotness);
criterion_main!(benches);
