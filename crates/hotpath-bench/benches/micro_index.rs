//! Path-table index micro-bench (Section 5.1): expected-constant
//! insert and expiry-driven delete, and Case 1's adjacency query.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::index::PathTable;
use hotpath_core::time::{SlidingWindow, Timestamp};

/// `n` paths, each crossed once at time 1.
fn filled(n: usize) -> PathTable {
    // The coordinator's cell: one FSA side (2 eps = 20 m).
    let mut idx = PathTable::new(SlidingWindow::new(100), 20.0, 1e-3);
    for i in 0..n {
        let x = (i % 100) as f64 * 100.0;
        let y = (i / 100) as f64 * 100.0;
        idx.insert_edge(Point::new(x, y), Point::new(x + 80.0, y + 10.0), Timestamp(1));
    }
    idx
}

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("motionpath_index");
    for n in [1_000usize, 10_000, 50_000] {
        // One path stored with a crossing at 0, then expired — alone,
        // since the resident paths were crossed at 1.
        g.bench_with_input(BenchmarkId::new("insert_remove", n), &n, |b, &n| {
            b.iter_batched_ref(
                || filled(n),
                |idx| {
                    idx.insert_edge(Point::new(5.0, 5.0), Point::new(55.0, 5.0), Timestamp(0));
                    idx.advance(Timestamp(100)).len()
                },
                BatchSize::LargeInput,
            );
        });
        let idx = filled(n);
        // An FSA-sized box around the end of the path leaving (500, 100).
        let fsa = Rect::new(Point::new(570.0, 100.0), Point::new(590.0, 120.0));
        // Case 1's query as the epoch runs it: into a reused buffer.
        // (Case 2's end-vertex gather is the gated `arrival/ends` row of
        // `micro_overlap`.)
        g.bench_with_input(BenchmarkId::new("case1_query", n), &idx, |b, idx| {
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                idx.paths_from_into_buf(&Point::new(500.0, 100.0), &fsa, &mut out);
                out.len()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
