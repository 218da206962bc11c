//! Index-structure ablation: the paper's grid (Section 5.1) under the
//! end-vertex workloads the SinglePath strategy generates (inserts,
//! FSA-sized range queries, deletions) as the index grows.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::index::{EndpointGrid, Entry};
use hotpath_core::motion_path::PathId;

fn endpoints(n: usize) -> Vec<Point> {
    (0..n).map(|i| Point::new(((i * 37) % 15_000) as f64, ((i * 61) % 15_000) as f64)).collect()
}

fn filled_grid(pts: &[Point]) -> EndpointGrid {
    // The coordinator's cell: one FSA side (2 eps = 20 m).
    let mut g = EndpointGrid::new(20.0);
    for (i, p) in pts.iter().enumerate() {
        g.insert(Entry { endpoint: *p, path: PathId(i as u64) });
    }
    g
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_backend");
    for n in [1_000usize, 10_000, 100_000] {
        let pts = endpoints(n);
        // FSA-sized query box (2 eps = 20 m).
        let fsa = Rect::new(Point::new(7_000.0, 7_000.0), Point::new(7_020.0, 7_020.0));

        g.bench_with_input(BenchmarkId::new("grid_query", n), &pts, |b, pts| {
            let grid = filled_grid(pts);
            b.iter(|| grid.query(&fsa).len());
        });

        g.bench_with_input(BenchmarkId::new("grid_insert_remove", n), &pts, |b, pts| {
            b.iter_batched(
                || filled_grid(pts),
                |mut grid| {
                    let at = Point::new(1.0, 1.0);
                    let pos = grid.insert(Entry { endpoint: at, path: PathId(u64::MAX) });
                    grid.remove(&at, pos);
                    grid
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
