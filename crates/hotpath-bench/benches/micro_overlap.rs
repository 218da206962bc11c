//! FSA-overlap micro-bench: stabbing counts and max-depth sweep scaling
//! with the per-epoch batch size (Alg. 2 lines 8-12 support machinery).
//! `max_depth/*` is Phase B's per-state query: collect one clip's
//! neighbourhood and sweep it unbounded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::strategy::{FsaSet, QueryScratch};

fn rects(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 37.0) % 5_000.0;
            let y = (i as f64 * 53.0) % 5_000.0;
            Rect::new(Point::new(x, y), Point::new(x + 20.0, y + 20.0))
        })
        .collect()
}

fn bench_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("fsa_overlap");
    for n in [100usize, 1_000, 10_000] {
        let rs = rects(n);
        g.bench_with_input(BenchmarkId::new("build", n), &rs, |b, rs| {
            b.iter(|| FsaSet::build(rs.clone(), 20.0));
        });
        let set = FsaSet::build(rs.clone(), 20.0);
        let clip = rs[n / 2];
        // The coordinator's path: one scratch reused across queries, so
        // the cost follows the clip's answer, not the set size (the
        // allocating `max_depth_region` wrapper zeroes an `n`-entry
        // stamp vector per call).
        g.bench_with_input(BenchmarkId::new("max_depth", n), &set, |b, set| {
            let mut scratch = QueryScratch::default();
            b.iter(|| set.neighbourhood(&clip, &mut scratch).deepest_above(0));
        });
        g.bench_with_input(BenchmarkId::new("stab", n), &set, |b, set| {
            b.iter(|| set.stab_count(&Point::new(2_500.0, 2_500.0)));
        });
        // The stamped-bitmap dedup query (allocation- and sort-free
        // after warm-up; the wrapper clones the hit list out).
        g.bench_with_input(BenchmarkId::new("intersecting", n), &set, |b, set| {
            b.iter(|| set.intersecting(&clip));
        });
        // The coordinator's per-epoch path: the same set refilled in
        // place, no allocation after the first round.
        g.bench_with_input(BenchmarkId::new("rebuild", n), &rs, |b, rs| {
            let mut reused = FsaSet::new(20.0);
            b.iter(|| reused.rebuild(rs.iter().copied()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_overlap);
criterion_main!(benches);
