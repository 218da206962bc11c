//! Overlap micro-bench: what `submit` and Phase B run per state of an
//! epoch of `n` states (Alg. 2 lines 8-12 and 22-34).
//!
//! * `arrival/push/n` files the `n` FSAs one by one into a cleared
//!   `FsaSet`, each `push` reporting the earlier FSAs meeting it;
//! * `arrival/ends/n` collects, for each of the same FSAs, the end
//!   vertices inside it from a table of stored paths
//!   (`PathTable::gather_end_vertices` into the coordinator's pooled
//!   buffer);
//! * `neighbourhood_sweep/n` hands each state's recorded neighbourhood
//!   (itself, the earlier FSAs its push reported, the later ones that
//!   reported it) back through `neighbourhood_of` and sweeps it with
//!   `deepest_above(0)`.
//!
//! The FSAs (2 eps = 20 m squares) and the stored end vertices are
//! spread over a square whose area grows with `n`, so each FSA meets
//! about six others and holds one or two end vertices at every size:
//! per-state work is constant, and a row grows linearly in `n` unless
//! something on the path does not. Every buffer is reused across
//! samples, as the coordinator reuses them across epochs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::index::PathTable;
use hotpath_core::strategy::{FsaSet, QueryScratch};
use hotpath_core::time::{SlidingWindow, Timestamp};

/// The coordinator's overlap and index cell: one FSA side.
const CELL: f64 = 20.0;

/// `n` points of a low-discrepancy sequence over a square holding one
/// point per 256 m², shifted by `phase`.
fn scatter(n: usize, phase: f64) -> impl Iterator<Item = Point> {
    let side = (n as f64).sqrt() * 16.0;
    (0..n).map(move |i| {
        let i = i as f64 + phase;
        Point::new((i * 0.754_877_666_2).fract() * side, (i * 0.569_840_290_9).fract() * side)
    })
}

fn fsas(n: usize) -> Vec<Rect> {
    scatter(n, 0.0).map(|p| Rect::new(p, p + Point::new(CELL, CELL))).collect()
}

/// A table of `n` stored paths whose end vertices are scattered like
/// the FSAs.
fn stored(n: usize) -> PathTable {
    let mut table = PathTable::new(SlidingWindow::new(100), CELL, 1e-3);
    for (i, end) in scatter(n, 0.5).enumerate() {
        table.insert_edge(Point::new(-1_000.0, i as f64), end, Timestamp(1));
    }
    table
}

fn bench_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("arrival");
    for n in [100usize, 1_000, 10_000] {
        let rs = fsas(n);
        g.bench_with_input(BenchmarkId::new("push", n), &rs, |b, rs| {
            let mut set = FsaSet::new(CELL);
            let mut scratch = QueryScratch::default();
            b.iter(|| {
                set.clear();
                rs.iter().map(|r| set.push(*r, &mut scratch).len()).sum::<usize>()
            });
        });
        let table = stored(n);
        g.bench_with_input(BenchmarkId::new("ends", n), &rs, |b, rs| {
            let mut ends = Vec::new();
            b.iter(|| {
                ends.clear();
                for r in rs {
                    table.gather_end_vertices(r, &mut ends);
                }
                ends.len()
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("neighbourhood_sweep");
    for n in [100usize, 1_000, 10_000] {
        let rs = fsas(n);
        let mut set = FsaSet::new(CELL);
        let mut scratch = QueryScratch::default();
        let mut near: Vec<Vec<u32>> = Vec::with_capacity(n);
        for (i, r) in rs.iter().enumerate() {
            let earlier = set.push(*r, &mut scratch).to_vec();
            for &j in &earlier {
                near[j as usize].push(i as u32);
            }
            near.push(earlier);
            near[i].push(i as u32);
        }
        g.bench_with_input(BenchmarkId::from_parameter(n), &rs, |b, rs| {
            b.iter(|| {
                rs.iter()
                    .zip(&near)
                    .filter_map(|(clip, hits)| {
                        set.neighbourhood_of(clip, hits.iter().copied(), &mut scratch)
                            .deepest_above(0)
                    })
                    .map(|(_, depth)| depth)
                    .sum::<usize>()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_overlap);
criterion_main!(benches);
