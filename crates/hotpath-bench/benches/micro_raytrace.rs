//! RayTrace micro-bench: the O(1)-per-point claim of Section 4, measured
//! two ways.
//!
//! * **Single-filter rows** (`straight|wavy|turns/<len>`) feed one
//!   filter `len` consecutive points. Each `observe` depends on the SSA
//!   the previous one left, so these time one filter's *dependent
//!   chain* on state that never leaves L1: cost per observation must
//!   stay flat across motion patterns and stream lengths.
//! * **Fleet rows** (`fleet/<N>`) model the system's traffic: `N`
//!   independent filters, tick-major, one measurement per filter per
//!   tick — what `hotpath-sim` and the end-to-end benchmark drive. At
//!   `N = 1000` the fleet sits in cache (the in-cache floor); at
//!   `N = 100000` every observation lands on a cache-cold filter, so
//!   anything a measurement touches beyond the filter's own line shows
//!   up here and nowhere in the single-filter rows. Objects run
//!   staggered right-angle legs with a ±1 m wobble, which violates on
//!   ~0.3 % of measurements; each report is answered on the spot at the
//!   FSA centroid.
//! * **The Table 2 row** (`table2/100000`) is `paper_uniform`'s own
//!   stream: 100 k filters over `Population::paper_defaults` on the
//!   Athens network (eps 10, ~90 % of objects parked), fed the
//!   population's 48-byte `Measurement`s in object order, as the
//!   end-to-end pipeline walks them; reports are answered on the spot.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use hotpath_core::geometry::{Point, TimePoint};
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::{Measurement, Population, PopulationParams};
use hotpath_netsim::network::{generate, NetworkParams};

fn stream(kind: &str, len: u64) -> Vec<TimePoint> {
    (1..=len)
        .map(|t| {
            let p = match kind {
                "straight" => Point::new(10.0 * t as f64, 0.0),
                "wavy" => Point::new(10.0 * t as f64, (t as f64 * 0.3).sin() * 4.0),
                _ => {
                    // Right-angle turns every 40 points.
                    let leg = (t / 40) % 2;
                    if leg == 0 {
                        Point::new(10.0 * t as f64, (t / 80) as f64 * 400.0)
                    } else {
                        Point::new(10.0 * (40 * (t / 40)) as f64, 10.0 * (t % 40) as f64)
                    }
                }
            };
            TimePoint::new(p, Timestamp(t))
        })
        .collect()
}

fn bench_observe(c: &mut Criterion) {
    let mut g = c.benchmark_group("raytrace_observe");
    for kind in ["straight", "wavy", "turns"] {
        for len in [1_000u64, 10_000] {
            let points = stream(kind, len);
            g.throughput(Throughput::Elements(len));
            g.bench_with_input(BenchmarkId::new(kind, len), &points, |b, pts| {
                b.iter_batched(
                    || {
                        RayTraceFilter::new(
                            ObjectId(0),
                            TimePoint::new(Point::ORIGIN, Timestamp(0)),
                            5.0,
                        )
                    },
                    |mut f| {
                        for tp in pts {
                            if let Some(s) = f.observe(*tp) {
                                let _ = f.receive_endpoint(TimePoint::new(s.fsa.centroid(), s.te));
                            }
                        }
                        f
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    g.finish();
}

/// Ticks per leg of the fleet's staircase walk: one turn per object
/// every `LEG` measurements.
const LEG: u64 = 400;

/// Object `i`'s measurement at tick `t`, in closed form so the loop
/// carries no per-object generator state: alternating east / north legs
/// of `LEG` ticks at 10 m per tick (phase-staggered so ~`N / LEG`
/// objects turn each tick) plus a ±1 m wobble across the heading.
#[inline]
fn fleet_point(i: u64, t: u64) -> Point {
    let u = t + i.wrapping_mul(7919) % LEG;
    let (leg, r) = (u / LEG, u % LEG);
    // Metres covered along each axis by the completed pairs of legs.
    let done = (10 * LEG * (leg / 2)) as f64;
    let along = 10.0 * r as f64;
    let wobble = ((i * 31 + t * 17) % 21) as f64 * 0.1 - 1.0;
    if leg % 2 == 0 {
        Point::new(done + along, done + wobble)
    } else {
        Point::new(done + 10.0 * LEG as f64 + wobble, done + along)
    }
}

fn bench_fleet(c: &mut Criterion) {
    const TICKS: u64 = 10;
    let mut g = c.benchmark_group("raytrace_observe");
    for n in [1_000u64, 100_000] {
        let mut fleet: Vec<RayTraceFilter> = (0..n)
            .map(|i| {
                let seed = TimePoint::new(fleet_point(i, 0), Timestamp(0));
                RayTraceFilter::new(ObjectId(i), seed, 5.0)
            })
            .collect();
        let mut now = 0u64;
        g.throughput(Throughput::Elements(n * TICKS));
        g.bench_function(BenchmarkId::new("fleet", n), |b| {
            b.iter_batched(
                // The next `TICKS` ticks' measurements, tick-major and
                // generated untimed, as the simulator hands them over.
                || {
                    let first = now + 1;
                    now += TICKS;
                    let tick =
                        |t| (0..n).map(move |i| TimePoint::new(fleet_point(i, t), Timestamp(t)));
                    (first..=now).flat_map(tick).collect::<Vec<_>>()
                },
                |batch| {
                    for tick in batch.chunks_exact(n as usize) {
                        for (f, tp) in fleet.iter_mut().zip(tick) {
                            if let Some(s) = f.observe(*tp) {
                                let _ = f.receive_endpoint(TimePoint::new(s.fsa.centroid(), s.te));
                            }
                        }
                    }
                },
                BatchSize::LargeInput,
            );
        });
        let (observed, reports) = fleet.iter().fold((0, 0), |(o, r), f| {
            let s = f.stats();
            (o + s.observed, r + s.reports)
        });
        if observed > 0 {
            println!(
                "raytrace_observe/fleet/{n}: {reports} reports in {observed} measurements ({:.2} %)",
                reports as f64 / observed as f64 * 100.0
            );
        }
    }
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    const N: usize = 100_000;
    const TICKS: u64 = 10;
    const EPS: f64 = 10.0;
    let mut g = c.benchmark_group("raytrace_observe");
    let net = generate(NetworkParams::athens());
    let mut pop = Population::new(&net, PopulationParams::paper_defaults(N, 2015));
    let mut fleet: Vec<RayTraceFilter> = (0..N as u64)
        .map(|i| {
            let obj = ObjectId(i);
            RayTraceFilter::new(obj, pop.seed_timepoint(&net, obj, Timestamp(0)), EPS)
        })
        .collect();
    let mut now = 0u64;
    g.throughput(Throughput::Elements(N as u64 * TICKS));
    g.bench_function(BenchmarkId::new("table2", N), |b| {
        b.iter_batched(
            // The population's next `TICKS` ticks, generated untimed.
            || {
                let ticks: Vec<Vec<Measurement>> =
                    (now + 1..=now + TICKS).map(|t| pop.tick_collect(&net, Timestamp(t))).collect();
                now += TICKS;
                ticks
            },
            |ticks| {
                for tick in &ticks {
                    for m in tick {
                        let f = &mut fleet[m.object.0 as usize];
                        if let Some(s) = f.observe(m.observed) {
                            let _ = f.receive_endpoint(TimePoint::new(s.fsa.centroid(), s.te));
                        }
                    }
                }
            },
            BatchSize::LargeInput,
        );
    });
    let (observed, reports) = fleet.iter().fold((0, 0), |(o, r), f| {
        let s = f.stats();
        (o + s.observed, r + s.reports)
    });
    if observed > 0 {
        println!(
            "raytrace_observe/table2/{N}: {reports} reports in {observed} measurements ({:.2} %)",
            reports as f64 / observed as f64 * 100.0
        );
    }
    g.finish();
}

criterion_group!(benches, bench_observe, bench_fleet, bench_table2);
criterion_main!(benches);
