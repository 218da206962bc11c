//! Figure 7 bench: end-to-end simulation cost as the number of objects
//! grows (eps = 10). Quality series (index size, score) are printed by
//! `cargo run -p hotpath-bench --bin experiments -- fig7`; Criterion
//! tracks the wall-time panel (7c) trend at CI scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hotpath_bench::Scale;
use hotpath_netsim::scenario::{ScenarioParams, Workload};
use hotpath_sim::scenario_run::run_scenario;

fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_vary_objects");
    g.sample_size(10);
    let (workload, mobility, params) = Scale::Quick.base(2008);
    for &n in &Scale::Quick.fig7_ns() {
        let scale = ScenarioParams { n, ..workload };
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("simulate", n), &scale, |b, s| {
            b.iter(|| run_scenario(&mut Workload::uniform(s, mobility), &params));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
