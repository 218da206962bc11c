//! Figure 8 bench: end-to-end simulation cost as the tolerance grows at
//! fixed N. The paper's 8c claim: processing time falls by more than 3x
//! from eps = 2 to eps = 20.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_bench::Scale;
use hotpath_netsim::scenario::{ScenarioParams, Workload};
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams};

fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_vary_tolerance");
    g.sample_size(10);
    let (workload, mobility, base) = Scale::Quick.base(2009);
    let scale = ScenarioParams { n: Scale::Quick.fig8_n(), ..workload };
    for &eps in &Scale::Quick.fig8_eps() {
        let params = ScenarioRunParams { eps, ..base };
        g.bench_with_input(BenchmarkId::new("simulate", format!("eps{eps}")), &params, |b, p| {
            b.iter(|| run_scenario(&mut Workload::uniform(&scale, mobility), p));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
