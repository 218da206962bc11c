//! Ablation for the Section 7 feedback extension: full-simulation cost
//! with and without coordinator hints. Quality deltas are printed by
//! `experiments hinted`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_bench::Scale;
use hotpath_netsim::scenario::{ScenarioParams, Workload};
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams};

fn bench_hinted(c: &mut Criterion) {
    let mut g = c.benchmark_group("hinted_ablation");
    g.sample_size(10);
    let (workload, mobility, base) = Scale::Quick.base(2011);
    let scale = ScenarioParams { n: 500, ..workload };
    for hints in [false, true] {
        let params = ScenarioRunParams { hints, dp: false, ..base.clone() };
        g.bench_with_input(
            BenchmarkId::new("simulate", if hints { "hinted" } else { "plain" }),
            &params,
            |b, p| {
                b.iter(|| run_scenario(&mut Workload::uniform(&scale, mobility), p));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_hinted);
criterion_main!(benches);
