//! Ablation bench: Algorithm 2's FSA-overlap machinery (stab boosts +
//! max-depth vertex generation) vs naive own-centroid vertices. Quality
//! deltas are printed by `experiments ablate`; Criterion tracks the
//! processing-cost side of the trade.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_bench::Scale;
use hotpath_core::strategy::OverlapPolicy;
use hotpath_netsim::scenario::{ScenarioParams, Workload};
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams};

fn bench_overlap_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap_ablation");
    g.sample_size(10);
    let (workload, mobility, base) = Scale::Quick.base(2012);
    let scale = ScenarioParams { n: 500, ..workload };
    for (tag, overlap) in [("full", OverlapPolicy::Full), ("own", OverlapPolicy::Own)] {
        let params = ScenarioRunParams { dp: false, overlap, ..base };
        g.bench_with_input(BenchmarkId::new("simulate", tag), &params, |b, p| {
            b.iter(|| run_scenario(&mut Workload::uniform(&scale, mobility), p));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_overlap_ablation);
criterion_main!(benches);
