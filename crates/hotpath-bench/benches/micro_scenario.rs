//! Scenario-generator micro-bench: per-tick measurement generation for
//! every registered workload, plus scenario construction (network
//! generation + hub ranking + closure planning). The generators feed
//! every end-to-end run, so a structural regression here slows the
//! whole experiment surface.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_core::time::Timestamp;
use hotpath_netsim::scenario::{Scenario, ScenarioParams, Workload, REGISTRY};

fn bench_scenario_ticks(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_tick");
    let params = ScenarioParams { n: 500, ..ScenarioParams::quick(97) };
    for spec in REGISTRY {
        let mut scenario = Workload::new(spec, &params);
        let mut out = Vec::new();
        // Warm past the event boundaries (surge start, closures) so the
        // measured ticks exercise steady mid-scenario behavior.
        for t in 1..=params.duration / 2 {
            scenario.tick(Timestamp(t), &mut out);
        }
        let mut t = params.duration / 2;
        g.bench_with_input(BenchmarkId::new("tick", spec.name), &(), |b, ()| {
            b.iter(|| {
                t += 1;
                scenario.tick(Timestamp(t), &mut out);
                out.len()
            });
        });
    }
    g.finish();
}

fn bench_scenario_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_build");
    let params = ScenarioParams { n: 200, ..ScenarioParams::quick(98) };
    // One representative cheap build and the two event-heavy ones (hub
    // ranking, closure planning + longest-link scan).
    for name in ["sporting_event", "rush_hour_surge", "evacuation_reroute"] {
        let spec = REGISTRY.iter().find(|s| s.name == name).expect("registered");
        g.bench_with_input(BenchmarkId::new("build", name), &(), |b, ()| {
            b.iter(|| Workload::new(spec, &params).n());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scenario_ticks, bench_scenario_build);
criterion_main!(benches);
