//! Scenario-generator micro-bench: per-tick measurement generation for
//! every registered workload and for the paper's Table 2 population,
//! plus scenario construction (network generation + hub ranking +
//! closure planning). The generators feed every end-to-end run, so a
//! structural regression here slows the whole experiment surface.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hotpath_core::time::Timestamp;
use hotpath_netsim::mobility::{Population, PopulationParams};
use hotpath_netsim::network::{generate, NetworkParams};
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

/// One `Population::tick` of the Table 2 workload (Athens-sized
/// network, alpha = 0.1, dense sampling) at the end-to-end benchmark's
/// two population sizes; the reported rate is measurements per second.
fn bench_population_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("population_tick");
    g.sample_size(30);
    let net = generate(NetworkParams::athens());
    for n in [20_000usize, 100_000] {
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(n, 2015));
        let mut out = Vec::new();
        let mut t = 0;
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("paper", n), &(), |b, ()| {
            b.iter(|| {
                t += 1;
                pop.tick(&net, Timestamp(t), &mut out);
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

criterion_group!(benches, bench_scenario_ticks, bench_population_tick, bench_scenario_build);
criterion_main!(benches);
