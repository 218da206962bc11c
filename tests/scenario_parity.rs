//! Integration coverage for the netsim scenarios through the run
//! driver. The motivating crowds (`sporting_event`, `evacuation`,
//! `sensor_dropout` — Section 1 of the paper) heat corridors into a
//! meaningful top-k, and a sensor outage shorter than the window leaves
//! the pre-outage hottest corridor in the top-k. Every registered
//! scenario, fault scenarios included, runs with its invariants holding,
//! a non-empty top-k and a consistent coordinator, and a proptest holds
//! every registered generator to seed-determinism.

use hotpath_core::time::Timestamp;
use hotpath_netsim::scenario::{build, spec, ScenarioParams, Workload, REGISTRY};
use hotpath_sim::scenario_run::{run_named, ScenarioRunParams, ScenarioRunResult};
use proptest::prelude::*;

/// Runs a registered scenario at the quick scale (`n = 300`, 150 ticks)
/// under the default driver knobs: eps 10, epoch 5, k 10, W from the
/// scenario's hint.
fn run_quick(name: &str, seed: u64) -> ScenarioRunResult {
    run_named(name, &ScenarioParams::quick(seed), &ScenarioRunParams::default())
        .expect("registered")
}

#[test]
fn scenario_crowds_produce_meaningful_top_k() {
    // The scenarios must actually exercise the pipeline: the
    // sporting-event crowd converges, so its hottest corridors should
    // out-heat the typical path; the evacuating crowd still leaves hot
    // escape routes behind.
    let res = run_quick("sporting_event", 25);
    assert!(res.outcome.per_epoch.iter().any(|e| e.snap.index_size > 0));
    let hottest = res.outcome.final_top_k.first().map(|&(_, h)| h).unwrap_or(0);
    assert!(hottest >= 3, "no corridor heated up (hottest = {hottest})");

    let res = run_quick("evacuation", 23);
    assert!(!res.outcome.final_top_k.is_empty(), "evacuation discovered no hot paths");
}

#[test]
fn sensor_dropout_top_k_stays_stable() {
    // Corridors heat up for 80 ticks, then every other sensor goes dark
    // for 25 ticks — shorter than the 60-tick hotness window, so
    // pre-outage crossings keep the hot set alive throughout. The
    // scenario's own outage-stability check holds the top-k to that.
    let params = ScenarioParams::quick(27);
    let window = Workload::new(spec("sensor_dropout").unwrap(), &params).dropout().unwrap();
    assert_eq!((window.from, window.until, window.stride), (Timestamp(80), Timestamp(105), 2));
    let res = run_quick("sensor_dropout", 27);
    assert!(!res.outcome.final_top_k.is_empty(), "scenario discovered no hot paths");
    res.invariants.as_ref().unwrap_or_else(|e| panic!("{e}"));
}

/// Every registered scenario, fault scenarios included, holds its own
/// invariants, discovers a non-empty top-k, and leaves a coordinator
/// that passes `check_consistency`.
#[test]
fn every_registered_scenario_stays_consistent() {
    for (i, spec) in REGISTRY.iter().enumerate() {
        let scale = ScenarioParams { n: 300, ..ScenarioParams::quick(61 + i as u64) };
        let res = run_named(spec.name, &scale, &ScenarioRunParams::default()).expect("registered");
        let name = spec.name;
        res.invariants.as_ref().unwrap_or_else(|e| panic!("{name} invariants: {e}"));
        assert!(!res.outcome.final_top_k.is_empty(), "{name} discovered no hot paths");
        res.coordinator.check_consistency().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every registered scenario generator is a pure function of its
    /// seed: two builds at the same `(seed, n)` produce identical
    /// measurement streams, event schedules included.
    #[test]
    fn scenario_generators_are_deterministic_per_seed(
        seed in 0u64..10_000,
        n in 20usize..120,
        which in 0usize..REGISTRY.len(),
    ) {
        let spec = &REGISTRY[which];
        let scale = ScenarioParams { n, ..ScenarioParams::quick(seed) };
        let stream = || {
            let mut scenario = build(spec.name, &scale).expect("registered");
            let mut out = Vec::new();
            let mut all = Vec::new();
            for t in 1..=60u64 {
                scenario.tick(Timestamp(t), &mut out);
                all.extend(out.iter().map(|m| {
                    (m.object.0, m.observed.p.x.to_bits(), m.observed.p.y.to_bits(), m.observed.t)
                }));
            }
            all
        };
        prop_assert_eq!(stream(), stream());
    }
}
