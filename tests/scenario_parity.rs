//! Integration coverage for the netsim motivating scenarios
//! (`sporting_event`, `evacuation`, `sensor_dropout` — Section 1 of the
//! paper), driven exactly as the examples do: the crowds heat corridors
//! into a meaningful top-k, and a sensor outage shorter than the window
//! leaves the pre-outage hottest corridor in the top-k. The second half
//! covers the registered `Scenario` subsystem: every registered
//! scenario, fault scenarios included, runs with its invariants holding,
//! a non-empty top-k and a consistent coordinator, and a proptest holds
//! every registered generator to seed-determinism.

use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::Coordinator;
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::Population;
use hotpath_netsim::network::{generate, NetworkParams, RoadNetwork};
use hotpath_netsim::scenarios::{
    evacuation, nearest_node, sensor_dropout, sporting_event, DropoutWindow,
};

/// One top-k row: `(id, start, end, hotness, score bits)`.
type TopKRow = (u64, (f64, f64), (f64, f64), u32, u64);

/// What the tests read from a run.
struct RunTrace {
    /// `(index size, top-k score bits)` at every epoch boundary.
    per_epoch: Vec<(usize, u64)>,
    /// Final top-10.
    top_k: Vec<TopKRow>,
}

/// Drives a scenario population through a coordinator, exactly as the
/// examples do: RayTrace filters client-side, epoch batches server-side.
fn drive(net: &RoadNetwork, mut crowd: Population, n: usize) -> RunTrace {
    let config = Config::paper_defaults()
        .with_tolerance(Tolerance::crisp(10.0))
        .with_window(40)
        .with_epoch(5)
        .with_k(10);
    let mut coordinator = Coordinator::new(config);
    let mut clients: Vec<RayTraceFilter> = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            RayTraceFilter::new(obj, crowd.seed_timepoint(net, obj, Timestamp(0)), 10.0)
        })
        .collect();

    let mut batch = Vec::new();
    let mut per_epoch = Vec::new();
    for t in 1..=150u64 {
        let now = Timestamp(t);
        crowd.tick(net, now, &mut batch);
        for m in &batch {
            if let Some(state) = clients[m.object.0 as usize].observe(m.observed) {
                coordinator.submit(state);
            }
        }
        coordinator.advance_time(now);
        if config.epochs.is_epoch(now) {
            for resp in coordinator.process_epoch(now) {
                if let Some(state) = clients[resp.object.0 as usize].receive_endpoint(resp.endpoint)
                {
                    coordinator.submit(state);
                }
            }
            per_epoch.push((coordinator.index_size(), coordinator.top_k_score().to_bits()));
        }
    }

    coordinator.check_consistency().expect("coordinator state inconsistent");
    let top_k = coordinator
        .top_k()
        .iter()
        .map(|h| {
            (
                h.path.id.0,
                (h.path.start().x, h.path.start().y),
                (h.path.end().x, h.path.end().y),
                h.hotness,
                h.score.to_bits(),
            )
        })
        .collect();
    RunTrace { per_epoch, top_k }
}

#[test]
fn scenario_crowds_produce_meaningful_top_k() {
    // The scenarios must actually exercise the pipeline: the
    // sporting-event crowd converges, so its hottest corridors should
    // out-heat the typical path; the evacuating crowd still leaves hot
    // escape routes behind.
    let n = 300;
    let net = generate(NetworkParams::tiny(25));
    let venue = nearest_node(&net, net.bounds().centroid());
    let trace = drive(&net, sporting_event(&net, n, venue, 26), n);
    assert!(trace.per_epoch.iter().any(|&(size, _)| size > 0));
    let hottest = trace.top_k.first().map(|&(_, _, _, h, _)| h).unwrap_or(0);
    assert!(hottest >= 3, "no corridor heated up (hottest = {hottest})");

    let net = generate(NetworkParams::tiny(23));
    let trace = drive(&net, evacuation(&net, n, net.bounds().centroid(), 24), n);
    assert!(!trace.top_k.is_empty(), "evacuation discovered no hot paths");
}

/// Drives the sensor-dropout scenario: measurements from dark sensors
/// are discarded before they reach the client filters, and the
/// surviving states go in through `submit_batch` (the bulk ingest
/// path). Returns `(top-1 id at outage start, top-k ids at
/// outage end, final trace)`.
fn drive_dropout(
    net: &RoadNetwork,
    mut crowd: Population,
    window: DropoutWindow,
    n: usize,
) -> (u64, Vec<u64>, RunTrace) {
    let config = Config::paper_defaults()
        .with_tolerance(Tolerance::crisp(10.0))
        .with_window(60)
        .with_epoch(5)
        .with_k(10);
    let mut coordinator = Coordinator::new(config);
    let mut clients: Vec<RayTraceFilter> = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            RayTraceFilter::new(obj, crowd.seed_timepoint(net, obj, Timestamp(0)), 10.0)
        })
        .collect();

    let mut batch = Vec::new();
    let mut per_epoch = Vec::new();
    let mut top_at_start = None;
    let mut top_ids_at_end = Vec::new();
    for t in 1..=150u64 {
        let now = Timestamp(t);
        crowd.tick(net, now, &mut batch);
        coordinator.submit_batch(batch.iter().filter_map(|m| {
            if window.drops(m.object, now) {
                return None; // the sensor is dark: nothing observed
            }
            clients[m.object.0 as usize].observe(m.observed)
        }));
        coordinator.advance_time(now);
        if config.epochs.is_epoch(now) {
            let responses = coordinator.process_epoch(now);
            coordinator.submit_batch(responses.iter().filter_map(|resp| {
                clients[resp.object.0 as usize].receive_endpoint(resp.endpoint)
            }));
            per_epoch.push((coordinator.index_size(), coordinator.top_k_score().to_bits()));
            if top_at_start.is_none() && now >= window.from {
                top_at_start = coordinator.top_k().first().map(|h| h.path.id.0);
            }
            if now >= window.until && top_ids_at_end.is_empty() {
                top_ids_at_end = coordinator.top_k().iter().map(|h| h.path.id.0).collect();
            }
        }
    }

    coordinator.check_consistency().expect("coordinator state inconsistent");
    let top_k = coordinator
        .top_k()
        .iter()
        .map(|h| {
            (
                h.path.id.0,
                (h.path.start().x, h.path.start().y),
                (h.path.end().x, h.path.end().y),
                h.hotness,
                h.score.to_bits(),
            )
        })
        .collect();
    let trace = RunTrace { per_epoch, top_k };
    (top_at_start.expect("no epoch inside the outage"), top_ids_at_end, trace)
}

#[test]
fn sensor_dropout_top_k_stays_stable() {
    let net = generate(NetworkParams::tiny(27));
    let venue = nearest_node(&net, net.bounds().centroid());
    let n = 300;
    // Let corridors heat up for ~80 ticks, then silence every other
    // sensor for 25 ticks — shorter than the 60-tick hotness window, so
    // pre-outage crossings keep the hot set alive throughout.
    let (crowd, window) = sensor_dropout(&net, n, venue, 28, Timestamp(80), Timestamp(105), 2);
    let (top_start, top_end_ids, trace) = drive_dropout(&net, crowd, window, n);

    // Stability across the outage: the pre-outage hottest corridor is
    // still in the top-k when sensors come back, and the score never
    // collapses to zero during the dark window.
    assert!(!trace.top_k.is_empty(), "scenario discovered no hot paths");
    assert!(
        top_end_ids.contains(&top_start),
        "pre-outage top path {top_start} fell out of the post-outage top-k {top_end_ids:?}"
    );
    let epoch_of = |t: u64| (t / 5) as usize - 1; // epoch boundaries at 5, 10, ...
    for e in epoch_of(window.from.raw())..=epoch_of(window.until.raw()) {
        let (_, score_bits) = trace.per_epoch[e];
        assert!(
            f64::from_bits(score_bits) > 0.0,
            "top-k score collapsed during outage (epoch {e})"
        );
    }
}

// ---------------------------------------------------------------------
// The registered workloads through the shared driver
// (hotpath-sim::scenario_run).
// ---------------------------------------------------------------------

use hotpath_netsim::scenario::{build, ScenarioParams, REGISTRY};
use hotpath_sim::scenario_run::{run_named, ScenarioRunParams};
use proptest::prelude::*;

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
