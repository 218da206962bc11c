//! Integration coverage for the netsim motivating scenarios
//! (`sporting_event`, `evacuation` — Section 1 of the paper), asserting
//! that the sharded coordinator reports exactly what the sequential one
//! does over a full run: same top-k (ids, geometry, hotness, score),
//! same per-epoch index sizes, same communication counters. The second
//! half pins the registered `Scenario` subsystem the same way: the two
//! event-driven workloads (`rush_hour_surge`, `evacuation_reroute`,
//! composite `surge_dropout`) are bit-for-bit identical sequential vs
//! 4-shard, so is every other registered scenario, and a proptest holds every registered
//! generator to seed-determinism.

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

/// Everything observable a run produces.
#[derive(PartialEq, Debug)]
struct RunTrace {
    /// `(index size, top-k score bits)` at every epoch boundary.
    per_epoch: Vec<(usize, u64)>,
    /// Final top-10.
    top_k: Vec<TopKRow>,
    /// Final uplink/downlink message counts.
    comm: (u64, u64),
}

/// Drives a scenario population through a coordinator, exactly as the
/// examples do: RayTrace filters client-side, epoch batches server-side.
fn drive(net: &RoadNetwork, mut crowd: Population, n: usize, shards: usize) -> RunTrace {
    let config = Config::paper_defaults()
        .with_tolerance(Tolerance::crisp(10.0))
        .with_window(40)
        .with_epoch(5)
        .with_k(10)
        .with_shards(shards);
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

    coordinator.check_consistency().expect("sharded state inconsistent");
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
    let comm = coordinator.comm_stats();
    RunTrace { per_epoch, top_k, comm: (comm.uplink_msgs, comm.downlink_msgs) }
}

#[test]
fn sporting_event_sharded_matches_sequential() {
    let net = generate(NetworkParams::tiny(21));
    let venue = nearest_node(&net, net.bounds().centroid());
    let n = 300;
    let sequential = drive(&net, sporting_event(&net, n, venue, 22), n, 1);
    assert!(!sequential.top_k.is_empty(), "scenario discovered no hot paths");
    assert!(sequential.per_epoch.iter().any(|&(size, _)| size > 0));
    for shards in [2, 4] {
        let sharded = drive(&net, sporting_event(&net, n, venue, 22), n, shards);
        assert_eq!(sequential, sharded, "divergence at {shards} shards");
    }
}

#[test]
fn evacuation_sharded_matches_sequential() {
    let net = generate(NetworkParams::tiny(23));
    let danger = net.bounds().centroid();
    let n = 300;
    let sequential = drive(&net, evacuation(&net, n, danger, 24), n, 1);
    assert!(!sequential.top_k.is_empty(), "scenario discovered no hot paths");
    for shards in [2, 4] {
        let sharded = drive(&net, evacuation(&net, n, danger, 24), n, shards);
        assert_eq!(sequential, sharded, "divergence at {shards} shards");
    }
}

#[test]
fn scenario_crowds_produce_meaningful_top_k() {
    // The untested scenarios must actually exercise the pipeline: the
    // sporting-event crowd converges, so its hottest corridors should
    // out-heat the typical path.
    let net = generate(NetworkParams::tiny(25));
    let venue = nearest_node(&net, net.bounds().centroid());
    let n = 300;
    let trace = drive(&net, sporting_event(&net, n, venue, 26), n, 2);
    let hottest = trace.top_k.first().map(|&(_, _, _, h, _)| h).unwrap_or(0);
    assert!(hottest >= 3, "no corridor heated up (hottest = {hottest})");
}

/// Drives the sensor-dropout scenario: measurements from dark sensors
/// are discarded before they reach the client filters, and the
/// surviving states go in through `submit_batch` (the pre-routed bulk
/// ingest path). Returns `(top-1 id at outage start, top-k ids at
/// outage end, final trace)`.
fn drive_dropout(
    net: &RoadNetwork,
    mut crowd: Population,
    window: DropoutWindow,
    n: usize,
    shards: usize,
) -> (u64, Vec<u64>, RunTrace) {
    let config = Config::paper_defaults()
        .with_tolerance(Tolerance::crisp(10.0))
        .with_window(60)
        .with_epoch(5)
        .with_k(10)
        .with_shards(shards);
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

    coordinator.check_consistency().expect("sharded state inconsistent");
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
    let comm = coordinator.comm_stats();
    let trace = RunTrace { per_epoch, top_k, comm: (comm.uplink_msgs, comm.downlink_msgs) };
    (top_at_start.expect("no epoch inside the outage"), top_ids_at_end, trace)
}

#[test]
fn sensor_dropout_top_k_stays_stable_and_sharded_matches_sequential() {
    let net = generate(NetworkParams::tiny(27));
    let venue = nearest_node(&net, net.bounds().centroid());
    let n = 300;
    // Let corridors heat up for ~80 ticks, then silence every other
    // sensor for 25 ticks — shorter than the 60-tick hotness window, so
    // pre-outage crossings keep the hot set alive throughout.
    let (crowd, window) = sensor_dropout(&net, n, venue, 28, Timestamp(80), Timestamp(105), 2);
    let (top_start, top_end_ids, sequential) = drive_dropout(&net, crowd, window, n, 1);

    // Stability across the outage: the pre-outage hottest corridor is
    // still in the top-k when sensors come back, and the score never
    // collapses to zero during the dark window.
    assert!(!sequential.top_k.is_empty(), "scenario discovered no hot paths");
    assert!(
        top_end_ids.contains(&top_start),
        "pre-outage top path {top_start} fell out of the post-outage top-k {top_end_ids:?}"
    );
    let epoch_of = |t: u64| (t / 5) as usize - 1; // epoch boundaries at 5, 10, ...
    for e in epoch_of(window.from.raw())..=epoch_of(window.until.raw()) {
        let (_, score_bits) = sequential.per_epoch[e];
        assert!(
            f64::from_bits(score_bits) > 0.0,
            "top-k score collapsed during outage (epoch {e})"
        );
    }

    // And the whole run is bit-for-bit identical sharded vs sequential.
    let shards = 4;
    let (crowd, window) = sensor_dropout(&net, n, venue, 28, Timestamp(80), Timestamp(105), 2);
    let (s_start, s_end_ids, sharded) = drive_dropout(&net, crowd, window, n, shards);
    assert_eq!(sequential, sharded, "divergence at {shards} shards");
    assert_eq!(top_start, s_start);
    assert_eq!(top_end_ids, s_end_ids);
}

// ---------------------------------------------------------------------
// Scenario-subsystem parity: the registered workloads through the
// shared driver (hotpath-sim::scenario_run).
// ---------------------------------------------------------------------

use hotpath_netsim::scenario::{build, ScenarioParams, REGISTRY};
use hotpath_sim::scenario_run::{run_named, ScenarioRunParams, ScenarioRunResult};
use proptest::prelude::*;

/// One epoch of a driver trace: `(index size, score bits, top-k ids)`.
type EpochRow = (usize, u64, Vec<u64>);

/// The full observable trace of a driver run, geometry included.
fn full_trace(res: &ScenarioRunResult) -> (Vec<EpochRow>, Vec<TopKRow>, (u64, u64)) {
    let per_epoch = res
        .outcome
        .per_epoch
        .iter()
        .map(|e| (e.index_size, e.top_k_score.to_bits(), e.top_ids.clone()))
        .collect();
    let top_k = res
        .coordinator
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
    let comm = res.coordinator.comm_stats();
    (per_epoch, top_k, (comm.uplink_msgs, comm.downlink_msgs))
}

/// Pins one registered scenario bit-for-bit sequential vs `shards`.
fn pin_scenario_parity(name: &str, seed: u64, shards: usize) {
    let scale = ScenarioParams { n: 300, ..ScenarioParams::quick(seed) };
    let run = |shards: usize| {
        let params = ScenarioRunParams::default().with_shards(shards);
        run_named(name, &scale, &params).expect("registered scenario")
    };
    let sequential = run(1);
    sequential.invariants.as_ref().unwrap_or_else(|e| panic!("{name} invariants: {e}"));
    assert!(!sequential.outcome.final_top_k.is_empty(), "{name} discovered no hot paths");
    let sharded = run(shards);
    sharded.coordinator.check_consistency().expect("sharded state inconsistent");
    assert_eq!(
        full_trace(&sequential),
        full_trace(&sharded),
        "{name}: divergence at {shards} shards"
    );
}

#[test]
fn rush_hour_surge_sharded_matches_sequential() {
    pin_scenario_parity("rush_hour_surge", 31, 4);
}

#[test]
fn evacuation_reroute_sharded_matches_sequential() {
    pin_scenario_parity("evacuation_reroute", 33, 4);
}

#[test]
fn surge_dropout_composite_sharded_matches_sequential() {
    pin_scenario_parity("surge_dropout", 35, 4);
}

#[test]
fn flash_crowd_sharded_matches_sequential() {
    pin_scenario_parity("flash_crowd", 37, 4);
}

/// The whole-registry pin: EVERY registered scenario, fault scenarios
/// included, is bit-for-bit identical sequential vs 4-shard — per-epoch
/// series (index size, score bits, top-k ids), final top-k geometry,
/// and communication counters.
#[test]
fn every_registered_scenario_sharded_matches_sequential() {
    for (i, spec) in REGISTRY.iter().enumerate() {
        pin_scenario_parity(spec.name, 61 + i as u64, 4);
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
