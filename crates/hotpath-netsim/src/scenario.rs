//! The unified scenario subsystem: every workload that feeds the
//! hot-path pipeline is a [`Scenario`] — a named, seeded generator of
//! per-tick measurement batches with scenario-specific invariants the
//! driver can verify after a run.
//!
//! The [`REGISTRY`] lists every built-in scenario; `experiments
//! scenario <name|all>` (hotpath-bench) and the integration tests build
//! them through [`build`]. Scenarios own their network, population, and
//! event schedule (surge windows, road closures, sensor outages), so a
//! driver only needs `tick` + `seed_timepoint` — exactly the interface
//! the paper's evaluation loop uses.
//!
//! Built-ins:
//! * `sporting_event` — a crowd converging on a venue (Section 1);
//! * `evacuation` — a crowd fleeing a danger point (Section 1);
//! * `sensor_dropout` — a converging crowd with a mid-run sensor outage;
//! * `rush_hour_surge` — a time-varying Poisson surge of commuters
//!   concentrated on the network's hub vertices (most paths start in a
//!   few grid cells);
//! * `flash_crowd` — the whole fleet stampedes into one hub for the
//!   middle of the run, the hub load under which Phase B dominates the
//!   epoch;
//! * `evacuation_reroute` — an evacuation whose arterial escape routes
//!   close mid-run, forcing correlated path churn and hotness decay;
//! * `surge_dropout` — a composite built with the [`DropoutOverlay`]
//!   combinator: the rush-hour surge with a sensor outage at its peak,
//!   proving registry scenarios compose.
//!
//! Outside the registry, [`UniformScenario`] is the paper's Table 2
//! workload: the uniform weighted random walk behind Figures 7-10.

use crate::mobility::{ChoicePolicy, Measurement, Population, PopulationParams};
use crate::network::{generate, ClosureSet, NetworkParams, NodeId, RoadClass, RoadNetwork};
use hotpath_core::config::{Admission, AdmissionPolicy};
use hotpath_core::coordinator::HotSnapshot;
use hotpath_core::geometry::{Point, TimePoint};
use hotpath_core::session::SessionCounters;
use hotpath_core::stats::CommStats;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Scale knobs every scenario understands. Scenario-specific structure
/// (surge timing, closure sets, outage windows) derives from these
/// deterministically, so one `(params, name)` pair fully describes a
/// workload.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioParams {
    /// Number of moving objects `N`.
    pub n: usize,
    /// RNG seed (network, population, and event draws all derive from
    /// it — same seed, same measurement stream, bit for bit).
    pub seed: u64,
    /// Run length in timestamps.
    pub duration: u64,
    /// The road network to generate.
    pub network: NetworkParams,
}

impl ScenarioParams {
    /// CI-friendly defaults: a tiny network, 300 objects, 150 ticks.
    pub fn quick(seed: u64) -> Self {
        ScenarioParams { n: 300, seed, duration: 150, network: NetworkParams::tiny(seed) }
    }
}

/// One epoch boundary as the driver observed it: the snapshot the
/// coordinator published there, plus what only the driver knows.
#[derive(Clone, Debug)]
pub struct EpochSample {
    /// The published snapshot: epoch, timestamp, index size, top-k and
    /// its score, Phase-B load, and the session and admission counters.
    pub snap: Arc<HotSnapshot>,
    /// States pending at the boundary (the epoch's reporting objects).
    pub reporting: usize,
    /// Wall time the driver was blocked at the boundary: drain,
    /// strategy, respond and publish. The per-stage split is the
    /// `strategy_time` / `publish_time` deltas in `snap.processing`.
    pub processing: Duration,
    /// Communication since the previous boundary's snapshot; boundary
    /// resubmissions count toward the following epoch.
    pub comm: CommStats,
    /// DP competitor index size (when the competitor runs).
    pub dp_index_size: Option<usize>,
    /// DP competitor top-k score (when the competitor runs).
    pub dp_score: Option<f64>,
}

impl EpochSample {
    /// Top-k path ids, hottest first (ties broken as the coordinator
    /// breaks them).
    pub fn top_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.snap.top_k.iter().map(|h| h.path.id.0)
    }
}

/// Everything a driver run exposes to [`Scenario::check_invariants`].
#[derive(Clone, Debug, Default)]
pub struct ScenarioOutcome {
    /// Per-epoch observations in order.
    pub per_epoch: Vec<EpochSample>,
    /// Final top-k as `(path id, hotness)`, hottest first.
    pub final_top_k: Vec<(u64, u32)>,
    /// Measurements the scenario emitted over the whole run.
    pub measurements: u64,
    /// Client state reports that reached the coordinator.
    pub reports: u64,
}

impl ScenarioOutcome {
    /// The first epoch at or after `t`.
    pub fn epoch_at(&self, t: Timestamp) -> Option<&EpochSample> {
        self.per_epoch.iter().find(|e| e.snap.timestamp >= t)
    }
}

/// What a declared fault does to the clients it selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The client vanishes: no measurements reach the pipeline, and on
    /// return the client reconnects with a fresh filter (new session).
    Disconnect,
    /// The client stalls: no measurements reach the pipeline, but on
    /// return it resumes with its existing filter state.
    Stall,
}

/// One declared fault: during `[from, until)` a pseudo-random
/// `fraction` of the fleet (stable for the whole window) suffers
/// `kind`. Scenarios *declare* windows; the simulation driver
/// *executes* them, so the raw measurement stream stays deterministic
/// and fault-free drivers (benches, unit tests) are unaffected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// What happens to the selected clients.
    pub kind: FaultKind,
    /// First timestamp the fault is active.
    pub from: Timestamp,
    /// First timestamp after the fault (exclusive end).
    pub until: Timestamp,
    /// Fraction of the fleet affected, in `[0, 1]`. `1.0` selects
    /// every client.
    pub fraction: f64,
    /// Mixed into the membership hash so overlapping windows pick
    /// independent victim sets.
    pub salt: u64,
}

/// SplitMix64 finalizer: a cheap, high-quality avalanche used for
/// stable per-window victim selection.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultWindow {
    /// Whether the window covers timestamp `t`.
    pub fn active(&self, t: Timestamp) -> bool {
        self.from <= t && t < self.until
    }

    /// Whether this window selects `obj` as a victim under `seed`.
    /// Membership is a pure function of `(seed, salt, obj)` — stable
    /// across the window and across re-runs, so faulted runs are
    /// reproducible and restart-parity checks can straddle a storm.
    pub fn selects(&self, seed: u64, obj: ObjectId) -> bool {
        if self.fraction >= 1.0 {
            return true;
        }
        if self.fraction <= 0.0 {
            return false;
        }
        let h = splitmix(seed ^ self.salt ^ obj.0);
        (h as f64 / u64::MAX as f64) < self.fraction
    }

    /// Whether the window suppresses `obj`'s measurement at `t`.
    pub fn suppresses(&self, seed: u64, obj: ObjectId, t: Timestamp) -> bool {
        self.active(t) && self.selects(seed, obj)
    }
}

/// A named, seeded workload: the one interface every driver (simulation
/// harness, experiments CLI, benches, tests) uses to pull measurement
/// streams.
pub trait Scenario {
    /// Registry name (stable; used by CLIs and reports).
    fn name(&self) -> &'static str;
    /// The network the population walks (for map rendering and ground
    /// truth; the hot-path algorithms never see it).
    fn network(&self) -> &RoadNetwork;
    /// Number of objects.
    fn n(&self) -> usize;
    /// Run length in timestamps.
    fn duration(&self) -> u64;
    /// Sliding-window length this scenario's invariants assume (e.g.
    /// the dropout outage must be shorter than the window).
    fn window_hint(&self) -> u64 {
        40
    }
    /// The exact position of `obj` at simulation start (seeds the
    /// client filters).
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint;
    /// Advances one timestamp and fills `out` with the surviving
    /// measurements (scenario events — outages, closures, surges —
    /// already applied). `out` is cleared first; reuse it across ticks.
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>);
    /// Verifies the scenario's expected story against what the driver
    /// observed (plus any ground truth tracked during `tick`). Called
    /// once, after the final tick.
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String>;
    /// Faults the driver should inject while executing this scenario.
    /// Empty by default: most scenarios are fault-free.
    fn fault_windows(&self) -> Vec<FaultWindow> {
        Vec::new()
    }
    /// Session lease, ingest bound and degraded-epoch threshold this
    /// scenario's invariants assume. All off by default; drivers without
    /// a session layer may ignore it (the fault invariants then cannot
    /// be checked).
    fn admission(&self) -> Admission {
        Admission::default()
    }
}

/// A registry row: name, one-line story, and builder.
#[derive(Clone, Copy)]
pub struct ScenarioSpec {
    /// Stable scenario name (CLI argument).
    pub name: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    /// Builds the scenario at the given scale.
    pub build: fn(&ScenarioParams) -> Box<dyn Scenario>,
}

/// Every built-in scenario, in presentation order.
pub const REGISTRY: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "sporting_event",
        summary: "crowd converging on a venue along weighted arterials",
        build: |p| Box::new(SportingEventScenario::new(p)),
    },
    ScenarioSpec {
        name: "evacuation",
        summary: "crowd fleeing a danger point along popular escape routes",
        build: |p| Box::new(EvacuationScenario::new(p)),
    },
    ScenarioSpec {
        name: "sensor_dropout",
        summary: "converging crowd with a mid-run sensor outage window",
        build: |p| Box::new(SensorDropoutScenario::new(p)),
    },
    ScenarioSpec {
        name: "rush_hour_surge",
        summary: "time-varying Poisson commuter surge concentrated on hub vertices",
        build: |p| Box::new(RushHourSurgeScenario::new(p)),
    },
    ScenarioSpec {
        name: "flash_crowd",
        summary: "whole fleet stampedes into one hub cell, the Phase-B-dominated hub load",
        build: |p| Box::new(FlashCrowdScenario::new(p)),
    },
    ScenarioSpec {
        name: "evacuation_reroute",
        summary: "evacuation with mid-run arterial closures forcing path churn",
        build: |p| Box::new(EvacuationRerouteScenario::new(p)),
    },
    ScenarioSpec {
        name: "surge_dropout",
        summary: "composite: rush-hour surge with a mid-surge sensor outage window",
        build: |p| {
            // The outage lands at the surge's peak (the surge spans
            // 30-70% of the run) and silences every third sensor —
            // short enough that the window keeps the corridors hot.
            let from = p.duration / 2;
            let until = from + p.duration / 8;
            Box::new(DropoutOverlay::new(
                "surge_dropout",
                Box::new(RushHourSurgeScenario::new(p)),
                DropoutWindow::new(Timestamp(from), Timestamp(until), 3),
            ))
        },
    },
    ScenarioSpec {
        name: "mass_disconnect",
        summary: "half the fleet vanishes mid-run past lease and grace, then returns",
        build: |p| Box::new(FaultStoryScenario::new(p, FaultStory::MassDisconnect)),
    },
    ScenarioSpec {
        name: "reconnect_storm",
        summary: "the whole fleet drops briefly and reconnects at once, hammering admission",
        build: |p| Box::new(FaultStoryScenario::new(p, FaultStory::ReconnectStorm)),
    },
    ScenarioSpec {
        name: "slow_client_stall",
        summary: "a quarter of the fleet stalls silently until ejected; service continues",
        build: |p| Box::new(FaultStoryScenario::new(p, FaultStory::SlowClientStall)),
    },
];

/// Looks up a registry row by name.
pub fn spec(name: &str) -> Option<&'static ScenarioSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Builds a registered scenario by name at the given scale.
pub fn build(name: &str, params: &ScenarioParams) -> Option<Box<dyn Scenario>> {
    spec(name).map(|s| (s.build)(params))
}

/// Shared sanity floor: the pipeline discovered something and scored it.
fn require_discovery(name: &str, outcome: &ScenarioOutcome) -> Result<(), String> {
    if outcome.reports == 0 {
        return Err(format!("{name}: no client ever reported"));
    }
    if outcome.final_top_k.is_empty() {
        return Err(format!("{name}: empty final top-k"));
    }
    if !outcome.per_epoch.iter().any(|e| e.snap.top_k_score > 0.0) {
        return Err(format!("{name}: top-k never scored"));
    }
    Ok(())
}

/// The node closest to a point (e.g. to place a venue near the center).
pub fn nearest_node(net: &RoadNetwork, p: Point) -> NodeId {
    net.nodes()
        .iter()
        .min_by(|a, b| a.pos.dist_l2(&p).total_cmp(&b.pos.dist_l2(&p)))
        .expect("non-empty network")
        .id
}

/// A sensor-dropout window: between `from` (inclusive) and `until`
/// (exclusive) every `stride`-th object's sensor goes dark and reports
/// nothing. Hot-path discovery should ride it out — crossings recorded
/// before the outage stay in the sliding window, so the top-k keeps
/// naming the popular corridors while a slice of the fleet is silent.
#[derive(Clone, Copy, Debug)]
pub struct DropoutWindow {
    /// First dark timestamp.
    pub from: Timestamp,
    /// First timestamp with sensors back online.
    pub until: Timestamp,
    /// Every `stride`-th object (by id) drops out; `1` silences everyone.
    pub stride: u64,
}

impl DropoutWindow {
    /// Creates a window; `stride` must be positive.
    pub fn new(from: Timestamp, until: Timestamp, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(from <= until, "window must not be inverted");
        DropoutWindow { from, until, stride }
    }

    /// True while the outage is in force at `t`.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.from <= t && t < self.until
    }

    /// True when `obj`'s sensor is dark at `t` (its measurement must be
    /// discarded before it reaches the client filter).
    pub fn drops(&self, obj: ObjectId, t: Timestamp) -> bool {
        obj.0.is_multiple_of(self.stride) && self.contains(t)
    }
}

// ---------------------------------------------------------------------
// uniform (Table 2)
// ---------------------------------------------------------------------

/// The paper's Table 2 workload (Section 6.1): objects random-walk the
/// network choosing links by road weight, a fraction `alpha` of them in
/// motion, with uniform measurement noise `err`. The mobility knobs the
/// evaluation varies — agility, displacement, err, and the link-choice
/// policy — come from a [`PopulationParams`]; `n` and the seed come from
/// the [`ScenarioParams`] (the population draws from `seed + 1`).
///
/// Deliberately not in [`REGISTRY`]: the Figure 7/8 sweeps already run
/// it at every scale, so a registry row would only repeat that work in
/// every registry loop — the CI scenario matrix, the every-scenario
/// tests, restart parity, and the determinism proptest.
pub struct UniformScenario {
    net: RoadNetwork,
    pop: Population,
    params: ScenarioParams,
}

impl UniformScenario {
    /// Builds the workload: `mobility` with `n` and the seed taken from
    /// `params`.
    pub fn new(params: &ScenarioParams, mobility: PopulationParams) -> Self {
        let net = generate(params.network);
        let pop = Population::new(
            &net,
            PopulationParams { n: params.n, seed: params.seed.wrapping_add(1), ..mobility },
        );
        UniformScenario { net, pop, params: *params }
    }

    /// Table 2 at test scale: the tiny network, 100 timestamps, and the
    /// paper's mobility defaults.
    pub fn quick(n: usize, seed: u64) -> Self {
        UniformScenario::new(
            &ScenarioParams { n, seed, duration: 100, network: NetworkParams::tiny(seed) },
            PopulationParams::paper_defaults(n, seed),
        )
    }
}

impl Scenario for UniformScenario {
    fn name(&self) -> &'static str {
        "uniform"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        self.pop.tick(&self.net, t, out);
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)
    }
}

// ---------------------------------------------------------------------
// sporting_event
// ---------------------------------------------------------------------

/// A crowd drifting toward a central venue (Section 1's targeted
/// advertising story) behind the [`Scenario`] interface.
pub struct SportingEventScenario {
    net: RoadNetwork,
    pop: Population,
    params: ScenarioParams,
}

impl SportingEventScenario {
    /// Builds the scenario: venue at the node nearest the map center.
    /// Walkers prefer links that reduce their distance to the venue,
    /// scaled by road weight — so they funnel onto the arterials leading
    /// there, which is precisely the pattern targeted advertising wants
    /// to catch.
    pub fn new(params: &ScenarioParams) -> Self {
        let net = generate(params.network);
        let venue = nearest_node(&net, net.bounds().centroid());
        let crowd = PopulationParams {
            policy: ChoicePolicy::Toward(net.node(venue).pos),
            // Most of the crowd is walking toward the gates.
            agility: 0.5,
            ..PopulationParams::paper_defaults(params.n, params.seed.wrapping_add(1))
        };
        let pop = Population::new(&net, crowd);
        SportingEventScenario { net, pop, params: *params }
    }
}

impl Scenario for SportingEventScenario {
    fn name(&self) -> &'static str {
        "sporting_event"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        self.pop.tick(&self.net, t, out);
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)?;
        // The crowd converges, so some corridor must heat up beyond a
        // single crossing.
        let hottest = outcome.final_top_k.first().map(|&(_, h)| h).unwrap_or(0);
        if hottest < 2 {
            return Err(format!("sporting_event: no corridor heated up (hottest {hottest})"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// evacuation
// ---------------------------------------------------------------------

/// A crowd fleeing the map center (Section 1's emergency-response
/// story) behind the [`Scenario`] interface.
pub struct EvacuationScenario {
    net: RoadNetwork,
    pop: Population,
    params: ScenarioParams,
}

impl EvacuationScenario {
    /// Builds the scenario: danger at the map centroid. Walkers prefer
    /// links that increase their distance from it, so authorities
    /// monitoring hot paths see the popular escape routes emerge in the
    /// top-k.
    pub fn new(params: &ScenarioParams) -> Self {
        let net = generate(params.network);
        let crowd = PopulationParams {
            policy: ChoicePolicy::Away(net.bounds().centroid()),
            // Evacuations are hurried: everyone moves nearly every timestamp.
            agility: 0.6,
            ..PopulationParams::paper_defaults(params.n, params.seed.wrapping_add(1))
        };
        let pop = Population::new(&net, crowd);
        EvacuationScenario { net, pop, params: *params }
    }
}

impl Scenario for EvacuationScenario {
    fn name(&self) -> &'static str {
        "evacuation"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        self.pop.tick(&self.net, t, out);
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)
    }
}

// ---------------------------------------------------------------------
// sensor_dropout
// ---------------------------------------------------------------------

/// A converging crowd whose every `stride`-th sensor goes dark over a
/// mid-run window; the top-k must ride the outage out.
pub struct SensorDropoutScenario {
    net: RoadNetwork,
    pop: Population,
    window: DropoutWindow,
    params: ScenarioParams,
}

impl SensorDropoutScenario {
    /// Builds the scenario; the outage silences every other sensor over
    /// the middle of the run, shorter than the hotness window.
    pub fn new(params: &ScenarioParams) -> Self {
        let SportingEventScenario { net, pop, .. } = SportingEventScenario::new(params);
        let from = params.duration * 8 / 15;
        let until = from + params.duration / 6;
        let window = DropoutWindow::new(Timestamp(from), Timestamp(until), 2);
        SensorDropoutScenario { net, pop, window, params: *params }
    }

    /// The outage window.
    pub fn dropout_window(&self) -> DropoutWindow {
        self.window
    }
}

impl Scenario for SensorDropoutScenario {
    fn name(&self) -> &'static str {
        "sensor_dropout"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn window_hint(&self) -> u64 {
        // The outage must be shorter than the sliding window so
        // pre-outage crossings keep the hot set alive.
        60
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        self.pop.tick(&self.net, t, out);
        out.retain(|m| !self.window.drops(m.object, t));
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)?;
        // Stability: the hottest pre-outage corridor is still in the
        // top-k when the sensors come back...
        let at_start =
            outcome.epoch_at(self.window.from).ok_or("sensor_dropout: no epoch at outage start")?;
        let Some(top_start) = at_start.top_ids().next() else {
            return Err("sensor_dropout: empty top-k at outage start".into());
        };
        let at_end = outcome
            .epoch_at(self.window.until)
            .ok_or("sensor_dropout: no epoch after outage end")?;
        if !at_end.top_ids().any(|id| id == top_start) {
            return Err(format!(
                "sensor_dropout: pre-outage top path {top_start} fell out of the post-outage \
                 top-k {:?}",
                at_end.top_ids().collect::<Vec<_>>()
            ));
        }
        // ...and the score never collapses while sensors are dark.
        for e in &outcome.per_epoch {
            let t = e.snap.timestamp;
            if t >= self.window.from && t <= self.window.until && e.snap.top_k_score <= 0.0 {
                return Err(format!(
                    "sensor_dropout: top-k score collapsed during the outage (t={t:?})"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// rush_hour_surge
// ---------------------------------------------------------------------

/// Samples a Poisson count with rate `lambda` (Knuth for small rates, a
/// clamped normal approximation for large ones — exact enough for load
/// shaping, and free of `exp(-lambda)` underflow).
fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.gen_range(0.0..1.0);
        let mut count = 0usize;
        while product > limit {
            product *= rng.gen_range(0.0..1.0f64);
            count += 1;
        }
        count
    } else {
        // Normal approximation N(lambda, lambda), Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as usize
    }
}

/// A commuter rush hour: object activity follows a time-varying Poisson
/// surge, and the surging commuters all head for a handful of hub
/// vertices (the heaviest crossroads), concentrating path starts on a
/// few grid cells.
pub struct RushHourSurgeScenario {
    net: RoadNetwork,
    pop: Population,
    rng: SmallRng,
    hubs: Vec<NodeId>,
    params: ScenarioParams,
    base_movers: usize,
    surge_from: u64,
    surge_until: u64,
    /// Largest concurrent mover count observed (ground truth for the
    /// surge invariant).
    peak_movers: usize,
}

impl RushHourSurgeScenario {
    /// Builds the scenario: surge over the middle 40% of the run, rate
    /// peaking at half the population, targets spread over the top-3
    /// hub vertices.
    pub fn new(params: &ScenarioParams) -> Self {
        let net = generate(params.network);
        let hubs = Self::hub_nodes(&net, 3);
        let pop = Population::new(
            &net,
            PopulationParams {
                // Off-peak trickle; the surge raises activity on top.
                agility: 0.1,
                ..PopulationParams::paper_defaults(params.n, params.seed.wrapping_add(1))
            },
        );
        let base_movers = pop.movers();
        RushHourSurgeScenario {
            net,
            pop,
            rng: SmallRng::seed_from_u64(params.seed.wrapping_add(2)),
            hubs,
            params: *params,
            base_movers,
            surge_from: params.duration * 3 / 10,
            surge_until: params.duration * 7 / 10,
            peak_movers: base_movers,
        }
    }

    /// The `k` nodes with the largest incident link weight (degree
    /// weighted by road class) — the arterial interchanges commuters
    /// funnel through. Ties break toward the smaller id.
    pub fn hub_nodes(net: &RoadNetwork, k: usize) -> Vec<NodeId> {
        let mut ranked: Vec<(f64, NodeId)> = net
            .nodes()
            .iter()
            .map(|n| {
                let w: f64 = net.incident(n.id).iter().map(|&l| net.link(l).class.weight()).sum();
                (w, n.id)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(k);
        ranked.into_iter().map(|(_, id)| id).collect()
    }

    /// The surge's Poisson rate at `t`: a triangle ramping from 0 at the
    /// surge edges to `n/2` at its midpoint.
    fn surge_rate(&self, t: u64) -> f64 {
        if t < self.surge_from || t >= self.surge_until {
            return 0.0;
        }
        let span = (self.surge_until - self.surge_from).max(1) as f64;
        let mid = self.surge_from as f64 + span / 2.0;
        let dist = (t as f64 - mid).abs() / (span / 2.0);
        (1.0 - dist).max(0.0) * self.params.n as f64 * 0.5
    }

    /// The hub nodes the surge converges on.
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }
}

impl Scenario for RushHourSurgeScenario {
    fn name(&self) -> &'static str {
        "rush_hour_surge"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        let raw = t.raw();
        if raw == self.surge_from {
            // The morning commute begins: everyone picks a hub.
            let hubs: Vec<_> = self.hubs.iter().map(|&h| self.net.node(h).pos).collect();
            self.pop.retarget(|obj| Some(ChoicePolicy::Toward(hubs[obj.0 as usize % hubs.len()])));
        }
        if raw == self.surge_until {
            // Surge over: back to undirected weighted wandering.
            self.pop.retarget(|_| Some(ChoicePolicy::default()));
        }
        let rate = self.surge_rate(raw);
        let surging = poisson(&mut self.rng, rate);
        let movers = (self.base_movers + surging).min(self.params.n);
        self.pop.set_movers(movers);
        self.peak_movers = self.peak_movers.max(movers);
        self.pop.tick(&self.net, t, out);
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)?;
        // The surge must actually have surged.
        if self.peak_movers <= self.base_movers {
            return Err(format!(
                "rush_hour_surge: surge never rose above the base load ({} movers)",
                self.base_movers
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// flash_crowd
// ---------------------------------------------------------------------

/// A flash crowd: the entire fleet stampedes toward *one* hub vertex
/// for the middle of the run, concentrating every FSA into a handful of
/// grid cells — the hub-concentrated load under which Phase B (Cases
/// 2-3 over heavily overlapping FSAs) dominates the epoch.
pub struct FlashCrowdScenario {
    net: RoadNetwork,
    pop: Population,
    rng: SmallRng,
    hub: NodeId,
    params: ScenarioParams,
    base_movers: usize,
    surge_from: u64,
    surge_until: u64,
    /// Largest concurrent mover count observed (ground truth for the
    /// stampede invariant).
    peak_movers: usize,
}

impl FlashCrowdScenario {
    /// Builds the scenario: a trickle of weighted wanderers, then over
    /// the middle 40% of the run the whole fleet moves and every mover
    /// heads for the single heaviest crossroads.
    pub fn new(params: &ScenarioParams) -> Self {
        let net = generate(params.network);
        let hub = RushHourSurgeScenario::hub_nodes(&net, 1)[0];
        let pop = Population::new(
            &net,
            PopulationParams {
                agility: 0.1,
                ..PopulationParams::paper_defaults(params.n, params.seed.wrapping_add(1))
            },
        );
        let base_movers = pop.movers();
        FlashCrowdScenario {
            net,
            pop,
            rng: SmallRng::seed_from_u64(params.seed.wrapping_add(2)),
            hub,
            params: *params,
            base_movers,
            surge_from: params.duration * 3 / 10,
            surge_until: params.duration * 7 / 10,
            peak_movers: base_movers,
        }
    }

    /// The single vertex the crowd converges on.
    pub fn hub(&self) -> NodeId {
        self.hub
    }
}

impl Scenario for FlashCrowdScenario {
    fn name(&self) -> &'static str {
        "flash_crowd"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        let raw = t.raw();
        if raw == self.surge_from {
            // The stampede begins: every object heads for the one hub.
            let hub = self.net.node(self.hub).pos;
            self.pop.retarget(move |_| Some(ChoicePolicy::Toward(hub)));
        }
        if raw == self.surge_until {
            // Crowd disperses: back to undirected weighted wandering.
            self.pop.retarget(|_| Some(ChoicePolicy::default()));
        }
        // A flash crowd is a step, not a ramp: the full fleet moves for
        // the whole window, with a small Poisson flicker so epochs are
        // not byte-identical to each other.
        let movers = if raw >= self.surge_from && raw < self.surge_until {
            let flicker = poisson(&mut self.rng, (self.params.n / 20) as f64);
            self.params.n.saturating_sub(flicker).max(self.base_movers)
        } else {
            self.base_movers
        };
        self.pop.set_movers(movers);
        self.peak_movers = self.peak_movers.max(movers);
        self.pop.tick(&self.net, t, out);
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)?;
        // The stampede must actually have stampeded.
        if self.peak_movers <= self.base_movers {
            return Err(format!(
                "flash_crowd: the crowd never rose above the base load ({} movers)",
                self.base_movers
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// combinators
// ---------------------------------------------------------------------

/// A scenario combinator: overlays a [`DropoutWindow`] on any inner
/// scenario. The inner scenario generates and schedules everything as
/// usual; the overlay then discards measurements from dark sensors, so
/// event machinery composes with outage machinery without either
/// knowing about the other. Invariants are the inner scenario's, plus
/// the requirement that the outage actually silenced something.
pub struct DropoutOverlay {
    name: &'static str,
    inner: Box<dyn Scenario>,
    window: DropoutWindow,
    /// Measurements the outage swallowed (ground truth for the
    /// composite's own invariant).
    dropped: u64,
}

impl DropoutOverlay {
    /// Wraps `inner`, silencing sensors per `window`. `name` is the
    /// composite's registry name.
    pub fn new(name: &'static str, inner: Box<dyn Scenario>, window: DropoutWindow) -> Self {
        DropoutOverlay { name, inner, window, dropped: 0 }
    }

    /// The outage window in force.
    pub fn window(&self) -> DropoutWindow {
        self.window
    }
}

impl Scenario for DropoutOverlay {
    fn name(&self) -> &'static str {
        self.name
    }
    fn network(&self) -> &RoadNetwork {
        self.inner.network()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn duration(&self) -> u64 {
        self.inner.duration()
    }
    fn window_hint(&self) -> u64 {
        // The sliding window must ride out the outage, whatever the
        // inner scenario assumes.
        self.inner.window_hint().max(self.window.until.raw() - self.window.from.raw() + 10)
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.inner.seed_timepoint(obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        self.inner.tick(t, out);
        let before = out.len();
        out.retain(|m| !self.window.drops(m.object, t));
        self.dropped += (before - out.len()) as u64;
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        self.inner.check_invariants(outcome)?;
        if self.dropped == 0 {
            return Err(format!("{}: the dropout window never silenced a sensor", self.name));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// evacuation_reroute
// ---------------------------------------------------------------------

/// An evacuation whose arterial escape routes (motorways and highways)
/// close mid-run: walkers must reroute onto the side streets, the old
/// hot corridors stop being crossed and decay out of the window, and
/// fresh ones form — maximal churn for the hotness expiry machinery.
pub struct EvacuationRerouteScenario {
    net: RoadNetwork,
    pop: Population,
    closed: ClosureSet,
    params: ScenarioParams,
    closure_at: u64,
    /// First tick by which every mover has had time to finish the link
    /// it was on when the closures landed.
    grace_until: u64,
    /// Movers seen on a closed link after the grace period, at a
    /// crossroad that still had an open exit (must stay zero).
    violations: usize,
}

impl EvacuationRerouteScenario {
    /// Builds the scenario: danger at the centroid, arterials close at
    /// 40% of the run.
    pub fn new(params: &ScenarioParams) -> Self {
        let EvacuationScenario { net, pop, .. } = EvacuationScenario::new(params);
        let mut closed = ClosureSet::none(&net);
        for l in net.links() {
            if matches!(l.class, RoadClass::Motorway | RoadClass::Highway) {
                closed.close(l.id);
            }
        }
        let closure_at = params.duration * 2 / 5;
        // Longest link over the paper's 10 m displacement, plus slack.
        let max_link = (0..net.link_count())
            .map(|i| net.link_length(crate::network::LinkId(i as u32)))
            .fold(0.0f64, f64::max);
        let grace = (max_link / pop.params().displacement).ceil() as u64 + 2;
        EvacuationRerouteScenario {
            net,
            pop,
            closed,
            params: *params,
            closure_at,
            grace_until: closure_at + grace,
            violations: 0,
        }
    }

    /// The closure set applied at `closure_at`.
    pub fn closures(&self) -> &ClosureSet {
        &self.closed
    }

    /// The tick the closures land on.
    pub fn closure_at(&self) -> u64 {
        self.closure_at
    }
}

impl Scenario for EvacuationRerouteScenario {
    fn name(&self) -> &'static str {
        "evacuation_reroute"
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        let raw = t.raw();
        let closed = (raw >= self.closure_at).then_some(&self.closed);
        self.pop.tick_avoiding(&self.net, t, closed, out);
        if raw >= self.grace_until {
            // Ground truth: after the grace period no mover may still be
            // driving a closed road, unless it came through a crossroad
            // with no open exit at all.
            for i in 0..self.params.n {
                let obj = ObjectId(i as u64);
                if !self.pop.is_mover(obj) {
                    continue;
                }
                let link = self.pop.walker_link(obj);
                if !self.closed.is_closed(link) {
                    continue;
                }
                let l = self.net.link(link);
                let sealed = |node: NodeId| {
                    self.net.incident(node).iter().all(|&x| self.closed.is_closed(x))
                };
                if !sealed(l.a) && !sealed(l.b) {
                    self.violations += 1;
                }
            }
        }
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        require_discovery(self.name(), outcome)?;
        if self.closed.closed_count() == 0 {
            return Err("evacuation_reroute: nothing was closed".into());
        }
        if self.violations > 0 {
            return Err(format!(
                "evacuation_reroute: {} mover-ticks on closed links after the grace period",
                self.violations
            ));
        }
        // The pipeline must keep discovering after the reroute: some
        // post-grace epoch still scores. On large networks the longest
        // link can push the grace period to the end of the run, so the
        // checkpoint clamps to the final epoch — the pipeline must at
        // minimum survive the closures to the finish line.
        let last = outcome.per_epoch.last().ok_or("evacuation_reroute: no epochs observed")?;
        let check_from = self.grace_until.min(last.snap.timestamp.raw());
        let recovered = outcome
            .per_epoch
            .iter()
            .any(|e| e.snap.timestamp.raw() >= check_from && e.snap.top_k_score > 0.0);
        if !recovered {
            return Err("evacuation_reroute: top-k never recovered after the closures".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// fault stories: mass_disconnect / reconnect_storm / slow_client_stall
// ---------------------------------------------------------------------

/// Which robustness story a [`FaultStoryScenario`] tells. All three
/// ride the sporting-event population (a converging crowd keeps one
/// corridor reliably hot, so fault effects are attributable) and
/// differ only in their declared [`FaultWindow`]s, their
/// [`Admission`] knobs, and the invariants checked afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultStory {
    /// Half the fleet disconnects for longer than lease + grace: the
    /// victims must be ejected within the lease bound, the hot paths
    /// must survive the storm, and the returning clients must be
    /// re-admitted.
    MassDisconnect,
    /// The whole fleet goes silent for just over a lease, then
    /// reconnects at once: a reconnect storm that must exercise
    /// admission control and still recover the pre-storm top path.
    ReconnectStorm,
    /// A quarter of the fleet stalls silently for most of the run:
    /// the stalled clients must be ejected on schedule while service
    /// for the rest never degrades to an empty top-k.
    SlowClientStall,
}

/// A converging-crowd workload with declared fault windows and
/// admission knobs, one per [`FaultStory`].
pub struct FaultStoryScenario {
    net: RoadNetwork,
    pop: Population,
    params: ScenarioParams,
    story: FaultStory,
    windows: Vec<FaultWindow>,
    admission: Admission,
}

impl FaultStoryScenario {
    /// Builds the scenario. Window placement straddles the run
    /// midpoint so a restart-parity check (restore at `duration / 2`)
    /// lands mid-storm.
    pub fn new(params: &ScenarioParams, story: FaultStory) -> Self {
        let SportingEventScenario { net, pop, .. } = SportingEventScenario::new(params);
        let d = params.duration;
        let n = params.n;
        let (windows, admission) = match story {
            FaultStory::MassDisconnect => (
                vec![FaultWindow {
                    kind: FaultKind::Disconnect,
                    from: Timestamp(d * 9 / 20),
                    until: Timestamp(d * 13 / 20),
                    fraction: 0.5,
                    salt: 0xD15C,
                }],
                Admission { lease: 12, grace: 6, ..Admission::default() },
            ),
            FaultStory::ReconnectStorm => (
                vec![FaultWindow {
                    kind: FaultKind::Disconnect,
                    from: Timestamp(d * 9 / 20),
                    until: Timestamp(d * 11 / 20),
                    fraction: 1.0,
                    salt: 0x5707,
                }],
                Admission {
                    // Lease shorter than the outage so every session
                    // drops; grace longer than the outage so nobody is
                    // ejected and the entire fleet *reconnects* at once.
                    lease: 8,
                    grace: d / 10 + 10,
                    queue_cap: (n / 4).max(64),
                    policy: AdmissionPolicy::ShedOldest,
                    degrade_threshold: (n / 6).max(48),
                },
            ),
            FaultStory::SlowClientStall => (
                vec![FaultWindow {
                    kind: FaultKind::Stall,
                    from: Timestamp(d * 2 / 5),
                    until: Timestamp(d * 4 / 5),
                    fraction: 0.25,
                    salt: 0x51A1,
                }],
                Admission {
                    lease: 12,
                    grace: 6,
                    queue_cap: (n / 5).max(48),
                    policy: AdmissionPolicy::EjectSlowest,
                    ..Admission::default()
                },
            ),
        };
        FaultStoryScenario { net, pop, params: *params, story, windows, admission }
    }

    /// Cumulative counter value at the last epoch strictly before `t`
    /// (zero when no epoch precedes `t`).
    fn cum_before(outcome: &ScenarioOutcome, t: Timestamp, f: fn(&SessionCounters) -> u64) -> u64 {
        outcome.per_epoch.iter().rfind(|e| e.snap.timestamp < t).map_or(0, |e| f(&e.snap.sessions))
    }

    /// The victims must be ejected within `lease + grace` of the
    /// window opening (plus epoch-boundary slack).
    fn check_ejection_bound(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        let name = self.name();
        let w = self.windows[0];
        let base = Self::cum_before(outcome, w.from, |s| s.ejections);
        let first = outcome
            .per_epoch
            .iter()
            .find(|e| e.snap.sessions.ejections > base)
            .ok_or_else(|| format!("{name}: no session was ever ejected"))?;
        let bound = w.from.raw() + self.admission.lease + self.admission.grace + 15;
        if first.snap.timestamp.raw() > bound {
            return Err(format!(
                "{name}: first ejection at t={} but the lease bound is t={bound}",
                first.snap.timestamp.raw()
            ));
        }
        Ok(())
    }
}

impl Scenario for FaultStoryScenario {
    fn name(&self) -> &'static str {
        match self.story {
            FaultStory::MassDisconnect => "mass_disconnect",
            FaultStory::ReconnectStorm => "reconnect_storm",
            FaultStory::SlowClientStall => "slow_client_stall",
        }
    }
    fn network(&self) -> &RoadNetwork {
        &self.net
    }
    fn n(&self) -> usize {
        self.params.n
    }
    fn duration(&self) -> u64 {
        self.params.duration
    }
    fn window_hint(&self) -> u64 {
        // The hotness window must outlast the longest fault window so
        // the hot paths survive the silence and recover in place.
        let longest = self.windows.iter().map(|w| w.until.raw() - w.from.raw()).max().unwrap_or(0);
        match self.story {
            // The stall runs for 40% of the run but 75% of the fleet
            // keeps the corridor hot; the default window suffices.
            FaultStory::SlowClientStall => 40,
            _ => (longest + 10).max(40),
        }
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        // Faults are declared, not baked into the stream: the driver
        // suppresses measurements, so the raw stream stays identical
        // whether or not injection is enabled.
        self.pop.tick(&self.net, t, out);
    }
    fn fault_windows(&self) -> Vec<FaultWindow> {
        self.windows.clone()
    }
    fn admission(&self) -> Admission {
        self.admission
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        let name = self.name();
        require_discovery(name, outcome)?;
        let last =
            &outcome.per_epoch.last().ok_or_else(|| format!("{name}: no epochs observed"))?.snap;
        if last.sessions.connects == 0 {
            return Err(format!(
                "{name}: no session ever connected — were the scenario's admission knobs applied?"
            ));
        }
        let w = self.windows[0];
        match self.story {
            FaultStory::MassDisconnect => {
                self.check_ejection_bound(outcome)?;
                // No hot-path corruption mid-storm: the surviving half
                // keeps the corridor scored through the whole window.
                for e in outcome.per_epoch.iter().filter(|e| w.active(e.snap.timestamp)) {
                    if e.snap.top_k_score <= 0.0 {
                        return Err(format!(
                            "{name}: top-k score collapsed mid-storm at t={}",
                            e.snap.timestamp.raw()
                        ));
                    }
                }
                // Returning clients are re-admitted (fresh connects or
                // reconnects after the window closes).
                let base = Self::cum_before(outcome, w.until, |s| s.connects + s.reconnects);
                if last.sessions.connects + last.sessions.reconnects <= base {
                    return Err(format!("{name}: no client was re-admitted after the storm"));
                }
            }
            FaultStory::ReconnectStorm => {
                // The whole fleet dropped and came back: reconnects
                // must rise after the window closes.
                let base = Self::cum_before(outcome, w.until, |s| s.reconnects);
                if last.sessions.reconnects <= base {
                    return Err(format!("{name}: no reconnect after the storm"));
                }
                // The storm must actually stress admission: something
                // was turned away or some epoch degraded.
                if last.admission.turned_away() + last.admission.degraded_epochs == 0 {
                    return Err(format!("{name}: admission control never engaged"));
                }
                // Recovery: the pre-storm top path is hot again within
                // a window of the storm ending.
                let target = outcome
                    .per_epoch
                    .iter()
                    .rev()
                    .filter(|e| e.snap.timestamp < w.from)
                    .find_map(|e| e.top_ids().next())
                    .ok_or_else(|| format!("{name}: no pre-storm top-k to recover"))?;
                let deadline = w.until.raw() + self.window_hint();
                let recovered = outcome.per_epoch.iter().any(|e| {
                    e.snap.timestamp >= w.until
                        && e.snap.timestamp.raw() <= deadline
                        && e.top_ids().any(|id| id == target)
                });
                if !recovered {
                    return Err(format!(
                        "{name}: pre-storm top path {target} not hot again by t={deadline}"
                    ));
                }
            }
            FaultStory::SlowClientStall => {
                self.check_ejection_bound(outcome)?;
                // Service for the active 75% never collapses once the
                // stall begins.
                for e in outcome.per_epoch.iter().filter(|e| e.snap.timestamp >= w.from) {
                    if e.snap.top_k_score <= 0.0 {
                        return Err(format!(
                            "{name}: top-k score collapsed during the stall at t={}",
                            e.snap.timestamp.raw()
                        ));
                    }
                }
                // Once the stall lifts the ejected clients re-admit as
                // fresh sessions.
                let base = Self::cum_before(outcome, w.until, |s| s.connects);
                if last.sessions.connects <= base {
                    return Err(format!("{name}: stalled clients never re-admitted"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_node_is_nearest() {
        let net = generate(NetworkParams::tiny(1));
        let c = net.bounds().centroid();
        let id = nearest_node(&net, c);
        let d = net.node(id).pos.dist_l2(&c);
        for n in net.nodes() {
            assert!(d <= n.pos.dist_l2(&c) + 1e-9);
        }
    }

    #[test]
    fn sporting_event_crowd_converges() {
        let params =
            ScenarioParams { n: 100, seed: 2, duration: 400, network: NetworkParams::tiny(2) };
        let mut s = SportingEventScenario::new(&params);
        let venue_pos = s.net.node(nearest_node(&s.net, s.net.bounds().centroid())).pos;
        let mut out = Vec::new();
        let mut dist_sum_first = 0.0;
        let mut dist_sum_last = 0.0;
        for t in 1..=400u64 {
            s.tick(Timestamp(t), &mut out);
            let sum: f64 = out.iter().map(|m| m.truth.dist_l2(&venue_pos)).sum();
            let c = out.len().max(1) as f64;
            if t <= 20 {
                dist_sum_first += sum / c;
            }
            if t > 380 {
                dist_sum_last += sum / c;
            }
        }
        assert!(
            dist_sum_last < dist_sum_first * 0.8,
            "crowd did not converge: first {dist_sum_first}, last {dist_sum_last}"
        );
    }

    #[test]
    fn evacuation_crowd_disperses() {
        let params =
            ScenarioParams { n: 100, seed: 4, duration: 300, network: NetworkParams::tiny(4) };
        let mut s = EvacuationScenario::new(&params);
        let danger = s.net.bounds().centroid();
        let mut out = Vec::new();
        let mut first = 0.0;
        let mut last = 0.0;
        for t in 1..=300u64 {
            s.tick(Timestamp(t), &mut out);
            let sum: f64 = out.iter().map(|m| m.truth.dist_l2(&danger)).sum();
            let c = out.len().max(1) as f64;
            if t <= 20 {
                first += sum / c;
            }
            if t > 280 {
                last += sum / c;
            }
        }
        assert!(last > first, "crowd did not flee: first {first}, last {last}");
    }

    #[test]
    fn uniform_scenario_streams_the_table2_population() {
        let params = ScenarioParams { n: 80, ..ScenarioParams::quick(21) };
        let mobility = PopulationParams { agility: 0.4, ..PopulationParams::paper_defaults(0, 0) };
        let mut uniform = UniformScenario::new(&params, mobility);
        // The Table 2 population built by hand: same network, `seed + 1`.
        let net = generate(params.network);
        let mut pop = Population::new(
            &net,
            PopulationParams { agility: 0.4, seed: 22, ..PopulationParams::paper_defaults(80, 21) },
        );
        for i in 0..80 {
            let obj = ObjectId(i);
            let seed = uniform.seed_timepoint(obj, Timestamp(0));
            assert_eq!(seed.p, pop.seed_timepoint(&net, obj, Timestamp(0)).p);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for t in 1..=40u64 {
            uniform.tick(Timestamp(t), &mut a);
            pop.tick(&net, Timestamp(t), &mut b);
            let key = |v: &[Measurement]| -> Vec<_> {
                v.iter().map(|m| (m.object, m.observed.p, m.truth)).collect()
            };
            assert_eq!(key(&a), key(&b), "tick {t}");
        }
        // The shared discovery floor, and deliberately unregistered.
        assert!(uniform.check_invariants(&ScenarioOutcome::default()).is_err());
        assert!(spec(uniform.name()).is_none());
    }

    #[test]
    fn dropout_window_silences_the_right_objects() {
        let w = DropoutWindow::new(Timestamp(10), Timestamp(20), 3);
        // In force only inside [10, 20).
        assert!(!w.contains(Timestamp(9)));
        assert!(w.contains(Timestamp(10)));
        assert!(w.contains(Timestamp(19)));
        assert!(!w.contains(Timestamp(20)));
        // Objects 0, 3, 6, ... drop; the rest keep reporting.
        assert!(w.drops(ObjectId(0), Timestamp(15)));
        assert!(w.drops(ObjectId(3), Timestamp(15)));
        assert!(!w.drops(ObjectId(1), Timestamp(15)));
        assert!(!w.drops(ObjectId(3), Timestamp(25)));
    }

    #[test]
    fn registry_lists_all_scenarios_with_unique_names() {
        assert!(REGISTRY.len() >= 10);
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate scenario names");
        for required in [
            "sporting_event",
            "evacuation",
            "sensor_dropout",
            "rush_hour_surge",
            "flash_crowd",
            "evacuation_reroute",
            "surge_dropout",
            "mass_disconnect",
            "reconnect_storm",
            "slow_client_stall",
        ] {
            assert!(spec(required).is_some(), "missing scenario {required}");
        }
        assert!(spec("no_such_scenario").is_none());
    }

    #[test]
    fn dropout_overlay_silences_the_windowed_sensors_and_delegates() {
        let params = ScenarioParams { n: 90, ..ScenarioParams::quick(13) };
        let mut composite = build("surge_dropout", &params).expect("registered composite");
        assert_eq!(composite.name(), "surge_dropout");
        assert_eq!(composite.n(), 90);
        let mut bare = RushHourSurgeScenario::new(&params);
        let window = DropoutWindow::new(
            Timestamp(params.duration / 2),
            Timestamp(params.duration / 2 + params.duration / 8),
            3,
        );
        let (mut out_c, mut out_b) = (Vec::new(), Vec::new());
        let mut dropped = 0usize;
        for t in 1..=params.duration {
            composite.tick(Timestamp(t), &mut out_c);
            bare.tick(Timestamp(t), &mut out_b);
            // The composite's stream is exactly the bare stream minus
            // the dark sensors.
            let expected: Vec<_> =
                out_b.iter().filter(|m| !window.drops(m.object, Timestamp(t))).collect();
            dropped += out_b.len() - expected.len();
            assert_eq!(out_c.len(), expected.len(), "tick {t}");
            for (c, b) in out_c.iter().zip(expected) {
                assert_eq!(c.object, b.object);
                assert_eq!(c.truth, b.truth);
            }
        }
        assert!(dropped > 0, "the outage never fired at this scale");
        // The sliding-window hint covers the outage.
        assert!(composite.window_hint() > params.duration / 8);
    }

    #[test]
    fn every_registered_scenario_builds_and_ticks() {
        let params = ScenarioParams { n: 60, ..ScenarioParams::quick(5) };
        let mut out = Vec::new();
        for s in REGISTRY {
            let mut scenario = (s.build)(&params);
            assert_eq!(scenario.name(), s.name);
            assert_eq!(scenario.n(), 60);
            let mut total = 0usize;
            for t in 1..=30u64 {
                scenario.tick(Timestamp(t), &mut out);
                total += out.len();
            }
            assert!(total > 0, "{} emitted nothing", s.name);
            let seed = scenario.seed_timepoint(ObjectId(0), Timestamp(0));
            assert!(scenario.network().bounds().expand(1.0).contains(&seed.p));
        }
    }

    #[test]
    fn scenario_streams_are_deterministic_per_seed() {
        let params = ScenarioParams { n: 50, ..ScenarioParams::quick(77) };
        for s in REGISTRY {
            let run = || {
                let mut scenario = (s.build)(&params);
                let mut out = Vec::new();
                let mut all = Vec::new();
                for t in 1..=40u64 {
                    scenario.tick(Timestamp(t), &mut out);
                    all.extend(out.iter().map(|m| (m.object.0, m.observed.p, m.truth)));
                }
                all
            };
            assert_eq!(run(), run(), "{} not deterministic", s.name);
        }
    }

    #[test]
    fn rush_hour_surge_raises_and_releases_load() {
        let params = ScenarioParams { n: 200, ..ScenarioParams::quick(9) };
        let mut s = RushHourSurgeScenario::new(&params);
        let base = s.base_movers;
        let mut out = Vec::new();
        let mut mid_peak = 0usize;
        for t in 1..=params.duration {
            s.tick(Timestamp(t), &mut out);
            let mid = params.duration / 2;
            if t.abs_diff(mid) < 10 {
                mid_peak = mid_peak.max(s.pop.movers());
            }
        }
        assert!(mid_peak > base, "no surge at midpoint: {mid_peak} <= {base}");
        assert!(s.peak_movers > base);
        // After the surge the mover count falls back to the base level.
        assert_eq!(s.pop.movers(), base);
    }

    #[test]
    fn hub_nodes_are_the_heaviest_crossroads() {
        let net = generate(NetworkParams::tiny(3));
        let hubs = RushHourSurgeScenario::hub_nodes(&net, 3);
        assert_eq!(hubs.len(), 3);
        let weight = |id: NodeId| -> f64 {
            net.incident(id).iter().map(|&l| net.link(l).class.weight()).sum()
        };
        let min_hub = hubs.iter().map(|&h| weight(h)).fold(f64::INFINITY, f64::min);
        for n in net.nodes() {
            if !hubs.contains(&n.id) {
                assert!(weight(n.id) <= min_hub + 1e-9);
            }
        }
    }

    #[test]
    fn evacuation_reroute_closes_arterials_and_tracks_no_violations() {
        let params = ScenarioParams { n: 120, ..ScenarioParams::quick(11) };
        let mut s = EvacuationRerouteScenario::new(&params);
        assert!(s.closures().closed_count() > 0, "no arterials to close");
        let mut out = Vec::new();
        for t in 1..=params.duration {
            s.tick(Timestamp(t), &mut out);
        }
        assert_eq!(s.violations, 0, "movers kept driving closed roads");
    }

    #[test]
    fn poisson_sampler_tracks_the_rate() {
        let mut rng = SmallRng::seed_from_u64(4);
        for &lambda in &[0.0, 2.5, 12.0, 80.0] {
            let n = 4000;
            let total: usize = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "poisson mean {mean} far from lambda {lambda}"
            );
        }
    }

    #[test]
    fn fault_window_membership_is_stable_and_tracks_the_fraction() {
        let w = FaultWindow {
            kind: FaultKind::Disconnect,
            from: Timestamp(10),
            until: Timestamp(20),
            fraction: 0.5,
            salt: 0xD15C,
        };
        assert!(!w.active(Timestamp(9)));
        assert!(w.active(Timestamp(10)));
        assert!(w.active(Timestamp(19)));
        assert!(!w.active(Timestamp(20)));
        // Membership is stable per (seed, object) and roughly tracks
        // the declared fraction.
        let n = 4000u64;
        let hit = (0..n).filter(|&i| w.selects(42, ObjectId(i))).count();
        assert!((hit as f64 / n as f64 - 0.5).abs() < 0.05, "hit rate {hit}/{n}");
        for i in 0..64 {
            assert_eq!(w.selects(42, ObjectId(i)), w.selects(42, ObjectId(i)));
        }
        // Different seeds pick different victim sets.
        let other = (0..n).filter(|&i| w.selects(43, ObjectId(i))).count();
        let overlap =
            (0..n).filter(|&i| w.selects(42, ObjectId(i)) && w.selects(43, ObjectId(i))).count();
        assert!(overlap < hit.min(other), "seeds 42 and 43 picked identical victims");
        // Edge fractions are exact.
        let all = FaultWindow { fraction: 1.0, ..w };
        let none = FaultWindow { fraction: 0.0, ..w };
        assert!((0..100).all(|i| all.selects(7, ObjectId(i))));
        assert!((0..100).all(|i| !none.selects(7, ObjectId(i))));
    }

    #[test]
    fn fault_scenarios_declare_windows_and_hints() {
        let params = ScenarioParams::quick(3);
        for name in ["mass_disconnect", "reconnect_storm", "slow_client_stall"] {
            let s = build(name, &params).expect("registered");
            let windows = s.fault_windows();
            assert!(!windows.is_empty(), "{name} declares no faults");
            assert!(s.admission().sessions_enabled(), "{name} must turn sessions on");
            for w in &windows {
                assert!(w.from < w.until, "{name}: empty fault window");
                assert!(w.until.raw() < params.duration, "{name}: window outlives the run");
                // The midpoint restore used by restart-parity checks
                // lands inside the first window (mid-storm restore).
                assert!(
                    w.from.raw() <= params.duration / 2 && params.duration / 2 < w.until.raw(),
                    "{name}: window [{}, {}) misses the midpoint restore",
                    w.from.raw(),
                    w.until.raw()
                );
                // The hotness window must cover disconnect outages so
                // paths survive to recover.
                if w.kind == FaultKind::Disconnect {
                    assert!(s.window_hint() > w.until.raw() - w.from.raw());
                }
            }
        }
        // Fault-free scenarios keep the defaults.
        let plain = build("sporting_event", &params).expect("registered");
        assert!(plain.fault_windows().is_empty());
        assert_eq!(plain.admission(), Admission::default());
    }

    #[test]
    fn outcome_epoch_lookup() {
        let sample = |t: u64| EpochSample {
            snap: Arc::new(HotSnapshot { timestamp: Timestamp(t), ..HotSnapshot::empty() }),
            reporting: 0,
            processing: Duration::ZERO,
            comm: CommStats::default(),
            dp_index_size: None,
            dp_score: None,
        };
        let outcome = ScenarioOutcome {
            per_epoch: vec![sample(5), sample(10), sample(15)],
            final_top_k: vec![(7, 2)],
            measurements: 10,
            reports: 3,
        };
        assert_eq!(outcome.epoch_at(Timestamp(9)).unwrap().snap.timestamp, Timestamp(10));
        assert_eq!(outcome.epoch_at(Timestamp(15)).unwrap().snap.timestamp, Timestamp(15));
        assert!(outcome.epoch_at(Timestamp(16)).is_none());
    }
}
