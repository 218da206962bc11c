//! The unified scenario subsystem: every workload that feeds the
//! hot-path pipeline is a [`Workload`] — a named, seeded generator of
//! per-tick measurement batches with invariants the driver can verify
//! after a run — built from a [`ScenarioSpec`].
//!
//! A spec is data, not code: the crowd (wandering, converging on a
//! venue, or fleeing the centroid — Section 1's two stories), an
//! optional hub surge, its overlays (a sensor dropout, arterial
//! closures, declared fault windows), its [`Admission`] knobs, and the
//! named checks run over the [`ScenarioOutcome`]. [`REGISTRY`] is the
//! table of built-in specs, each with a one-line summary;
//! `experiments scenario <name|all>` (hotpath-bench) and the integration
//! tests build them through [`build`]. A driver only needs `tick` +
//! `seed_timepoint` — exactly the interface the paper's evaluation loop
//! uses.
//!
//! Two silencing mechanisms stay distinct. A dropout removes
//! measurements inside [`Scenario::tick`], so nothing downstream — the
//! DP competitor included — ever sees them. A [`FaultWindow`] is only
//! declared here; the driver suppresses it after the DP competitor has
//! observed the raw batch.
//!
//! Outside the registry, [`Workload::uniform`] is the paper's Table 2
//! workload: the uniform weighted random walk behind Figures 7-10.

use crate::mobility::{ChoicePolicy, Measurement, Population, PopulationParams};
use crate::network::{generate, ClosureSet, LinkId, NetworkParams, NodeId, RoadClass, RoadNetwork};
use hotpath_core::config::Admission;
use hotpath_core::coordinator::HotSnapshot;
use hotpath_core::geometry::{Point, TimePoint};
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
    /// its score, Phase-B load, and the admission counters.
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
    /// return the client reconnects with a fresh filter.
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
    /// Ingest bound and degraded-epoch threshold this scenario's
    /// invariants assume. Both off by default.
    fn admission(&self) -> Admission {
        Admission::default()
    }
}

/// A fraction `num / den` of the run, resolved in integer arithmetic
/// so every schedule lands on the same tick at every scale.
#[derive(Clone, Copy, Debug)]
struct Frac(u64, u64);

impl Frac {
    /// The tick this fraction of a `duration`-tick run lands on.
    const fn of(self, duration: u64) -> u64 {
        duration * self.0 / self.1
    }
}

/// The population a spec walks: the paper's mobility defaults, drawn
/// from `seed + 1`, with this link choice and agility.
#[derive(Clone, Copy, Debug)]
struct Crowd {
    heading: Heading,
    agility: f64,
}

/// Where a crowd's walkers head at crossroads.
#[derive(Clone, Copy, Debug)]
enum Heading {
    /// Weighted wandering: the paper's rule.
    Wander,
    /// Toward a venue at the node nearest the map centroid (Section 1's
    /// targeted advertising): walkers funnel onto the arterials there.
    TowardVenue,
    /// Away from a danger at the map centroid (Section 1's emergency
    /// response): the popular escape routes heat up.
    AwayFromCentroid,
}

/// A time-varying load: over `[from, until)` mover `i` heads for hub
/// `i % hubs` of the heaviest crossroads, with Poisson draws from a
/// `SmallRng` seeded `seed + 2`; at `until` everyone wanders again.
#[derive(Clone, Copy, Debug)]
struct Surge {
    shape: SurgeShape,
    hubs: usize,
    from: Frac,
    until: Frac,
}

/// How a [`Surge`] sets the mover count.
#[derive(Clone, Copy, Debug)]
enum SurgeShape {
    /// A commuter rush: Poisson arrivals on top of the base load, the
    /// rate a triangle peaking at `n / 2` mid-surge (drawn every tick;
    /// rate 0 draws nothing).
    Triangle,
    /// A flash crowd: the whole fleet, less a Poisson flicker of rate
    /// `n / 20` drawn only inside the step.
    Step,
}

/// Something a spec lays over its crowd.
#[derive(Clone, Copy, Debug)]
enum Overlay {
    /// Every `stride`-th sensor goes dark over `[from, from + span)`: the
    /// measurements are discarded inside `tick`, before any client filter
    /// or the DP competitor sees them.
    Dropout { from: Frac, span: Frac, stride: u64 },
    /// Every motorway and highway closes at `at`.
    ArterialClosures { at: Frac },
    /// A declared [`FaultWindow`]: the driver suppresses it after the DP
    /// competitor has observed the raw batch.
    Fault { kind: FaultKind, from: Frac, until: Frac, fraction: f64, salt: u64 },
}

/// A named invariant over a run's [`ScenarioOutcome`]. Checks on a
/// dropout or closures read the spec's one overlay of that kind; fault
/// checks read its first fault window.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// Some client reported, the final top-k is non-empty and some epoch
    /// scored.
    Discovery,
    /// Some corridor was crossed at least twice.
    HottestAtLeastTwo,
    /// The surge raised the mover count above the base load.
    Surged,
    /// The top path at the dropout's start is still in the top-k when the
    /// sensors come back, and the score never collapses while they are
    /// dark.
    OutageStable,
    /// The dropout swallowed some measurement.
    Silenced,
    /// Something closed, and after the grace period no mover drove a
    /// closed link from a crossroad that still had an open exit.
    NoClosedLinkViolations,
    /// Some epoch from the closures' grace period on (clamped to the last
    /// epoch) still scores.
    Recovered,
    /// The top-k score never collapses while the fault is active, or
    /// (`to_end`) from its start to the end of the run.
    ScoreHeld { to_end: bool },
    /// Admission control turned something away or degraded some epoch.
    AdmissionEngaged,
    /// The last pre-fault top path is hot again within a window hint of
    /// the fault's end.
    PreStormTopKRecovered,
}

/// A registry row: everything that distinguishes one workload from
/// another, as data. [`Workload::new`] builds it at a given scale.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Stable scenario name (CLI argument).
    pub name: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    crowd: Crowd,
    surge: Option<Surge>,
    overlays: &'static [Overlay],
    /// Ingest bound and degraded-epoch threshold at a given scale.
    admission: fn(&ScenarioParams) -> Admission,
    /// The shortest sliding window the checks assume; dropouts and
    /// disconnects stretch it (see [`Workload::new`]).
    min_window: u64,
    /// The invariants, checked in order.
    checks: &'static [Check],
}

/// Admission and degradation both off.
fn no_admission(_: &ScenarioParams) -> Admission {
    Admission::default()
}

/// The crowd converging on the venue: most of it walks toward the gates.
const TOWARD_VENUE: Crowd = Crowd { heading: Heading::TowardVenue, agility: 0.5 };
/// The evacuating crowd: hurried, nearly everyone moves every tick.
const AWAY_FROM_CENTROID: Crowd = Crowd { heading: Heading::AwayFromCentroid, agility: 0.6 };
/// An off-peak trickle of wanderers that a surge raises.
const OFF_PEAK: Crowd = Crowd { heading: Heading::Wander, agility: 0.1 };

/// The surge over the middle 40 % of the run.
const fn surge(shape: SurgeShape, hubs: usize) -> Option<Surge> {
    Some(Surge { shape, hubs, from: Frac(3, 10), until: Frac(7, 10) })
}

/// The paper's Table 2 walk, built by [`Workload::uniform`] with the
/// caller's mobility in place of `crowd`, and the row every registry
/// entry starts from: no surge, no overlays, the discovery floor only.
/// Deliberately not in [`REGISTRY`]: the Figure 7/8 sweeps already run
/// it at every scale, so a registry row would only repeat that work in
/// every registry loop — the CI scenario matrix, the every-scenario
/// tests, restart parity, and the determinism proptest.
const UNIFORM: ScenarioSpec = ScenarioSpec {
    name: "uniform",
    summary: "the paper's Table 2 uniform weighted random walk",
    crowd: OFF_PEAK,
    surge: None,
    overlays: &[],
    admission: no_admission,
    min_window: 40,
    checks: &[Check::Discovery],
};

/// Every built-in scenario, in presentation order.
pub const REGISTRY: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "sporting_event",
        summary: "crowd converging on a venue along weighted arterials",
        crowd: TOWARD_VENUE,
        checks: &[Check::Discovery, Check::HottestAtLeastTwo],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "evacuation",
        summary: "crowd fleeing a danger point along popular escape routes",
        crowd: AWAY_FROM_CENTROID,
        ..UNIFORM
    },
    ScenarioSpec {
        name: "sensor_dropout",
        summary: "converging crowd with a mid-run sensor outage window",
        crowd: TOWARD_VENUE,
        // Every other sensor goes dark over the middle of the run, for
        // less than the sliding window, so pre-outage crossings keep the
        // hot set alive.
        overlays: &[Overlay::Dropout { from: Frac(8, 15), span: Frac(1, 6), stride: 2 }],
        min_window: 60,
        checks: &[Check::Discovery, Check::OutageStable],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "rush_hour_surge",
        summary: "time-varying Poisson commuter surge concentrated on hub vertices",
        surge: surge(SurgeShape::Triangle, 3),
        checks: &[Check::Discovery, Check::Surged],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "flash_crowd",
        summary: "whole fleet stampedes into one hub cell, the Phase-B-dominated hub load",
        surge: surge(SurgeShape::Step, 1),
        checks: &[Check::Discovery, Check::Surged],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "evacuation_reroute",
        summary: "evacuation with mid-run arterial closures forcing path churn",
        crowd: AWAY_FROM_CENTROID,
        overlays: &[Overlay::ArterialClosures { at: Frac(2, 5) }],
        checks: &[Check::Discovery, Check::NoClosedLinkViolations, Check::Recovered],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "surge_dropout",
        summary: "composite: rush-hour surge with a mid-surge sensor outage window",
        surge: surge(SurgeShape::Triangle, 3),
        // The outage lands at the surge's peak and silences every third
        // sensor — short enough that the window keeps the corridors hot.
        overlays: &[Overlay::Dropout { from: Frac(1, 2), span: Frac(1, 8), stride: 3 }],
        checks: &[Check::Discovery, Check::Surged, Check::Silenced],
        ..UNIFORM
    },
    // The fault stories ride the converging crowd (one corridor stays
    // reliably hot, so fault effects are attributable). Each window
    // straddles the run midpoint, so a restart-parity check (restore at
    // `duration / 2`) lands mid-storm.
    ScenarioSpec {
        name: "mass_disconnect",
        summary: "half the fleet vanishes mid-run, then returns with fresh filters",
        crowd: TOWARD_VENUE,
        overlays: &[fault(FaultKind::Disconnect, Frac(9, 20), Frac(13, 20), 0.5, 0xD15C)],
        checks: &[Check::Discovery, Check::ScoreHeld { to_end: false }],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "reconnect_storm",
        summary: "the whole fleet drops briefly and reconnects at once, hammering admission",
        crowd: TOWARD_VENUE,
        overlays: &[fault(FaultKind::Disconnect, Frac(9, 20), Frac(11, 20), 1.0, 0x5707)],
        admission: |p| Admission {
            queue_cap: (p.n / 4).max(64),
            degrade_threshold: (p.n / 6).max(48),
        },
        checks: &[Check::Discovery, Check::AdmissionEngaged, Check::PreStormTopKRecovered],
        ..UNIFORM
    },
    ScenarioSpec {
        name: "slow_client_stall",
        summary: "a quarter of the fleet stalls silently under an ingest cap; service continues",
        crowd: TOWARD_VENUE,
        // The stall runs for 40% of the run but 75% of the fleet keeps
        // the corridor hot, so it does not stretch the window hint.
        overlays: &[fault(FaultKind::Stall, Frac(2, 5), Frac(4, 5), 0.25, 0x51A1)],
        admission: |p| Admission { queue_cap: (p.n / 5).max(48), ..Admission::default() },
        checks: &[Check::Discovery, Check::ScoreHeld { to_end: true }],
        ..UNIFORM
    },
];

/// A fault overlay over `[from, until)` hitting `fraction` of the fleet.
const fn fault(kind: FaultKind, from: Frac, until: Frac, fraction: f64, salt: u64) -> Overlay {
    Overlay::Fault { kind, from, until, fraction, salt }
}

/// Looks up a registry row by name.
pub fn spec(name: &str) -> Option<&'static ScenarioSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Builds a registered scenario by name at the given scale.
pub fn build(name: &str, params: &ScenarioParams) -> Option<Box<dyn Scenario>> {
    spec(name).map(|s| Box::new(Workload::new(s, params)) as Box<dyn Scenario>)
}

/// The node closest to a point (e.g. to place a venue near the center).
pub fn nearest_node(net: &RoadNetwork, p: Point) -> NodeId {
    net.nodes()
        .iter()
        .min_by(|a, b| a.pos.dist_l2(&p).total_cmp(&b.pos.dist_l2(&p)))
        .expect("non-empty network")
        .id
}

/// The `k` nodes with the largest incident link weight (degree weighted
/// by road class) — the arterial interchanges commuters funnel through.
/// Ties break toward the smaller id.
fn hub_nodes(net: &RoadNetwork, k: usize) -> Vec<NodeId> {
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

/// A sensor-dropout window: between `from` (inclusive) and `until`
/// (exclusive) every `stride`-th object's sensor goes dark and reports
/// nothing. Hot-path discovery should ride it out — crossings recorded
/// before the outage stay in the sliding window, so the top-k keeps
/// naming the popular corridors while a slice of the fleet is silent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// A [`Surge`] in progress.
struct HubSurge {
    shape: SurgeShape,
    /// Positions of the hub vertices the surge converges on.
    hubs: Vec<Point>,
    rng: SmallRng,
    from: u64,
    until: u64,
    /// Movers before and outside the surge.
    base_movers: usize,
    /// Largest concurrent mover count observed (ground truth for
    /// [`Check::Surged`]).
    peak_movers: usize,
}

impl HubSurge {
    /// Retargets the crowd at the surge edges and sets this tick's
    /// mover count.
    fn drive(&mut self, pop: &mut Population, t: u64, n: usize) {
        let surging = self.from <= t && t < self.until;
        if t == self.from {
            // The rush begins: every object heads for a hub.
            let hubs = &self.hubs;
            pop.retarget(|obj| Some(ChoicePolicy::Toward(hubs[obj.0 as usize % hubs.len()])));
        }
        if t == self.until {
            // Surge over: back to undirected weighted wandering.
            pop.retarget(|_| Some(ChoicePolicy::default()));
        }
        let movers = match self.shape {
            SurgeShape::Triangle => {
                // 0 at the surge edges, n / 2 at its midpoint.
                let half = (self.until - self.from).max(1) as f64 / 2.0;
                let dist = (t as f64 - (self.from as f64 + half)).abs() / half;
                let rate = if surging { (1.0 - dist).max(0.0) * n as f64 * 0.5 } else { 0.0 };
                (self.base_movers + poisson(&mut self.rng, rate)).min(n)
            }
            SurgeShape::Step if surging => {
                let flicker = poisson(&mut self.rng, (n / 20) as f64);
                n.saturating_sub(flicker).max(self.base_movers)
            }
            SurgeShape::Step => self.base_movers,
        };
        pop.set_movers(movers);
        self.peak_movers = self.peak_movers.max(movers);
    }
}

/// [`Overlay::ArterialClosures`] in force.
struct Closures {
    closed: ClosureSet,
    at: u64,
    /// First tick by which every mover has had time to finish the link
    /// it was on when the closures landed.
    grace_until: u64,
    /// Movers seen on a closed link after the grace period, at a
    /// crossroad that still had an open exit (must stay zero).
    violations: usize,
}

impl Closures {
    fn new(net: &RoadNetwork, at: u64, displacement: f64) -> Self {
        let mut closed = ClosureSet::none(net);
        for l in net.links() {
            if matches!(l.class, RoadClass::Motorway | RoadClass::Highway) {
                closed.close(l.id);
            }
        }
        // Longest link over the walkers' displacement, plus slack.
        let max_link =
            (0..net.link_count()).map(|i| net.link_length(LinkId(i as u32))).fold(0.0f64, f64::max);
        let grace = (max_link / displacement).ceil() as u64 + 2;
        Closures { closed, at, grace_until: at + grace, violations: 0 }
    }

    /// Counts the movers driving a closed link although they came
    /// through a crossroad with an open exit.
    fn count_violations(&mut self, net: &RoadNetwork, pop: &Population) {
        let closed = &self.closed;
        let sealed = |node: NodeId| net.incident(node).iter().all(|&x| closed.is_closed(x));
        self.violations += (0..pop.movers() as u64)
            .map(ObjectId)
            .filter(|&obj| closed.is_closed(pop.walker_link(obj)))
            .map(|obj| net.link(pop.walker_link(obj)))
            .filter(|l| !sealed(l.a) && !sealed(l.b))
            .count();
    }
}

/// The one scenario type: a [`ScenarioSpec`] built at a scale. It owns
/// its network, population and event schedule (surge, dropout,
/// closures), declares its fault windows and admission knobs, and
/// checks the spec's invariants against what the driver observed.
pub struct Workload {
    spec: &'static ScenarioSpec,
    params: ScenarioParams,
    net: RoadNetwork,
    pop: Population,
    surge: Option<HubSurge>,
    dropout: Option<DropoutWindow>,
    /// Measurements the dropout swallowed (ground truth for
    /// [`Check::Silenced`]).
    dropped: u64,
    closures: Option<Closures>,
    faults: Vec<FaultWindow>,
    admission: Admission,
    window_hint: u64,
}

impl Workload {
    /// Builds `spec` at the given scale: the crowd on
    /// `generate(params.network)`, drawing from `seed + 1`. The window
    /// hint is the spec's minimum, stretched to outlast its longest
    /// dropout or [`FaultKind::Disconnect`] window by 10 ticks.
    pub fn new(spec: &'static ScenarioSpec, params: &ScenarioParams) -> Self {
        let net = generate(params.network);
        let policy = match spec.crowd.heading {
            Heading::Wander => ChoicePolicy::default(),
            Heading::TowardVenue => {
                ChoicePolicy::Toward(net.node(nearest_node(&net, net.bounds().centroid())).pos)
            }
            Heading::AwayFromCentroid => ChoicePolicy::Away(net.bounds().centroid()),
        };
        let crowd = PopulationParams {
            policy,
            agility: spec.crowd.agility,
            ..PopulationParams::paper_defaults(params.n, params.seed.wrapping_add(1))
        };
        Workload::assemble(spec, params, net, crowd)
    }

    /// The paper's Table 2 workload (Section 6.1): objects random-walk
    /// the network choosing links by road weight, a fraction `alpha` of
    /// them in motion, with uniform measurement noise `err`. The mobility
    /// knobs the evaluation varies — agility, displacement, err, and the
    /// link-choice policy — come from `mobility`; `n` and the seed come
    /// from `params` (the population draws from `seed + 1`). Its only
    /// check is the discovery floor.
    pub fn uniform(params: &ScenarioParams, mobility: PopulationParams) -> Self {
        let net = generate(params.network);
        let crowd = PopulationParams { n: params.n, seed: params.seed.wrapping_add(1), ..mobility };
        Workload::assemble(&UNIFORM, params, net, crowd)
    }

    /// Table 2 at test scale: the tiny network, 100 timestamps, and the
    /// paper's mobility defaults.
    pub fn uniform_quick(n: usize, seed: u64) -> Self {
        Workload::uniform(
            &ScenarioParams { n, seed, duration: 100, network: NetworkParams::tiny(seed) },
            PopulationParams::paper_defaults(n, seed),
        )
    }

    fn assemble(
        spec: &'static ScenarioSpec,
        params: &ScenarioParams,
        net: RoadNetwork,
        crowd: PopulationParams,
    ) -> Self {
        let d = params.duration;
        let pop = Population::new(&net, crowd);
        let surge = spec.surge.map(|s| HubSurge {
            shape: s.shape,
            hubs: hub_nodes(&net, s.hubs).into_iter().map(|h| net.node(h).pos).collect(),
            rng: SmallRng::seed_from_u64(params.seed.wrapping_add(2)),
            from: s.from.of(d),
            until: s.until.of(d),
            base_movers: pop.movers(),
            peak_movers: pop.movers(),
        });
        let (mut dropout, mut closures, mut faults) = (None, None, Vec::new());
        for overlay in spec.overlays {
            match *overlay {
                Overlay::Dropout { from, span, stride } => {
                    let (from, until) = (from.of(d), from.of(d) + span.of(d));
                    dropout = Some(DropoutWindow::new(Timestamp(from), Timestamp(until), stride));
                }
                Overlay::ArterialClosures { at } => {
                    closures = Some(Closures::new(&net, at.of(d), pop.params().displacement));
                }
                Overlay::Fault { kind, from, until, fraction, salt } => faults.push(FaultWindow {
                    kind,
                    from: Timestamp(from.of(d)),
                    until: Timestamp(until.of(d)),
                    fraction,
                    salt,
                }),
            }
        }
        // The hotness window outlasts every silence that takes whole
        // clients away by 10 ticks, so the hot paths survive it and
        // recover in place. A stall leaves most of the fleet reporting.
        let dark = dropout.iter().map(|w| w.until.raw() - w.from.raw());
        let gone = faults.iter().filter(|w| w.kind == FaultKind::Disconnect);
        let window_hint = dark
            .chain(gone.map(|w| w.until.raw() - w.from.raw()))
            .fold(spec.min_window, |hint, len| hint.max(len + 10));
        Workload {
            spec,
            params: *params,
            net,
            pop,
            surge,
            dropout,
            dropped: 0,
            closures,
            faults,
            admission: (spec.admission)(params),
            window_hint,
        }
    }

    /// The sensor dropout in force, if the spec has one.
    pub fn dropout(&self) -> Option<DropoutWindow> {
        self.dropout
    }

    /// The first declared fault window.
    fn fault(&self) -> Result<FaultWindow, &'static str> {
        self.faults.first().copied().ok_or("no fault declared")
    }

    /// Evaluates one named check; the caller prefixes the spec's name.
    fn check(&self, check: Check, outcome: &ScenarioOutcome) -> Result<(), String> {
        let last = || outcome.per_epoch.last().map(|e| &e.snap).ok_or("no epochs observed");
        match check {
            Check::Discovery => {
                ensure(outcome.reports > 0, || "no client ever reported".into())?;
                ensure(!outcome.final_top_k.is_empty(), || "empty final top-k".into())?;
                let scored = outcome.per_epoch.iter().any(|e| e.snap.top_k_score > 0.0);
                ensure(scored, || "top-k never scored".into())?;
            }
            Check::HottestAtLeastTwo => {
                let hottest = outcome.final_top_k.first().map_or(0, |&(_, h)| h);
                ensure(hottest >= 2, || format!("no corridor heated up (hottest {hottest})"))?;
            }
            Check::Surged => {
                let s = self.surge.as_ref().ok_or("no surge declared")?;
                ensure(s.peak_movers > s.base_movers, || {
                    format!("surge never rose above the base load ({} movers)", s.base_movers)
                })?;
            }
            Check::OutageStable => {
                let w = self.dropout.ok_or("no dropout declared")?;
                let at_start = outcome.epoch_at(w.from).ok_or("no epoch at outage start")?;
                let top_start = at_start.top_ids().next().ok_or("empty top-k at outage start")?;
                let at_end = outcome.epoch_at(w.until).ok_or("no epoch after outage end")?;
                ensure(at_end.top_ids().any(|id| id == top_start), || {
                    format!(
                        "pre-outage top path {top_start} fell out of the post-outage top-k {:?}",
                        at_end.top_ids().collect::<Vec<_>>()
                    )
                })?;
                for e in &outcome.per_epoch {
                    let t = e.snap.timestamp;
                    let dark = w.from <= t && t <= w.until;
                    ensure(!dark || e.snap.top_k_score > 0.0, || {
                        format!("top-k score collapsed during the outage (t={t:?})")
                    })?;
                }
            }
            Check::Silenced => {
                ensure(self.dropped > 0, || "the dropout window never silenced a sensor".into())?;
            }
            Check::NoClosedLinkViolations => {
                let c = self.closures.as_ref().ok_or("nothing closes")?;
                ensure(c.closed.closed_count() > 0, || "nothing was closed".into())?;
                ensure(c.violations == 0, || {
                    format!("{} mover-ticks on closed links after the grace period", c.violations)
                })?;
            }
            Check::Recovered => {
                // On large networks the longest link can push the grace
                // period to the end of the run, so the checkpoint clamps
                // to the final epoch: the pipeline must at minimum
                // survive the closures to the finish line.
                let c = self.closures.as_ref().ok_or("nothing closes")?;
                let from = c.grace_until.min(last()?.timestamp.raw());
                let recovered = outcome
                    .per_epoch
                    .iter()
                    .any(|e| e.snap.timestamp.raw() >= from && e.snap.top_k_score > 0.0);
                ensure(recovered, || "top-k never recovered after the closures".into())?;
            }
            Check::ScoreHeld { to_end } => {
                let w = self.fault()?;
                let held = |t: Timestamp| if to_end { t >= w.from } else { w.active(t) };
                for e in outcome.per_epoch.iter().filter(|e| held(e.snap.timestamp)) {
                    ensure(e.snap.top_k_score > 0.0, || {
                        format!(
                            "top-k score collapsed under the fault at t={}",
                            e.snap.timestamp.raw()
                        )
                    })?;
                }
            }
            Check::AdmissionEngaged => {
                let a = &last()?.admission;
                ensure(a.ejected + a.degraded_epochs > 0, || {
                    "admission control never engaged".into()
                })?;
            }
            Check::PreStormTopKRecovered => {
                let w = self.fault()?;
                let target = outcome
                    .per_epoch
                    .iter()
                    .rev()
                    .filter(|e| e.snap.timestamp < w.from)
                    .find_map(|e| e.top_ids().next())
                    .ok_or("no pre-storm top-k to recover")?;
                let deadline = w.until.raw() + self.window_hint;
                let recovered = outcome.per_epoch.iter().any(|e| {
                    e.snap.timestamp >= w.until
                        && e.snap.timestamp.raw() <= deadline
                        && e.top_ids().any(|id| id == target)
                });
                ensure(recovered, || {
                    format!("pre-storm top path {target} not hot again by t={deadline}")
                })?;
            }
        }
        Ok(())
    }
}

/// `Ok` when `holds`, else the failure `why`.
fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

impl Scenario for Workload {
    fn name(&self) -> &'static str {
        self.spec.name
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
        self.window_hint
    }
    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        self.pop.seed_timepoint(&self.net, obj, t)
    }
    fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        let raw = t.raw();
        if let Some(s) = &mut self.surge {
            s.drive(&mut self.pop, raw, self.params.n);
        }
        let closed = self.closures.as_ref().filter(|c| raw >= c.at).map(|c| &c.closed);
        self.pop.tick_avoiding(&self.net, t, closed, out);
        if let Some(c) = self.closures.as_mut().filter(|c| raw >= c.grace_until) {
            c.count_violations(&self.net, &self.pop);
        }
        if let Some(w) = self.dropout {
            let before = out.len();
            out.retain(|m| !w.drops(m.object, t));
            self.dropped += (before - out.len()) as u64;
        }
    }
    fn check_invariants(&self, outcome: &ScenarioOutcome) -> Result<(), String> {
        let name = self.spec.name;
        self.spec
            .checks
            .iter()
            .try_for_each(|&c| self.check(c, outcome).map_err(|why| format!("{name}: {why}")))
    }
    fn fault_windows(&self) -> Vec<FaultWindow> {
        self.faults.clone()
    }
    fn admission(&self) -> Admission {
        self.admission
    }
}

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

    /// Mean distance of `name`'s crowd from `p` over the first and the
    /// last 20 of `duration` ticks, on the tiny network of `seed`.
    fn drift(name: &str, seed: u64, duration: u64, p: fn(&RoadNetwork) -> Point) -> (f64, f64) {
        let params = ScenarioParams { n: 100, seed, duration, network: NetworkParams::tiny(seed) };
        let mut s = Workload::new(spec(name).unwrap(), &params);
        let p = p(&s.net);
        let (mut first, mut last, mut out) = (0.0, 0.0, Vec::new());
        for t in 1..=duration {
            s.tick(Timestamp(t), &mut out);
            let mean =
                out.iter().map(|m| m.truth.dist_l2(&p)).sum::<f64>() / out.len().max(1) as f64;
            if t <= 20 {
                first += mean;
            }
            if t > duration - 20 {
                last += mean;
            }
        }
        (first, last)
    }

    #[test]
    fn sporting_event_crowd_converges() {
        let venue = |net: &RoadNetwork| net.node(nearest_node(net, net.bounds().centroid())).pos;
        let (first, last) = drift("sporting_event", 2, 400, venue);
        assert!(last < first * 0.8, "crowd did not converge: first {first}, last {last}");
    }

    #[test]
    fn evacuation_crowd_disperses() {
        let (first, last) = drift("evacuation", 4, 300, |net| net.bounds().centroid());
        assert!(last > first, "crowd did not flee: first {first}, last {last}");
    }

    #[test]
    fn uniform_scenario_streams_the_table2_population() {
        let params = ScenarioParams { n: 80, ..ScenarioParams::quick(21) };
        let mobility = PopulationParams { agility: 0.4, ..PopulationParams::paper_defaults(0, 0) };
        let mut uniform = Workload::uniform(&params, mobility);
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
        // The golden table names every scenario once, the walk first.
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        assert!(GOLDEN_STREAMS[1..].iter().map(|&(name, _)| name).eq(names.iter().copied()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate scenario names");
        assert!(names.iter().all(|name| spec(name).is_some()));
        assert!(spec("no_such_scenario").is_none());
    }

    #[test]
    fn dropout_overlay_silences_the_windowed_sensors_and_delegates() {
        let params = ScenarioParams { n: 90, ..ScenarioParams::quick(13) };
        let mut composite = build("surge_dropout", &params).expect("registered composite");
        assert_eq!(composite.name(), "surge_dropout");
        assert_eq!(composite.n(), 90);
        let mut bare = Workload::new(spec("rush_hour_surge").unwrap(), &params);
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

    /// Every check reports under the spec's own name: a composite that
    /// shares the surge's checks must not fail as `rush_hour_surge`.
    #[test]
    fn surge_dropout_failures_carry_its_name() {
        let s = build("surge_dropout", &ScenarioParams::quick(1)).expect("registered");
        let err = s.check_invariants(&ScenarioOutcome::default()).unwrap_err();
        assert!(err.starts_with("surge_dropout:"), "{err}");
    }

    #[test]
    fn every_registered_scenario_builds_and_ticks() {
        let params = ScenarioParams { n: 60, ..ScenarioParams::quick(5) };
        let mut out = Vec::new();
        for s in REGISTRY {
            let mut scenario = Workload::new(s, &params);
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
    fn rush_hour_surge_raises_and_releases_load() {
        let params = ScenarioParams { n: 200, ..ScenarioParams::quick(9) };
        let mut s = Workload::new(spec("rush_hour_surge").unwrap(), &params);
        let base = s.surge.as_ref().unwrap().base_movers;
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
        assert!(s.surge.as_ref().unwrap().peak_movers > base);
        // After the surge the mover count falls back to the base level.
        assert_eq!(s.pop.movers(), base);
    }

    #[test]
    fn hub_nodes_are_the_heaviest_crossroads() {
        let net = generate(NetworkParams::tiny(3));
        let hubs = hub_nodes(&net, 3);
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
        let mut s = Workload::new(spec("evacuation_reroute").unwrap(), &params);
        assert!(s.closures.as_ref().unwrap().closed.closed_count() > 0, "no arterials to close");
        let mut out = Vec::new();
        for t in 1..=params.duration {
            s.tick(Timestamp(t), &mut out);
        }
        assert_eq!(s.closures.as_ref().unwrap().violations, 0, "movers kept driving closed roads");
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

    /// Folds a workload into one word: its declarations (window hint,
    /// fault windows, admission), the seed timepoints of the first 16
    /// objects, then every `(object, observed.p, truth)` of the whole
    /// run with each tick's batch length.
    fn stream_hash(s: &mut dyn Scenario) -> u64 {
        let mut words = vec![s.window_hint()];
        for w in s.fault_windows() {
            words.extend([
                w.kind as u64,
                w.from.raw(),
                w.until.raw(),
                w.fraction.to_bits(),
                w.salt,
            ]);
        }
        let a = s.admission();
        words.push(a.queue_cap as u64);
        words.push(a.degrade_threshold as u64);
        for i in 0..16 {
            let p = s.seed_timepoint(ObjectId(i), Timestamp(0)).p;
            words.extend([p.x.to_bits(), p.y.to_bits()]);
        }
        let mut out = Vec::new();
        for t in 1..=s.duration() {
            s.tick(Timestamp(t), &mut out);
            words.push(out.len() as u64);
            for m in &out {
                let (o, tr) = (m.observed.p, m.truth);
                words.extend([
                    m.object.0,
                    o.x.to_bits(),
                    o.y.to_bits(),
                    tr.x.to_bits(),
                    tr.y.to_bits(),
                ]);
            }
        }
        words.into_iter().fold(0, |h, x| splitmix(h ^ x))
    }

    /// Every stream at `ScenarioParams::quick(seed)` for seeds 7 and
    /// 2015, hashed by [`stream_hash`]. A refactor that moves one RNG
    /// draw moves the hash.
    const GOLDEN_STREAMS: &[(&str, [u64; 2])] = &[
        ("uniform", [0x67725b9627e3fa4d, 0x45fa7eadbca04041]),
        ("sporting_event", [0x8ea9d000e3ae2946, 0x6aad981c1c9e05ff]),
        ("evacuation", [0x4b607d0bb69ccdc1, 0x5ad80320b292a326]),
        ("sensor_dropout", [0xcd766afea94d57f5, 0x2aa3d517dea4479b]),
        ("rush_hour_surge", [0x78a71389785f27e3, 0x58e8cd60f949ab99]),
        ("flash_crowd", [0xd01135fa5191fde9, 0x3034794f302ff666]),
        ("evacuation_reroute", [0xe64204d1bb2e0973, 0xfcb1c740af6863f3]),
        ("surge_dropout", [0x4c2d65b554e74703, 0x3af83617d458baf3]),
        ("mass_disconnect", [0x8fd297f90b5842bd, 0xf243641d55507553]),
        ("reconnect_storm", [0xcc200d772308b5a5, 0x0ea0ba7cbbdb3339]),
        ("slow_client_stall", [0x95ec30c46b753db5, 0x521890d443569a05]),
    ];

    #[test]
    fn every_stream_matches_its_golden_hash() {
        let mobility = PopulationParams::paper_defaults(0, 0);
        let mut got = Vec::new();
        for name in std::iter::once("uniform").chain(REGISTRY.iter().map(|s| s.name)) {
            let hashes = [7u64, 2015].map(|seed| {
                let params = ScenarioParams::quick(seed);
                match build(name, &params) {
                    Some(mut s) => stream_hash(s.as_mut()),
                    None => stream_hash(&mut Workload::uniform(&params, mobility)),
                }
            });
            got.push((name, hashes));
        }
        assert_eq!(got, GOLDEN_STREAMS, "stream hashes moved");
    }
}
