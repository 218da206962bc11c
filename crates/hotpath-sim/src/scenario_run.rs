//! The run driver: runs any [`Scenario`] — a registered workload or the
//! paper's Table 2 walk ([`Workload::uniform`]) — through the full client-filter
//! and coordinator pipeline, records each epoch's published snapshot
//! with the driver's own per-epoch columns, verifies the scenario's
//! invariants, and sweeps the `(sigma, FallbackPolicy)` uncertainty
//! grid. Section 3.2's protocol is the
//! same whatever the workload: clients filter, escaping states go up,
//! and endpoints come back at the epoch boundary.
//!
//! Crisp mode (`sigma = 0`) feeds the scenario's own measurements
//! (population noise included) through [`RayTraceFilter`]s.
//! Uncertain mode (`sigma > 0`) replaces the sensor model: each true
//! position is re-measured by a Gaussian device with the given sigma and
//! flows through [`UncertainRayTraceFilter`]s, so one scenario exercises
//! the whole Section 4.1 machinery — including both fallback policies.
//! With [`ScenarioRunParams::dp`] the DP competitor observes the same raw
//! stream (Figures 7 and 8).
//!
//! [`Workload::uniform`]: hotpath_netsim::scenario::Workload::uniform

use crate::fault::FaultPlan;
use crate::metrics::Summary;
use hotpath_baseline::{DpHotSegments, EndpointPolicy};
use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::geometry::TimePoint;
use hotpath_core::raytrace::{ClientState, FilterStats, RayTraceFilter, UncertainRayTraceFilter};
use hotpath_core::stats::CommStats;
use hotpath_core::strategy::OverlapPolicy;
use hotpath_core::time::Timestamp;
use hotpath_core::uncertainty::{FallbackPolicy, ToleranceTable2D};
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::{GaussianNoise, Measurement};
use hotpath_netsim::scenario::{
    build, EpochSample, FaultKind, Scenario, ScenarioOutcome, ScenarioParams,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Driver knobs; defaults mirror the scenario integration tests.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioRunParams {
    /// Tolerance `eps` in meters.
    pub eps: f64,
    /// Failure probability `delta` of the `(eps, delta)` tolerance
    /// (uncertain mode only).
    pub delta: f64,
    /// Gaussian sensor sigma; `0` runs the crisp pipeline.
    pub sigma: f64,
    /// What to do with unsolvably noisy measurements (uncertain mode).
    pub fallback: FallbackPolicy,
    /// Sliding window `W`; `None` uses the scenario's hint.
    pub window: Option<u64>,
    /// Epoch length.
    pub epoch: u64,
    /// Top-k size.
    pub k: usize,
    /// Seed for the driver's Gaussian re-measurement device (kept apart
    /// from the scenario seed so noise and workload vary independently).
    pub noise_seed: u64,
    /// Seed for fault-victim selection when the scenario declares
    /// [`hotpath_netsim::scenario::FaultWindow`]s; runs are
    /// deterministic per seed.
    pub fault_seed: u64,
    /// Run the DP competitor (`nopw` endpoints) on the same raw stream.
    pub dp: bool,
    /// The Cases-2/3 overlap ablation. `Own` runs the core with
    /// `degrade_threshold(1)`, so every epoch with more than one state
    /// is degraded to `Own`; this equals `Own` on every epoch bit for
    /// bit. An epoch with one state runs `Full`, and its FSA
    /// neighbourhood is its own rect:
    /// * every available vertex gets the same +1 stab boost, so their
    ///   order is unchanged;
    /// * a generated region has depth 1, so it beats an existing vertex
    ///   only when none exists, and is then the FSA itself, whose
    ///   centroid is the vertex `Own` mints.
    ///
    /// Under `Own` that centroid has rank 1, and every stored path has
    /// hotness ≥ 1 (a path leaves the table when its count reaches 0),
    /// so any existing vertex ties or beats it and the tie goes to the
    /// existing vertex. Both rules pick the same vertex.
    pub overlap: OverlapPolicy,
}

impl Default for ScenarioRunParams {
    fn default() -> Self {
        ScenarioRunParams {
            eps: 10.0,
            delta: 0.05,
            sigma: 0.0,
            fallback: FallbackPolicy::Reject,
            window: None,
            epoch: 5,
            k: 10,
            noise_seed: 0x5eed,
            fault_seed: FaultPlan::DEFAULT_SEED,
            dp: false,
            overlap: OverlapPolicy::Full,
        }
    }
}

impl ScenarioRunParams {
    /// The paper's Table 2 driver knobs: `eps = 10`, `W = 100`, epoch
    /// `= 10`, `k = 10`, with the DP competitor on the same stream.
    pub fn table2() -> Self {
        ScenarioRunParams { window: Some(100), epoch: 10, dp: true, ..ScenarioRunParams::default() }
    }

    /// The core [`Config`] for `scenario` under these knobs, with the
    /// scenario's [`Scenario::admission`] knobs (admission bound,
    /// degrade threshold) applied; the ones it leaves
    /// at zero stay off. The `Own` ablation then sets the degrade
    /// threshold to 1 (see [`ScenarioRunParams::overlap`]). Panics when
    /// the combination does not validate.
    pub fn config(&self, scenario: &dyn Scenario) -> Config {
        let admission = scenario.admission();
        let mut builder = Config::builder()
            .tolerance(if self.sigma > 0.0 {
                Tolerance::uncertain(self.eps, self.delta)
            } else {
                Tolerance::crisp(self.eps)
            })
            .window(self.window.unwrap_or_else(|| scenario.window_hint()))
            .epoch(self.epoch)
            .k(self.k);
        if admission.queue_cap > 0 {
            builder = builder.admission_cap(admission.queue_cap);
        }
        if admission.degrade_threshold > 0 {
            builder = builder.degrade_threshold(admission.degrade_threshold);
        }
        if self.overlap == OverlapPolicy::Own {
            builder = builder.degrade_threshold(1);
        }
        builder.build().unwrap_or_else(|e| panic!("{}: {e}", scenario.name()))
    }
}

/// Everything a scenario run produces.
pub struct ScenarioRunResult {
    /// The per-epoch series (DP columns set when the competitor runs)
    /// and the other observations handed to the invariant hook.
    pub outcome: ScenarioOutcome,
    /// Aggregates over the run.
    pub summary: Summary,
    /// The scenario's verdict on its own invariants.
    pub invariants: Result<(), String>,
    /// Aggregate client-filter statistics (incl. drops under
    /// [`FallbackPolicy::Reject`]).
    pub filter_stats: FilterStats,
    /// Final coordinator state.
    pub coordinator: Coordinator,
    /// Final DP competitor state (when [`ScenarioRunParams::dp`]).
    pub dp: Option<DpHotSegments>,
}

/// One client filter: crisp or uncertain.
enum Client {
    Crisp(RayTraceFilter),
    Uncertain(UncertainRayTraceFilter),
}

impl Client {
    /// Builds one client filter (the initial fleet and every reconnect
    /// go through here, so a reconnected client is indistinguishable
    /// from a freshly joined one).
    fn fresh(
        table: &Option<ToleranceTable2D>,
        eps: f64,
        obj: ObjectId,
        seed_tp: TimePoint,
    ) -> Client {
        match table {
            Some(t) => Client::Uncertain(UncertainRayTraceFilter::new(obj, seed_tp, t.clone())),
            None => Client::Crisp(RayTraceFilter::new(obj, seed_tp, eps)),
        }
    }

    fn receive(&mut self, resp: &EndpointResponse) -> Option<ClientState> {
        match self {
            Client::Crisp(f) => f.receive_endpoint(resp.endpoint),
            Client::Uncertain(f) => f.receive_endpoint(resp.endpoint),
        }
    }

    fn stats(&self) -> FilterStats {
        match self {
            Client::Crisp(f) => f.stats(),
            Client::Uncertain(f) => f.stats(),
        }
    }
}

/// One run in progress: the scenario as measurement source, the client
/// fleet, fault execution (uplink suppression per the scenario's
/// declared windows), the optional DP competitor on the raw stream, and
/// the per-epoch [`EpochSample`]s, each holding the snapshot the engine
/// published at that boundary.
struct ScenarioDriver<'a> {
    scenario: &'a mut dyn Scenario,
    clients: Vec<Client>,
    dp: Option<DpHotSegments>,
    k: usize,
    noise: GaussianNoise,
    rng: SmallRng,
    batch: Vec<Measurement>,
    states: Vec<ClientState>,
    samples: Vec<EpochSample>,
    /// Raw measurements the scenario generated over the run.
    measurements: u64,
    /// Executable faults (empty for fault-free scenarios: zero cost).
    plan: FaultPlan,
    /// Filter factory inputs for client reconnects.
    table: Option<ToleranceTable2D>,
    eps: f64,
    /// Clients whose last suppression was a `Disconnect`: their next
    /// surviving measurement reseeds a fresh filter.
    disconnected: Vec<bool>,
    /// When each client entered `waiting` (a report submitted, its
    /// endpoint response pending). Admission control may turn the
    /// report away — no response ever comes — so a client that waits
    /// longer than [`Self::give_up`] abandons its filter and reseeds.
    awaiting_since: Vec<Option<Timestamp>>,
    /// Waiting bound in ticks; responses normally arrive within one
    /// epoch, so anything past this means the state was turned away.
    give_up: u64,
    /// Stats of filters retired by reconnect reseeds.
    retired: FilterStats,
    /// The current tick (for response-time bookkeeping in `deliver`).
    now: Timestamp,
}

impl ScenarioDriver<'_> {
    /// Observes one surviving measurement, tracking the waiting state
    /// of any report it produces.
    fn observe(&mut self, m: &Measurement, now: Timestamp) {
        let idx = m.object.0 as usize;
        let state = match &mut self.clients[idx] {
            Client::Crisp(f) => f.observe(m.observed),
            Client::Uncertain(f) => {
                // The Gaussian device re-measures the true position; the
                // scenario's own (uniform) sensor noise is replaced, not
                // stacked.
                let g = self.noise.measure(m.truth, &mut self.rng);
                f.observe_gaussian(g, now)
            }
        };
        if let Some(s) = state {
            self.awaiting_since[idx] = Some(now);
            self.states.push(s);
        }
    }

    /// Advances one timestamp: generates the tick's measurements, feeds
    /// the raw batch to the DP competitor, runs the surviving ones
    /// through the client filters, and submits every escaping state to
    /// `engine` in measurement order.
    fn tick(&mut self, now: Timestamp, engine: &mut dyn Engine) {
        self.now = now;
        self.scenario.tick(now, &mut self.batch);
        self.measurements += self.batch.len() as u64;
        if let Some(dp) = self.dp.as_mut() {
            for m in &self.batch {
                dp.observe(m.object, m.observed);
            }
            dp.advance_time(now);
        }
        let batch = std::mem::take(&mut self.batch);
        for m in &batch {
            let idx = m.object.0 as usize;
            if !self.plan.is_empty() {
                match self.plan.verdict(m.object, now) {
                    Some(FaultKind::Disconnect) => {
                        self.disconnected[idx] = true;
                        continue;
                    }
                    Some(FaultKind::Stall) => continue,
                    None => {}
                }
            }
            let gave_up = self.awaiting_since[idx]
                .is_some_and(|since| now.raw().saturating_sub(since.raw()) > self.give_up);
            if self.disconnected[idx] || gave_up {
                // Reconnect: retire the old filter's stats and reseed
                // from this measurement, exactly like a fresh client
                // joining mid-run (the coordinator sees a resubmission).
                self.retired.merge(&self.clients[idx].stats());
                self.clients[idx] = Client::fresh(&self.table, self.eps, m.object, m.observed);
                self.disconnected[idx] = false;
                self.awaiting_since[idx] = None;
                continue;
            }
            self.observe(m, now);
        }
        self.batch = batch;
        engine.submit_batch(&mut self.states.drain(..));
    }

    /// Delivers one endpoint response to its client filter; a returned
    /// state is resubmitted at the boundary, seeding the next epoch
    /// exactly as the paper's Section 3.2 protocol does.
    fn deliver(&mut self, resp: &EndpointResponse) -> Option<ClientState> {
        let idx = resp.object.0 as usize;
        self.awaiting_since[idx] = None;
        let state = self.clients[idx].receive(resp);
        if state.is_some() {
            // A boundary resubmission is a fresh report: it waits for
            // the next epoch's response.
            self.awaiting_since[idx] = Some(self.now);
        }
        state
    }

    /// The epoch loop: drives `duration` timestamps against `engine` —
    /// per-tick ingest and window advance, and at every epoch boundary
    /// the full process/deliver exchange, recording one [`EpochSample`]
    /// around the snapshot published there. At epoch `restart_at` the
    /// restart-parity probe replaces the engine wholesale (hence
    /// `&mut Box`).
    fn run(&mut self, engine: &mut Box<dyn Engine>, duration: u64, restart_at: Option<u64>) {
        let epochs = engine.config().epochs;
        let mut uplink_prev = engine.snapshot().comm.uplink_msgs;
        for t in 1..=duration {
            let now = Timestamp(t);
            self.tick(now, engine.as_mut());
            engine.advance_time(now);
            if !epochs.is_epoch(now) {
                continue;
            }
            let reporting = engine.pending_len();
            // Boundary-blocking wall time: all four stages.
            let start = Instant::now();
            let responses = engine.process_epoch(now);
            let processing = start.elapsed();
            engine.submit_batch(&mut responses.iter().filter_map(|r| self.deliver(r)));
            let snap = engine.snapshot();
            // Snapshot comm is as of the publish: boundary
            // resubmissions count toward the following epoch.
            let comm = CommStats { uplink_msgs: snap.comm.uplink_msgs - uplink_prev };
            uplink_prev = snap.comm.uplink_msgs;
            let dp = self.dp.as_ref();
            self.samples.push(EpochSample {
                snap,
                reporting,
                processing,
                comm,
                dp_index_size: dp.map(|d| d.index_size()),
                dp_score: dp.map(|d| d.top_n_score(self.k)),
            });
            if restart_at == Some(epochs.epoch_index(now)) {
                restart(engine);
            }
        }
    }
}

/// The restart-parity probe: encode the engine's state, destroy the
/// engine, and rebuild a fresh one from the bytes alone — decoded, then
/// structurally checked as the restore adopts them. Runs after boundary
/// resubmissions, so the image carries them in its pending list.
fn restart(engine: &mut Box<dyn Engine>) {
    let bytes = engine.checkpoint().as_bytes().to_vec();
    let config = *engine.config();
    *engine = EngineKind::Sync.build(Coordinator::new(config));
    let image = Checkpoint::from_bytes(bytes)
        .unwrap_or_else(|e| panic!("restart-parity image rejected: {e}"));
    engine.restore(&image).unwrap_or_else(|e| panic!("restart-parity restore failed: {e}"));
}

/// Runs `scenario` end to end and verifies its invariants.
pub fn run_scenario(scenario: &mut dyn Scenario, params: &ScenarioRunParams) -> ScenarioRunResult {
    run_with_restart(scenario, params, None)
}

/// [`run_scenario`], restarting the engine at epoch `restart_at` when
/// set (see [`check_restart_parity`]).
fn run_with_restart(
    scenario: &mut dyn Scenario,
    params: &ScenarioRunParams,
    restart_at: Option<u64>,
) -> ScenarioRunResult {
    assert!(params.sigma >= 0.0, "sigma must be non-negative");
    let config = params.config(scenario);
    let n = scenario.n();
    let duration = scenario.duration();
    let table = (params.sigma > 0.0).then(|| {
        // Cover the requested sigma with headroom; the fallback policy
        // decides what happens beyond the solvable range.
        let sigma_max = (params.sigma * 1.5).max(8.0);
        ToleranceTable2D::build(params.eps, params.delta, sigma_max, 256, params.fallback)
    });
    let clients = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            let seed_tp = scenario.seed_timepoint(obj, Timestamp(0));
            Client::fresh(&table, params.eps, obj, seed_tp)
        })
        .collect();
    let mut engine = EngineKind::Sync.build(Coordinator::new(config));
    let plan = FaultPlan::for_scenario(params.fault_seed, &*scenario);
    let mut driver = ScenarioDriver {
        scenario: &mut *scenario,
        clients,
        dp: params.dp.then(|| DpHotSegments::new(params.eps, EndpointPolicy::Nopw, config.window)),
        k: params.k,
        noise: GaussianNoise::new(params.sigma),
        rng: SmallRng::seed_from_u64(params.noise_seed),
        batch: Vec::new(),
        states: Vec::new(),
        samples: Vec::new(),
        measurements: 0,
        plan,
        table,
        eps: params.eps,
        disconnected: vec![false; n],
        awaiting_since: vec![None; n],
        give_up: 2 * params.epoch + 2,
        retired: FilterStats::default(),
        now: Timestamp(0),
    };
    driver.run(&mut engine, duration, restart_at);
    let ScenarioDriver { clients, dp, samples, measurements, retired: mut filter_stats, .. } =
        driver;
    let coordinator = engine.finish();

    for c in &clients {
        filter_stats.merge(&c.stats());
    }
    let outcome = ScenarioOutcome {
        per_epoch: samples,
        final_top_k: coordinator.top_k().iter().map(|h| (h.path.id.0, h.hotness)).collect(),
        measurements,
        reports: filter_stats.reports,
    };
    coordinator.check_consistency().expect("coordinator state inconsistent");
    let invariants = scenario.check_invariants(&outcome);
    // The uplink total comes from the final coordinator (the per-epoch
    // rows attribute boundary resubmissions to the following epoch).
    let summary = Summary::from_epochs(
        &outcome.per_epoch,
        measurements,
        coordinator.comm_stats().uplink_msgs,
    );
    ScenarioRunResult { outcome, summary, invariants, filter_stats, coordinator, dp }
}

/// Builds a registered scenario and runs it; `None` when the name is
/// unknown.
pub fn run_named(
    name: &str,
    scale: &ScenarioParams,
    params: &ScenarioRunParams,
) -> Option<ScenarioRunResult> {
    let mut scenario = build(name, scale)?;
    Some(run_scenario(scenario.as_mut(), params))
}

/// The observable fingerprint of a run used by the restart-parity check:
/// the published snapshot of every epoch, the final top-k, and the
/// uplink and answered-state counts (one downlink reply per answered
/// state). Two traces are equal when every snapshot agrees on its
/// deterministic fields — epoch, timestamp, index size, score bits,
/// top-k ids, Phase-B deferred count, admission counters — and the
/// processing times, which vary by machine, are left out.
#[derive(Clone, Debug)]
pub struct ParityTrace {
    per_epoch: Vec<Arc<HotSnapshot>>,
    final_top_k: Vec<(u64, u32)>,
    comm: (u64, u64),
}

impl PartialEq for ParityTrace {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &HotSnapshot, b: &HotSnapshot| {
            let ids = |s: &HotSnapshot| s.top_k.iter().map(|h| h.path.id).collect::<Vec<_>>();
            (a.epoch, a.timestamp, a.index_size, a.top_k_score.to_bits(), a.phase_b.deferred)
                == (b.epoch, b.timestamp, b.index_size, b.top_k_score.to_bits(), b.phase_b.deferred)
                && a.admission == b.admission
                && ids(a) == ids(b)
        };
        self.per_epoch.len() == other.per_epoch.len()
            && self.per_epoch.iter().zip(&other.per_epoch).all(|(a, b)| same(a, b))
            && self.final_top_k == other.final_top_k
            && self.comm == other.comm
    }
}

/// Extracts the parity fingerprint of a completed run.
pub fn parity_trace(res: &ScenarioRunResult) -> ParityTrace {
    let c = &res.coordinator;
    ParityTrace {
        per_epoch: res.outcome.per_epoch.iter().map(|e| Arc::clone(&e.snap)).collect(),
        final_top_k: res.outcome.final_top_k.clone(),
        comm: (c.comm_stats().uplink_msgs, c.processing_stats().states_processed),
    }
}

/// Verifies restart parity: a run that checkpoints at its halfway epoch
/// boundary, tears the engine down completely, rebuilds a fresh one
/// from the image alone, and continues must be bit-for-bit identical to
/// the uninterrupted run — per-epoch snapshots, final top-k, and
/// communication counters — and the restored coordinator must pass
/// `check_consistency`. The clients and the scenario stay alive
/// in-process (they are "the world"); only the engine restarts.
/// `build` makes a fresh copy of the scenario for each of the two runs.
pub fn check_restart_parity(
    mut build: impl FnMut() -> Box<dyn Scenario>,
    params: &ScenarioRunParams,
) -> Result<(), String> {
    let mut scenario = build();
    let name = scenario.name();
    let base = run_scenario(scenario.as_mut(), params);
    let total_epochs = base.outcome.per_epoch.len() as u64;
    if total_epochs == 0 {
        return Err(format!("{name}: run produced no epochs to checkpoint between"));
    }
    let restart_at = (total_epochs / 2).max(1);
    let restarted = run_with_restart(build().as_mut(), params, Some(restart_at));
    restarted
        .coordinator
        .check_consistency()
        .map_err(|e| format!("{name}: restored coordinator inconsistent: {e}"))?;
    if parity_trace(&base) != parity_trace(&restarted) {
        return Err(format!(
            "{name}: restart at epoch {restart_at}/{total_epochs} diverged from the \
             uninterrupted run"
        ));
    }
    Ok(())
}

/// One cell of the `(sigma, fallback)` uncertainty grid.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Sensor sigma for this cell.
    pub sigma: f64,
    /// Fallback policy for this cell.
    pub fallback: FallbackPolicy,
    /// Client state reports over the run.
    pub reports: u64,
    /// Measurements dropped as unsolvable (only under `Reject`).
    pub dropped: u64,
    /// Mean index size per epoch.
    pub mean_index: f64,
    /// Mean top-k score per epoch.
    pub mean_score: f64,
    /// Did the scenario's invariants hold? (`None` = held; `Some(why)`
    /// otherwise — informational under heavy noise, where a starved
    /// pipeline is expected behavior.)
    pub invariant_failure: Option<String>,
}

/// Runs `name` across the full `sigmas x fallbacks` grid. Every cell
/// rebuilds the scenario from the same `scale`, so cells differ only in
/// the sensor model — the paper's Section 4.1 sweep generalized to any
/// workload.
pub fn scenario_sigma_sweep(
    name: &str,
    scale: &ScenarioParams,
    base: &ScenarioRunParams,
    sigmas: &[f64],
    fallbacks: &[FallbackPolicy],
) -> Option<Vec<SweepCell>> {
    let mut cells = Vec::with_capacity(sigmas.len() * fallbacks.len());
    for &fallback in fallbacks {
        for &sigma in sigmas {
            let params = ScenarioRunParams { sigma, fallback, ..*base };
            let res = run_named(name, scale, &params)?;
            cells.push(SweepCell {
                sigma,
                fallback,
                reports: res.filter_stats.reports,
                dropped: res.filter_stats.dropped,
                mean_index: res.summary.mean_index_size,
                mean_score: res.summary.mean_score,
                invariant_failure: res.invariants.err(),
            });
        }
    }
    Some(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::geometry::Point;
    use hotpath_netsim::mobility::PopulationParams;
    use hotpath_netsim::network::{generate, NetworkParams, RoadNetwork};
    use hotpath_netsim::scenario::{Workload, REGISTRY};

    fn quick_scale(seed: u64) -> ScenarioParams {
        ScenarioParams { n: 200, ..ScenarioParams::quick(seed) }
    }

    /// Table 2's driver knobs at test scale (`W = 50`).
    fn quick_table2() -> ScenarioRunParams {
        ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() }
    }

    /// Table 2 at test scale.
    fn run_quick(n: usize, seed: u64) -> ScenarioRunResult {
        run_scenario(&mut Workload::uniform_quick(n, seed), &quick_table2())
    }

    #[test]
    fn quick_run_discovers_paths() {
        let res = run_quick(200, 3);
        assert!(!res.outcome.per_epoch.is_empty());
        assert!(res.coordinator.index_size() > 0, "no motion paths discovered");
        assert!(res.summary.mean_index_size > 0.0);
        assert!(res.summary.mean_score > 0.0, "top-k never scored");
        res.invariants.as_ref().expect("Table 2 discovery floor");
        // The filter must compress: far fewer reports than measurements.
        assert!(res.filter_stats.reports > 0);
        assert!(
            res.filter_stats.reports < res.summary.measurements,
            "filter reported every measurement"
        );
    }

    #[test]
    fn dp_competitor_runs_alongside() {
        let res = run_quick(150, 4);
        let dp = res.dp.expect("dp enabled by the Table 2 knobs");
        assert!(dp.index_size() > 0, "DP stored nothing");
        let with_dp: Vec<_> =
            res.outcome.per_epoch.iter().filter(|e| e.dp_index_size.is_some()).collect();
        assert_eq!(with_dp.len(), res.outcome.per_epoch.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_quick(100, 7);
        let b = run_quick(100, 7);
        assert_eq!(a.coordinator.index_size(), b.coordinator.index_size());
        assert_eq!(a.summary.uplink_msgs, b.summary.uplink_msgs);
        let sa: Vec<usize> = a.outcome.per_epoch.iter().map(|e| e.snap.index_size).collect();
        let sb: Vec<usize> = b.outcome.per_epoch.iter().map(|e| e.snap.index_size).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn window_caps_index_growth() {
        // With a short window, expired paths are deleted; the index at
        // the end must not contain paths older than W.
        let scale =
            ScenarioParams { n: 100, seed: 5, duration: 120, network: NetworkParams::tiny(5) };
        let mut workload = Workload::uniform(&scale, PopulationParams::paper_defaults(0, 0));
        let params = ScenarioRunParams { window: Some(20), ..ScenarioRunParams::table2() };
        let res = run_scenario(&mut workload, &params);
        // All hot paths have hotness >= 1 by construction.
        for hp in res.coordinator.hot_paths().iter() {
            assert!(hp.hotness >= 1);
        }
        // And there are at least as many pending expiry events as hot
        // paths (each live path holds >= 1 live crossing).
        assert!(res.coordinator.pending_expiry_events() >= res.coordinator.hot_count());
    }

    #[test]
    fn epoch_cadence_matches_lambda() {
        let params = quick_table2();
        let res = run_quick(50, 8);
        assert_eq!(res.outcome.per_epoch.len() as u64, 100 / params.epoch);
        for (i, e) in res.outcome.per_epoch.iter().enumerate() {
            assert_eq!(e.snap.timestamp.raw(), (i as u64 + 1) * params.epoch);
        }
    }

    #[test]
    fn every_registered_scenario_runs_and_holds_its_invariants() {
        for spec in REGISTRY {
            let res = run_named(spec.name, &quick_scale(41), &ScenarioRunParams::default())
                .expect("registered scenario");
            assert!(res.summary.epochs > 0, "{}: no epochs", spec.name);
            res.invariants.as_ref().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(res.filter_stats.reports > 0);
            assert_eq!(res.filter_stats.dropped, 0, "crisp mode cannot drop");
        }
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_named("nope", &quick_scale(1), &ScenarioRunParams::default()).is_none());
    }

    #[test]
    fn uncertain_mode_runs_a_scenario() {
        let params = ScenarioRunParams { sigma: 1.5, ..ScenarioRunParams::default() };
        let res = run_named("sporting_event", &quick_scale(43), &params).unwrap();
        assert!(res.filter_stats.reports > 0, "uncertain pipeline silent");
        assert!(res.coordinator.index_size() > 0);
    }

    #[test]
    fn sigma_sweep_covers_the_grid_and_policies_diverge_under_heavy_noise() {
        let scale = quick_scale(44);
        let base = ScenarioRunParams::default();
        let sigmas = [1.0, 6.0];
        let fallbacks = [FallbackPolicy::Reject, FallbackPolicy::MinimalArea(0.5)];
        let cells = scenario_sigma_sweep("evacuation", &scale, &base, &sigmas, &fallbacks).unwrap();
        assert_eq!(cells.len(), 4);
        // sigma = 6 > eps/1.96: unsolvable everywhere. Reject starves...
        let starved =
            cells.iter().find(|c| c.sigma == 6.0 && c.fallback == FallbackPolicy::Reject).unwrap();
        assert!(starved.dropped > 0, "reject under hopeless noise must drop");
        assert_eq!(starved.reports, 0);
        // ...while MinimalArea keeps the stream flowing, drop-free.
        let flowing =
            cells.iter().find(|c| c.sigma == 6.0 && c.fallback != FallbackPolicy::Reject).unwrap();
        assert_eq!(flowing.dropped, 0, "minimal-area must not drop");
        assert!(flowing.reports > 0, "minimal-area under noise must keep reporting");
    }

    /// One object on a stop-and-go corridor: it drives east at a
    /// constant 10 m/tick for one 5-tick epoch and parks for the next.
    /// Each phase change is reported once and answered at the following
    /// boundary, and the parked or cruising backlog always fits the new
    /// safe area, so no boundary resubmits anything — checkpoint images
    /// carry no pending state.
    struct StopAndGo(RoadNetwork, f64);

    impl Scenario for StopAndGo {
        fn name(&self) -> &'static str {
            "stop_and_go"
        }
        fn network(&self) -> &RoadNetwork {
            &self.0
        }
        fn n(&self) -> usize {
            1
        }
        fn duration(&self) -> u64 {
            20
        }
        fn seed_timepoint(&self, _obj: ObjectId, t: Timestamp) -> TimePoint {
            TimePoint::new(Point::new(0.0, 0.0), t)
        }
        fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
            if ((t.raw() - 1) / 5).is_multiple_of(2) {
                self.1 += 10.0;
            }
            let observed = TimePoint::new(Point::new(self.1, 0.0), t);
            out.clear();
            out.push(Measurement { object: ObjectId(0), observed, truth: observed.p });
        }
        fn check_invariants(&self, _outcome: &ScenarioOutcome) -> Result<(), String> {
            Ok(())
        }
    }

    /// The 20 stop-and-go ticks in 5-tick epochs, restarting the engine
    /// at epoch `restart_at` when set.
    fn stop_and_go(restart_at: Option<u64>) -> ScenarioRunResult {
        let params =
            ScenarioRunParams { epoch: 5, window: Some(50), ..ScenarioRunParams::default() };
        run_with_restart(&mut StopAndGo(generate(NetworkParams::tiny(1)), 0.0), &params, restart_at)
    }

    /// The restart-parity probe (checkpoint → engine teardown → rebuild
    /// from the image) must be invisible: identical metric rows and
    /// final coordinator as the uninterrupted loop.
    #[test]
    fn restart_probe_is_invisible() {
        let rows = |restart_at: Option<u64>| {
            let res = stop_and_go(restart_at);
            let c = &res.coordinator;
            c.check_consistency().unwrap();
            let fp: Vec<(u64, usize, u64, u64)> = res
                .outcome
                .per_epoch
                .iter()
                .map(|e| {
                    (
                        e.snap.epoch,
                        e.snap.index_size,
                        e.snap.top_k_score.to_bits(),
                        e.comm.uplink_msgs,
                    )
                })
                .collect();
            (fp, c.comm_stats(), c.processing_stats().epochs, res.filter_stats.reports)
        };
        let base = rows(None);
        let probed = rows(Some(2));
        assert_eq!(base, probed, "restart probe perturbed the loop");
    }

    #[test]
    fn loop_produces_one_metrics_row_per_epoch() {
        let res = stop_and_go(None);
        let per_epoch = &res.outcome.per_epoch;
        assert_eq!(per_epoch.len(), 4);
        assert_eq!(res.summary.measurements, 20);
        for (i, e) in per_epoch.iter().enumerate() {
            assert_eq!(e.snap.epoch, i as u64 + 1);
            assert_eq!(e.snap.timestamp.raw(), (i as u64 + 1) * 5);
        }
        // The first cruise fits one safe area; every later phase change
        // is one report, answered at the next boundary.
        let reporting: Vec<usize> = per_epoch.iter().map(|e| e.reporting).collect();
        assert_eq!(reporting, [0, 1, 1, 1]);
        assert!(per_epoch[3].snap.index_size > 0);
        let coordinator = &res.coordinator;
        coordinator.check_consistency().unwrap();
        let answered = coordinator.processing_stats().states_processed;
        let uplink = coordinator.comm_stats().uplink_msgs;
        assert_eq!((uplink, answered, res.filter_stats.reports), (3, 3, 3));
    }
}
