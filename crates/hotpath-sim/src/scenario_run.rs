//! The scenario driver: runs any registered [`Scenario`] through the
//! full client-filter + coordinator pipeline, records the same
//! per-epoch metrics as the figure experiments, verifies the scenario's
//! invariants, and sweeps the `(sigma, FallbackPolicy)` uncertainty
//! grid.
//!
//! Crisp mode (`sigma = 0`) feeds the scenario's own measurements
//! (population noise included) through [`RayTraceFilter`]s. Uncertain
//! mode (`sigma > 0`) replaces the sensor model: each true position is
//! re-measured by a Gaussian device with the given sigma and flows
//! through [`UncertainRayTraceFilter`]s, so one scenario exercises the
//! whole Section 4.1 machinery — including both fallback policies.

use crate::engine_loop::{run_epoch_loop_with, CheckpointPolicy, EpochDriver};
use crate::fault::FaultPlan;
use crate::metrics::{EpochMetrics, Summary};
use crate::options::RunOptions;
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::geometry::TimePoint;
use hotpath_core::raytrace::{ClientState, FilterStats, RayTraceFilter, UncertainRayTraceFilter};
use hotpath_core::session::SessionTransition;
use hotpath_core::time::Timestamp;
use hotpath_core::uncertainty::{FallbackPolicy, ToleranceTable2D};
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::{GaussianNoise, Measurement};
use hotpath_netsim::scenario::{
    build, EpochSample, FaultKind, Scenario, ScenarioOutcome, ScenarioParams,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Driver knobs; defaults mirror the scenario integration tests.
#[derive(Clone, Debug)]
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
    /// Shared execution knobs: checkpoint policy, and the fault-victim
    /// seed used when the scenario declares
    /// [`hotpath_netsim::scenario::FaultWindow`]s.
    pub run: RunOptions,
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
            run: RunOptions::default(),
        }
    }
}

impl ScenarioRunParams {
    /// The core [`Config`] for `scenario` under these knobs. A
    /// scenario's robustness hint (session lease, admission bound,
    /// degrade threshold) is applied on top of the shared defaults.
    pub fn config(&self, scenario: &dyn Scenario) -> Config {
        let mut config = Config::paper_defaults()
            .with_tolerance(if self.sigma > 0.0 {
                Tolerance::uncertain(self.eps, self.delta)
            } else {
                Tolerance::crisp(self.eps)
            })
            .with_window(self.window.unwrap_or_else(|| scenario.window_hint()))
            .with_epoch(self.epoch)
            .with_k(self.k);
        if let Some(hint) = scenario.robustness_hint() {
            if hint.lease > 0 {
                config = config.with_lease(hint.lease, hint.grace);
            }
            if hint.queue_cap > 0 {
                config = config.with_admission_cap(hint.queue_cap, hint.policy);
            }
            if hint.degrade_threshold > 0 {
                config = config.with_degrade_threshold(hint.degrade_threshold);
            }
        }
        config
    }

    /// Chainable checkpoint-policy override.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.run.checkpoint = checkpoint;
        self
    }

    /// Chainable fault-seed override.
    pub fn with_fault_seed(mut self, fault_seed: u64) -> Self {
        self.run.fault_seed = fault_seed;
        self
    }
}

/// Everything a scenario run produces.
pub struct ScenarioRunResult {
    /// The observations handed to the invariant hook.
    pub outcome: ScenarioOutcome,
    /// Per-epoch metrics (same shape as the figure experiments; DP
    /// columns unused).
    pub per_epoch: Vec<EpochMetrics>,
    /// Aggregates over the run.
    pub summary: Summary,
    /// The scenario's verdict on its own invariants.
    pub invariants: Result<(), String>,
    /// Aggregate client-filter statistics (incl. drops under
    /// [`FallbackPolicy::Reject`]).
    pub filter_stats: FilterStats,
    /// Final coordinator state.
    pub coordinator: Coordinator,
}

/// One client: crisp or uncertain, mirroring the simulation driver.
enum Client {
    Crisp(RayTraceFilter),
    Uncertain(UncertainRayTraceFilter),
}

impl Client {
    fn receive(&mut self, endpoint: hotpath_core::geometry::TimePoint) -> Option<ClientState> {
        match self {
            Client::Crisp(f) => f.receive_endpoint(endpoint),
            Client::Uncertain(f) => f.receive_endpoint(endpoint),
        }
    }

    fn stats(&self) -> FilterStats {
        match self {
            Client::Crisp(f) => f.stats(),
            Client::Uncertain(f) => f.stats(),
        }
    }
}

/// Builds one client filter (the initial fleet and every reconnect go
/// through here, so a reconnected client is indistinguishable from a
/// freshly joined one).
fn fresh_client(
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

/// The scenario driver behind the shared epoch loop: the scenario as
/// measurement source, crisp or Gaussian-re-measured clients, fault
/// execution (uplink suppression per the scenario's declared windows),
/// and the per-epoch [`EpochSample`] observations for the invariant
/// hook — read from the published snapshots.
struct ScenarioDriver<'a> {
    scenario: &'a mut dyn Scenario,
    clients: &'a mut [Client],
    noise: GaussianNoise,
    rng: SmallRng,
    batch: Vec<Measurement>,
    states: Vec<ClientState>,
    samples: Vec<EpochSample>,
    /// Executable faults (empty for fault-free scenarios: zero cost).
    plan: FaultPlan,
    /// Filter factory inputs for client reconnects.
    table: Option<ToleranceTable2D>,
    eps: f64,
    /// Clients whose last suppression was a `Disconnect`: their next
    /// surviving measurement reseeds a fresh filter (new session).
    disconnected: Vec<bool>,
    /// When each client entered `waiting` (a report submitted, its
    /// endpoint response pending). Admission control may turn the
    /// report away — no response ever comes — so a client that waits
    /// longer than [`Self::give_up`] abandons the session and reseeds.
    awaiting_since: Vec<Option<Timestamp>>,
    /// Waiting bound in ticks; responses normally arrive within one
    /// epoch, so anything past this means the state was turned away.
    give_up: u64,
    /// Stats of filters retired by reconnect reseeds.
    retired: FilterStats,
    /// The current tick (for response-time bookkeeping in `deliver`).
    now: Timestamp,
    /// Cumulative session-transition counters, folded from the
    /// published per-epoch event streams.
    connects: u64,
    reconnects: u64,
    ejections: u64,
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
}

impl EpochDriver for ScenarioDriver<'_> {
    fn tick(&mut self, now: Timestamp, engine: &mut dyn Engine) -> u64 {
        self.now = now;
        self.scenario.tick(now, &mut self.batch);
        let generated = self.batch.len() as u64;
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
                // joining mid-run (the coordinator sees a resubmission
                // or, after an ejection, a brand-new session).
                self.retired.merge(&self.clients[idx].stats());
                self.clients[idx] = fresh_client(&self.table, self.eps, m.object, m.observed);
                self.disconnected[idx] = false;
                self.awaiting_since[idx] = None;
                continue;
            }
            self.observe(m, now);
        }
        self.batch = batch;
        engine.submit_batch(&mut self.states.drain(..));
        generated
    }

    fn deliver(&mut self, resp: &EndpointResponse) -> Option<ClientState> {
        let idx = resp.object.0 as usize;
        self.awaiting_since[idx] = None;
        let state = self.clients[idx].receive(resp.endpoint);
        if state.is_some() {
            // A boundary resubmission is a fresh report: it waits for
            // the next epoch's response.
            self.awaiting_since[idx] = Some(self.now);
        }
        state
    }

    fn on_epoch(&mut self, snap: &HotSnapshot) -> (Option<usize>, Option<f64>) {
        for ev in snap.session_events.iter() {
            match ev.transition {
                SessionTransition::Connected => self.connects += 1,
                SessionTransition::Reconnected => self.reconnects += 1,
                SessionTransition::Ejected => self.ejections += 1,
                SessionTransition::Dropped => {}
            }
        }
        self.samples.push(EpochSample {
            timestamp: snap.timestamp,
            index_size: snap.index_size,
            top_k_score: snap.top_k_score,
            top_ids: snap.top_k.iter().map(|h| h.path.id.0).collect(),
            top_hotness: snap.top_k.first().map(|h| h.hotness),
            sessions_healthy: snap.sessions_healthy,
            sessions_dropped: snap.sessions_dropped,
            session_connects: self.connects,
            session_reconnects: self.reconnects,
            session_ejections: self.ejections,
            turned_away: snap.admission.turned_away(),
            degraded_epochs: snap.admission.degraded_epochs,
            phase_b_deferred: snap.phase_b.deferred,
        });
        (None, None)
    }
}

/// Runs `scenario` end to end and verifies its invariants.
pub fn run_scenario(scenario: &mut dyn Scenario, params: &ScenarioRunParams) -> ScenarioRunResult {
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
    let mut clients: Vec<Client> = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            let seed_tp = scenario.seed_timepoint(obj, Timestamp(0));
            match &table {
                Some(table) => {
                    Client::Uncertain(UncertainRayTraceFilter::new(obj, seed_tp, table.clone()))
                }
                None => Client::Crisp(RayTraceFilter::new(obj, seed_tp, params.eps)),
            }
        })
        .collect();
    let mut engine = EngineKind::Sync.build(Coordinator::new(config));
    let plan = FaultPlan::for_scenario(params.run.fault_seed, &*scenario);
    let mut driver = ScenarioDriver {
        scenario: &mut *scenario,
        clients: &mut clients,
        noise: GaussianNoise::new(params.sigma),
        rng: SmallRng::seed_from_u64(params.noise_seed),
        batch: Vec::new(),
        states: Vec::new(),
        samples: Vec::new(),
        plan,
        table,
        eps: params.eps,
        disconnected: vec![false; n],
        awaiting_since: vec![None; n],
        give_up: 2 * params.epoch + 2,
        retired: FilterStats::default(),
        now: Timestamp(0),
        connects: 0,
        reconnects: 0,
        ejections: 0,
    };
    let out = run_epoch_loop_with(&mut engine, duration, &mut driver, &params.run.checkpoint);
    let samples = std::mem::take(&mut driver.samples);
    let mut filter_stats = std::mem::take(&mut driver.retired);
    drop(driver);
    let coordinator = engine.finish();

    for c in &clients {
        filter_stats.merge(&c.stats());
    }
    let outcome = ScenarioOutcome {
        per_epoch: samples,
        final_top_k: coordinator.top_k().iter().map(|h| (h.path.id.0, h.hotness)).collect(),
        measurements: out.measurements,
        reports: filter_stats.reports,
    };
    coordinator.check_consistency().expect("coordinator state inconsistent");
    let invariants = scenario.check_invariants(&outcome);
    let mut summary = Summary::from_epochs(&out.per_epoch, out.measurements);
    // Totals come from the final coordinator (the per-epoch rows
    // attribute boundary resubmissions to the following epoch).
    let comm = coordinator.comm_stats();
    summary.uplink_msgs = comm.uplink_msgs;
    summary.uplink_bytes = comm.uplink_bytes;
    summary.report_ratio =
        if out.measurements == 0 { 0.0 } else { comm.uplink_msgs as f64 / out.measurements as f64 };
    let per_epoch = out.per_epoch;
    ScenarioRunResult { outcome, per_epoch, summary, invariants, filter_stats, coordinator }
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
/// per-epoch `(index size, score bits, Phase-B deferred count, top-k
/// ids)`, final top-k, and communication counters. The deferred count
/// is the one Phase-B load field that is deterministic (a pure
/// function of the epoch's batch), so it rides the fingerprint; the
/// busy time does not.
#[derive(Clone, Debug, PartialEq)]
pub struct ParityTrace {
    per_epoch: Vec<(usize, u64, usize, Vec<u64>)>,
    /// Per-epoch robustness gauges: `(healthy, dropped, connects,
    /// reconnects, ejections, turned_away, degraded_epochs)` — all
    /// zeros while the session layer is off, and pinned bit-for-bit
    /// across a restart when it is on.
    sessions: Vec<(usize, usize, u64, u64, u64, u64, u64)>,
    final_top_k: Vec<(u64, u32)>,
    comm: (u64, u64),
}

/// Extracts the parity fingerprint of a completed run.
pub fn parity_trace(res: &ScenarioRunResult) -> ParityTrace {
    let comm = res.coordinator.comm_stats();
    ParityTrace {
        per_epoch: res
            .outcome
            .per_epoch
            .iter()
            .map(|e| (e.index_size, e.top_k_score.to_bits(), e.phase_b_deferred, e.top_ids.clone()))
            .collect(),
        sessions: res
            .outcome
            .per_epoch
            .iter()
            .map(|e| {
                (
                    e.sessions_healthy,
                    e.sessions_dropped,
                    e.session_connects,
                    e.session_reconnects,
                    e.session_ejections,
                    e.turned_away,
                    e.degraded_epochs,
                )
            })
            .collect(),
        final_top_k: res.outcome.final_top_k.clone(),
        comm: (comm.uplink_msgs, comm.downlink_msgs),
    }
}

/// Verifies restart parity: a run that checkpoints at its halfway epoch
/// boundary, tears the engine down completely, rebuilds a fresh one
/// from the image alone, and continues must be bit-for-bit identical to
/// the uninterrupted run — per-epoch snapshots, final top-k, and
/// communication counters — and the restored coordinator must pass
/// `check_consistency`. The clients and the scenario stay alive
/// in-process (they are "the world"); only the engine restarts.
pub fn check_restart_parity(
    name: &str,
    scale: &ScenarioParams,
    params: &ScenarioRunParams,
) -> Result<(), String> {
    let base = run_named(name, scale, params).ok_or_else(|| format!("unknown scenario {name}"))?;
    let total_epochs = base.per_epoch.len() as u64;
    if total_epochs == 0 {
        return Err(format!("{name}: run produced no epochs to checkpoint between"));
    }
    let restart_at = (total_epochs / 2).max(1);
    let p = params.clone().with_checkpoint(CheckpointPolicy {
        restart_at: Some(restart_at),
        ..CheckpointPolicy::default()
    });
    let restarted = run_named(name, scale, &p).expect("scenario known");
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
            let params = ScenarioRunParams { sigma, fallback, ..base.clone() };
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
    use hotpath_netsim::scenario::REGISTRY;

    fn quick_scale(seed: u64) -> ScenarioParams {
        ScenarioParams { n: 200, ..ScenarioParams::quick(seed) }
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
}
