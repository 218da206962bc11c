//! The run driver: runs any [`Scenario`] — a registered workload or the
//! paper's Table 2 [`UniformScenario`] — through the full client-filter
//! and coordinator pipeline, records the per-epoch metrics the figures
//! plot, verifies the scenario's invariants, and sweeps the `(sigma,
//! FallbackPolicy)` uncertainty grid. Section 3.2's protocol is the
//! same whatever the workload: clients filter, escaping states go up,
//! and endpoints come back at the epoch boundary.
//!
//! Crisp mode (`sigma = 0`) feeds the scenario's own measurements
//! (population noise included) through [`RayTraceFilter`]s, or through
//! [`HintedRayTraceFilter`]s with the Section 7 hint extension on.
//! Uncertain mode (`sigma > 0`) replaces the sensor model: each true
//! position is re-measured by a Gaussian device with the given sigma and
//! flows through [`UncertainRayTraceFilter`]s, so one scenario exercises
//! the whole Section 4.1 machinery — including both fallback policies.
//! With [`ScenarioRunParams::dp`] the DP competitor observes the same raw
//! stream (Figures 7 and 8).
//!
//! [`UniformScenario`]: hotpath_netsim::scenario::UniformScenario

use crate::engine_loop::{run_epochs, CheckpointPolicy};
use crate::fault::FaultPlan;
use crate::metrics::{EpochMetrics, Summary};
use crate::options::RunOptions;
use hotpath_baseline::{DpHotSegments, EndpointPolicy};
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::geometry::TimePoint;
use hotpath_core::raytrace::hinted::HintedRayTraceFilter;
use hotpath_core::raytrace::{ClientState, FilterStats, RayTraceFilter, UncertainRayTraceFilter};
use hotpath_core::session::SessionTransition;
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
    /// Enable the Section 7 hint feedback extension (crisp clients only).
    pub hints: bool,
    /// Run the DP competitor (`nopw` endpoints) on the same raw stream.
    pub dp: bool,
    /// SinglePath Cases-2/3 overlap policy (ablation hook).
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
            run: RunOptions::default(),
            hints: false,
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
}

/// Everything a scenario run produces.
pub struct ScenarioRunResult {
    /// The observations handed to the invariant hook.
    pub outcome: ScenarioOutcome,
    /// Per-epoch metrics (DP columns set when the competitor runs).
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
    /// Final DP competitor state (when [`ScenarioRunParams::dp`]).
    pub dp: Option<DpHotSegments>,
}

/// One client filter: crisp, hinted, or uncertain.
enum Client {
    Crisp(RayTraceFilter),
    Hinted(HintedRayTraceFilter),
    Uncertain(UncertainRayTraceFilter),
}

impl Client {
    /// Builds one client filter (the initial fleet and every reconnect
    /// go through here, so a reconnected client is indistinguishable
    /// from a freshly joined one).
    fn fresh(
        table: &Option<ToleranceTable2D>,
        hints: bool,
        eps: f64,
        obj: ObjectId,
        seed_tp: TimePoint,
    ) -> Client {
        match table {
            Some(t) => Client::Uncertain(UncertainRayTraceFilter::new(obj, seed_tp, t.clone())),
            None if hints => Client::Hinted(HintedRayTraceFilter::new(obj, seed_tp, eps)),
            None => Client::Crisp(RayTraceFilter::new(obj, seed_tp, eps)),
        }
    }

    fn receive(&mut self, resp: &EndpointResponse) -> Option<ClientState> {
        match self {
            Client::Crisp(f) => f.receive_endpoint(resp.endpoint),
            Client::Hinted(f) => f.receive_endpoint(resp.endpoint, resp.hint),
            Client::Uncertain(f) => f.receive_endpoint(resp.endpoint),
        }
    }

    fn stats(&self) -> FilterStats {
        match self {
            Client::Crisp(f) => f.stats(),
            Client::Hinted(f) => f.stats(),
            Client::Uncertain(f) => f.stats(),
        }
    }
}

/// The per-tick half of a run, driven by the epoch loop in
/// [`crate::engine_loop`]: the scenario as measurement source, the
/// client fleet, fault execution (uplink suppression per the scenario's
/// declared windows), the optional DP competitor on the raw stream, and
/// the per-epoch [`EpochSample`] observations for the invariant hook —
/// read from the published snapshots.
pub(crate) struct ScenarioDriver<'a> {
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
    hints: bool,
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
            Client::Hinted(f) => f.observe(m.observed),
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
    pub(crate) fn tick(&mut self, now: Timestamp, engine: &mut dyn Engine) {
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
                // joining mid-run (the coordinator sees a resubmission
                // or, after an ejection, a brand-new session).
                self.retired.merge(&self.clients[idx].stats());
                self.clients[idx] =
                    Client::fresh(&self.table, self.hints, self.eps, m.object, m.observed);
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
    pub(crate) fn deliver(&mut self, resp: &EndpointResponse) -> Option<ClientState> {
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

    /// Observes the epoch's published snapshot; returns the DP
    /// competitor's `(index size, top-k score)` columns when it runs.
    pub(crate) fn on_epoch(&mut self, snap: &HotSnapshot) -> (Option<usize>, Option<f64>) {
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
        let dp = self.dp.as_ref();
        (dp.map(|d| d.index_size()), dp.map(|d| d.top_n_score(self.k)))
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
    let clients = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            let seed_tp = scenario.seed_timepoint(obj, Timestamp(0));
            Client::fresh(&table, params.hints, params.eps, obj, seed_tp)
        })
        .collect();
    let mut coordinator = Coordinator::new(config).with_overlap_policy(params.overlap);
    if params.hints {
        coordinator = coordinator.with_hints();
    }
    let mut engine = EngineKind::Sync.build(coordinator);
    let plan = FaultPlan::for_scenario(params.run.fault_seed, &*scenario);
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
        hints: params.hints,
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
    let per_epoch = run_epochs(&mut engine, duration, &mut driver, &params.run.checkpoint);
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
    let mut summary = Summary::from_epochs(&per_epoch, measurements);
    // Totals come from the final coordinator (the per-epoch rows
    // attribute boundary resubmissions to the following epoch).
    let comm = coordinator.comm_stats();
    summary.uplink_msgs = comm.uplink_msgs;
    summary.uplink_bytes = comm.uplink_bytes;
    summary.report_ratio =
        if measurements == 0 { 0.0 } else { comm.uplink_msgs as f64 / measurements as f64 };
    ScenarioRunResult { outcome, per_epoch, summary, invariants, filter_stats, coordinator, dp }
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
/// `build` makes a fresh copy of the scenario for each of the two runs.
pub fn check_restart_parity(
    mut build: impl FnMut() -> Box<dyn Scenario>,
    params: &ScenarioRunParams,
) -> Result<(), String> {
    let mut scenario = build();
    let name = scenario.name();
    let base = run_scenario(scenario.as_mut(), params);
    let total_epochs = base.per_epoch.len() as u64;
    if total_epochs == 0 {
        return Err(format!("{name}: run produced no epochs to checkpoint between"));
    }
    let restart_at = (total_epochs / 2).max(1);
    let p = params.clone().with_checkpoint(CheckpointPolicy {
        restart_at: Some(restart_at),
        ..CheckpointPolicy::default()
    });
    let restarted = run_scenario(build().as_mut(), &p);
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
    use hotpath_netsim::mobility::PopulationParams;
    use hotpath_netsim::network::NetworkParams;
    use hotpath_netsim::scenario::{UniformScenario, REGISTRY};

    fn quick_scale(seed: u64) -> ScenarioParams {
        ScenarioParams { n: 200, ..ScenarioParams::quick(seed) }
    }

    /// Table 2's driver knobs at test scale (`W = 50`).
    fn quick_table2() -> ScenarioRunParams {
        ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() }
    }

    /// Table 2 at test scale.
    fn run_quick(n: usize, seed: u64) -> ScenarioRunResult {
        run_scenario(&mut UniformScenario::quick(n, seed), &quick_table2())
    }

    #[test]
    fn quick_run_discovers_paths() {
        let res = run_quick(200, 3);
        assert!(!res.per_epoch.is_empty());
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
        let with_dp: Vec<_> = res.per_epoch.iter().filter(|e| e.dp_index_size.is_some()).collect();
        assert_eq!(with_dp.len(), res.per_epoch.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_quick(100, 7);
        let b = run_quick(100, 7);
        assert_eq!(a.coordinator.index_size(), b.coordinator.index_size());
        assert_eq!(a.summary.uplink_msgs, b.summary.uplink_msgs);
        let sa: Vec<usize> = a.per_epoch.iter().map(|e| e.index_size).collect();
        let sb: Vec<usize> = b.per_epoch.iter().map(|e| e.index_size).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn window_caps_index_growth() {
        // With a short window, expired paths are deleted; the index at
        // the end must not contain paths older than W.
        let scale =
            ScenarioParams { n: 100, seed: 5, duration: 120, network: NetworkParams::tiny(5) };
        let mut workload = UniformScenario::new(&scale, PopulationParams::paper_defaults(0, 0));
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
    fn hinted_mode_runs() {
        let params = ScenarioRunParams { hints: true, dp: false, ..quick_table2() };
        let res = run_scenario(&mut UniformScenario::quick(100, 6), &params);
        assert!(res.coordinator.index_size() > 0);
        assert!(res.dp.is_none());
    }

    #[test]
    fn epoch_cadence_matches_lambda() {
        let params = quick_table2();
        let res = run_quick(50, 8);
        assert_eq!(res.per_epoch.len() as u64, 100 / params.epoch);
        for (i, e) in res.per_epoch.iter().enumerate() {
            assert_eq!(e.timestamp.raw(), (i as u64 + 1) * params.epoch);
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
}
