//! The end-to-end distributed-stream simulation.
//!
//! Wires the substrate together exactly as Section 3.2 describes: every
//! object runs RayTrace locally; escaping states travel to the
//! coordinator; the coordinator batches SinglePath work at epoch
//! boundaries and replies with endpoints that seed the next SSAs.
//! Optionally the DP competitor consumes the *same* measurement stream
//! for the Figure 7/8 comparisons.

use crate::engine_loop::{run_epoch_loop_with, CheckpointPolicy, EpochDriver};
use crate::metrics::{EpochMetrics, Summary};
use crate::options::RunOptions;
use hotpath_baseline::{DpHotSegments, EndpointPolicy};
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::raytrace::hinted::HintedRayTraceFilter;
use hotpath_core::raytrace::{ClientState, RayTraceFilter};
use hotpath_core::strategy::OverlapPolicy;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::{ChoicePolicy, Measurement, Population, PopulationParams};
use hotpath_netsim::network::{generate, NetworkParams, RoadNetwork};

/// Everything a run needs. Defaults are the paper's (Table 2).
#[derive(Clone, Debug)]
pub struct SimulationParams {
    /// Number of moving objects `N`.
    pub n: usize,
    /// Tolerance `eps` in meters.
    pub eps: f64,
    /// Positional error `err` (uniform noise half-range).
    pub err: f64,
    /// Agility `alpha`.
    pub agility: f64,
    /// Displacement `s` per move.
    pub displacement: f64,
    /// Sliding window `W` in timestamps.
    pub window: u64,
    /// Epoch length `Lambda` in timestamps.
    pub epoch: u64,
    /// Top-k size.
    pub k: usize,
    /// Simulation duration in timestamps.
    pub duration: u64,
    /// Seed for network + population.
    pub seed: u64,
    /// Road network to generate.
    pub network: NetworkParams,
    /// Walker policy.
    pub policy: ChoicePolicy,
    /// Enable the Section 7 hint feedback extension.
    pub hints: bool,
    /// Run the DP competitor on the same stream.
    pub run_dp: bool,
    /// DP endpoint policy.
    pub dp_policy: EndpointPolicy,
    /// SinglePath Cases-2/3 overlap policy (ablation hook).
    pub overlap: OverlapPolicy,
    /// Shared execution knobs: checkpoint policy, fault seed (the
    /// figure driver declares no faults, so the seed is carried but
    /// unused here).
    pub run: RunOptions,
}

impl SimulationParams {
    /// Paper defaults (Table 2): `eps = 10`, `err = 1`, `alpha = 0.1`,
    /// `s = 10`, `W = 100`, epoch `= 10`, `k = 10`, 250 timestamps, on
    /// the Athens-like network.
    pub fn paper_defaults(n: usize, seed: u64) -> Self {
        SimulationParams {
            n,
            eps: 10.0,
            err: 1.0,
            agility: 0.1,
            displacement: 10.0,
            window: 100,
            epoch: 10,
            k: 10,
            duration: 250,
            seed,
            network: NetworkParams::athens(),
            policy: ChoicePolicy::Weighted { avoid_u_turn: true },
            hints: false,
            run_dp: true,
            dp_policy: EndpointPolicy::Nopw,
            overlap: OverlapPolicy::Full,
            run: RunOptions::default(),
        }
    }

    /// A reduced configuration for tests and micro-benches: a tiny
    /// network and a short horizon, same structure.
    pub fn quick(n: usize, seed: u64) -> Self {
        SimulationParams {
            network: NetworkParams::tiny(seed),
            duration: 100,
            window: 50,
            ..Self::paper_defaults(n, seed)
        }
    }

    /// The core [`Config`] this parameterization induces.
    pub fn config(&self) -> Config {
        Config::paper_defaults()
            .with_tolerance(Tolerance::crisp(self.eps))
            .with_window(self.window)
            .with_epoch(self.epoch)
            .with_k(self.k)
    }

    /// Chainable checkpoint-policy override.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.run.checkpoint = checkpoint;
        self
    }
}

/// A client: plain RayTrace or the hinted extension.
enum Client {
    Plain(RayTraceFilter),
    Hinted(HintedRayTraceFilter),
}

impl Client {
    fn observe(&mut self, m: &Measurement) -> Option<hotpath_core::raytrace::ClientState> {
        match self {
            Client::Plain(f) => f.observe(m.observed),
            Client::Hinted(f) => f.observe(m.observed),
        }
    }

    fn receive(
        &mut self,
        resp: &hotpath_core::coordinator::EndpointResponse,
    ) -> Option<hotpath_core::raytrace::ClientState> {
        match self {
            Client::Plain(f) => f.receive_endpoint(resp.endpoint),
            Client::Hinted(f) => f.receive_endpoint(resp.endpoint, resp.hint),
        }
    }

    fn stats(&self) -> hotpath_core::raytrace::FilterStats {
        match self {
            Client::Plain(f) => f.stats(),
            Client::Hinted(f) => f.stats(),
        }
    }
}

/// The outcome of a run: per-epoch series, aggregates, and the final
/// coordinator/competitor states for map rendering (Figures 9-10).
pub struct SimulationResult {
    /// Metrics at every epoch boundary.
    pub per_epoch: Vec<EpochMetrics>,
    /// Aggregates (the numbers the paper's figures plot).
    pub summary: Summary,
    /// Final coordinator state.
    pub coordinator: Coordinator,
    /// Final DP competitor state (when run).
    pub dp: Option<DpHotSegments>,
    /// The network the population walked (for map rendering).
    pub network: RoadNetwork,
    /// Aggregate client-filter statistics.
    pub filter_stats: hotpath_core::raytrace::FilterStats,
}

/// The figure-experiment driver behind the shared epoch loop: the
/// scenario population as measurement source, plain/hinted RayTrace
/// clients, and the DP competitor riding the same stream.
struct SimDriver<'a> {
    population: &'a mut Population,
    network: &'a RoadNetwork,
    clients: &'a mut [Client],
    dp: &'a mut Option<DpHotSegments>,
    batch: Vec<Measurement>,
    k: usize,
}

impl EpochDriver for SimDriver<'_> {
    fn tick(&mut self, now: Timestamp, engine: &mut dyn Engine) -> u64 {
        self.population.tick(self.network, now, &mut self.batch);
        if let Some(dp) = self.dp.as_mut() {
            for m in &self.batch {
                dp.observe(m.object, m.observed);
            }
        }
        // Bulk ingest: the tick's reports go in as one batch.
        let clients = &mut *self.clients;
        let batch = &self.batch;
        engine.submit_batch(
            &mut batch.iter().filter_map(|m| clients[m.object.0 as usize].observe(m)),
        );
        if let Some(dp) = self.dp.as_mut() {
            dp.advance_time(now);
        }
        self.batch.len() as u64
    }

    fn deliver(&mut self, resp: &EndpointResponse) -> Option<ClientState> {
        self.clients[resp.object.0 as usize].receive(resp)
    }

    fn on_epoch(&mut self, _snap: &HotSnapshot) -> (Option<usize>, Option<f64>) {
        (self.dp.as_ref().map(|d| d.index_size()), self.dp.as_ref().map(|d| d.top_n_score(self.k)))
    }
}

/// Runs the full simulation.
pub fn run(params: SimulationParams) -> SimulationResult {
    let config = params.config();
    let network = generate(params.network);
    let mut population = Population::new(
        &network,
        PopulationParams {
            agility: params.agility,
            displacement: params.displacement,
            err: params.err,
            seed: params.seed.wrapping_add(1),
            policy: params.policy,
            ..PopulationParams::paper_defaults(params.n, params.seed)
        },
    );

    let mut coordinator = Coordinator::new(config).with_overlap_policy(params.overlap);
    if params.hints {
        coordinator = coordinator.with_hints();
    }
    let mut clients: Vec<Client> = (0..params.n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            let seed_tp = population.seed_timepoint(&network, obj, Timestamp(0));
            if params.hints {
                Client::Hinted(HintedRayTraceFilter::new(obj, seed_tp, params.eps))
            } else {
                Client::Plain(RayTraceFilter::new(obj, seed_tp, params.eps))
            }
        })
        .collect();
    let mut dp =
        params.run_dp.then(|| DpHotSegments::new(params.eps, params.dp_policy, config.window));

    let mut engine = EngineKind::Sync.build(coordinator);
    let mut driver = SimDriver {
        population: &mut population,
        network: &network,
        clients: &mut clients,
        dp: &mut dp,
        batch: Vec::new(),
        k: params.k,
    };
    let out =
        run_epoch_loop_with(&mut engine, params.duration, &mut driver, &params.run.checkpoint);
    let coordinator = engine.finish();

    let mut filter_stats = hotpath_core::raytrace::FilterStats::default();
    for c in &clients {
        filter_stats.merge(&c.stats());
    }

    let mut summary = Summary::from_epochs(&out.per_epoch, out.measurements);
    // Per-epoch comm rows come from the published snapshots (boundary
    // resubmissions count toward the following epoch); the run totals
    // come from the final coordinator, which has seen every message.
    let comm = coordinator.comm_stats();
    summary.uplink_msgs = comm.uplink_msgs;
    summary.uplink_bytes = comm.uplink_bytes;
    summary.report_ratio =
        if out.measurements == 0 { 0.0 } else { comm.uplink_msgs as f64 / out.measurements as f64 };
    let per_epoch = out.per_epoch;
    SimulationResult { per_epoch, summary, coordinator, dp, network, filter_stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_discovers_paths() {
        let res = run(SimulationParams::quick(200, 3));
        assert!(!res.per_epoch.is_empty());
        assert!(res.coordinator.index_size() > 0, "no motion paths discovered");
        assert!(res.summary.mean_index_size > 0.0);
        assert!(res.summary.mean_score > 0.0, "top-k never scored");
        // The filter must compress: far fewer reports than measurements.
        assert!(res.filter_stats.reports > 0);
        assert!(
            res.filter_stats.reports < res.summary.measurements,
            "filter reported every measurement"
        );
    }

    #[test]
    fn dp_competitor_runs_alongside() {
        let res = run(SimulationParams::quick(150, 4));
        let dp = res.dp.expect("dp enabled by default");
        assert!(dp.index_size() > 0, "DP stored nothing");
        let with_dp: Vec<_> = res.per_epoch.iter().filter(|e| e.dp_index_size.is_some()).collect();
        assert_eq!(with_dp.len(), res.per_epoch.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(SimulationParams::quick(100, 7));
        let b = run(SimulationParams::quick(100, 7));
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
        let mut params = SimulationParams::quick(100, 5);
        params.window = 20;
        params.duration = 120;
        let res = run(params.clone());
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
        let mut params = SimulationParams::quick(100, 6);
        params.hints = true;
        params.run_dp = false;
        let res = run(params.clone());
        assert!(res.coordinator.index_size() > 0);
        assert!(res.dp.is_none());
    }

    #[test]
    fn epoch_cadence_matches_lambda() {
        let params = SimulationParams::quick(50, 8);
        let res = run(params.clone());
        assert_eq!(res.per_epoch.len() as u64, params.duration / params.epoch);
        for (i, e) in res.per_epoch.iter().enumerate() {
            assert_eq!(e.timestamp.raw(), (i as u64 + 1) * params.epoch);
        }
    }
}
