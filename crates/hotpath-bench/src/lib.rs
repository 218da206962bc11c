//! # hotpath-bench
//!
//! Shared workload builders for the Criterion benches and the
//! `experiments` binary that regenerates every figure of the paper's
//! evaluation (Figures 7a-c, 8a-c, 9, 10 and the in-text claims).
//!
//! Scale levels:
//! * `paper` — the exact parameters of Section 6.1 (N up to 100 000 on
//!   the 1125-node Athens-like network, 250 timestamps);
//! * `mid` — the same network at reduced N for fast runs;
//! * `quick` — a tiny network for CI and Criterion benches.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;

use hotpath_netsim::mobility::PopulationParams;
use hotpath_netsim::network::NetworkParams;
use hotpath_netsim::scenario::ScenarioParams;
use hotpath_sim::scenario_run::ScenarioRunParams;

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Paper-exact parameters (slow at N = 100k).
    Paper,
    /// Athens network, reduced populations.
    Mid,
    /// Tiny network, small populations (CI-friendly).
    Quick,
}

impl std::str::FromStr for Scale {
    type Err = hotpath_core::config::ParseError;

    fn from_str(s: &str) -> Result<Scale, Self::Err> {
        match s {
            "paper" => Ok(Scale::Paper),
            "mid" => Ok(Scale::Mid),
            "quick" => Ok(Scale::Quick),
            other => {
                Err(hotpath_core::config::ParseError::new("scale", other, "paper | mid | quick"))
            }
        }
    }
}

impl Scale {
    /// Table 2's uniform workload at this scale — its scale with `n`
    /// filled per sweep, and its mobility — plus the driver knobs.
    /// Build it with [`Workload::uniform`].
    ///
    /// [`Workload::uniform`]: hotpath_netsim::scenario::Workload::uniform
    pub fn base(self, seed: u64) -> (ScenarioParams, PopulationParams, ScenarioRunParams) {
        let mobility = PopulationParams::paper_defaults(0, seed);
        let table2 = ScenarioRunParams::table2();
        let athens =
            |duration| ScenarioParams { n: 0, seed, duration, network: NetworkParams::athens() };
        match self {
            Scale::Paper => (athens(250), mobility, table2),
            Scale::Mid => (athens(150), mobility, table2),
            Scale::Quick => (
                ScenarioParams { n: 0, seed, duration: 100, network: NetworkParams::tiny(seed) },
                // Higher agility so objects cross several roads even in
                // the short horizon (keeps the DP competitor non-trivial).
                PopulationParams { agility: 0.4, ..mobility },
                ScenarioRunParams { window: Some(50), ..table2 },
            ),
        }
    }

    /// The Figure 7 object-count sweep at this scale.
    pub fn fig7_ns(self) -> Vec<usize> {
        match self {
            Scale::Paper => vec![10_000, 20_000, 50_000, 100_000],
            Scale::Mid => vec![2_000, 5_000, 10_000, 20_000],
            Scale::Quick => vec![100, 200, 500, 1_000],
        }
    }

    /// The Figure 8 tolerance sweep (same at all scales: Table 2).
    pub fn fig8_eps(self) -> Vec<f64> {
        vec![1.0, 2.0, 10.0, 20.0]
    }

    /// The fixed N of the Figure 8 sweep at this scale.
    pub fn fig8_n(self) -> usize {
        match self {
            Scale::Paper => 20_000,
            Scale::Mid => 5_000,
            Scale::Quick => 500,
        }
    }

    /// Default N for the map figures (9, 10).
    pub fn map_n(self) -> usize {
        match self {
            Scale::Paper => 20_000,
            Scale::Mid => 10_000,
            Scale::Quick => 800,
        }
    }

    /// Workload scale for the scenario subsystem (`experiments scenario`).
    pub fn scenario_params(self, seed: u64) -> ScenarioParams {
        match self {
            Scale::Paper => {
                ScenarioParams { n: 20_000, seed, duration: 250, network: NetworkParams::athens() }
            }
            Scale::Mid => {
                ScenarioParams { n: 5_000, seed, duration: 150, network: NetworkParams::athens() }
            }
            Scale::Quick => ScenarioParams { n: 300, ..ScenarioParams::quick(seed) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!("paper".parse::<Scale>().ok(), Some(Scale::Paper));
        assert_eq!("mid".parse::<Scale>().ok(), Some(Scale::Mid));
        assert_eq!("quick".parse::<Scale>().ok(), Some(Scale::Quick));
        let err = "nope".parse::<Scale>().unwrap_err();
        assert_eq!(err.to_string(), "invalid scale \"nope\": expected paper | mid | quick");
    }

    #[test]
    fn paper_scale_matches_table2() {
        let (workload, mobility, params) = Scale::Paper.base(1);
        assert_eq!(params.eps, 10.0);
        assert_eq!(params.window, Some(100));
        assert_eq!(params.epoch, 10);
        assert_eq!(params.k, 10);
        assert!(params.dp);
        assert_eq!(workload.duration, 250);
        assert_eq!(mobility.agility, 0.1);
        assert_eq!(mobility.displacement, 10.0);
        assert_eq!(mobility.err, 1.0);
        assert_eq!(Scale::Paper.fig7_ns(), vec![10_000, 20_000, 50_000, 100_000]);
        assert_eq!(Scale::Paper.fig8_n(), 20_000);
        assert_eq!(Scale::Paper.fig8_eps(), vec![1.0, 2.0, 10.0, 20.0]);
    }

    #[test]
    fn quick_scale_is_small() {
        assert!(Scale::Quick.fig7_ns().iter().max().unwrap() <= &1_000);
    }

    #[test]
    fn scenario_params_scale_with_the_level() {
        let quick = Scale::Quick.scenario_params(7);
        let mid = Scale::Mid.scenario_params(7);
        let paper = Scale::Paper.scenario_params(7);
        assert!(quick.n < mid.n && mid.n < paper.n);
        assert_eq!(quick.seed, 7);
        assert_eq!(paper.duration, 250);
    }

    /// Some fault stories scale their queue cap and degrade threshold
    /// with `n`: every registered scenario's admission knobs must
    /// validate at every scale `experiments scenario` runs, not only
    /// at the quick population the other tests build.
    #[test]
    fn every_scenario_config_validates_at_every_scale() {
        use hotpath_netsim::scenario::{Scenario, Workload, REGISTRY};
        for scale in [Scale::Quick, Scale::Mid, Scale::Paper] {
            let params = scale.scenario_params(7);
            for spec in REGISTRY {
                let scenario = Workload::new(spec, &params);
                // Panics, naming the scenario, when the build fails.
                let config = ScenarioRunParams::default().config(&scenario);
                assert_eq!(config.admission, scenario.admission(), "{} at {scale:?}", spec.name);
            }
        }
    }
}
