//! # hotpath-sim
//!
//! The distributed-stream simulation harness of the EDBT 2008
//! reproduction: one run driver ([`scenario_run::run_scenario`]) wires
//! RayTrace clients and the SinglePath coordinator over any workload —
//! the paper's Table 2 uniform walk or a registered scenario — with the
//! DP competitor on the same stream, per-epoch metrics, and the sweeps
//! regenerating every figure of the paper's evaluation (see README's
//! Scenarios section and the module doc of the `experiments` binary in
//! `hotpath-bench`).
//!
//! ```no_run
//! use hotpath_netsim::scenario::Workload;
//! use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams};
//!
//! let params = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
//! let res = run_scenario(&mut Workload::uniform_quick(500, 42), &params);
//! println!(
//!     "paths={} score={:.0} reports={} of {} measurements",
//!     res.coordinator.index_size(),
//!     res.coordinator.top_k_score(),
//!     res.filter_stats.reports,
//!     res.summary.measurements,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod fault;
pub mod metrics;
pub mod report;
pub mod scenario_run;
