//! SinglePath vs the DP competitor on identical streams: the
//! directional facts behind Figures 7 and 8 at test scale.

use hotpath_netsim::mobility::PopulationParams;
use hotpath_netsim::network::NetworkParams;
use hotpath_netsim::scenario::{ScenarioParams, Workload};
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams, ScenarioRunResult};

/// The paper's Table 2 driver knobs at test scale (`W = 50`).
fn quick_params() -> ScenarioRunParams {
    ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() }
}

/// The paper's Table 2 workload at test scale.
fn run_quick(n: usize, seed: u64) -> ScenarioRunResult {
    run_scenario(&mut Workload::uniform_quick(n, seed), &quick_params())
}

#[test]
fn both_methods_track_the_same_stream() {
    let res = run_quick(300, 201);
    let dp = res.dp.as_ref().expect("dp enabled");
    assert!(res.coordinator.index_size() > 0);
    assert!(dp.index_size() > 0);
    // DP issues exactly one range query per discovered segment.
    assert!(dp.range_queries() > 0);
}

#[test]
fn dp_achieves_reuse_via_mbb_matching() {
    // With enough objects traveling far enough to cross several roads,
    // DP must bump segments past hotness 1 (its reuse rule is more
    // permissive than SinglePath's covering-set discipline).
    let scale =
        ScenarioParams { n: 400, seed: 202, duration: 300, network: NetworkParams::tiny(202) };
    let mobility = PopulationParams { agility: 0.5, ..PopulationParams::paper_defaults(0, 0) };
    let res = run_scenario(&mut Workload::uniform(&scale, mobility), &quick_params());
    let dp = res.dp.as_ref().unwrap();
    let max_dp_hot = dp.hot_segments().iter().map(|h| h.hotness).max().unwrap_or(0);
    assert!(max_dp_hot >= 2, "DP never reused a segment (max hotness {max_dp_hot})");
    // The paper's two directional facts (Sections 6, 6.2): DP stores
    // fewer segments, and its relaxed hotness upper-bounds SinglePath's.
    assert!(
        dp.index_size() < res.coordinator.index_size(),
        "DP index {} should undercut SinglePath {}",
        dp.index_size(),
        res.coordinator.index_size()
    );
    let max_sp_hot = res.coordinator.hot_paths().iter().map(|h| h.hotness).max().unwrap_or(0);
    assert!(
        max_dp_hot >= max_sp_hot,
        "DP hotness {max_dp_hot} should upper-bound SinglePath {max_sp_hot}"
    );
}

#[test]
fn scores_are_comparable_metrics() {
    let res = run_quick(300, 203);
    let dp = res.dp.as_ref().unwrap();
    let sp_score = res.coordinator.top_k_score();
    let dp_score = dp.top_n_score(10);
    // Both metrics are positive and within a sane factor of each other
    // (the paper's panels plot them on one axis).
    assert!(sp_score > 0.0);
    assert!(dp_score > 0.0);
    assert!(
        sp_score / dp_score < 100.0 && dp_score / sp_score < 100.0,
        "scores incomparable: sp={sp_score} dp={dp_score}"
    );
}

#[test]
fn more_objects_grow_both_indexes() {
    let small = run_quick(100, 204);
    let large = run_quick(400, 204);
    assert!(
        large.summary.mean_index_size > small.summary.mean_index_size,
        "SinglePath index did not grow with N"
    );
    assert!(
        large.summary.mean_dp_index_size > small.summary.mean_dp_index_size,
        "DP index did not grow with N"
    );
}

#[test]
fn larger_tolerance_shrinks_the_singlepath_index() {
    let run_eps = |eps| {
        let params = ScenarioRunParams { eps, ..quick_params() };
        run_scenario(&mut Workload::uniform_quick(250, 205), &params)
    };
    let tight_res = run_eps(2.0);
    let loose_res = run_eps(20.0);
    assert!(
        loose_res.summary.mean_index_size < tight_res.summary.mean_index_size,
        "eps=20 index {} !< eps=2 index {}",
        loose_res.summary.mean_index_size,
        tight_res.summary.mean_index_size
    );
}
