//! End-to-end integration: the full RayTrace -> coordinator ->
//! SinglePath -> top-k pipeline over the synthetic road workload.

use hotpath_netsim::scenario::Workload;
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams, ScenarioRunResult};

/// The paper's Table 2 workload at test scale (`W = 50`).
fn run_quick(n: usize, seed: u64) -> ScenarioRunResult {
    let params = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
    run_scenario(&mut Workload::uniform_quick(n, seed), &params)
}

#[test]
fn full_pipeline_discovers_and_maintains_paths() {
    let res = run_quick(300, 101);
    assert!(res.coordinator.index_size() > 0, "no paths discovered");
    assert!(res.summary.mean_score > 0.0);
    // Index internal consistency after a full run.
    res.coordinator.check_consistency().unwrap();
    // Every hot path is indexed and every hotness is positive.
    for hp in res.coordinator.hot_paths().iter() {
        assert!(hp.hotness >= 1);
        assert!(res.coordinator.path(hp.path.id).is_some());
    }
}

#[test]
fn communication_accounting_is_consistent() {
    let res = run_quick(200, 102);
    let comm = res.coordinator.comm_stats();
    // Every uplink message came from a client report.
    assert_eq!(comm.uplink_msgs, res.filter_stats.reports);
    // Bytes are message-count multiples of the fixed payloads.
    assert_eq!(comm.uplink_bytes, comm.uplink_msgs * 72);
    // The coordinator answered every state it processed.
    let p = res.coordinator.processing_stats();
    assert_eq!(p.states_processed, comm.downlink_msgs);
    // Filtering actually compresses the stream.
    assert!(
        res.filter_stats.absorbed > res.filter_stats.reports,
        "filter absorbed {} vs reported {}",
        res.filter_stats.absorbed,
        res.filter_stats.reports
    );
}

#[test]
fn case_mix_covers_all_three_cases_at_scale() {
    let res = run_quick(400, 103);
    let p = res.coordinator.processing_stats();
    assert!(p.case3 > 0, "no new vertices ever minted");
    assert!(p.case1 + p.case2 > 0, "no reuse at all: case1={} case2={}", p.case1, p.case2);
}

#[test]
fn top_k_is_sorted_and_bounded() {
    let res = run_quick(250, 104);
    let top = res.coordinator.top_k();
    assert!(top.len() <= 10);
    for pair in top.windows(2) {
        assert!(
            pair[0].hotness > pair[1].hotness
                || (pair[0].hotness == pair[1].hotness
                    && pair[0].path.length() >= pair[1].path.length()),
            "top-k ordering broken"
        );
    }
    // Score equals the average of member scores.
    if !top.is_empty() {
        let avg = top.iter().map(|h| h.score).sum::<f64>() / top.len() as f64;
        assert!((res.coordinator.top_k_score() - avg).abs() < 1e-9);
    }
}

#[test]
fn seeds_change_outcomes_but_structure_holds() {
    let a = run_quick(150, 105);
    let b = run_quick(150, 106);
    // Different seeds explore different roads...
    assert_ne!(a.summary.uplink_msgs, b.summary.uplink_msgs);
    // ...but the qualitative shape holds for both.
    for r in [&a, &b] {
        assert!(r.coordinator.index_size() > 0);
        assert!(r.summary.report_ratio < 0.8, "filter barely compressing");
    }
}
