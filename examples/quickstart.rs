//! Quickstart: discover hot motion paths over a small synthetic city.
//!
//! Run with: `cargo run --release -p hotpath-sim --example quickstart`

use hotpath_netsim::scenario::{Scenario, Workload};
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams};

fn main() {
    // 500 objects on a small road network, paper-default tolerances:
    // eps = 10 m, window W = 50 ts, epoch = 10 ts, k = 10.
    let mut workload = Workload::uniform_quick(500, 42);
    let params = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
    println!(
        "simulating {} objects for {} timestamps (eps = {} m, W = {} ts) ...",
        workload.n(),
        workload.duration(),
        params.eps,
        params.window.unwrap_or_default()
    );

    let res = run_scenario(&mut workload, &params);

    println!();
    println!("== communication =====================================");
    println!("measurements taken : {}", res.summary.measurements);
    println!("states uploaded    : {}", res.summary.uplink_msgs);
    println!(
        "filter suppression : {:.1}% of measurements never left the device",
        100.0 * (1.0 - res.summary.report_ratio)
    );

    println!();
    println!("== coordinator =======================================");
    println!("motion paths stored: {}", res.coordinator.index_size());
    println!("mean epoch time    : {:.3} ms", res.summary.mean_time_ms);
    let p = res.coordinator.processing_stats();
    println!(
        "case mix           : {} reused paths, {} reused vertices, {} new vertices",
        p.case1, p.case2, p.case3
    );

    println!();
    println!("== top-10 hottest motion paths =======================");
    for (rank, hp) in res.coordinator.top_k().iter().enumerate() {
        println!(
            "{:2}. {}  hotness {:3}  length {:6.1} m  score {:8.1}  {:?} -> {:?}",
            rank + 1,
            hp.path.id,
            hp.hotness,
            hp.path.length(),
            hp.score,
            hp.path.start(),
            hp.path.end(),
        );
    }
}
