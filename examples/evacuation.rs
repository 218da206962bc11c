//! Emergency evacuation monitoring (the paper's second motivating
//! scenario, Section 1).
//!
//! A fire breaks out; residents flee along similar routes. Authorities
//! watch the hot motion paths emerge in real time and direct assistance
//! (ambulances, fire engines) along the popular escape corridors.
//!
//! Run with: `cargo run --release -p hotpath-sim --example evacuation`

use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::network::NetworkParams;
use hotpath_netsim::scenario::{self, ScenarioParams};
use hotpath_sim::report::paths_map;

fn main() {
    let n = 500;
    let scale = ScenarioParams { n, seed: 13, duration: 200, network: NetworkParams::tiny(13) };
    let mut crowd = scenario::build("evacuation", &scale).expect("registered");
    let danger = crowd.network().bounds().centroid();
    println!("!! fire reported near {danger:?} — tracking evacuation\n");

    let config = Config::builder().window(40).epoch(5).k(8).build().expect("valid config");
    let mut coordinator = Coordinator::new(config);
    let mut clients: Vec<RayTraceFilter> = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            RayTraceFilter::new(obj, crowd.seed_timepoint(obj, Timestamp(0)), 10.0)
        })
        .collect();

    let mut batch = Vec::new();
    let mut last_report = Vec::new();
    for t in 1..=200u64 {
        let now = Timestamp(t);
        crowd.tick(now, &mut batch);
        for m in &batch {
            if let Some(state) = clients[m.object.0 as usize].observe(m.observed) {
                coordinator.submit(state);
            }
        }
        coordinator.advance_time(now);
        if config.epochs.is_epoch(now) {
            for resp in coordinator.process_epoch(now) {
                if let Some(state) = clients[resp.object.0 as usize].receive_endpoint(resp.endpoint)
                {
                    coordinator.submit(state);
                }
            }
            // Situation report every 50 ts.
            if t % 50 == 0 {
                println!(
                    "t={t:3}  {} active hot paths, hottest escape flow:",
                    coordinator.index_size()
                );
                for hp in coordinator.top_n(3) {
                    let fleeing = hp.path.end().dist_l2(&danger) > hp.path.start().dist_l2(&danger);
                    println!(
                        "        hotness {:3}  {:6.0} m  {}",
                        hp.hotness,
                        hp.path.length(),
                        if fleeing { "AWAY from fire" } else { "toward fire (!)" },
                    );
                }
                last_report =
                    coordinator.hot_paths().iter().map(|h| (h.path.seg, h.hotness)).collect();
            }
        }
    }

    println!("\n== escape-route map (denser glyph = hotter flow) ==");
    let map = paths_map(crowd.network().bounds(), &last_report, 72, 24);
    print!("{}", map.render());
    println!(
        ">> direct ambulances along the top corridors; {} routes live in the last {} ts",
        last_report.len(),
        config.window.len
    );
}
