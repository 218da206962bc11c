//! Rush-hour dynamics: the sliding window at work.
//!
//! Morning: commuters stream toward the city center. Evening: the flow
//! reverses. Because hotness only counts crossings inside the last `W`
//! time units, the top-k paths *flip direction* as the day turns — old
//! inbound paths expire from the window and outbound ones take over.
//!
//! Run with: `cargo run --release -p hotpath-sim --example commuter_rush`

use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::Point;
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::{ChoicePolicy, Population, PopulationParams};
use hotpath_netsim::network::{generate, NetworkParams};

/// Fraction of top-k paths pointing toward `target`.
fn inbound_share(coordinator: &Coordinator, target: Point) -> f64 {
    let top = coordinator.top_k();
    if top.is_empty() {
        return 0.0;
    }
    let inbound = top
        .iter()
        .filter(|hp| hp.path.end().dist_l2(&target) < hp.path.start().dist_l2(&target))
        .count();
    inbound as f64 / top.len() as f64
}

fn main() {
    let net = generate(NetworkParams::tiny(23));
    let center = net.bounds().centroid();
    let config = Config::builder().window(60).build().expect("valid config");

    let n = 400;
    let make_pop = |policy, seed| {
        Population::new(
            &net,
            PopulationParams { policy, agility: 0.5, ..PopulationParams::paper_defaults(n, seed) },
        )
    };

    // Morning shift: everyone heads downtown.
    let mut pop = make_pop(ChoicePolicy::Toward(center), 23);
    let mut coordinator = Coordinator::new(config);
    let mut clients: Vec<RayTraceFilter> = (0..n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            RayTraceFilter::new(obj, pop.seed_timepoint(&net, obj, Timestamp(0)), 10.0)
        })
        .collect();

    let mut batch = Vec::new();
    let half_day = 150u64;
    println!("== morning rush: crowd converging on downtown ==");
    for t in 1..=2 * half_day {
        let now = Timestamp(t);
        if t == half_day + 1 {
            // The day turns: same people, same positions, reversed
            // intent — only the link-choice policy flips, and the
            // clients' filters keep their chains going.
            println!("\n== evening rush: flow reverses ==");
            pop.set_policy(ChoicePolicy::Away(center));
        }
        pop.tick(&net, now, &mut batch);
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
            if t % 50 == 0 {
                println!(
                    "t={t:3}: {:4} hot paths, {:3.0}% of top-10 inbound, top score {:7.1}",
                    coordinator.index_size(),
                    100.0 * inbound_share(&coordinator, center),
                    coordinator.top_k_score(),
                );
            }
        }
    }
    println!(
        "\nthe window (W = {} ts) forgot the morning: direction share above tracked the flow",
        config.window.len
    );
}
