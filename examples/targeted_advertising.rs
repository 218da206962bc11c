//! Targeted advertising around a sporting event (the paper's first
//! motivating scenario, Section 1).
//!
//! A crowd converges on a venue; the mobile carrier's coordinator
//! maintains the hot inbound routes and picks the best "advertising
//! corridor" — the hottest path flowing toward the venue — where a
//! partnered store's promotions would reach the most passers-by.
//!
//! Run with: `cargo run --release -p hotpath-sim --example targeted_advertising`

use hotpath_netsim::network::NetworkParams;
use hotpath_netsim::scenario::{self, nearest_node, ScenarioParams};
use hotpath_sim::scenario_run::{run_scenario, ScenarioRunParams};

fn main() {
    let scale = ScenarioParams { n: 400, seed: 7, duration: 300, network: NetworkParams::tiny(7) };
    let mut crowd = scenario::build("sporting_event", &scale).expect("registered");
    let net = crowd.network();
    let venue_pos = net.node(nearest_node(net, net.bounds().centroid())).pos;
    println!("venue at {venue_pos:?} — kickoff soon, crowd en route\n");

    let params = ScenarioRunParams { window: Some(60), epoch: 10, k: 5, ..Default::default() };
    let res = run_scenario(crowd.as_mut(), &params);
    let coordinator = res.coordinator;

    println!("== hottest approach corridors (last {} ts) ==", coordinator.config().window.len);
    let top = coordinator.top_k();
    for (i, hp) in top.iter().enumerate() {
        let to_venue_before = hp.path.start().dist_l2(&venue_pos);
        let to_venue_after = hp.path.end().dist_l2(&venue_pos);
        let inbound = if to_venue_after < to_venue_before { "inbound" } else { "outbound" };
        println!(
            "{}. hotness {:3}  length {:6.1} m  {}  ({:.0} m from venue)",
            i + 1,
            hp.hotness,
            hp.path.length(),
            inbound,
            to_venue_after,
        );
    }

    // The ad spot: the hottest inbound corridor ending closest to the
    // venue — subscribers crossing it are minutes from the gates.
    let ad_spot = top
        .iter()
        .filter(|hp| hp.path.end().dist_l2(&venue_pos) < hp.path.start().dist_l2(&venue_pos))
        .min_by(|a, b| {
            a.path.end().dist_l2(&venue_pos).total_cmp(&b.path.end().dist_l2(&venue_pos))
        });
    match ad_spot {
        Some(hp) => println!(
            "\n>> place the promotion along {} (hotness {}, ends {:.0} m from the venue)",
            hp.path.id,
            hp.hotness,
            hp.path.end().dist_l2(&venue_pos)
        ),
        None => println!("\n>> no inbound corridor in the top-k yet; widen the window"),
    }
}
