//! Network discovery (Figures 6 and 9 of the paper): run the default
//! workload and compare the *unknown* road network with the motion
//! paths SinglePath discovers — the hot paths redraw the map.
//!
//! Run with: `cargo run --release -p hotpath-sim --example network_discovery`

use hotpath_netsim::mobility::PopulationParams;
use hotpath_netsim::network::NetworkParams;
use hotpath_netsim::scenario::{Scenario, ScenarioParams, Workload};
use hotpath_sim::experiment::figure9;
use hotpath_sim::report::{network_map, paths_map};
use hotpath_sim::scenario_run::ScenarioRunParams;

fn main() {
    let scale =
        ScenarioParams { n: 800, seed: 2008, duration: 200, network: NetworkParams::tiny(2008) };
    let mut world = Workload::uniform(&scale, PopulationParams::paper_defaults(0, 0));
    let params = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
    println!(
        "running {} objects for {} ts on a hidden road network ...\n",
        scale.n, scale.duration
    );
    let (paths, res) = figure9(&mut world, &params);

    println!("== the real network (never shown to the algorithms) ==");
    let net_map = network_map(world.network(), 72, 24);
    print!("{}", net_map.render());

    println!("\n== the network as discovered by SinglePath (Fig. 9) ==");
    let discovered = paths_map(world.network().bounds(), &paths, 72, 24);
    print!("{}", discovered.render());

    println!(
        "\n{} hot motion paths redraw {:.0}% of the map the network inks ({:.0}%)",
        paths.len(),
        discovered.coverage() * 100.0,
        net_map.coverage() * 100.0,
    );
    println!(
        "filter economy: {} reports from {} measurements ({:.1}% suppressed)",
        res.summary.uplink_msgs,
        res.summary.measurements,
        100.0 * (1.0 - res.summary.report_ratio)
    );
}
