//! The covering-set guarantee, end to end: the chain of motion paths the
//! coordinator assigns to one object is connected in space and time and
//! every element fits the object's *measured* trajectory within eps.

use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, Segment, TimePoint, Trajectory};
use hotpath_core::motion_path::{fits_trajectory, CoveringChain};
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::time::{TimeInterval, Timestamp};
use hotpath_core::ObjectId;

/// Drives one object through the full stack and returns (measured
/// trajectory, chain of (segment, interval) selected by SinglePath).
fn drive(
    eps: f64,
    epoch: u64,
    positions: impl Iterator<Item = Point>,
) -> (Trajectory, Vec<(Segment, TimeInterval)>) {
    let config = Config::builder()
        .tolerance(Tolerance::crisp(eps))
        .window(10_000)
        .epoch(epoch)
        .build()
        .unwrap();
    let mut coordinator = Coordinator::new(config);
    let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));
    let mut client = RayTraceFilter::new(ObjectId(0), seed, eps);

    let mut traj = Trajectory::new();
    traj.push(seed);
    let mut pending: Option<(Point, Timestamp)> = None; // (start, ts) of open state
    let mut chain = Vec::new();

    for (i, p) in positions.enumerate() {
        let t = Timestamp(i as u64 + 1);
        traj.push(TimePoint::new(p, t));
        if let Some(state) = client.observe(TimePoint::new(p, t)) {
            pending = Some((state.start, state.ts));
            coordinator.submit(state);
        }
        if config.epochs.is_epoch(t) {
            for resp in coordinator.process_epoch(t) {
                let (start, ts) = pending.take().expect("response without a report");
                chain.push((
                    Segment::new(start, resp.endpoint.p),
                    TimeInterval::new(ts, resp.endpoint.t),
                ));
                if let Some(next) = client.receive_endpoint(resp.endpoint) {
                    pending = Some((next.start, next.ts));
                    coordinator.submit(next);
                }
            }
        }
    }
    (traj, chain)
}

/// A path with two sharp turns, forcing at least two reports.
fn zigzag() -> impl Iterator<Item = Point> {
    let east = (1..=30u64).map(|i| Point::new(10.0 * i as f64, 0.0));
    let north = (1..=30u64).map(|i| Point::new(300.0, 10.0 * i as f64));
    let west = (1..=30u64).map(|i| Point::new(300.0 - 10.0 * i as f64, 300.0));
    east.chain(north).chain(west)
}

#[test]
fn chain_is_connected_in_space_and_time() {
    let (_traj, chain) = drive(5.0, 10, zigzag());
    assert!(chain.len() >= 2, "zigzag produced only {} chain elements", chain.len());
    let mut covering = CoveringChain::new();
    for (seg, iv) in &chain {
        covering.push(*seg, *iv).expect("chain must connect");
    }
}

#[test]
fn every_chain_element_fits_the_measured_trajectory() {
    let eps = 5.0;
    let (traj, chain) = drive(eps, 10, zigzag());
    assert!(!chain.is_empty());
    for (i, (seg, iv)) in chain.iter().enumerate() {
        assert!(
            fits_trajectory(seg, *iv, &traj, eps),
            "chain element {i} ({seg:?} over {iv:?}) violates eps={eps}"
        );
    }
}

#[test]
fn tighter_tolerance_means_more_chain_elements() {
    // A meandering path: tolerance eps = 2 splits inside the curves
    // that eps = 20 absorbs whole.
    let wavy = || {
        (1..=120u64).map(|i| {
            let x = 10.0 * i as f64;
            let y = 15.0 * (i as f64 * 0.35).sin();
            Point::new(x, y)
        })
    };
    let (_t1, loose) = drive(20.0, 10, wavy());
    let (_t2, tight) = drive(2.0, 10, wavy());
    assert!(tight.len() > loose.len(), "tight {} !> loose {}", tight.len(), loose.len());
}

#[test]
fn single_straight_run_produces_at_most_one_element() {
    let straight = (1..=50u64).map(|i| Point::new(10.0 * i as f64, 0.0));
    let (_traj, chain) = drive(5.0, 10, straight);
    // Straight motion never violates, so nothing is ever reported.
    assert!(chain.is_empty(), "straight motion reported: {chain:?}");
}
