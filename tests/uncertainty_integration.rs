//! The (eps, delta) uncertainty model end to end: Gaussian measurements
//! through the uncertain RayTrace filter into the coordinator — under
//! every [`FallbackPolicy`] variant, not just `Reject`.

use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, TimePoint};
use hotpath_core::raytrace::UncertainRayTraceFilter;
use hotpath_core::time::Timestamp;
use hotpath_core::uncertainty::{FallbackPolicy, ToleranceTable2D};
use hotpath_core::ObjectId;
use hotpath_netsim::mobility::GaussianNoise;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run_uncertain(sigma: f64, seed: u64) -> (u64, usize) {
    run_uncertain_with(sigma, seed, FallbackPolicy::Reject).0
}

/// Runs the pipeline under `fallback`; returns `((reports, index size),
/// dropped measurements)`.
fn run_uncertain_with(sigma: f64, seed: u64, fallback: FallbackPolicy) -> ((u64, usize), u64) {
    let (eps, delta) = (10.0, 0.05);
    let config =
        Config::builder().tolerance(Tolerance::uncertain(eps, delta)).window(200).build().unwrap();
    let table = ToleranceTable2D::build(eps, delta, 8.0, 128, fallback);
    let mut coordinator = Coordinator::new(config);
    let mut rng = SmallRng::seed_from_u64(seed);
    let noise = GaussianNoise::new(sigma);

    let n = 20usize;
    let mut clients: Vec<UncertainRayTraceFilter> = (0..n)
        .map(|i| {
            UncertainRayTraceFilter::new(
                ObjectId(i as u64),
                TimePoint::new(Point::new(0.0, i as f64 * 100.0), Timestamp(0)),
                table.clone(),
            )
        })
        .collect();

    for t in 1..=200u64 {
        let now = Timestamp(t);
        for (i, client) in clients.iter_mut().enumerate() {
            // All objects ride parallel east-west roads with a kink.
            let x = 8.0 * t as f64;
            let y = i as f64 * 100.0 + if t > 100 { (t - 100) as f64 * 4.0 } else { 0.0 };
            let g = noise.measure(Point::new(x, y), &mut rng);
            if let Some(state) = client.observe_gaussian(g, now) {
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
        }
    }
    let reports: u64 = clients.iter().map(|c| c.stats().reports).sum();
    let dropped: u64 = clients.iter().map(|c| c.stats().dropped).sum();
    ((reports, coordinator.index_size()), dropped)
}

#[test]
fn uncertain_pipeline_discovers_paths() {
    let (reports, index) = run_uncertain(1.0, 301);
    assert!(reports > 0, "no reports at all");
    assert!(index > 0, "no paths discovered under uncertainty");
}

#[test]
fn noisier_sensors_report_more() {
    let (clean, _) = run_uncertain(0.5, 302);
    let (noisy, _) = run_uncertain(3.5, 302);
    assert!(
        noisy > clean,
        "noisy sensors should report more: sigma=3.5 -> {noisy}, sigma=0.5 -> {clean}"
    );
}

#[test]
fn hopeless_noise_rejects_measurements_not_paths() {
    // sigma near eps: many measurements unsolvable, but the pipeline
    // must not panic and the solvable remainder still flows.
    let (_reports, _index) = run_uncertain(4.9, 303);
}

#[test]
fn minimal_area_matches_reject_while_everything_is_solvable() {
    // Well inside the solvable range the fallback never fires, so the
    // two policies are byte-identical end to end.
    let (reject, dropped_r) = run_uncertain_with(1.5, 304, FallbackPolicy::Reject);
    let (minimal, dropped_m) = run_uncertain_with(1.5, 304, FallbackPolicy::MinimalArea(0.5));
    assert_eq!(reject, minimal);
    assert_eq!(dropped_r, 0);
    assert_eq!(dropped_m, 0);
}

#[test]
fn minimal_area_keeps_hopeless_sensors_in_the_pipeline() {
    // sigma = 6 > eps/1.96: Equation 2 has no solution anywhere, so
    // Reject starves the coordinator completely...
    let ((reject_reports, reject_index), reject_dropped) =
        run_uncertain_with(6.0, 305, FallbackPolicy::Reject);
    assert_eq!(reject_reports, 0, "reject should starve under hopeless noise");
    assert_eq!(reject_index, 0);
    assert!(reject_dropped > 0);
    // ...while MinimalArea degrades gracefully: nothing is dropped, the
    // stream keeps flowing, and paths are still discovered.
    let ((minimal_reports, minimal_index), minimal_dropped) =
        run_uncertain_with(6.0, 305, FallbackPolicy::MinimalArea(0.5));
    assert_eq!(minimal_dropped, 0, "minimal-area must never drop");
    assert!(minimal_reports > 0, "minimal-area must keep reporting");
    assert!(minimal_index > 0, "minimal-area must still discover paths");
}

#[test]
fn minimal_area_width_is_capped_by_the_solvable_edge() {
    // A configured fallback width wider than the narrowest solvable
    // interval must be capped there, keeping width monotone in sigma
    // (the dead-arm fix: previously the raw width leaked through and a
    // hopeless measurement could get a *wider* box than a barely
    // solvable one).
    use hotpath_core::uncertainty::ToleranceTable;
    let table = ToleranceTable::build(10.0, 0.05, 8.0, 128, FallbackPolicy::MinimalArea(50.0));
    // The table's own solvable floor: the narrowest width the Reject
    // variant ever hands out over a fine sigma scan.
    let reject = ToleranceTable::build(10.0, 0.05, 8.0, 128, FallbackPolicy::Reject);
    let solvable_floor =
        (0..800).filter_map(|i| reject.half_width(i as f64 * 0.01)).fold(f64::INFINITY, f64::min);
    let fallback_width = table.half_width(7.5).expect("fallback fires");
    assert!(
        fallback_width <= solvable_floor + 1e-9,
        "fallback width {fallback_width} exceeds the solvable floor {solvable_floor}"
    );
    // And the combined width function never increases with sigma.
    let mut prev = f64::INFINITY;
    for i in 0..800 {
        let w = table.half_width(i as f64 * 0.01).expect("minimal-area always yields");
        assert!(w <= prev + 1e-9, "width not monotone at sigma={}", i as f64 * 0.01);
        prev = w;
    }
}
