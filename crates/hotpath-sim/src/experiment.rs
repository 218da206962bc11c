//! The evaluation sweeps (Section 6): one function per figure, each
//! returning the series the paper plots plus a formatted report.

use crate::report;
use crate::scenario_run::{run_scenario, ScenarioRunParams, ScenarioRunResult};
use hotpath_core::geometry::{Rect, Segment};
use hotpath_netsim::mobility::PopulationParams;
use hotpath_netsim::scenario::{Scenario, ScenarioParams, Workload};

/// One point of the Figure 7 or Figure 8 sweep: the swept value and
/// the per-epoch means the three panels plot.
#[derive(Clone, Copy, Debug)]
pub struct SweepRow {
    /// The swept value: the number of objects `N` (Figure 7) or the
    /// tolerance `eps` in meters (Figure 8).
    pub x: f64,
    /// Mean SinglePath index size (motion paths) per epoch.
    pub sp_paths: f64,
    /// Mean DP index size (segments) per epoch.
    pub dp_paths: f64,
    /// Mean SinglePath top-k score per epoch.
    pub sp_score: f64,
    /// Mean DP top-k score per epoch.
    pub dp_score: f64,
    /// Mean wall time per epoch boundary, ms: the whole boundary —
    /// drain, SinglePath, respond and publish.
    pub sp_time_ms: f64,
}

/// Runs Table 2's uniform workload once and summarizes it as the sweep
/// row at `x`.
fn run_row(
    x: f64,
    scale: &ScenarioParams,
    mobility: PopulationParams,
    params: &ScenarioRunParams,
) -> SweepRow {
    let s = run_scenario(&mut Workload::uniform(scale, mobility), params).summary;
    SweepRow {
        x,
        sp_paths: s.mean_index_size,
        dp_paths: s.mean_dp_index_size,
        sp_score: s.mean_score,
        dp_score: s.mean_dp_score,
        sp_time_ms: s.mean_time_ms,
    }
}

/// Figure 7: vary the number of objects over the uniform workload
/// `(scale, mobility)`; `params` supplies the driver knobs (use
/// [`ScenarioRunParams::table2`] for the paper's).
pub fn figure7(
    ns: &[usize],
    scale: &ScenarioParams,
    mobility: PopulationParams,
    params: &ScenarioRunParams,
) -> Vec<SweepRow> {
    ns.iter()
        .map(|&n| run_row(n as f64, &ScenarioParams { n, ..*scale }, mobility, params))
        .collect()
}

/// Figure 8: vary the tolerance at fixed `N` (paper: 20 000).
pub fn figure8(
    epss: &[f64],
    scale: &ScenarioParams,
    mobility: PopulationParams,
    params: &ScenarioRunParams,
) -> Vec<SweepRow> {
    epss.iter()
        .map(|&eps| run_row(eps, scale, mobility, &ScenarioRunParams { eps, ..*params }))
        .collect()
}

/// Formats a Figure 7 or 8 series as the three panels' columns, the
/// swept value first under the header `x`.
pub fn format_sweep(x: &str, rows: &[SweepRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.x),
                format!("{:.0}", r.sp_paths),
                format!("{:.0}", r.dp_paths),
                format!("{:.1}", r.sp_score),
                format!("{:.1}", r.dp_score),
                format!("{:.2}", r.sp_time_ms),
            ]
        })
        .collect();
    report::table(&[x, "SP paths", "DP paths", "SP score", "DP score", "SP ms/epoch"], &data)
}

/// Renders a Figure 7 or 8 series as CSV at full precision, the swept
/// value first under the header `x`.
pub fn sweep_csv(x: &str, rows: &[SweepRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            [r.x, r.sp_paths, r.dp_paths, r.sp_score, r.dp_score, r.sp_time_ms]
                .iter()
                .map(|v| v.to_string())
                .collect()
        })
        .collect();
    report::csv(&[x, "sp_paths", "dp_paths", "sp_score", "dp_score", "sp_time_ms"], &data)
}

/// Figure 9: run `scenario` and return all motion paths with positive
/// hotness (the "discovered network"), in id order, plus the run
/// itself. The network to compare against is `scenario.network()`.
pub fn figure9(
    scenario: &mut dyn Scenario,
    params: &ScenarioRunParams,
) -> (Vec<(Segment, u32)>, ScenarioRunResult) {
    let res = run_scenario(scenario, params);
    let paths: Vec<(Segment, u32)> =
        res.coordinator.hot_paths().iter().map(|h| (h.path.seg, h.hotness)).collect();
    (paths, res)
}

/// Figure 10: the top-`k` hottest paths restricted to the map center
/// (the paper zooms on the Athens center).
pub fn figure10(
    scenario: &mut dyn Scenario,
    params: &ScenarioRunParams,
    k: usize,
) -> (Vec<(Segment, u32)>, Rect, ScenarioRunResult) {
    let res = run_scenario(scenario, params);
    let bounds = scenario.network().bounds();
    // Central zoom: the middle third of the area.
    let third = |lo: f64, hi: f64| -> (f64, f64) {
        let span = hi - lo;
        (lo + span / 3.0, hi - span / 3.0)
    };
    let (cx0, cx1) = third(bounds.lo().x, bounds.hi().x);
    let (cy0, cy1) = third(bounds.lo().y, bounds.hi().y);
    let center = Rect::new(
        hotpath_core::geometry::Point::new(cx0, cy0),
        hotpath_core::geometry::Point::new(cx1, cy1),
    );
    // The coordinator's top-k order — hotness, then length, then id — so
    // ties at the cut never depend on storage order.
    let central: Vec<(Segment, u32)> = res
        .coordinator
        .top_n(res.coordinator.hot_count())
        .iter()
        .filter(|h| center.intersects(&h.path.seg.mbb()))
        .take(k)
        .map(|h| (h.path.seg, h.hotness))
        .collect();
    (central, center, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_netsim::network::NetworkParams;

    /// Table 2 at test scale over 80 timestamps.
    fn quick_base() -> (ScenarioParams, PopulationParams, ScenarioRunParams) {
        let scale =
            ScenarioParams { n: 150, seed: 17, duration: 80, network: NetworkParams::tiny(17) };
        let params = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
        (scale, PopulationParams::paper_defaults(0, 0), params)
    }

    #[test]
    fn figure7_rows_cover_requested_ns() {
        let (scale, mobility, params) = quick_base();
        let rows = figure7(&[50, 150], &scale, mobility, &params);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].x, 50.0);
        assert_eq!(rows[1].x, 150.0);
        // More objects → more (or equal) paths, for both methods.
        assert!(rows[1].sp_paths >= rows[0].sp_paths);
        // The formatted table parses back.
        let txt = format_sweep("N", &rows);
        assert!(txt.contains("SP paths"));
        assert_eq!(txt.lines().count(), 4);
        // The swept value prints as an integer in both renderings.
        assert!(txt.lines().nth(2).unwrap().trim_start().starts_with("50 "));
        assert!(sweep_csv("n", &rows).lines().nth(1).unwrap().starts_with("50,"));
    }

    #[test]
    fn figure8_rows_cover_requested_eps() {
        let (scale, mobility, params) = quick_base();
        let rows = figure8(&[5.0, 20.0], &scale, mobility, &params);
        assert_eq!(rows.len(), 2);
        // Larger tolerance → fewer paths (SinglePath), as in Fig 8a.
        assert!(
            rows[1].sp_paths <= rows[0].sp_paths,
            "eps=20 produced more paths than eps=5: {} vs {}",
            rows[1].sp_paths,
            rows[0].sp_paths
        );
        let txt = format_sweep("eps", &rows);
        assert!(txt.contains("eps"));
    }

    #[test]
    fn figure9_returns_hot_paths() {
        let (scale, mobility, params) = quick_base();
        let (paths, res) = figure9(&mut Workload::uniform(&scale, mobility), &params);
        assert!(!paths.is_empty());
        assert_eq!(paths.len(), res.coordinator.hot_paths().len());
        assert!(paths.iter().all(|&(_, h)| h >= 1));
    }

    #[test]
    fn figure10_respects_k_and_center() {
        let (scale, mobility, params) = quick_base();
        let (paths, center, _res) = figure10(&mut Workload::uniform(&scale, mobility), &params, 5);
        assert!(paths.len() <= 5);
        for (seg, _) in &paths {
            assert!(center.intersects(&seg.mbb()));
        }
        // Sorted by hotness descending.
        for pair in paths.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}

// --------------------------------------------------------------------
// Extension experiments (beyond the paper's figures; see README's
// Scenarios section and the `experiments` binary's module doc)
// --------------------------------------------------------------------

/// Communication economy of three client filters on the same stream.
#[derive(Clone, Copy, Debug)]
pub struct FilterEconomy {
    /// Measurements generated.
    pub measurements: u64,
    /// Naive uplink: one message per *movement* sample (the strawman of
    /// Section 1: "all objects continuously relay their locations").
    pub naive_msgs: u64,
    /// Dead-reckoning updates.
    pub dead_reckoning_msgs: u64,
    /// RayTrace state reports.
    pub raytrace_msgs: u64,
    /// Naive uplink bytes (timepoint + id).
    pub naive_bytes: u64,
    /// Dead-reckoning bytes.
    pub dead_reckoning_bytes: u64,
    /// RayTrace bytes.
    pub raytrace_bytes: u64,
}

/// Runs the uniform workload through the full RayTrace pipeline, then
/// replays the identical stream through a naive uploader and a
/// dead-reckoning filter.
pub fn filter_economy(
    scale: &ScenarioParams,
    mobility: PopulationParams,
    params: &ScenarioRunParams,
) -> FilterEconomy {
    use hotpath_baseline::dead_reckoning::{DeadReckoningFilter, DrUpdate};
    use hotpath_core::raytrace::ClientState;
    use hotpath_core::time::Timestamp;
    use hotpath_core::ObjectId;

    // RayTrace needs the coordinator loop for endpoints.
    let rt_params = ScenarioRunParams { dp: false, ..*params };
    let rt = run_scenario(&mut Workload::uniform(scale, mobility), &rt_params);

    let mut replay = Workload::uniform(scale, mobility);
    let mut dr: Vec<DeadReckoningFilter> = (0..scale.n)
        .map(|i| {
            let obj = ObjectId(i as u64);
            DeadReckoningFilter::new(obj, replay.seed_timepoint(obj, Timestamp(0)), params.eps)
        })
        .collect();
    let mut naive_msgs = 0u64;
    let mut dr_msgs = 0u64;
    let mut batch = Vec::new();
    let mut last_pos: Vec<Option<hotpath_core::geometry::Point>> = vec![None; scale.n];
    for t in 1..=scale.duration {
        replay.tick(Timestamp(t), &mut batch);
        for m in &batch {
            let idx = m.object.0 as usize;
            // The naive protocol uploads every *changed* position (it
            // would be absurd to re-upload a parked object).
            if last_pos[idx] != Some(m.truth) {
                naive_msgs += 1;
                last_pos[idx] = Some(m.truth);
            }
            if dr[idx].observe(m.observed).is_some() {
                dr_msgs += 1;
            }
        }
    }
    FilterEconomy {
        measurements: rt.summary.measurements,
        naive_msgs,
        dead_reckoning_msgs: dr_msgs,
        raytrace_msgs: rt.summary.uplink_msgs,
        naive_bytes: naive_msgs * (16 + 8 + 8),
        dead_reckoning_bytes: dr_msgs * DrUpdate::WIRE_BYTES as u64,
        raytrace_bytes: rt.summary.uplink_msgs * ClientState::WIRE_BYTES as u64,
    }
}

/// Per-object synopsis quality of the streaming compressors: segments
/// produced and worst-case spatial deviation, RayTrace chains vs the
/// opening-window DP policies (the ref.-20 comparison of Section 2).
#[derive(Clone, Copy, Debug)]
pub struct CompressionRow {
    /// Stream length in points.
    pub points: usize,
    /// RayTrace chain elements.
    pub raytrace_segments: usize,
    /// RayTrace worst deviation (max-distance, synchronized in time).
    pub raytrace_deviation: f64,
    /// DP-nopw segments.
    pub nopw_segments: usize,
    /// DP-nopw worst spatial deviation.
    pub nopw_deviation: f64,
    /// DP-bopw segments.
    pub bopw_segments: usize,
    /// DP-bopw worst spatial deviation.
    pub bopw_deviation: f64,
}

/// Compresses one wavy-and-turning trajectory with all three streaming
/// methods at tolerance `eps`.
pub fn compression_quality(points: usize, eps: f64) -> CompressionRow {
    use hotpath_baseline::{EndpointPolicy, Metric, OpeningWindow};
    use hotpath_core::geometry::{Point, Segment, TimePoint};
    use hotpath_core::raytrace::RayTraceFilter;
    use hotpath_core::time::Timestamp;
    use hotpath_core::ObjectId;

    // A demanding trajectory: drift + waves + a hard turn mid-way.
    let traj: Vec<TimePoint> = (1..=points as u64)
        .map(|t| {
            let half = points as u64 / 2;
            let p = if t <= half {
                Point::new(8.0 * t as f64, (t as f64 * 0.15).sin() * 6.0)
            } else {
                Point::new(8.0 * half as f64, 8.0 * (t - half) as f64)
            };
            TimePoint::new(p, Timestamp(t))
        })
        .collect();
    let seed = TimePoint::new(Point::new(0.0, 0.0), Timestamp(0));

    // RayTrace chain, endpoint = FSA centroid (coordinator stand-in).
    let mut rt = RayTraceFilter::new(ObjectId(0), seed, eps);
    let mut rt_segments: Vec<(TimePoint, TimePoint)> = Vec::new();
    let mut chain_start = seed;
    for tp in &traj {
        if let Some(state) = rt.observe(*tp) {
            let endpoint = TimePoint::new(state.fsa.centroid(), state.te);
            rt_segments.push((chain_start, endpoint));
            chain_start = endpoint;
            let _ = rt.receive_endpoint(endpoint);
        }
    }
    // Synchronized deviation of the chain against the measured stream.
    let mut all_points = vec![seed];
    all_points.extend(traj.iter().copied());
    let deviation_of = |segments: &[(TimePoint, TimePoint)], synchronized: bool| -> f64 {
        let mut worst = 0.0f64;
        for p in &all_points {
            for (a, b) in segments {
                if a.t <= p.t && p.t <= b.t {
                    let seg = Segment::new(a.p, b.p);
                    let d = if synchronized && b.t > a.t {
                        let lambda = p.t.fraction_of(a.t, b.t);
                        seg.point_at(lambda).dist_linf(&p.p)
                    } else {
                        seg.dist_linf_point(&p.p)
                    };
                    worst = worst.max(d);
                }
            }
        }
        worst
    };
    let rt_dev = deviation_of(&rt_segments, true);

    let run_ow = |policy| -> (usize, f64) {
        let mut ow = OpeningWindow::new(seed, eps, policy, Metric::LInf);
        let mut segs: Vec<(TimePoint, TimePoint)> = Vec::new();
        for tp in &traj {
            for e in ow.push(*tp) {
                segs.push((e.from, e.to));
            }
        }
        if let Some(e) = ow.finish() {
            segs.push((e.from, e.to));
        }
        let dev = deviation_of(&segs, false);
        (segs.len(), dev)
    };
    let (nopw_segments, nopw_deviation) = run_ow(EndpointPolicy::Nopw);
    let (bopw_segments, bopw_deviation) = run_ow(EndpointPolicy::Bopw);

    CompressionRow {
        points,
        raytrace_segments: rt_segments.len(),
        raytrace_deviation: rt_dev,
        nopw_segments,
        nopw_deviation,
        bopw_segments,
        bopw_deviation,
    }
}

/// One row of the `(eps, delta)` uncertainty sweep: sensor noise vs
/// filter behavior (Section 4.1 end-to-end).
#[derive(Clone, Copy, Debug)]
pub struct UncertaintyRow {
    /// Sensor standard deviation, meters.
    pub sigma: f64,
    /// Solved tolerance half-width (per axis, at delta/2), if solvable.
    pub half_width: Option<f64>,
    /// Reports per mover over the horizon.
    pub reports_per_mover: f64,
    /// Measurements dropped as unsolvable.
    pub dropped: u64,
}

/// Sweeps sensor noise through the uncertain RayTrace pipeline on a
/// straight-road workload (isolates the tolerance-shrink effect).
pub fn uncertainty_sweep(sigmas: &[f64], eps: f64, delta: f64, seed: u64) -> Vec<UncertaintyRow> {
    use hotpath_core::geometry::{Point, TimePoint};
    use hotpath_core::raytrace::UncertainRayTraceFilter;
    use hotpath_core::time::Timestamp;
    use hotpath_core::uncertainty::{half_width_exact, FallbackPolicy, ToleranceTable2D};
    use hotpath_core::ObjectId;
    use hotpath_netsim::mobility::GaussianNoise;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    sigmas
        .iter()
        .map(|&sigma| {
            let table = ToleranceTable2D::build(eps, delta, eps, 256, FallbackPolicy::Reject);
            let mut rng = SmallRng::seed_from_u64(seed);
            let noise = GaussianNoise::new(sigma);
            let movers = 50usize;
            let horizon = 300u64;
            let mut reports = 0u64;
            let mut dropped = 0u64;
            for m in 0..movers {
                let mut filter = UncertainRayTraceFilter::new(
                    ObjectId(m as u64),
                    TimePoint::new(Point::new(0.0, m as f64 * 1000.0), Timestamp(0)),
                    table.clone(),
                );
                for t in 1..=horizon {
                    let truth = Point::new(
                        8.0 * t as f64,
                        m as f64 * 1000.0 + (t as f64 * 0.1).sin() * 2.0,
                    );
                    let g = noise.measure(truth, &mut rng);
                    if let Some(state) = filter.observe_gaussian(g, Timestamp(t)) {
                        reports += 1;
                        let _ =
                            filter.receive_endpoint(TimePoint::new(state.fsa.centroid(), state.te));
                    }
                }
                dropped += filter.stats().dropped;
            }
            UncertaintyRow {
                sigma,
                half_width: half_width_exact(eps, delta / 2.0, sigma),
                reports_per_mover: reports as f64 / movers as f64,
                dropped,
            }
        })
        .collect()
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn filter_economy_orders_the_three_protocols() {
        use hotpath_netsim::network::NetworkParams;
        let scale =
            ScenarioParams { n: 100, seed: 31, duration: 100, network: NetworkParams::tiny(31) };
        let mobility = PopulationParams { agility: 0.3, ..PopulationParams::paper_defaults(0, 0) };
        let params = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
        let e = filter_economy(&scale, mobility, &params);
        assert!(e.measurements > 0);
        // Naive uploads every movement; both filters improve on it.
        assert!(e.naive_msgs > e.dead_reckoning_msgs, "{e:?}");
        assert!(e.naive_msgs > e.raytrace_msgs, "{e:?}");
        assert!(e.dead_reckoning_msgs > 0);
        assert!(e.raytrace_msgs > 0);
        assert_eq!(e.raytrace_bytes, e.raytrace_msgs * 72);
    }

    #[test]
    fn compression_respects_tolerance() {
        let row = compression_quality(200, 5.0);
        // Spatial deviations honor eps for the DP variants.
        assert!(row.nopw_deviation <= 5.0 + 1e-6, "{row:?}");
        assert!(row.bopw_deviation <= 5.0 + 1e-6, "{row:?}");
        // RayTrace guarantees synchronized deviation within eps.
        assert!(row.raytrace_deviation <= 5.0 + 1e-6, "{row:?}");
        // Everyone splits at least once on the hard turn.
        assert!(row.raytrace_segments >= 1);
        assert!(row.nopw_segments >= 1);
        assert!(row.bopw_segments >= 1);
    }

    #[test]
    fn compression_tighter_eps_means_more_segments() {
        let tight = compression_quality(300, 2.0);
        let loose = compression_quality(300, 15.0);
        assert!(tight.raytrace_segments >= loose.raytrace_segments, "{tight:?} vs {loose:?}");
        assert!(tight.nopw_segments >= loose.nopw_segments);
    }

    #[test]
    fn uncertainty_sweep_monotone_in_sigma() {
        let rows = uncertainty_sweep(&[0.5, 2.0, 4.0], 10.0, 0.05, 77);
        assert_eq!(rows.len(), 3);
        // Half-widths shrink with noise.
        let w: Vec<f64> = rows.iter().map(|r| r.half_width.unwrap_or(0.0)).collect();
        assert!(w[0] > w[1] && w[1] > w[2], "{w:?}");
        // Noisier sensors report at least as often.
        assert!(rows[2].reports_per_mover >= rows[0].reports_per_mover, "{rows:?}");
    }
}
