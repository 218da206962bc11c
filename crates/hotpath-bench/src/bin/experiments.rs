//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [fig7|fig8|fig9|fig10|claims|all]
//!             [--scale paper|mid|quick] [--csv <dir>]
//! experiments scenario <name|all> [--scale ...] [--csv <dir>]
//!             [--sigma s1,s2,...] [--fallback reject|minimal[:w]|all]
//!             [--restore-check] [--fault-seed N]
//! ```
//!
//! Defaults: `all --scale mid`. `--scale paper` runs the exact Section
//! 6.1 parameters (N up to 100 000 — allow several minutes).
//!
//! `scenario` drives the netsim scenario registry: each named workload
//! runs crisp with its invariants verified (exit 1 on violation), then
//! sweeps the `(sigma, fallback)` uncertainty grid. `--csv <dir>`
//! additionally writes each scenario's per-epoch metric series to
//! `<dir>/scenario_<name>.csv`. The flags only `scenario` reads
//! (`--sigma` through `--fault-seed` above) are usage errors (exit 2)
//! on any other command.

use hotpath_bench::Scale;
use hotpath_core::uncertainty::FallbackPolicy;
use hotpath_netsim::scenario::{spec, Scenario, ScenarioParams, Workload, REGISTRY};
use hotpath_sim::experiment::{
    figure10, figure7, figure8, figure9, format_sweep, sweep_csv, SweepRow,
};
use hotpath_sim::report::{network_map, paths_map};
use hotpath_sim::scenario_run::{
    check_restart_parity, run_named, run_scenario, scenario_sigma_sweep, ScenarioRunParams,
};
use std::time::Instant;

/// Flags only the `scenario` command reads; every other command
/// rejects them rather than run without them.
const SCENARIO_FLAGS: &[&str] = &["--sigma", "--fallback", "--restore-check", "--fault-seed"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scenario_name: Option<String> = None;
    let mut scale = Scale::Mid;
    let mut sigmas: Option<Vec<f64>> = None;
    let mut fallbacks: Option<Vec<FallbackPolicy>> = None;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut restore_check = false;
    let mut fault_seed: Option<u64> = None;
    let mut scenario_flag: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if SCENARIO_FLAGS.contains(&arg) {
            scenario_flag.get_or_insert(arg);
        }
        match arg {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .unwrap_or_else(|| usage("--scale needs a value"))
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("{e}")));
            }
            "--sigma" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage("--sigma needs a comma list"));
                let parsed: Option<Vec<f64>> = list
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().ok().filter(|v| *v >= 0.0))
                    .collect();
                sigmas =
                    Some(parsed.unwrap_or_else(|| usage("--sigma needs non-negative numbers")));
            }
            "--fallback" => {
                i += 1;
                let tag = args.get(i).unwrap_or_else(|| usage("--fallback needs a policy"));
                fallbacks = Some(if tag == "all" {
                    vec![FallbackPolicy::Reject, FallbackPolicy::MinimalArea(0.5)]
                } else {
                    vec![tag
                        .parse::<FallbackPolicy>()
                        .unwrap_or_else(|e| usage(&format!("{e} (or all)")))]
                });
            }
            "--csv" => {
                i += 1;
                let dir = args.get(i).unwrap_or_else(|| usage("--csv needs a directory"));
                csv_dir = Some(std::path::PathBuf::from(dir));
            }
            "--restore-check" => restore_check = true,
            "--fault-seed" => {
                i += 1;
                fault_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--fault-seed needs an integer")),
                );
            }
            "scenario" => {
                i += 1;
                let name = args.get(i).unwrap_or_else(|| usage("scenario needs a name (or 'all')"));
                if name != "all" && spec(name).is_none() {
                    let hint = closest_scenario(name)
                        .map(|c| format!(" — did you mean '{c}'?"))
                        .unwrap_or_default();
                    usage(&format!(
                        "unknown scenario '{name}'{hint} (available: {})",
                        REGISTRY.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
                    ));
                }
                which = "scenario".to_string();
                scenario_name = Some(name.clone());
            }
            w @ ("fig7" | "fig8" | "fig9" | "fig10" | "claims" | "ablate" | "filters"
            | "compress" | "uncertain" | "all") => {
                which = w.to_string();
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if let Some(flag) = scenario_flag.filter(|_| which != "scenario") {
        usage(&format!("{flag} applies only to the scenario command"));
    }

    println!("# Hot Motion Paths — experiment reproduction (scale: {scale:?})");
    println!();
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| usage(&format!("--csv: {e}")));
    }
    let wall = Instant::now();
    match which.as_str() {
        "scenario" => scenario(
            scenario_name.as_deref().unwrap_or("all"),
            scale,
            sigmas.as_deref(),
            fallbacks.as_deref(),
            csv_dir.as_deref(),
            restore_check,
            fault_seed,
        ),
        "fig7" => fig7(scale, csv_dir.as_deref()),
        "fig8" => fig8(scale, csv_dir.as_deref()),
        "fig9" => fig9(scale),
        "fig10" => fig10_(scale),
        "claims" => claims(scale),
        "ablate" => ablate(scale),
        "filters" => filters(scale),
        "compress" => compress(),
        "uncertain" => uncertain(),
        "all" => {
            fig7(scale, csv_dir.as_deref());
            fig8(scale, csv_dir.as_deref());
            fig9(scale);
            fig10_(scale);
            claims(scale);
            ablate(scale);
            filters(scale);
            compress();
            uncertain();
        }
        _ => unreachable!(),
    }
    println!("total wall clock: {:.2} s", wall.elapsed().as_secs_f64());
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments [fig7|fig8|fig9|fig10|claims|ablate|filters|compress|uncertain|all] \
         [--scale paper|mid|quick] [--csv <dir>]\n       \
         experiments scenario <name|all> [--scale paper|mid|quick] [--csv <dir>] \
         [--sigma s1,s2,...] [--fallback reject|minimal[:<w>]|all] [--restore-check] \
         [--fault-seed N]"
    );
    std::process::exit(2);
}

/// The registry name closest to `name` by edit distance, when close
/// enough to plausibly be a typo (the `scenario` command's
/// did-you-mean hint).
fn closest_scenario(name: &str) -> Option<&'static str> {
    let best = REGISTRY.iter().map(|s| (edit_distance(name, s.name), s.name)).min()?;
    (best.0 <= 3.max(name.len() / 3)).then_some(best.1)
}

/// Levenshtein distance over characters.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The scenario subsystem: crisp run + invariants, then the
/// `(sigma, fallback)` uncertainty sweep; `--csv` writes each
/// scenario's per-epoch series. `--restore-check` pins restart parity:
/// checkpoint at mid-run, tear the engine down, restore from bytes, and
/// require the continuation to equal the uninterrupted run bit for bit.
fn scenario(
    name: &str,
    scale: Scale,
    sigmas: Option<&[f64]>,
    fallbacks: Option<&[FallbackPolicy]>,
    csv_dir: Option<&std::path::Path>,
    restore_check: bool,
    fault_seed: Option<u64>,
) {
    let scenario_scale = scale.scenario_params(2015);
    let mut base = ScenarioRunParams::default();
    if let Some(seed) = fault_seed {
        base.fault_seed = seed;
    }
    // Near-edge default grid: eps = 10 solves up to sigma ~ 5.1, so the
    // last point forces the fallback policy to act.
    let default_sigmas = [0.5, 2.0, 6.0];
    let sigmas = sigmas.unwrap_or(&default_sigmas);
    let default_fallbacks = [FallbackPolicy::Reject];
    let fallbacks = fallbacks.unwrap_or(&default_fallbacks);
    let selected: Vec<&str> =
        if name == "all" { REGISTRY.iter().map(|s| s.name).collect() } else { vec![name] };
    let mut failures = 0usize;
    for spec in REGISTRY.iter().filter(|s| selected.contains(&s.name)) {
        println!("## Scenario `{}` — {}", spec.name, spec.summary);
        let res = run_named(spec.name, &scenario_scale, &base).expect("registered scenario");
        let s = &res.summary;
        println!(
            "   crisp : {:>7.0} paths/epoch, score {:>9.1}, {:>8} reports / {:>9} measurements, \
             {:.2} ms/epoch",
            s.mean_index_size,
            s.mean_score,
            res.filter_stats.reports,
            s.measurements,
            s.mean_time_ms
        );
        let knobs = res.coordinator.config().admission;
        if knobs.queue_cap > 0 || knobs.degrade_threshold > 0 {
            let adm = res.coordinator.admission_stats();
            println!(
                "   robust: {} turned away, {} degraded epochs",
                adm.ejected, adm.degraded_epochs
            );
        }
        match &res.invariants {
            Ok(()) => println!("   invariants: ok"),
            Err(e) => {
                failures += 1;
                println!("   invariants: FAILED — {e}");
            }
        }
        if restore_check {
            match check_restart_parity(|| Box::new(Workload::new(spec, &scenario_scale)), &base) {
                Ok(()) => println!(
                    "   restart parity: checkpoint/restore at mid-run == uninterrupted, bit for bit"
                ),
                Err(e) => {
                    failures += 1;
                    println!("   restart parity: FAILED — {e}");
                }
            }
        }
        if let Some(dir) = csv_dir {
            let path = dir.join(format!("scenario_{}.csv", spec.name));
            match std::fs::write(
                &path,
                hotpath_sim::report::epoch_metrics_csv(&res.outcome.per_epoch),
            ) {
                Ok(()) => println!("   (per-epoch series written to {})", path.display()),
                Err(e) => {
                    failures += 1;
                    println!("   csv: FAILED — cannot write {}: {e}", path.display());
                }
            }
        }
        let cells = scenario_sigma_sweep(spec.name, &scenario_scale, &base, sigmas, fallbacks)
            .expect("registered scenario");
        println!("   uncertainty sweep (eps = {}, delta = {}):", base.eps, base.delta);
        let data: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    format!("{:?}", c.fallback),
                    format!("{:.1}", c.sigma),
                    c.reports.to_string(),
                    c.dropped.to_string(),
                    format!("{:.0}", c.mean_index),
                    format!("{:.1}", c.mean_score),
                    c.invariant_failure.as_deref().unwrap_or("ok").to_string(),
                ]
            })
            .collect();
        let table = hotpath_sim::report::table(
            &["fallback", "sigma", "reports", "dropped", "paths", "score", "invariants"],
            &data,
        );
        for line in table.lines() {
            println!("   {line}");
        }
        println!();
    }
    if failures > 0 {
        eprintln!("scenario: {failures} failure(s)");
        std::process::exit(1);
    }
}

/// Figure 7 (a-c): vary N at eps = 10.
fn fig7(scale: Scale, csv_dir: Option<&std::path::Path>) {
    println!("## Figure 7 — varying the number of objects (eps = 10 m)");
    println!("   panels: (a) index size, (b) top-10 score, (c) SinglePath ms/epoch");
    let (workload, mobility, params) = scale.base(2008);
    let rows = figure7(&scale.fig7_ns(), &workload, mobility, &params);
    println!("{}", format_sweep("N", &rows));
    write_sweep_csv(csv_dir, "fig7.csv", "n", &rows);
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        println!(
            "   shape: SP/DP path ratio goes {:.2} -> {:.2}; SP time grows {:.1}x across the sweep",
            first.sp_paths / first.dp_paths.max(1.0),
            last.sp_paths / last.dp_paths.max(1.0),
            last.sp_time_ms / first.sp_time_ms.max(1e-9),
        );
    }
    println!();
}

/// Figure 8 (a-c): vary eps at the scale's fixed N.
fn fig8(scale: Scale, csv_dir: Option<&std::path::Path>) {
    let n = scale.fig8_n();
    println!("## Figure 8 — varying the tolerance (N = {n})");
    println!("   panels: (a) index size, (b) top-10 score, (c) SinglePath ms/epoch");
    let (workload, mobility, params) = scale.base(2009);
    let rows = figure8(&scale.fig8_eps(), &ScenarioParams { n, ..workload }, mobility, &params);
    println!("{}", format_sweep("eps", &rows));
    write_sweep_csv(csv_dir, "fig8.csv", "eps", &rows);
    let t2 = rows.iter().find(|r| r.x == 2.0);
    let t20 = rows.iter().find(|r| r.x == 20.0);
    if let (Some(a), Some(b)) = (t2, t20) {
        println!(
            "   shape: processing time falls {:.1}x from eps=2 to eps=20 (paper: >3x)",
            a.sp_time_ms / b.sp_time_ms.max(1e-9)
        );
    }
    println!();
}

/// `--csv`: writes a Figure 7 or 8 series to `<dir>/<file>`, the swept
/// value under the header `x`.
fn write_sweep_csv(dir: Option<&std::path::Path>, file: &str, x: &str, rows: &[SweepRow]) {
    if let Some(dir) = dir {
        let path = dir.join(file);
        std::fs::write(&path, sweep_csv(x, rows)).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("   (series written to {})", path.display());
    }
}

/// Figure 9: the discovered network map.
fn fig9(scale: Scale) {
    println!("## Figure 9 — all motion paths with hotness > 0 (vs the hidden network)");
    let (workload, mobility, params) = scale.base(2010);
    let mut world = Workload::uniform(&ScenarioParams { n: scale.map_n(), ..workload }, mobility);
    let (paths, _res) = figure9(&mut world, &params);
    let (cols, rows_) = (96, 30);
    let net = network_map(world.network(), cols, rows_);
    let disc = paths_map(world.network().bounds(), &paths, cols, rows_);
    println!("   the hidden road network:");
    print!("{}", indent(&net.render()));
    println!("   as discovered by SinglePath ({} hot paths):", paths.len());
    print!("{}", indent(&disc.render()));
    println!(
        "   ink coverage: network {:.0}%, discovered {:.0}%",
        net.coverage() * 100.0,
        disc.coverage() * 100.0
    );
    println!();
}

/// Figure 10: top-20 hottest paths in the center.
fn fig10_(scale: Scale) {
    println!("## Figure 10 — top 20 hottest motion paths, city center");
    let (workload, mobility, params) = scale.base(2010);
    let mut world = Workload::uniform(&ScenarioParams { n: scale.map_n(), ..workload }, mobility);
    let (paths, center, _res) = figure10(&mut world, &params, 20);
    let map = paths_map(center, &paths, 72, 24);
    print!("{}", indent(&map.render()));
    println!(
        "   {} central hot paths; hotness range {:?}",
        paths.len(),
        (paths.last().map(|p| p.1).unwrap_or(0), paths.first().map(|p| p.1).unwrap_or(0),)
    );
    println!();
}

/// The in-text claims of Section 6.2.
fn claims(scale: Scale) {
    println!("## Section 6.2 in-text claims");
    // Claim i: at the largest N, SinglePath stores ~16% more segments
    // than DP (10,896 vs 9,416 in the paper).
    let n = *scale.fig7_ns().last().expect("non-empty sweep");
    let (workload, mobility, params) = scale.base(2008);
    let res =
        run_scenario(&mut Workload::uniform(&ScenarioParams { n, ..workload }, mobility), &params);
    let sp = res.summary.mean_index_size;
    let dp = res.summary.mean_dp_index_size;
    println!(
        "   (i) N={n}: SinglePath {sp:.0} paths vs DP {dp:.0} segments ({:+.0}% — paper: +16% at N=100k)",
        100.0 * (sp - dp) / dp.max(1.0)
    );
    // Claim ii: SinglePath can beat DP on score (paper: at N=20000).
    let rows = figure7(&scale.fig7_ns(), &workload, mobility, &params);
    let wins: Vec<usize> =
        rows.iter().filter(|r| r.sp_score > r.dp_score).map(|r| r.x as usize).collect();
    println!("   (ii) SinglePath score beats DP at N in {wins:?} (paper: at N=20,000)");
    // Claim iii is printed by fig8's shape line.
    println!("   (iii) see Figure 8 shape line (eps=2 -> 20 speedup; paper: >3x)");
    // Filter economy (the motivation of Section 3.2).
    println!(
        "   filter: {} of {} measurements uploaded ({:.1}% suppressed)",
        res.summary.uplink_msgs,
        res.summary.measurements,
        100.0 * (1.0 - res.summary.report_ratio)
    );
    println!();
}

/// Ablation of the Cases-2/3 FSA-overlap machinery (Example 2).
fn ablate(scale: Scale) {
    use hotpath_core::strategy::OverlapPolicy;
    println!("## Ablation — Algorithm 2 overlap analysis vs naive vertices");
    let n = scale.fig8_n();
    let (workload, mobility, params) = scale.base(2012);
    let params = ScenarioRunParams { dp: false, ..params };
    let run = |params: &ScenarioRunParams| {
        run_scenario(&mut Workload::uniform(&ScenarioParams { n, ..workload }, mobility), params)
    };
    let full = run(&params);
    let own = run(&ScenarioRunParams { overlap: OverlapPolicy::Own, ..params });
    for (tag, res) in [("full (Alg. 2)", &full), ("own-centroid ", &own)] {
        let p = res.coordinator.processing_stats();
        println!(
            "   {tag}: {:>8.0} paths, score {:>9.1}, reuse case1 {:>4.1}% case2 {:>4.1}%",
            res.summary.mean_index_size,
            res.summary.mean_score,
            100.0 * p.case1 as f64 / (p.case1 + p.case2 + p.case3).max(1) as f64,
            100.0 * p.case2 as f64 / (p.case1 + p.case2 + p.case3).max(1) as f64,
        );
    }
    println!(
        "   overlap machinery changes the index by {:+.1}% and the score by {:+.1}%",
        100.0 * (full.summary.mean_index_size - own.summary.mean_index_size)
            / own.summary.mean_index_size.max(1.0),
        100.0 * (full.summary.mean_score - own.summary.mean_score)
            / own.summary.mean_score.max(1e-9),
    );
    println!();
}

/// Communication-economy comparison of client filters (extension).
fn filters(scale: Scale) {
    use hotpath_sim::experiment::filter_economy;
    println!("## Filter economy — naive vs dead reckoning vs RayTrace");
    let n = scale.fig8_n();
    let (workload, mobility, params) = scale.base(2013);
    let e = filter_economy(&ScenarioParams { n, ..workload }, mobility, &params);
    let pct = |msgs: u64| 100.0 * msgs as f64 / e.naive_msgs.max(1) as f64;
    println!("   measurements        : {:>12}", e.measurements);
    println!(
        "   naive (every move)  : {:>12} msgs  {:>12} bytes  (100%)",
        e.naive_msgs, e.naive_bytes
    );
    println!(
        "   dead reckoning      : {:>12} msgs  {:>12} bytes  ({:.1}% of naive)",
        e.dead_reckoning_msgs,
        e.dead_reckoning_bytes,
        pct(e.dead_reckoning_msgs)
    );
    println!(
        "   RayTrace            : {:>12} msgs  {:>12} bytes  ({:.1}% of naive)",
        e.raytrace_msgs,
        e.raytrace_bytes,
        pct(e.raytrace_msgs)
    );
    println!("   (RayTrace additionally yields covering motion paths; DR does not)");
    println!();
}

/// Streaming-compression quality comparison (extension; cf. ref. 20).
fn compress() {
    use hotpath_sim::experiment::compression_quality;
    println!("## Synopsis quality — RayTrace chain vs DP-nopw vs DP-bopw");
    println!("   (one wavy trajectory with a hard turn; deviations in meters)");
    let mut rows = Vec::new();
    for eps in [2.0, 5.0, 10.0] {
        let r = compression_quality(400, eps);
        rows.push(vec![
            format!("{eps:.0}"),
            r.raytrace_segments.to_string(),
            format!("{:.2}", r.raytrace_deviation),
            r.nopw_segments.to_string(),
            format!("{:.2}", r.nopw_deviation),
            r.bopw_segments.to_string(),
            format!("{:.2}", r.bopw_deviation),
        ]);
    }
    println!(
        "{}",
        hotpath_sim::report::table(
            &["eps", "RT segs", "RT dev", "nopw segs", "nopw dev", "bopw segs", "bopw dev"],
            &rows
        )
    );
    println!();
}

/// The (eps, delta) noise sweep (Section 4.1 extension).
fn uncertain() {
    use hotpath_sim::experiment::uncertainty_sweep;
    println!("## Uncertainty — sensor noise vs tolerance interval and report rate");
    println!("   (eps = 10 m, delta = 0.05, straight-road movers)");
    let rows = uncertainty_sweep(&[0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5], 10.0, 0.05, 2014);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.sigma),
                r.half_width.map(|w| format!("{w:.2}")).unwrap_or_else(|| "unsolvable".into()),
                format!("{:.2}", r.reports_per_mover),
                r.dropped.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        hotpath_sim::report::table(&["sigma (m)", "half-width", "reports/mover", "dropped"], &data)
    );
    println!();
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("   |{l}\n")).collect()
}
