//! `hotpath-benchmark`: the repository's end-to-end and per-layer
//! benchmark, from the RayTrace client filter through `hotpathd` and
//! back. See `README.md` next to this package for the workloads, the
//! metrics and how to read a trace.
//!
//! ```text
//! run.sh                                   every workload, tracing off
//! run.sh --traced                          the separate traced pass
//! run.sh --seed N --seconds S --smoke      other inputs, other sizes
//! run.sh --workload W --seed N --seconds S --trace 0|1
//!                                          one workload; last stdout line
//!                                          is the driver's JSON result
//! run.sh --compare a.json b.json           b against a, by the bounds
//! ```

mod checks;
mod json;
mod metrics;
mod pacer;
mod pipeline;
mod procfs;
mod serve;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Env, Request, Sizes, WorkloadResult};

const USAGE: &str = "usage: hotpath-benchmark --hotpathd PATH [--workload NAME] [--seed N] \
[--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE]
       hotpath-benchmark --compare A.json B.json";

/// The only workload input.
const DEFAULT_SEED: u64 = 2015;

struct Args {
    hotpathd: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        hotpathd: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--hotpathd" => a.hotpathd = Some(absolute(&value()?)),
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(absolute(&value()?)),
            "--compare" => a.compare = Some((absolute(&value()?), absolute(&value()?))),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// Paths on the command line are relative to where the user stands; the
/// benchmark itself works from its own directory.
fn absolute(p: &str) -> PathBuf {
    std::env::current_dir().map_or_else(|_| PathBuf::from(p), |d| d.join(p))
}

/// The benchmark's directory: sockets and traces go to `out/` under it,
/// and `BENCHMARK.json` sits one level up.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match real_main(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("hotpath-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    let spec = load_spec()?;
    std::env::set_current_dir(home()).map_err(|e| format!("cannot enter {:?}: {e}", home()))?;
    let hotpathd = args.hotpathd.clone().ok_or(format!("--hotpathd is required\n{USAGE}"))?;
    if !hotpathd.is_file() {
        return Err(format!("{} is not a file (build it: run.sh does)", hotpathd.display()));
    }
    let env = Env {
        hotpathd,
        out_dir: PathBuf::from("out"),
        sizes: if args.smoke { Sizes::smoke() } else { Sizes::full() },
    };
    std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("cannot create out/: {e}"))?;
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds });
    let req = Request { seed: args.seed, seconds, traced: args.traced };

    match &args.workload {
        Some(name) => {
            // Driver mode: one workload, the JSON result on the last line.
            let result = workloads::run(name, &env, req)?;
            print_report(&result, req, &spec);
            write_trace(&result, &env);
            println!("{}", driver_line(&result, req.traced));
            Ok(result.correct)
        }
        None => {
            let mut all_correct = true;
            let mut results = Vec::new();
            for w in WORKLOADS {
                let result = workloads::run(w.name, &env, req)?;
                print_report(&result, req, &spec);
                write_trace(&result, &env);
                all_correct &= result.correct;
                results.push(result);
            }
            let default = format!(
                "out/results-seed{}{}.json",
                req.seed,
                if req.traced { "-traced" } else { "" }
            );
            let path = args.out.clone().unwrap_or_else(|| PathBuf::from(default));
            std::fs::write(&path, results_file(&results, req))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("results written to {}", home().join(&path).display());
            println!("{}", if all_correct { "all checks passed" } else { "CHECKS FAILED" });
            Ok(all_correct)
        }
    }
}

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

/// What the benchmark reads back from `BENCHMARK.json`: the run length
/// and the bound of each end-to-end metric.
struct Spec {
    run_seconds: f64,
    bounds: Vec<(String, f64)>,
}

impl Spec {
    fn bound(&self, metric: &str) -> Option<f64> {
        self.bounds.iter().find(|(n, _)| n == metric).map(|(_, b)| *b)
    }
}

fn load_spec() -> Result<Spec, String> {
    let path = home().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds =
        v.get("run_seconds").and_then(Value::as_f64).ok_or("BENCHMARK.json: no run_seconds")?;
    let bounds = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect();
    Ok(Spec { run_seconds, bounds })
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

fn print_report(r: &WorkloadResult, req: Request, spec: &Spec) {
    println!(
        "== {} | seed {} | {} s | {} | nproc {} | kernel {} ==",
        r.workload,
        req.seed,
        req.seconds,
        if req.traced { "traced" } else { "tracing off" },
        procfs::nproc(),
        procfs::kernel(),
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == r.workload) {
        let gated = if w.gated { "gated by BENCHMARK.json" } else { "not in BENCHMARK.json" };
        println!("   {} ({gated})", w.why);
    }
    println!(
        "   reps {} | operations attempted {} failed {} | fingerprint {:016x} | checks {}",
        r.reps,
        r.attempted,
        r.failed,
        r.fingerprint,
        if r.correct { "passed" } else { "FAILED" },
    );
    for m in &r.messages {
        println!("   ! {m}");
    }
    for d in END_TO_END {
        let reading = r.e2e[d.name];
        let alias = if d.name == "throughput_per_s" {
            format!("  (= {})", r.native_throughput)
        } else {
            String::new()
        };
        let p = percentile_of(d.name);
        let thin = match p {
            Some(p) if !stats::supports(reading.samples, p) => "  (fewer than ten samples beyond)",
            _ => "",
        };
        println!(
            "   {:<24} {:>16.4} {:<6} bound {:>4.0}%  n={}{alias}{thin}",
            d.name,
            reading.value,
            d.unit,
            spec.bound(d.name).unwrap_or(0.0) * 100.0,
            reading.samples,
        );
    }
    if req.traced {
        for d in PER_LAYER {
            println!("   {:<34} {:>16.4} {}", d.name, r.layers[d.name], d.unit);
        }
    }
}

/// The percentile a metric's name promises, if any.
fn percentile_of(name: &str) -> Option<f64> {
    let tail = name.rsplit_once("_p")?.1;
    tail.parse::<f64>().ok()
}

fn write_trace(r: &WorkloadResult, env: &Env) {
    if r.spans.is_empty() {
        return;
    }
    let path = env.out_dir.join(format!("trace-{}.jsonl", r.workload));
    match trace::write_jsonl(&path, &r.spans) {
        Ok(()) => println!("   {} spans written to {}", r.spans.len(), home().join(path).display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn metric_object(out: &mut String, name: &str, value: f64, unit: &str, samples: Option<usize>) {
    json::write_string(out, name);
    out.push_str(":{\"value\":");
    json::write_number(out, if value.is_finite() { value } else { 0.0 });
    out.push_str(",\"unit\":");
    json::write_string(out, unit);
    if let Some(n) = samples {
        let _ = write!(out, ",\"samples\":{n}");
    }
    out.push('}');
}

fn metrics_object(r: &WorkloadResult, defs: &[MetricDef], layers: bool, samples: bool) -> String {
    let mut out = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if layers {
            metric_object(&mut out, d.name, r.layers[d.name], d.unit, None);
        } else {
            let reading = r.e2e[d.name];
            metric_object(
                &mut out,
                d.name,
                reading.value,
                d.unit,
                samples.then_some(reading.samples),
            );
        }
    }
    out.push('}');
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed`,
/// `metrics` — the end-to-end metrics with tracing off, the per-layer
/// metrics with tracing on.
fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let metrics = if traced {
        metrics_object(r, PER_LAYER, true, false)
    } else {
        metrics_object(r, END_TO_END, false, false)
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        r.correct, r.attempted, r.failed
    )
}

/// The result file of an all-workloads run, which `--compare` reads.
fn results_file(results: &[WorkloadResult], req: Request) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"seed\":{},\"seconds\":{},\"traced\":{},\"nproc\":{},\"kernel\":",
        req.seed,
        req.seconds,
        req.traced,
        procfs::nproc()
    );
    json::write_string(&mut out, &procfs::kernel());
    out.push_str(",\"workloads\":{");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_string(&mut out, r.workload);
        let _ = write!(
            out,
            ":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"reps\":{},\"fingerprint\":\"{:016x}\",\"metrics\":{}",
            r.correct,
            r.attempted,
            r.failed,
            r.reps,
            r.fingerprint,
            metrics_object(r, END_TO_END, false, true)
        );
        if req.traced {
            let _ = write!(out, ",\"per_layer\":{}", metrics_object(r, PER_LAYER, true, false));
        }
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

/// How much worse `b` is than `a` for a metric whose better direction
/// is `better`, as a share of `a` (negative when `b` is better).
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let rel = (b - a) / a;
    if better == "higher" {
        -rel
    } else {
        rel
    }
}

/// Prints, per workload, each end-to-end metric of `b` against `a` and
/// its bound; false when `b` is worse than `a` by more than a bound
/// anywhere, or either side failed its checks.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load_spec()?;
    let read = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (va, vb) = (read(a)?, read(b)?);
    let mut ok = true;
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let side = |v: &Value| v.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(&va), side(&vb)) else {
            println!("== {workload}: missing on one side ==");
            ok = false;
            continue;
        };
        println!("== {workload} ==");
        for w in [&wa, &wb] {
            if w.get("correct") != Some(&Value::Bool(true)) {
                println!("   ! a side failed its checks");
                ok = false;
            }
        }
        for d in END_TO_END {
            let value = |w: &Value| {
                w.get("metrics")
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(x), Some(y)) = (value(&wa), value(&wb)) else {
                println!("   {:<24} missing", d.name);
                ok = false;
                continue;
            };
            let bound = spec.bound(d.name).unwrap_or(0.0);
            let worse = worse_by(x, y, d.better);
            let verdict = if worse > bound {
                ok = false;
                "VIOLATION"
            } else if worse < -bound {
                "better by more than the bound"
            } else {
                "within bound"
            };
            println!(
                "   {:<24} {:>16.4} -> {:>16.4} {:<6} {:>+8.2}% worse, bound {:>4.1}%  {verdict}",
                d.name,
                x,
                y,
                d.unit,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{}", if ok { "compare: within bounds" } else { "compare: OUT OF BOUNDS" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let text =
            std::fs::read_to_string(home().join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(
            v.keys(),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("name").to_string())
                .collect()
        };
        let table =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().filter(|w| w.gated).map(|w| w.name.to_string()).collect::<Vec<_>>()
        );
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (m, d) in v.get(key).and_then(Value::as_array).expect(key).iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(m.get("better").and_then(Value::as_str), Some(d.better), "{}", d.name);
            }
        }
        for (m, w) in v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .zip(WORKLOADS.iter().filter(|w| w.gated))
        {
            assert_eq!(m.get("why").and_then(Value::as_str), Some(w.why));
        }
        let spec = load_spec().expect("spec loads");
        assert!(spec.bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(spec.bound("setup_s").is_some());
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    /// `hotpathd`, from `$HOTPATHD_BIN`, or a release build in the target
    /// directory in use or the root's; built (offline) when none exists.
    fn hotpathd() -> PathBuf {
        if let Some(p) = std::env::var_os("HOTPATHD_BIN") {
            return PathBuf::from(p);
        }
        let root = home().join("..");
        let targets: Vec<PathBuf> = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .into_iter()
            .chain([root.join("target"), home().join("target")])
            .collect();
        let built = |t: &PathBuf| t.join("release/hotpathd");
        if let Some(found) = targets.iter().map(built).find(|p| p.is_file()) {
            return found;
        }
        let status = std::process::Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet", "-p", "hotpath-serve"])
            .args(["--bin", "hotpathd", "--target-dir"])
            .arg(root.join("target"))
            .current_dir(&root)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building hotpathd failed");
        built(&root.join("target"))
    }

    /// The `--smoke` size: all four workloads, both passes, every check,
    /// every metric — and the untraced pass inside ten seconds.
    #[test]
    fn smoke_size_exercises_every_workload_check_and_metric() {
        let env =
            Env { hotpathd: hotpathd(), out_dir: PathBuf::from("out"), sizes: Sizes::smoke() };
        std::fs::create_dir_all(&env.out_dir).expect("out/ can be created");
        for traced in [false, true] {
            let start = std::time::Instant::now();
            for name in WORKLOADS.iter().map(|w| w.name) {
                let req = Request { seed: DEFAULT_SEED, seconds: 1.0, traced };
                let r = workloads::run(name, &env, req).expect("known workload");
                assert!(r.correct, "{name} (traced {traced}): {:?}", r.messages);
                assert_eq!(r.failed, 0);
                assert!(r.reps >= 2, "{name}: fingerprints are compared across reps");
                for d in END_TO_END {
                    assert!(r.e2e[d.name].value > 0.0, "{name}: {} is not positive", d.name);
                }
                assert_eq!(r.layers.len(), PER_LAYER.len());
                assert_eq!(traced, !r.spans.is_empty(), "{name}: spans only when traced");
                if traced {
                    // The layers the workload runs through all report.
                    let served = name.starts_with("serve");
                    for d in PER_LAYER {
                        let applies = match d.name.split_once('.').expect("module.metric").0 {
                            "wire" | "snapshot" => served,
                            "server" => served || d.name == "server.cpu_s_per_mstate",
                            _ => true,
                        };
                        let silent = ["loadgen.pacer_lag_ms_p99", "loadgen.polls_per_epoch"];
                        if !applies {
                            assert_eq!(r.layers[d.name], 0.0, "{name}: {}", d.name);
                        } else if !silent.contains(&d.name) && !d.name.ends_with("_pct") {
                            assert!(r.layers[d.name].is_finite(), "{name}: {}", d.name);
                        }
                    }
                    assert!(r.layers["trace.span_coverage_pct"] > 50.0, "{name}");
                    assert!(r.layers["raytrace.observe_busy_s"] > 0.0, "{name}");
                }
                // The driver's line is valid JSON with exactly its four keys.
                let line = json::parse(&driver_line(&r, traced)).expect("valid JSON");
                assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
                let expected = if traced { PER_LAYER.len() } else { END_TO_END.len() };
                assert_eq!(line.get("metrics").map(|m| m.keys().len()), Some(expected));
            }
            if !traced {
                assert!(start.elapsed().as_secs() < 10, "smoke took {:?}", start.elapsed());
            }
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "higher") + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(5.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn percentile_is_read_from_the_metric_name() {
        assert_eq!(percentile_of("epoch_latency_ms_p90"), Some(90.0));
        assert_eq!(percentile_of("read_latency_us_p99"), Some(99.0));
        assert_eq!(percentile_of("throughput_per_s"), None);
        assert_eq!(percentile_of("setup_s"), None);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> =
            "--hotpathd x --workload flash_crowd --seed 7 --seconds 3 --trace 1"
                .split(' ')
                .map(String::from)
                .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(a.workload.as_deref(), Some("flash_crowd"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, Some(3.0), true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert_eq!(parse_args(&[]).expect("defaults").seed, DEFAULT_SEED);
    }
}
