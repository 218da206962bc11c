//! Captures bench baselines and gates perf regressions against them.
//!
//! ```text
//! bench_gate capture [--captures-dir <dir>] [--only <bench>]
//! bench_gate check [--captures-dir <dir>] [--only <bench>]
//! ```
//!
//! `--only <bench>` restricts either mode to a single gated target —
//! capture a new bench's first baseline without re-running (and
//! re-baselining) every other bench on this machine.
//!
//! `--captures-dir` keeps the raw per-bench `CRITERION_CAPTURE` JSONL
//! streams under the given directory (`<bench>.jsonl`) instead of a
//! deleted temp file — CI uploads them as a workflow artifact.
//!
//! Both modes drive `cargo bench` for the gated targets
//! ([`GATED_BENCHES`]) with the vendored criterion's `CRITERION_CAPTURE`
//! hook, collecting one median per benchmark. `capture` writes them to
//! checked-in `BENCH_<target>.json` snapshots at the workspace root;
//! `check` re-runs and exits nonzero when any benchmark got slower than
//! `baseline * (1 + TOLERANCE)`, disappeared, or has no baseline — a new
//! row fails until a fresh baseline is captured for it, so nothing a
//! bench measures goes ungated.
//!
//! Re-baselining intentionally (e.g. after an accepted perf trade-off):
//! `cargo run --release -p hotpath-bench --bin bench_gate -- capture`
//! and commit the updated `BENCH_*.json`.

use hotpath_bench::gate::{
    baseline_path, compare, has_failures, margin_table, workspace_root, Snapshot, GATED_BENCHES,
    TOLERANCE,
};
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<String> = None;
    let mut captures_dir: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "capture" | "check" => mode = Some(args[i].clone()),
            "--captures-dir" => {
                i += 1;
                captures_dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage("--captures-dir needs a path")),
                ));
            }
            "--only" => {
                i += 1;
                let name = args.get(i).unwrap_or_else(|| usage("--only needs a bench name"));
                if !GATED_BENCHES.contains(&name.as_str()) {
                    usage(&format!(
                        "--only: '{name}' is not a gated bench (one of: {})",
                        GATED_BENCHES.join(", ")
                    ));
                }
                only = Some(name.clone());
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    // The capture path reaches the bench subprocess through an env var,
    // and cargo runs benches from the package dir — absolutize it.
    if let Some(d) = captures_dir.take() {
        let abs = std::fs::create_dir_all(&d)
            .and_then(|()| std::fs::canonicalize(&d))
            .unwrap_or_else(|e| {
                eprintln!("bench_gate: cannot create --captures-dir {}: {e}", d.display());
                std::process::exit(2);
            });
        captures_dir = Some(abs);
    }
    let selected: Vec<&str> =
        GATED_BENCHES.iter().copied().filter(|b| only.as_deref().is_none_or(|o| *b == o)).collect();
    match mode.as_deref() {
        Some("capture") => capture(captures_dir.as_deref(), &selected),
        Some("check") => check(captures_dir.as_deref(), &selected),
        _ => usage("need a mode: capture or check"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_gate <capture|check> [--captures-dir <dir>] [--only <bench>]");
    std::process::exit(2);
}

/// Runs one `cargo bench` target with the capture hook, in the
/// workspace whose baselines it is compared with, and collects the
/// resulting snapshot.
fn run_bench(bench: &str, captures_dir: Option<&Path>) -> Snapshot {
    let capture_file = match captures_dir {
        Some(d) => d.join(format!("{bench}.jsonl")),
        None => std::env::temp_dir()
            .join(format!("criterion-capture-{bench}-{}.jsonl", std::process::id())),
    };
    let _ = std::fs::remove_file(&capture_file);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    eprintln!("bench_gate: running cargo bench -p hotpath-bench --bench {bench}");
    let status = Command::new(cargo)
        .args(["bench", "-p", "hotpath-bench", "--bench", bench])
        .current_dir(workspace_root())
        .env("CRITERION_CAPTURE", &capture_file)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("bench_gate: failed to spawn cargo: {e}");
            std::process::exit(2);
        });
    if !status.success() {
        eprintln!("bench_gate: cargo bench --bench {bench} failed ({status})");
        std::process::exit(2);
    }
    let jsonl = std::fs::read_to_string(&capture_file).unwrap_or_else(|e| {
        eprintln!("bench_gate: no capture produced at {}: {e}", capture_file.display());
        std::process::exit(2);
    });
    if captures_dir.is_none() {
        let _ = std::fs::remove_file(&capture_file);
    }
    let snap = Snapshot::from_capture(bench, &jsonl);
    if snap.entries.is_empty() {
        eprintln!("bench_gate: bench {bench} captured zero measurements");
        std::process::exit(2);
    }
    snap
}

fn capture(captures_dir: Option<&Path>, benches: &[&str]) {
    for &bench in benches {
        let snap = run_bench(bench, captures_dir);
        let path = baseline_path(bench);
        std::fs::write(&path, snap.to_json()).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("wrote {} ({} entries)", path.display(), snap.entries.len());
    }
}

fn check(captures_dir: Option<&Path>, benches: &[&str]) {
    let mut failed = false;
    for &bench in benches {
        let path = baseline_path(bench);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "bench_gate: missing baseline {} ({e}); run `bench_gate capture` and commit it",
                path.display()
            );
            std::process::exit(2);
        });
        let baseline = Snapshot::from_json(&text).unwrap_or_else(|e| {
            eprintln!("bench_gate: bad baseline {}: {e}", path.display());
            std::process::exit(2);
        });
        let current = run_bench(bench, captures_dir);
        let rows = compare(&baseline, &current, TOLERANCE);
        println!("== {bench} (tolerance +{:.0}%)", TOLERANCE * 100.0);
        // The margin table shows how close each benchmark sits to the
        // gate: 100% headroom = at/below baseline, 0% = about to trip,
        // negative = regressed.
        print!("{}", margin_table(&rows, &baseline, &current, TOLERANCE));
        if has_failures(&rows) {
            failed = true;
        }
    }
    if failed {
        eprintln!("bench_gate: FAIL — regressions above tolerance, or missing or new benches");
        std::process::exit(1);
    }
    println!("bench_gate: all gated benches within tolerance");
}
