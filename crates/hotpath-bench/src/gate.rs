//! Bench-baseline capture and regression gating.
//!
//! The vendored criterion harness appends one JSON line per benchmark
//! (`{"id":"...","median_ns":...}`) to the file named by the
//! `CRITERION_CAPTURE` environment variable. This module turns those
//! captures into checked-in `BENCH_<name>.json` snapshots and compares
//! fresh captures against them with a relative tolerance, so perf PRs
//! can assert no-regression in CI (`bench_gate check`).
//!
//! No serde in the offline build environment, so the snapshot format is
//! a deliberately tiny JSON dialect written and parsed here: objects
//! with string `"id"` and numeric `"median_ns"` fields. The parser is
//! shared by the JSONL capture stream and the pretty snapshot files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The `cargo bench` targets with checked-in baselines: the paper's
/// hot loops — Algorithm 1's ray trace and Algorithm 2's overlap and
/// Cases 2-3 kernels. None of their rows spawns a thread, so a
/// baseline means the same on any core count.
pub const GATED_BENCHES: &[&str] = &["micro_raytrace", "micro_overlap", "micro_phase_b"];

/// Relative slack `bench_gate check` allows over a baseline median
/// (3x): CI runners differ from the capture machine and the ~10 ns
/// rows can double under a loaded host, so the gate catches structural
/// regressions, not single-digit percent noise.
pub const TOLERANCE: f64 = 2.0;

/// The workspace root: where the baselines live and `cargo bench` runs.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/<name> layout")
}

/// The checked-in baseline of one gated bench target.
pub fn baseline_path(bench: &str) -> PathBuf {
    workspace_root().join(format!("BENCH_{bench}.json"))
}

/// One benchmark's captured median.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Full criterion id, `group/function/param`.
    pub id: String,
    /// Median wall time per iteration in nanoseconds.
    pub median_ns: f64,
}

/// A named set of benchmark medians (one `cargo bench` target).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The bench target name (e.g. `micro_raytrace`).
    pub bench: String,
    /// Captured entries, in capture order.
    pub entries: Vec<BenchEntry>,
}

impl Snapshot {
    /// Builds a snapshot from the raw `CRITERION_CAPTURE` stream of one
    /// bench target. Duplicate ids keep the *last* capture (re-runs
    /// within a process supersede earlier ones).
    pub fn from_capture(bench: &str, jsonl: &str) -> Snapshot {
        let mut entries: Vec<BenchEntry> = Vec::new();
        for e in parse_entries(jsonl) {
            if let Some(slot) = entries.iter_mut().find(|x| x.id == e.id) {
                *slot = e;
            } else {
                entries.push(e);
            }
        }
        Snapshot { bench: bench.to_string(), entries }
    }

    /// Renders the checked-in snapshot file.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            // Same sanitization as the capture hook: the parser has no
            // escape support, so ids must stay quote- and
            // backslash-free for the file to round-trip.
            let id: String =
                e.id.chars().map(|c| if c == '"' || c == '\\' { '_' } else { c }).collect();
            let _ =
                writeln!(out, "    {{\"id\": \"{id}\", \"median_ns\": {}}}{comma}", e.median_ns);
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a snapshot file produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let bench = extract_string(text, "\"bench\"")
            .ok_or_else(|| "snapshot missing \"bench\" field".to_string())?;
        let entries = parse_entries(text);
        if entries.is_empty() {
            return Err(format!("snapshot for '{bench}' has no entries"));
        }
        Ok(Snapshot { bench, entries })
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.id == id)
    }
}

/// Scans `text` for every `{"id": "...", "median_ns": ...}` object.
fn parse_entries(text: &str) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(idpos) = rest.find("\"id\"") {
        let tail = &rest[idpos..];
        let Some(id) = extract_string(tail, "\"id\"") else { break };
        // Scope the median search to this object: an entry missing its
        // median_ns must be dropped, not paired with the next entry's.
        let body = &tail["\"id\"".len()..];
        let scope = &body[..body.find("\"id\"").unwrap_or(body.len())];
        let median = extract_number(scope, "\"median_ns\"");
        // Advance past this id either way so a malformed object cannot
        // loop forever.
        rest = body;
        if let Some(median_ns) = median {
            out.push(BenchEntry { id, median_ns });
        }
    }
    out
}

/// Extracts the string value following `key` (`"key" : "value"`).
fn extract_string(text: &str, key: &str) -> Option<String> {
    let at = text.find(key)? + key.len();
    let tail = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let tail = tail.strip_prefix('"')?;
    let end = tail.find('"')?;
    Some(tail[..end].to_string())
}

/// Extracts the numeric value following `key` (`"key" : 123.4`).
fn extract_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let tail = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = tail
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The verdict of one baseline-vs-current comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within tolerance (ratio of current to baseline).
    Ok(f64),
    /// Slower than `baseline * (1 + tolerance)`.
    Regressed(f64),
    /// Present in the baseline but not re-measured.
    Missing,
    /// Measured now but absent from the baseline: a row nothing gates
    /// until a baseline is captured for it.
    New,
}

/// Compares `current` against `baseline`: every baseline entry must be
/// re-measured and stay within `baseline * (1 + tolerance)`. Returns
/// `(id, verdict)` rows in baseline order, then `New` rows.
pub fn compare(baseline: &Snapshot, current: &Snapshot, tolerance: f64) -> Vec<(String, Verdict)> {
    let mut rows = Vec::new();
    for b in &baseline.entries {
        let verdict = match current.get(&b.id) {
            None => Verdict::Missing,
            Some(c) => {
                let ratio = c.median_ns / b.median_ns.max(f64::MIN_POSITIVE);
                if ratio > 1.0 + tolerance {
                    Verdict::Regressed(ratio)
                } else {
                    Verdict::Ok(ratio)
                }
            }
        };
        rows.push((b.id.clone(), verdict));
    }
    for c in &current.entries {
        if baseline.get(&c.id).is_none() {
            rows.push((c.id.clone(), Verdict::New));
        }
    }
    rows
}

/// True when any row fails the gate: regressed, missing, or new.
pub fn has_failures(rows: &[(String, Verdict)]) -> bool {
    rows.iter().any(|(_, v)| !matches!(v, Verdict::Ok(_)))
}

/// Human-scale wall time: `12.3ns`, `4.56us`, `7.89ms`, `1.23s`.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1}ns")
    } else if ns < 1e6 {
        format!("{:.2}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Renders the comparison as a margin table: baseline vs measured vs
/// the tolerance budget, with per-benchmark headroom (how far the
/// measurement sits from tripping the gate — 100% = at baseline or
/// better than it, 0% = at the limit, negative = regressed). CI logs
/// show at a glance which gated benches are drifting toward the cliff.
pub fn margin_table(
    rows: &[(String, Verdict)],
    baseline: &Snapshot,
    current: &Snapshot,
    tolerance: f64,
) -> String {
    let limit = 1.0 + tolerance;
    let mut table: Vec<[String; 6]> = vec![[
        "status".into(),
        "benchmark".into(),
        "baseline".into(),
        "measured".into(),
        "ratio".into(),
        "headroom".into(),
    ]];
    for (id, verdict) in rows {
        let base = baseline.get(id).map(|e| e.median_ns);
        let cur = current.get(id).map(|e| e.median_ns);
        let (status, ratio) = match verdict {
            Verdict::Ok(r) => ("ok", Some(*r)),
            Verdict::Regressed(r) => ("REGRESSED", Some(*r)),
            Verdict::Missing => ("MISSING", None),
            Verdict::New => ("new", None),
        };
        // At tolerance 0 the budget is empty: at-or-below baseline is
        // full headroom, anything slower has none (avoids 0/0).
        let headroom = ratio.map(|r| {
            if tolerance > 0.0 {
                100.0 * (limit - r.max(1.0)) / (limit - 1.0)
            } else if r <= 1.0 {
                100.0
            } else {
                0.0
            }
        });
        let dash = || "-".to_string();
        table.push([
            status.to_string(),
            id.clone(),
            base.map(format_ns).unwrap_or_else(dash),
            cur.map(format_ns).unwrap_or_else(dash),
            ratio.map(|r| format!("{r:.2}x")).unwrap_or_else(dash),
            headroom.map(|h| format!("{h:.0}%")).unwrap_or_else(dash),
        ]);
    }
    let mut widths = [0usize; 6];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &table {
        let _ = write!(out, "  ");
        for (i, (cell, w)) in row.iter().zip(widths).enumerate() {
            // Left-align the name columns, right-align the numbers.
            if i <= 1 {
                let _ = write!(out, "{cell:<w$}  ");
            } else {
                let _ = write!(out, "{cell:>w$}  ");
            }
        }
        let trimmed = out.trim_end().len();
        out.truncate(trimmed);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(bench: &str, entries: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            bench: bench.to_string(),
            entries: entries
                .iter()
                .map(|&(id, m)| BenchEntry { id: id.to_string(), median_ns: m })
                .collect(),
        }
    }

    #[test]
    fn capture_round_trips_through_snapshot_json() {
        let jsonl = "{\"id\":\"g/f/1\",\"median_ns\":12}\n{\"id\":\"g/f/2\",\"median_ns\":34.5}\n";
        let s = Snapshot::from_capture("micro", jsonl);
        assert_eq!(s.entries.len(), 2);
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.get("g/f/2").unwrap().median_ns, 34.5);
    }

    /// A missing or orphaned baseline would otherwise only surface inside
    /// `bench_gate check`: every root `BENCH_*.json` names a gated bench,
    /// and every gated bench has a bench target and a baseline that
    /// parses, is non-empty and reads exactly as `capture` writes it.
    #[test]
    fn baselines_and_gated_bench_targets_agree() {
        let root = workspace_root();
        for entry in std::fs::read_dir(root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if let Some(bench) = name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json")) {
                assert!(GATED_BENCHES.contains(&bench), "{name} has no gated bench");
            }
        }
        for &bench in GATED_BENCHES {
            let target = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("benches/{bench}.rs"));
            assert!(target.is_file(), "{bench} has no bench target at {}", target.display());
            let text = std::fs::read_to_string(baseline_path(bench))
                .unwrap_or_else(|e| panic!("{bench} has no baseline: {e}"));
            // `from_json` rejects a snapshot without entries.
            let snap = Snapshot::from_json(&text).unwrap_or_else(|e| panic!("{bench}: {e}"));
            assert_eq!(snap.bench, bench);
            assert_eq!(snap.to_json(), text, "BENCH_{bench}.json is not in capture format");
        }
    }

    #[test]
    fn duplicate_capture_ids_keep_the_last() {
        let jsonl = "{\"id\":\"a\",\"median_ns\":10}\n{\"id\":\"a\",\"median_ns\":20}\n";
        let s = Snapshot::from_capture("b", jsonl);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].median_ns, 20.0);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let jsonl = "garbage\n{\"id\":\"ok\",\"median_ns\":5}\n{\"id\":\"broken\"}\n";
        let s = Snapshot::from_capture("b", jsonl);
        let ids: Vec<&str> = s.entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["ok"]);
    }

    #[test]
    fn entry_without_median_cannot_steal_the_next_entrys_value() {
        let jsonl = "{\"id\":\"broken\"}\n{\"id\":\"ok\",\"median_ns\":5}\n";
        let s = Snapshot::from_capture("b", jsonl);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].id, "ok");
        assert_eq!(s.entries[0].median_ns, 5.0);
    }

    #[test]
    fn from_json_rejects_empty_snapshots() {
        assert!(Snapshot::from_json("{\"bench\": \"x\", \"entries\": []}").is_err());
        assert!(Snapshot::from_json("not json at all").is_err());
    }

    #[test]
    fn compare_flags_regressions_within_tolerance() {
        let base = snap("b", &[("fast", 100.0), ("slow", 1000.0)]);
        // fast regressed 3x; slow improved.
        let cur = snap("b", &[("fast", 300.0), ("slow", 500.0)]);
        let rows = compare(&base, &cur, 0.5);
        assert_eq!(rows[0], ("fast".into(), Verdict::Regressed(3.0)));
        assert!(matches!(rows[1].1, Verdict::Ok(r) if (r - 0.5).abs() < 1e-12));
        assert!(has_failures(&rows));
        // A generous tolerance passes everything.
        assert!(!has_failures(&compare(&base, &cur, 2.5)));
    }

    #[test]
    fn margin_table_shows_headroom_per_bench() {
        let base = snap("b", &[("fast", 100.0), ("slow", 2_000_000.0), ("gone", 10.0)]);
        let cur = snap("b", &[("fast", 150.0), ("slow", 1_000_000.0), ("fresh", 42.0)]);
        let rows = compare(&base, &cur, 1.0);
        let table = margin_table(&rows, &base, &cur, 1.0);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 1 + rows.len(), "header plus one line per row");
        assert!(lines[0].contains("headroom"));
        // fast: ratio 1.50x of a 2.00x limit -> 50% headroom left.
        let fast = lines.iter().find(|l| l.contains("fast")).unwrap();
        assert!(fast.contains("1.50x") && fast.contains("50%"), "{fast}");
        assert!(fast.contains("100.0ns") && fast.contains("150.0ns"));
        // slow improved: full headroom, human-scale units.
        let slow = lines.iter().find(|l| l.contains("slow")).unwrap();
        assert!(slow.contains("100%") && slow.contains("2.00ms") && slow.contains("1.00ms"));
        // Missing and new rows render with dashes, not numbers.
        let gone = lines.iter().find(|l| l.contains("gone")).unwrap();
        assert!(gone.contains("MISSING") && gone.contains('-'));
        let fresh = lines.iter().find(|l| l.contains("fresh")).unwrap();
        assert!(fresh.contains("new"));
    }

    #[test]
    fn margin_table_handles_zero_tolerance() {
        let base = snap("b", &[("same", 100.0), ("worse", 100.0)]);
        let cur = snap("b", &[("same", 100.0), ("worse", 140.0)]);
        let rows = compare(&base, &cur, 0.0);
        let table = margin_table(&rows, &base, &cur, 0.0);
        assert!(!table.contains("NaN") && !table.contains("inf"), "{table}");
        let same = table.lines().find(|l| l.contains("same")).unwrap();
        assert!(same.contains("100%"), "{same}");
        let worse = table.lines().find(|l| l.contains("worse")).unwrap();
        assert!(worse.contains("0%"), "{worse}");
    }

    #[test]
    fn margin_table_flags_regressions_with_negative_headroom() {
        let base = snap("b", &[("hot", 100.0)]);
        let cur = snap("b", &[("hot", 250.0)]);
        let rows = compare(&base, &cur, 0.5);
        let table = margin_table(&rows, &base, &cur, 0.5);
        let hot = table.lines().find(|l| l.contains("hot")).unwrap();
        assert!(hot.contains("REGRESSED") && hot.contains("-200%"), "{hot}");
    }

    #[test]
    fn compare_reports_missing_and_new() {
        let base = snap("b", &[("gone", 10.0)]);
        let cur = snap("b", &[("fresh", 10.0)]);
        let rows = compare(&base, &cur, 1.0);
        assert_eq!(rows[0], ("gone".into(), Verdict::Missing));
        assert_eq!(rows[1], ("fresh".into(), Verdict::New));
        assert!(has_failures(&rows));
        // A new-only capture fails too: its rows have no baseline.
        assert!(has_failures(&compare(&snap("b", &[]), &cur, 1.0)));
        assert!(!has_failures(&compare(&cur, &cur, 1.0)));
    }
}
