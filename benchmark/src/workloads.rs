//! The four workloads: how each is sized, repeated inside one
//! invocation, and folded into the end-to-end and per-layer metrics.
//!
//! Every workload re-runs on fresh state until the `--seconds` budget is
//! used (at least once), and reports medians across those reps; set-up
//! is timed at least [`Sizes::setup_reps`] times and reported as a
//! median too. The first `W` = 100 ticks of every run fill the window
//! untimed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::checks::Fingerprint;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pipeline::{self, PipelineSpec, RepOptions, RepOut, TraceLog};
use crate::procfs::{self, Pid};
use crate::serve::{self, Daemon, ReplayOut, TraceShape};
use crate::stats::{self, Samples};
use crate::sut::{self, SourceKind};
use crate::trace::{self, Span};

/// Workload sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub uniform: PipelineSpec,
    pub flash: PipelineSpec,
    /// The Table-2 run whose uplink the served workloads replay.
    pub serve: PipelineSpec,
    /// Writer pace of the read storm, ticks per second.
    pub storm_tick_hz: f64,
    /// How much of the trace one storm replay walks, warm-up included.
    pub storm_ticks: u64,
    /// Least number of timed set-ups per invocation.
    pub setup_reps: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is measured at.
    pub fn full() -> Sizes {
        Sizes {
            uniform: PipelineSpec { kind: SourceKind::Uniform, n: 100_000, ticks: 600 },
            flash: PipelineSpec { kind: SourceKind::FlashCrowd, n: 20_000, ticks: 1100 },
            serve: PipelineSpec { kind: SourceKind::Uniform, n: 20_000, ticks: 1100 },
            storm_tick_hz: 200.0,
            storm_ticks: 600,
            setup_reps: 3,
        }
    }

    /// N = 500, 300 ticks: every code path and every check in seconds.
    pub fn smoke() -> Sizes {
        Sizes {
            uniform: PipelineSpec { kind: SourceKind::Uniform, n: 500, ticks: 300 },
            flash: PipelineSpec { kind: SourceKind::FlashCrowd, n: 500, ticks: 300 },
            serve: PipelineSpec { kind: SourceKind::Uniform, n: 500, ticks: 300 },
            storm_tick_hz: 400.0,
            storm_ticks: 300,
            setup_reps: 2,
        }
    }
}

/// Where the benchmark finds the daemon and keeps its files.
#[derive(Clone, Debug)]
pub struct Env {
    pub hotpathd: PathBuf,
    /// Sockets and traces go here; relative to the working directory.
    pub out_dir: PathBuf,
    pub sizes: Sizes,
}

/// One invocation's request.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A reported value and how many samples stand behind it.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub samples: usize,
}

/// What one workload run produced.
pub struct WorkloadResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Every end-to-end metric, by name.
    pub e2e: BTreeMap<&'static str, Reading>,
    /// Every per-layer metric, by name. Span-derived ones are zero
    /// unless the run was traced.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's throughput under its native name, for the report.
    pub native_throughput: &'static str,
    pub reps: usize,
    pub fingerprint: u64,
    pub spans: Vec<Span>,
}

pub fn run(workload: &str, env: &Env, req: Request) -> Result<WorkloadResult, String> {
    match workload {
        "paper_uniform" => Ok(run_pipeline("paper_uniform", env.sizes.uniform, env, req)),
        "flash_crowd" => Ok(run_pipeline("flash_crowd", env.sizes.flash, env, req)),
        "serve_ingest" => Ok(run_served("serve_ingest", env, req)),
        "serve_read_storm" => Ok(run_served("serve_read_storm", env, req)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Repeats `rep` until the budget is used: always once, then again
/// while at least half of another rep of average length still fits.
fn fill_budget(seconds: f64, mut rep: impl FnMut() -> f64) {
    let (mut used, mut reps) = (0.0, 0usize);
    loop {
        used += rep();
        reps += 1;
        if used + 0.5 * used / reps as f64 > seconds {
            break;
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// CPU seconds per million states as a ratio of sums over the reps:
/// `/proc` counts CPU time in 10 ms ticks, too coarse for one short rep.
fn cpu_per_mstate(cpu_s: f64, states: f64) -> f64 {
    ratio(cpu_s, states) * 1e6
}

fn reading(value: f64, samples: usize) -> Reading {
    Reading { value, samples }
}

/// p50 and p90 over epochs of a per-epoch latency series (ns), as ms
/// readings; `samples` is how many measurements stand behind the series
/// (epochs x reps).
fn epoch_latency_readings(
    e2e: &mut BTreeMap<&'static str, Reading>,
    per_epoch_ns: &[f64],
    samples: usize,
) {
    let mut v = per_epoch_ns.to_vec();
    stats::sort(&mut v);
    e2e.insert("epoch_latency_ms_p50", reading(ms(stats::percentile(&v, 50.0)), samples));
    e2e.insert("epoch_latency_ms_p90", reading(ms(stats::percentile(&v, 90.0)), samples));
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>())
}

fn empty_layers() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
}

/// Folds per-rep layer maps into one by median (a metric a rep did not
/// produce keeps the zero every map starts with).
fn median_layers(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = empty_layers();
    for (name, slot) in out.iter_mut() {
        let values: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
        *slot = stats::median(&values);
    }
    out
}

fn finish(
    workload: &'static str,
    native_throughput: &'static str,
    mut e2e: BTreeMap<&'static str, Reading>,
    layers: BTreeMap<&'static str, f64>,
    tally: Tally,
    spans: Vec<Span>,
) -> WorkloadResult {
    let mut messages = tally.messages;
    let mut correct = tally.violations == 0 && tally.failed == 0;
    for d in END_TO_END {
        let r = e2e.entry(d.name).or_insert(Reading { value: 0.0, samples: 0 });
        if !(r.value.is_finite() && r.value > 0.0) {
            correct = false;
            messages.push(format!(
                "{} read {} — every end-to-end metric must be positive",
                d.name, r.value
            ));
            r.value = 0.0;
        }
    }
    if tally.fingerprints.windows(2).any(|w| w[0] != w[1]) {
        correct = false;
        messages.push(format!("fingerprints differ across reps: {:x?}", tally.fingerprints));
    }
    WorkloadResult {
        workload,
        correct,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        messages,
        e2e,
        layers,
        native_throughput,
        reps: tally.fingerprints.len(),
        fingerprint: tally.fingerprints.first().copied().unwrap_or(0),
        spans,
    }
}

/// Operations and check outcomes summed over reps.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: u64,
    messages: Vec<String>,
    fingerprints: Vec<u64>,
}

impl Tally {
    fn note(&mut self, msgs: &[String]) {
        for m in msgs {
            if self.messages.len() < 12 {
                self.messages.push(m.clone());
            }
        }
    }

    fn pipeline_rep(&mut self, r: &RepOut) {
        // Operations: every state sent, every epoch awaited.
        self.attempted += r.states + r.epochs_timed;
        self.failed += r.unanswered;
        self.violations += r.violations;
        self.note(&r.messages);
    }
}

// ---------------------------------------------------------------------
// paper_uniform, flash_crowd
// ---------------------------------------------------------------------

fn run_pipeline(name: &'static str, spec: PipelineSpec, env: &Env, req: Request) -> WorkloadResult {
    procfs::reset_own_peak_rss();
    let origin = Instant::now();
    let opts = RepOptions { traced: req.traced, record: false };
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    let mut reps: Vec<RepOut> = Vec::new();
    let mut layer_reps = Vec::new();
    let mut spans = Vec::new();

    fill_budget(req.seconds, || {
        let t = Instant::now();
        let built = pipeline::build(&spec, req.seed);
        setups.push(t.elapsed().as_secs_f64());
        let mut rep = pipeline::run_rep(built, opts, origin);
        tally.pipeline_rep(&rep);
        tally.fingerprints.push(rep.fingerprint.0);
        if req.traced {
            layer_reps.push(pipeline_layers(&mut rep));
            spans.append(&mut rep.spans);
        }
        let wall = rep.wall_s;
        reps.push(rep);
        wall
    });
    while setups.len() < env.sizes.setup_reps {
        let t = Instant::now();
        black_box(pipeline::build(&spec, req.seed));
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut e2e = pipeline_e2e(&reps);
    e2e.insert("setup_s", reading(stats::median(&setups), setups.len()));
    e2e.insert("peak_rss_mb", reading(procfs::peak_rss_mb(Pid::Me), 1));
    let mut layers = median_layers(&layer_reps);
    layers.extend(pipeline_context(&reps));
    finish(name, "measurements_per_s", e2e, layers, tally, spans)
}

/// The end-to-end values of the reps of one pipeline workload. Every
/// rep does identical work, so each epoch's block time, boundary
/// latency and read time is its median across reps; counts are the
/// same in every rep.
fn pipeline_e2e(reps: &[RepOut]) -> BTreeMap<&'static str, Reading> {
    let mut e2e = BTreeMap::new();
    let Some(first) = reps.first() else { return e2e };
    let series = |f: fn(&RepOut) -> &[f64]| -> Vec<f64> {
        stats::median_each(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let block_s = series(|r| &r.block_ns).iter().sum::<f64>() / 1e9;
    let epochs = first.block_ns.len();
    e2e.insert(
        "throughput_per_s",
        reading(ratio(first.measurements as f64, block_s), epochs * reps.len()),
    );
    epoch_latency_readings(&mut e2e, &series(|r| &r.epoch_latency_ns), epochs * reps.len());
    e2e.insert(
        "uplink_msgs_per_kmeas",
        reading(ratio(first.states as f64, first.measurements as f64) * 1e3, reps.len()),
    );
    e2e.insert(
        "index_paths_mean",
        reading(ratio(first.index_paths_sum, first.epochs_timed as f64), reps.len()),
    );
    e2e
}

/// Context the report carries in both passes: throughput and latency
/// over all samples pooled (a gap to the end-to-end values shows a host
/// that was busy for part of the run), and what does not repeat well
/// enough to gate.
fn pipeline_context(reps: &[RepOut]) -> BTreeMap<&'static str, f64> {
    let mut l = BTreeMap::new();
    let Some(first) = reps.first() else { return l };
    let total = |f: fn(&RepOut) -> f64| reps.iter().map(f).sum::<f64>();
    l.insert(
        "loadgen.throughput_all_samples",
        ratio(total(|r| r.measurements as f64), total(|r| r.block_ns.iter().sum::<f64>() / 1e9)),
    );
    l.insert(
        "loadgen.epoch_latency_ms_p50_all_samples",
        ms(median_of(reps.iter().flat_map(|r| r.epoch_latency_ns.iter().copied()))),
    );
    let mut reads = Samples::default();
    for v in reps.iter().flat_map(|r| &r.read_ns) {
        reads.push(*v);
    }
    l.insert("loadgen.read_latency_us_p50", us(reads.percentile(50.0)));
    l.insert("loadgen.read_latency_us_p99", us(reads.percentile(99.0)));
    l.insert(
        "server.cpu_s_per_mstate",
        cpu_per_mstate(total(|r| r.cpu_s), total(|r| r.states as f64)),
    );
    l.insert(
        "coordinator.top_k_score_mean",
        ratio(first.top_k_score_sum, first.epochs_timed as f64),
    );
    // checkpoint() -> as_bytes copy -> from_bytes -> restore into a fresh
    // engine -> first snapshot(), on the state each rep ended with.
    l.insert(
        "checkpoint.recover_ms",
        median_of(reps.iter().flat_map(|r| r.recover.iter().map(|s| s.total_ms))),
    );
    l
}

fn p50_of(spans: &[Span], name: &str) -> f64 {
    let mut d = trace::durations_ns(spans, name);
    stats::sort(&mut d);
    stats::percentile(&d, 50.0)
}

/// The per-layer values of one traced pipeline rep: client filter,
/// engine, coordinator, strategy, overlap, gauges and checkpoint. Span
/// times and the counters they are compared with cover the traced
/// blocks (every other timed block); counts cover the whole timed
/// region.
fn pipeline_layers(r: &mut RepOut) -> BTreeMap<&'static str, f64> {
    let mut l = BTreeMap::new();
    let times = trace::layer_times(&r.spans);
    let total_s = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);

    let observe_s = total_s("raytrace.observe");
    l.insert("raytrace.observe_busy_s", observe_s);
    l.insert("raytrace.observe_ns_per_meas", ratio(observe_s * 1e9, r.traced_measurements as f64));
    l.insert("raytrace.receive_busy_s", total_s("raytrace.receive_endpoint"));
    l.insert(
        "raytrace.report_ratio",
        ratio((r.states - r.resubmits) as f64, r.measurements as f64),
    );
    l.insert("raytrace.resubmit_ratio", ratio(r.resubmits as f64, r.states as f64));

    let submit_s = total_s("engine.submit_batch");
    let advance_s = total_s("engine.advance_time");
    let process_s = total_s("engine.process_epoch");
    l.insert("engine.submit_ns_per_state", ratio(submit_s * 1e9, r.traced_states as f64));
    l.insert("engine.advance_busy_s", advance_s);
    l.insert("engine.advance_us_per_tick_p50", us(p50_of(&r.spans, "engine.advance_time")));
    l.insert("engine.process_epoch_busy_s", process_s);
    l.insert("engine.snapshot_us_p50", us(p50_of(&r.spans, "engine.snapshot")));

    let c = r.traced_counters;
    l.insert("coordinator.strategy_s", c.strategy_s);
    l.insert("coordinator.expiry_s", c.expiry_s);
    l.insert("coordinator.publish_s", c.publish_s);
    // What today's counters cannot explain of the time spent inside the
    // engine's two heavy calls.
    l.insert(
        "coordinator.unattributed_s",
        process_s + advance_s - c.strategy_s - c.expiry_s - c.publish_s,
    );
    let all = r.counters;
    l.insert("coordinator.states_processed", all.states_processed as f64);
    l.insert("strategy.case1", all.case1 as f64);
    l.insert("strategy.case2", all.case2 as f64);
    l.insert("strategy.case3", all.case3 as f64);
    let selections = (all.case1 + all.case2 + all.case3) as f64;
    l.insert("strategy.reuse_ratio", ratio(all.case1 as f64, selections));
    l.insert("strategy.phase_b_deferred", all.phase_b_deferred as f64);
    l.insert("strategy.deferred_ratio", ratio(all.phase_b_deferred as f64, selections));
    l.insert("strategy.us_per_state", ratio(c.strategy_s * 1e6, c.states_processed as f64));

    l.insert("overlap.fsa_build_ms_p50", r.fsa_build_ms.percentile(50.0));
    l.insert("overlap.fsa_delta_ms_p50", r.fsa_delta_ms.percentile(50.0));
    if let Some(g) = &r.gauges {
        l.insert("index.paths_final", g.index_paths as f64);
        l.insert("hotness.hot_final", g.hot_paths as f64);
        l.insert("hotness.pending_expiry_events", g.pending_expiry_events as f64);
    }
    l.insert("hotness.late_crossings", r.late_crossings as f64);
    let part = |f: fn(&pipeline::RecoverSample) -> f64| {
        stats::median(&r.recover.iter().map(f).collect::<Vec<_>>())
    };
    l.insert("checkpoint.capture_ms", part(|s| s.capture_ms));
    l.insert("checkpoint.image_bytes", part(|s| s.image_bytes));
    l.insert("checkpoint.decode_ms", part(|s| s.decode_ms));
    l.insert("checkpoint.restore_ms", part(|s| s.restore_ms));

    l.insert("loadgen.gen_s", r.gen_s);
    l.insert("trace.spans", r.spans.len() as f64);
    // Tracer cost: each traced block against the mean of the untraced
    // blocks on either side of it, which cancels the drift of block
    // time along the run (large on `flash_crowd`).
    let (mut traced_ns, mut untraced_ns) = (0.0, 0.0);
    for (ns, on) in r.block_ns.windows(3).zip(r.block_traced.windows(3)) {
        if on == [false, true, false] {
            traced_ns += ns[1];
            untraced_ns += (ns[0] + ns[2]) / 2.0;
        }
    }
    let traced_wall_s: f64 =
        r.block_ns.iter().zip(&r.block_traced).filter(|(_, t)| **t).map(|(ns, _)| ns / 1e9).sum();
    l.insert("trace.traced_wall_s", traced_wall_s);
    // Children of the block spans against the blocks themselves.
    let block = times.get("block").copied().unwrap_or_default();
    l.insert(
        "trace.span_coverage_pct",
        ratio((block.total_ns - block.self_ns) as f64, block.total_ns as f64) * 100.0,
    );
    if untraced_ns > 0.0 {
        l.insert("trace.overhead_pct", (traced_ns / untraced_ns - 1.0) * 100.0);
    }
    l
}

// ---------------------------------------------------------------------
// serve_ingest, serve_read_storm
// ---------------------------------------------------------------------

/// What set-up hands the served workloads: the recorded trace and the
/// in-process reference run it came from.
struct Recorded {
    log: TraceLog,
    reference: RepOut,
    shape: TraceShape,
}

fn record(spec: &PipelineSpec, seed: u64, traced: bool, origin: Instant) -> Recorded {
    let built = pipeline::build(spec, seed);
    let mut reference = pipeline::run_rep(built, RepOptions { traced, record: true }, origin);
    let log = reference.log.take().expect("recording was requested");
    let (window, lambda) = sut::window_and_epoch();
    Recorded { log, reference, shape: TraceShape { window, lambda, ticks: spec.ticks } }
}

fn run_served(name: &'static str, env: &Env, req: Request) -> WorkloadResult {
    let origin = Instant::now();
    let ingest = name == "serve_ingest";
    let spec = env.sizes.serve;
    let mut tally = Tally::default();

    // Set-up: network, population, filters, engine, the recording run,
    // and one daemon spawn-to-accept. Timed `setup_reps` times; the
    // first one's products are the ones used.
    let mut setups = Vec::new();
    let mut recorded = None;
    for _ in 0..env.sizes.setup_reps.max(1) {
        let t = Instant::now();
        let r = record(&spec, req.seed, req.traced, origin);
        match Daemon::spawn(&env.hotpathd, &env.out_dir) {
            Ok(d) => drop(d),
            Err(e) => {
                tally.failed += 1;
                tally.note(&[format!("cannot start {}: {e}", env.hotpathd.display())]);
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        tally.violations += r.reference.violations;
        tally.note(&r.reference.messages);
        recorded.get_or_insert(r);
    }
    let Recorded { log, mut reference, shape } = recorded.expect("at least one set-up");

    let readers = procfs::nproc().saturating_sub(1).max(1);
    let mut replays: Vec<ReplayOut> = Vec::new();
    if tally.failed == 0 {
        fill_budget(req.seconds, || {
            let t = Instant::now();
            // Traced and untraced replays alternate, so the untraced
            // ones of the same run price the tracer.
            let traced = req.traced && replays.len().is_multiple_of(2);
            let replay = serve::Replay {
                bin: &env.hotpathd,
                out_dir: &env.out_dir,
                log: &log,
                shape,
                traced,
                origin,
            };
            let out = if ingest {
                serve::replay_ingest(&replay)
            } else {
                let ticks = env.sizes.storm_ticks.min(shape.ticks);
                let replay = serve::Replay { shape: TraceShape { ticks, ..shape }, ..replay };
                serve::replay_storm(&replay, readers, env.sizes.storm_tick_hz)
            };
            replays.push(out);
            t.elapsed().as_secs_f64()
        });
    }

    // ---- end-to-end ---------------------------------------------------
    for r in &replays {
        tally.attempted += r.attempted;
        tally.failed += r.failed;
        tally.note(&r.messages);
        tally.fingerprints.push(r.fingerprint.0);
    }
    // The served sequence must be the reference's timed sequence.
    let mut expected = Fingerprint::default();
    let walked = if ingest { shape.ticks } else { env.sizes.storm_ticks.min(shape.ticks) };
    for w in
        &log.reference[(shape.window / shape.lambda) as usize..(walked / shape.lambda) as usize]
    {
        expected.published(&sut::Published::of_wire(w));
    }
    tally.fingerprints.push(expected.0);

    let mut e2e = served_e2e(&replays, ingest);
    e2e.insert("setup_s", reading(stats::median(&setups), setups.len()));
    let from_reference = pipeline_e2e(std::slice::from_ref(&reference));
    e2e.insert("uplink_msgs_per_kmeas", from_reference["uplink_msgs_per_kmeas"]);

    // ---- per layer ----------------------------------------------------
    let mut spans = Vec::new();
    let mut layers = empty_layers();
    layers.extend(served_context(&replays, ingest));
    layers.insert(
        "coordinator.top_k_score_mean",
        median_of(replays.iter().map(|r| ratio(r.top_k_score_sum, r.epochs as f64))),
    );
    layers.insert("checkpoint.recover_ms", median_of(reference.recover.iter().map(|s| s.total_ms)));
    if req.traced {
        layers.extend(pipeline_layers(&mut reference));
        // (Untraced replays recorded nothing.)
        let mut replay_spans = Vec::new();
        for r in &mut replays {
            replay_spans.append(&mut r.spans);
        }
        layers.extend(served_layers(
            &replays,
            &replay_spans,
            &log,
            shape,
            (!ingest).then_some(readers),
            &reference,
        ));
        spans.append(&mut reference.spans);
        spans.append(&mut replay_spans);
        layers.insert("trace.spans", spans.len() as f64);
    }

    let native = if ingest { "states_per_s" } else { "reads_per_s" };
    finish(name, native, e2e, layers, tally, spans)
}

/// The end-to-end values of the replays of one served workload. Every
/// replay sends the same trace, so each epoch's latency is its median
/// across replays; the rate is the median across replays (ingest) or
/// across the seconds of the paced spans (storm); counts are the same in
/// every replay.
fn served_e2e(replays: &[ReplayOut], ingest: bool) -> BTreeMap<&'static str, Reading> {
    let mut e2e = BTreeMap::new();
    let Some(first) = replays.first() else { return e2e };
    let per_epoch: Vec<&[f64]> = replays.iter().map(|r| &r.epoch_latency_ns[..]).collect();
    let measured = per_epoch.iter().map(|e| e.len()).sum();
    epoch_latency_readings(&mut e2e, &stats::median_each(&per_epoch), measured);
    let rates: Vec<f64> = if ingest {
        replays.iter().map(|r| ratio(r.states as f64, r.span_s)).collect()
    } else if first.reads_per_second.is_empty() {
        // A paced span shorter than a second has no full bucket.
        replays.iter().map(|r| ratio(r.reads as f64, r.span_s)).collect()
    } else {
        replays.iter().flat_map(|r| r.reads_per_second.iter().copied()).collect()
    };
    e2e.insert("throughput_per_s", reading(stats::median(&rates), rates.len()));
    e2e.insert(
        "peak_rss_mb",
        reading(median_of(replays.iter().map(|r| r.peak_rss_mb)), replays.len()),
    );
    e2e.insert(
        "index_paths_mean",
        reading(ratio(first.index_paths_sum, first.epochs as f64), replays.len()),
    );
    e2e
}

/// The served counterpart of [`pipeline_context`].
fn served_context(replays: &[ReplayOut], ingest: bool) -> BTreeMap<&'static str, f64> {
    let mut l = BTreeMap::new();
    let sum = |f: &dyn Fn(&ReplayOut) -> f64| replays.iter().map(f).sum::<f64>();
    let work = if ingest { sum(&|r| r.states as f64) } else { sum(&|r| r.reads as f64) };
    l.insert("loadgen.throughput_all_samples", ratio(work, sum(&|r| r.span_s)));
    l.insert(
        "loadgen.epoch_latency_ms_p50_all_samples",
        ms(median_of(replays.iter().flat_map(|r| r.epoch_latency_ns.iter().copied()))),
    );
    let mut reads = Samples::default();
    for r in replays {
        reads.extend(&r.read_latency_ns);
    }
    l.insert("loadgen.read_latency_us_p50", us(reads.percentile(50.0)));
    l.insert("loadgen.read_latency_us_p99", us(reads.percentile(99.0)));
    l.insert(
        "server.cpu_s_per_mstate",
        cpu_per_mstate(sum(&|r| r.cpu.cpu_s()), sum(&|r| r.states as f64)),
    );
    l
}

/// Per-call ns of `f` over `items` (one pass, at least one call).
fn per_call_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for i in items {
        f(i);
    }
    ratio(t.elapsed().as_nanos() as f64, items.len() as f64)
}

/// The wire, snapshot, server, load-generator and tracer layers of the
/// served workloads.
fn served_layers(
    replays: &[ReplayOut],
    // The spans of the traced replays.
    traced_spans: &[Span],
    log: &TraceLog,
    shape: TraceShape,
    // Reader connections of the storm; `None` on ingest.
    storm_readers: Option<usize>,
    reference: &RepOut,
) -> BTreeMap<&'static str, f64> {
    let mut l = BTreeMap::new();

    // Codec shadows over the trace's own states and snapshots.
    let states: Vec<_> = log.ticks.iter().flatten().copied().collect();
    let mut buf = Vec::with_capacity(states.len() * sut::codec::STATE_BYTES);
    l.insert(
        "wire.encode_state_ns",
        per_call_ns(&states, |s| sut::codec::encode_state(s, &mut buf)),
    );
    let chunks: Vec<&[u8]> = buf.chunks_exact(sut::codec::STATE_BYTES).collect();
    l.insert(
        "wire.decode_state_ns",
        per_call_ns(&chunks, |c| {
            black_box(sut::codec::decode_state(c).is_ok());
        }),
    );
    let mut encoded = Vec::new();
    l.insert(
        "wire.snapshot_encode_ns",
        per_call_ns(&log.reference, |s| encoded.push(black_box(sut::codec::encode_snapshot(s)))),
    );
    l.insert(
        "wire.snapshot_decode_ns",
        per_call_ns(&encoded, |b| {
            black_box(sut::codec::decode_snapshot(b).is_ok());
        }),
    );

    // Request round trips, from the traced replays' spans.
    l.insert("wire.submit_rtt_us_p50", us(p50_of(traced_spans, "wire.submit")));
    l.insert("wire.advance_rtt_us_p50", us(p50_of(traced_spans, "wire.advance")));
    let mut q = trace::durations_ns(traced_spans, "wire.query");
    stats::sort(&mut q);
    l.insert("wire.query_rtt_us_p50", us(stats::percentile(&q, 50.0)));
    l.insert("wire.query_rtt_us_p99", us(stats::percentile(&q, 99.0)));

    let med = |f: &dyn Fn(&ReplayOut) -> f64| median_of(replays.iter().map(f));
    l.insert("wire.frames_sent", med(&|r| r.frames as f64));
    l.insert("wire.bytes_sent", med(&|r| r.bytes_sent as f64));
    l.insert("wire.bytes_received", med(&|r| r.bytes_received as f64));
    l.insert(
        "wire.states_per_frame_mean",
        med(&|r| ratio(r.states as f64, r.submit_frames as f64)),
    );

    let mut cell = serve::in_process_read_ns(log, shape);
    l.insert("snapshot.read_ns_p50", cell.percentile(50.0));
    l.insert("snapshot.read_ns_p99", cell.percentile(99.0));

    let sum = |f: &dyn Fn(&ReplayOut) -> f64| replays.iter().map(f).sum::<f64>();
    let count = replays.len().max(1) as f64;
    l.insert("server.cpu_user_s", sum(&|r| r.cpu.user_s()) / count);
    l.insert("server.cpu_sys_s", sum(&|r| r.cpu.sys_s()) / count);
    l.insert("server.cpu_utilization", ratio(sum(&|r| r.cpu.cpu_s()), sum(&|r| r.span_s)));
    l.insert("server.ctx_switches_involuntary", sum(&|r| r.involuntary_switches as f64) / count);
    l.insert("server.threads", med(&|r| r.cpu.threads as f64));
    l.insert("server.startup_ms", med(&|r| r.startup_ms));
    let mut lag = Samples::default();
    for r in replays {
        lag.extend(&r.pacer_lag_ns);
    }
    // Served epoch latency minus the same epochs' in-process boundary
    // (`process_epoch` + `snapshot`) on the same trace, both over all
    // samples.
    let served = median_of(replays.iter().flat_map(|r| r.epoch_latency_ns.iter().copied()));
    let walked = replays.iter().map(|r| r.epoch_latency_ns.len()).max().unwrap_or(0);
    let in_process = median_of(reference.epoch_latency_ns.iter().take(walked).copied());
    l.insert("server.epoch_overhead_ms_p50", ms(served - in_process));
    l.insert("loadgen.pacer_lag_ms_p99", ms(lag.percentile(99.0)));
    l.insert("loadgen.polls_per_epoch", ratio(sum(&|r| r.polls as f64), sum(&|r| r.epochs as f64)));

    // Tracer cost: traced against untraced replays of the same run, by
    // the time a unit of the workload's own work took.
    let pace = |traced: bool| {
        let v: Vec<f64> = replays
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| if storm_readers.is_some() { r.read_latency_ns.mean() } else { r.span_s })
            .collect();
        stats::median(&v)
    };
    let (with, without) = (pace(true), pace(false));
    if with > 0.0 && without > 0.0 {
        l.insert("trace.overhead_pct", (with / without - 1.0) * 100.0);
    }
    let traced_wall: f64 = replays.iter().filter(|r| r.traced).map(|r| r.span_s).sum();
    l.insert("trace.traced_wall_s", traced_wall);
    // Coverage of the closed-loop side: the writer's requests and epoch
    // waits on ingest, the readers' queries on the storm.
    let times = trace::layer_times(traced_spans);
    let total_s = |n: &str| times.get(n).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let coverage = if let Some(readers) = storm_readers {
        ratio(total_s("wire.query"), traced_wall * readers as f64)
    } else {
        let writer =
            total_s("wire.submit") + total_s("wire.advance") + total_s("loadgen.epoch_wait");
        ratio(writer, traced_wall)
    };
    l.insert("trace.span_coverage_pct", coverage * 100.0);
    l
}
