//! The in-process pipeline: `Source` (population or scenario) → one
//! RayTrace filter per object → `Engine` → endpoint responses back into
//! the filters. `paper_uniform` and `flash_crowd` run it as their
//! workload; the served workloads run it once in set-up to record the
//! uplink trace they replay and the reference outputs they check the
//! daemon against.
//!
//! The loop is closed at epoch granularity, as in the paper: every
//! reporting object waits for its endpoint, and the driver feeds as
//! fast as the system consumes. One epoch's measurements are generated
//! untimed into buffers; then observe × Λ ticks → submit → advance →
//! `process_epoch` → snapshot → deliver is timed as one block.

use std::hint::black_box;
use std::time::Instant;

use crate::checks::{Checker, Fingerprint};
use crate::procfs::{self, Pid};
use crate::stats::Samples;
use crate::sut::{
    self, BoxEngine, ClientState, Counters, FinalGauges, Fleet, FsaShadow, Measurement, Published,
    SnapshotWire, Source, SourceKind, Timestamp,
};
use crate::trace::{Span, Tracer};

/// Size of one pipeline run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineSpec {
    pub kind: SourceKind,
    pub n: usize,
    /// Total ticks, warm-up included; a multiple of the epoch length.
    pub ticks: u64,
}

/// Everything set-up constructs: the measurement source, the client
/// filters, and a fresh engine.
pub struct Built {
    source: Source,
    fleet: Fleet,
    engine: BoxEngine,
    spec: PipelineSpec,
}

pub fn build(spec: &PipelineSpec, seed: u64) -> Built {
    let source = Source::build(spec.kind, spec.n, spec.ticks, seed);
    let engine = sut::new_engine();
    let fleet = Fleet::new(&source, spec.n, engine.config());
    Built { source, fleet, engine, spec: *spec }
}

/// The recorded uplink of one run — what the clients sent, in order —
/// plus the outputs the run published, for checking a replay.
#[derive(Default)]
pub struct TraceLog {
    /// States submitted at tick `t`, at index `t - 1`.
    pub ticks: Vec<Vec<ClientState>>,
    /// Boundary resubmissions sent right after epoch `e`'s responses, at
    /// index `e - 1`; they belong to epoch `e + 1`.
    pub resub: Vec<Vec<ClientState>>,
    /// The wire form of what epoch `e` published, at index `e - 1`.
    pub reference: Vec<SnapshotWire>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct RepOptions {
    /// Record spans (on alternate timed blocks, so the untraced blocks
    /// of the same rep price the tracer) and run the shadow calls.
    pub traced: bool,
    /// Keep the uplink trace and the published reference.
    pub record: bool,
}

/// Split timings of one checkpoint → restore round trip, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoverSample {
    pub capture_ms: f64,
    pub decode_ms: f64,
    pub restore_ms: f64,
    pub total_ms: f64,
    pub image_bytes: f64,
}

/// What one rep measured.
#[derive(Default)]
pub struct RepOut {
    pub fingerprint: Fingerprint,
    pub violations: u64,
    pub messages: Vec<String>,
    pub unanswered: u64,
    /// Crossings recorded with their window already passed (see the
    /// recount rule in `checks`).
    pub late_crossings: u64,
    pub epochs_timed: u64,
    pub measurements: u64,
    /// States sent in timed blocks: first reports plus resubmissions.
    pub states: u64,
    pub resubmits: u64,
    /// Per timed epoch, in order: wall time of its block (ns), whether
    /// the block was traced, its boundary latency (ns), and the per-read
    /// time of `Engine::snapshot` after it (ns; the median of
    /// `READ_BATCHES_PER_EPOCH` batches of `READ_BATCH` reads).
    pub block_ns: Vec<f64>,
    pub block_traced: Vec<bool>,
    pub epoch_latency_ns: Vec<f64>,
    pub read_ns: Vec<f64>,
    /// CPU seconds of this process inside the timed blocks.
    pub cpu_s: f64,
    pub index_paths_sum: f64,
    pub top_k_score_sum: f64,
    pub phase_b_deferred: u64,
    /// The coordinator's counters over the whole timed region.
    pub counters: Counters,
    /// The same counters, and the work done, over traced blocks only —
    /// the base the span times are compared against.
    pub traced_counters: Counters,
    pub traced_measurements: u64,
    pub traced_states: u64,
    pub recover: Vec<RecoverSample>,
    pub gen_s: f64,
    pub fsa_build_ms: Samples,
    pub fsa_delta_ms: Samples,
    pub gauges: Option<FinalGauges>,
    pub spans: Vec<Span>,
    pub log: Option<TraceLog>,
    /// Wall time of the whole rep, warm-up and checks included.
    pub wall_s: f64,
}

const READ_BATCH: usize = 1000;
const READ_BATCHES_PER_EPOCH: usize = 10;
const RECOVER_ROUNDS: usize = 10;

/// Runs one rep on fresh state: `W` warm-up ticks fill the window
/// untimed, the remaining ticks are timed epoch block by epoch block.
pub fn run_rep(built: Built, opts: RepOptions, origin: Instant) -> RepOut {
    let rep_start = Instant::now();
    let Built { mut source, mut fleet, mut engine, spec } = built;
    let (window, lambda) = sut::window_and_epoch();
    assert!(spec.ticks % lambda == 0 && spec.ticks > window, "ticks must cover warm-up + epochs");
    let config = *engine.config();

    let mut tracer = Tracer::new(false, origin, 1);
    let mut checker = Checker::new(spec.n, window);
    let mut shadow = opts.traced.then(|| FsaShadow::new(&config));
    let mut log = opts.record.then(TraceLog::default);
    let mut out = RepOut::default();

    let mut bufs: Vec<Vec<Measurement>> = vec![Vec::new(); lambda as usize];
    let mut tick_states: Vec<ClientState> = Vec::new();
    // The batch the engine holds for the current epoch, in submission
    // order: last boundary's resubmissions, then each tick's reports.
    let mut epoch_states: Vec<ClientState> = Vec::new();
    let mut resub: Vec<ClientState> = Vec::new();
    let mut baseline = Counters::default();
    let mut previous = Counters::default();

    for epoch in 1..=spec.ticks / lambda {
        let first_tick = (epoch - 1) * lambda + 1;
        let timed = first_tick > window;

        let gen_start = Instant::now();
        for (i, buf) in bufs.iter_mut().enumerate() {
            source.tick(Timestamp(first_tick + i as u64), buf);
        }
        if timed {
            out.gen_s += gen_start.elapsed().as_secs_f64();
        }

        let traced_block = opts.traced && timed && out.epochs_timed.is_multiple_of(2);
        tracer.set_on(traced_block);
        let cpu_before = timed.then(|| procfs::read_stat(Pid::Me)).flatten();

        // ---- the timed block ------------------------------------------
        let block_start = Instant::now();
        tracer.begin("block", epoch);
        let (mut measurements, mut reports) = (0u64, 0u64);
        let mut now = Timestamp(first_tick);
        for (i, buf) in bufs.iter().enumerate() {
            now = Timestamp(first_tick + i as u64);
            tick_states.clear();
            tracer.begin("raytrace.observe", epoch);
            for m in buf {
                if let Some(s) = fleet.observe(m) {
                    tick_states.push(s);
                }
            }
            tracer.end();
            measurements += buf.len() as u64;
            reports += tick_states.len() as u64;
            tracer.begin("engine.submit_batch", epoch);
            engine.submit_batch(&mut tick_states.iter().copied());
            tracer.end();
            tracer.begin("engine.advance_time", epoch);
            engine.advance_time(now);
            tracer.end();
            epoch_states.extend_from_slice(&tick_states);
            if let Some(log) = &mut log {
                log.ticks.push(tick_states.clone());
            }
        }
        let boundary = Instant::now();
        tracer.begin("engine.process_epoch", epoch);
        let responses = engine.process_epoch(now);
        tracer.end();
        tracer.begin("engine.snapshot", epoch);
        let snap = engine.snapshot();
        tracer.end();
        let latency = boundary.elapsed();
        resub.clear();
        tracer.begin("raytrace.receive_endpoint", epoch);
        for r in &responses {
            if let Some(s) = fleet.receive(r) {
                resub.push(s);
            }
        }
        tracer.end();
        tracer.begin("engine.submit_batch", epoch);
        engine.submit_batch(&mut resub.iter().copied());
        tracer.end();
        tracer.end();
        let block = block_start.elapsed();
        // ---- end of the timed block -----------------------------------

        let published = Published::of(&snap);
        let counters = sut::counters(&snap);
        if traced_block {
            let t = &mut out.traced_counters;
            t.states_processed += counters.states_processed - previous.states_processed;
            t.strategy_s += counters.strategy_s - previous.strategy_s;
            t.expiry_s += counters.expiry_s - previous.expiry_s;
            t.publish_s += counters.publish_s - previous.publish_s;
            out.traced_measurements += measurements;
            out.traced_states += reports + resub.len() as u64;
        }
        previous = counters;
        if timed {
            if let (Some(a), Some(b)) = (cpu_before, procfs::read_stat(Pid::Me)) {
                out.cpu_s += b.since(&a).cpu_s();
            }
            out.epochs_timed += 1;
            out.measurements += measurements;
            out.states += reports + resub.len() as u64;
            out.resubmits += resub.len() as u64;
            out.block_ns.push(block.as_nanos() as f64);
            out.block_traced.push(traced_block);
            out.epoch_latency_ns.push(latency.as_nanos() as f64);
            out.index_paths_sum += published.index_size as f64;
            out.top_k_score_sum += published.top_k_score;
            out.phase_b_deferred += counters.phase_b_deferred;
            let mut batches = [0.0; READ_BATCHES_PER_EPOCH];
            for batch in &mut batches {
                let t = Instant::now();
                for _ in 0..READ_BATCH {
                    black_box(sut::read_top_len(black_box(&mut engine)));
                }
                *batch = t.elapsed().as_nanos() as f64 / READ_BATCH as f64;
            }
            out.read_ns.push(crate::stats::median(&batches));
        } else if first_tick + lambda > window {
            // Last warm-up boundary: the counters' starting point.
            baseline = counters;
        }

        // ---- untimed: checks, shadows, recording ----------------------
        checker.responses(epoch, now.0, &epoch_states, &responses);
        checker.published(&published);
        if published.epoch != epoch || published.timestamp != now.0 {
            checker.fail(format!(
                "epoch {epoch}: snapshot stamped epoch {} t={}",
                published.epoch, published.timestamp
            ));
        }
        out.fingerprint.published(&published);
        if let Some(shadow) = &mut shadow {
            let t = Instant::now();
            black_box(shadow.build(&epoch_states));
            let build = t.elapsed();
            let t = Instant::now();
            black_box(shadow.delta(&epoch_states));
            let delta = t.elapsed();
            if timed {
                out.fsa_build_ms.push(build.as_secs_f64() * 1e3);
                out.fsa_delta_ms.push(delta.as_secs_f64() * 1e3);
            }
        }
        if let Some(log) = &mut log {
            log.resub.push(resub.clone());
            log.reference.push(sut::codec::project(&snap));
        }
        if epoch == spec.ticks / lambda {
            let end = counters;
            out.counters = Counters {
                uplink_msgs: end.uplink_msgs - baseline.uplink_msgs,
                states_processed: end.states_processed - baseline.states_processed,
                strategy_s: end.strategy_s - baseline.strategy_s,
                expiry_s: end.expiry_s - baseline.expiry_s,
                publish_s: end.publish_s - baseline.publish_s,
                case1: end.case1 - baseline.case1,
                case2: end.case2 - baseline.case2,
                case3: end.case3 - baseline.case3,
                phase_b_deferred: out.phase_b_deferred,
            };
        }
        epoch_states.clear();
        epoch_states.extend_from_slice(&resub);
    }

    // Every filter either holds an SSA or re-reported at the boundary:
    // anything else still waiting lost its response.
    let waiting = fleet.waiting() as u64;
    if waiting != resub.len() as u64 {
        checker.fail(format!(
            "{waiting} filter(s) waiting after the last boundary, {} resubmitted",
            resub.len()
        ));
    }

    tracer.set_on(opts.traced);
    recover(&mut engine, &mut tracer, &mut checker, &mut out);
    match sut::finish_and_audit(engine) {
        Ok(g) => out.gauges = Some(g),
        Err(e) => checker.fail(format!("check_consistency after finish(): {e}")),
    }

    out.violations = checker.violations;
    out.unanswered = checker.unanswered;
    out.late_crossings = checker.late_crossings;
    out.messages = std::mem::take(&mut checker.messages);
    out.spans = tracer.into_spans();
    out.log = log;
    out.wall_s = rep_start.elapsed().as_secs_f64();
    out
}

/// `checkpoint()` → `as_bytes` copy → `Checkpoint::from_bytes` →
/// `restore` into a fresh engine → first `snapshot()`, `RECOVER_ROUNDS`
/// times on the state the run ended with; the replica must publish
/// what the live engine publishes.
fn recover(engine: &mut BoxEngine, tracer: &mut Tracer, checker: &mut Checker, out: &mut RepOut) {
    let live = Published::of(&engine.snapshot());
    for _ in 0..RECOVER_ROUNDS {
        let t0 = Instant::now();
        tracer.begin("checkpoint.capture", live.epoch);
        let bytes = sut::checkpoint_bytes(engine);
        tracer.end();
        let t1 = Instant::now();
        let image_bytes = bytes.len() as f64;
        tracer.begin("checkpoint.decode", live.epoch);
        let image = sut::checkpoint_decode(bytes);
        tracer.end();
        let t2 = Instant::now();
        tracer.begin("checkpoint.restore", live.epoch);
        let replica = image.and_then(|i| sut::restore_fresh(&i)).map(|mut e| e.snapshot());
        tracer.end();
        let t3 = Instant::now();
        match replica {
            Ok(snap) if Published::of(&snap) == live => {}
            Ok(_) => checker.fail("restored engine publishes a different snapshot".into()),
            Err(e) => checker.fail(format!("checkpoint round trip failed: {e}")),
        }
        out.recover.push(RecoverSample {
            capture_ms: (t1 - t0).as_secs_f64() * 1e3,
            decode_ms: (t2 - t1).as_secs_f64() * 1e3,
            restore_ms: (t3 - t2).as_secs_f64() * 1e3,
            total_ms: (t3 - t0).as_secs_f64() * 1e3,
            image_bytes,
        });
    }
}
