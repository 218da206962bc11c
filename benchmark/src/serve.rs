//! The served workloads: a child `hotpathd --tick-ms 0 --socket <path>`
//! driven through `wire::UnixClient` with the uplink trace an in-process
//! pipeline run recorded in set-up. (`hotpathd` drops endpoint
//! responses, so the wire cannot close the client loop itself — hence
//! replay.) Every snapshot a replay reads is checked against what the
//! in-process reference published for that epoch.
//!
//! * [`replay_ingest`] — write-dominant, closed loop: one writer
//!   connection with one frame in flight; at each epoch boundary it
//!   waits until `OP_QUERY` shows that epoch, as the paper's clients wait
//!   for their endpoints. One probe reader, open loop at 200 reads/s.
//! * [`replay_storm`] — read-dominant: the writer is open loop at a
//!   fixed tick rate, timed from due times; `max(1, nproc - 1)` reader
//!   connections query back to back.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::checks::Fingerprint;
use crate::pacer::{self, Schedule};
use crate::pipeline::TraceLog;
use crate::procfs::{self, Pid, Stat};
use crate::stats::Samples;
use crate::sut::{self, ClientState, Published, SnapshotWire, Timestamp, UnixClient};
use crate::trace::{Span, Tracer};

/// An epoch that is not visible this long after its advance has failed.
const EPOCH_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause between two `OP_QUERY` polls of an epoch wait.
const POLL_PAUSE: Duration = Duration::from_micros(50);
/// Probe reader rate of the ingest workload, reads per second.
const PROBE_HZ: f64 = 200.0;

/// A running `hotpathd` child. Dropping it kills the child, waits for
/// it, and removes its socket.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    /// Spawn to first accepted connection.
    pub startup_ms: f64,
}

impl Daemon {
    /// Spawns the daemon on a fresh socket under `out_dir` (a relative
    /// path keeps it under the 108-byte `sun_path` limit whatever the
    /// checkout is called) and waits until it accepts.
    pub fn spawn(bin: &Path, out_dir: &Path) -> io::Result<Daemon> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let socket = out_dir.join(format!("d{}-{seq}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let start = Instant::now();
        let child = sut::daemon_command(bin, &socket).spawn()?;
        let mut daemon = Daemon { child: Some(child), socket, startup_ms: 0.0 };
        loop {
            if UnixClient::connect(&daemon.socket).is_ok() {
                break;
            }
            let child = daemon.child.as_mut().expect("just spawned");
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!("hotpathd exited at start-up: {status}")));
            }
            if start.elapsed() > EPOCH_TIMEOUT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "hotpathd never accepted"));
            }
            thread::sleep(Duration::from_micros(200));
        }
        daemon.startup_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(daemon)
    }

    pub fn connect(&self) -> io::Result<UnixClient> {
        UnixClient::connect(&self.socket)
    }

    pub fn pid(&self) -> Pid {
        Pid::Child(self.child.as_ref().expect("running").id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// What one replay measured.
#[derive(Default)]
pub struct ReplayOut {
    pub traced: bool,
    /// Operations: states, frames, awaited epochs, reads.
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Timed states acknowledged.
    pub states: u64,
    pub frames: u64,
    pub submit_frames: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Wall time of the timed span, s.
    pub span_s: f64,
    pub epochs: u64,
    /// Boundary latency of each timed epoch, in epoch order, ns.
    pub epoch_latency_ns: Vec<f64>,
    pub polls: u64,
    pub reads: u64,
    pub read_latency_ns: Samples,
    /// Completed reads in each full second of the paced span.
    pub reads_per_second: Vec<f64>,
    pub pacer_lag_ns: Samples,
    /// Child CPU over the timed span.
    pub cpu: Stat,
    pub peak_rss_mb: f64,
    pub involuntary_switches: u64,
    pub startup_ms: f64,
    pub index_paths_sum: f64,
    pub top_k_score_sum: f64,
    /// Over the snapshot each timed epoch was first seen with.
    pub fingerprint: Fingerprint,
    pub spans: Vec<Span>,
}

impl ReplayOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Folds a timed epoch's first-seen snapshot into the outputs and
    /// checks it against the in-process reference.
    fn saw_epoch(&mut self, epoch: u64, seen: &SnapshotWire, log: &TraceLog) {
        if log.reference.get(epoch as usize - 1) != Some(seen) {
            self.fail(format!(
                "epoch {epoch}: served snapshot (epoch {}) differs from the in-process reference",
                seen.epoch
            ));
        }
        let p = Published::of_wire(seen);
        self.index_paths_sum += p.index_size as f64;
        self.top_k_score_sum += p.top_k_score;
        self.fingerprint.published(&p);
    }
}

const FRAME_OVERHEAD: u64 = 4 + 1;
const ACK_BYTES: u64 = FRAME_OVERHEAD + 4;

fn snapshot_reply_bytes(s: &SnapshotWire) -> u64 {
    FRAME_OVERHEAD + 44 + 52 * s.top.len() as u64
}

/// The writer side of a replay: one connection, one frame in flight.
struct Writer<'a> {
    client: UnixClient,
    tracer: Tracer,
    out: &'a mut ReplayOut,
    counting: bool,
}

impl Writer<'_> {
    fn submit(&mut self, states: &[ClientState], epoch: u64) -> io::Result<()> {
        for chunk in states.chunks(sut::MAX_BATCH) {
            self.tracer.begin("wire.submit", epoch);
            let acked = self.client.submit_batch(chunk);
            self.tracer.end();
            let acked = acked? as usize;
            if self.counting {
                self.out.attempted += 1 + chunk.len() as u64;
                self.out.frames += 1;
                self.out.submit_frames += 1;
                self.out.states += acked.min(chunk.len()) as u64;
                self.out.bytes_sent +=
                    FRAME_OVERHEAD + (chunk.len() * sut::codec::STATE_BYTES) as u64;
                self.out.bytes_received += ACK_BYTES;
            }
            if acked != chunk.len() {
                self.out.fail(format!("frame of {} states acknowledged {acked}", chunk.len()));
            }
        }
        Ok(())
    }

    fn advance(&mut self, t: u64, epoch: u64) -> io::Result<()> {
        self.tracer.begin("wire.advance", epoch);
        let r = self.client.advance(Timestamp(t));
        self.tracer.end();
        if self.counting {
            self.out.attempted += 1;
            self.out.frames += 1;
            self.out.bytes_sent += FRAME_OVERHEAD + 8;
            self.out.bytes_received += ACK_BYTES;
        }
        r
    }

    fn query(&mut self, epoch: u64) -> io::Result<SnapshotWire> {
        self.tracer.begin("wire.query", epoch);
        let r = self.client.query();
        self.tracer.end();
        if self.counting {
            self.out.bytes_sent += FRAME_OVERHEAD;
            if let Ok(s) = &r {
                self.out.bytes_received += snapshot_reply_bytes(s);
            }
        }
        r
    }

    /// Polls until `OP_QUERY` shows `epoch`; returns the first reply
    /// carrying it and when it arrived.
    fn await_epoch(&mut self, epoch: u64) -> io::Result<(SnapshotWire, Instant)> {
        let start = Instant::now();
        self.tracer.begin("loadgen.epoch_wait", epoch);
        let found = loop {
            let q = self.query(epoch)?;
            if self.counting {
                self.out.polls += 1;
            }
            if q.epoch >= epoch {
                break Ok((q, Instant::now()));
            }
            if start.elapsed() > EPOCH_TIMEOUT {
                break Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("epoch {epoch} not visible within {EPOCH_TIMEOUT:?}"),
                ));
            }
            thread::sleep(POLL_PAUSE);
        };
        self.tracer.end();
        found
    }

    /// Feeds the warm-up ticks closed loop, untimed and uncounted.
    fn warm_up(&mut self, log: &TraceLog, window: u64, lambda: u64) -> io::Result<()> {
        self.counting = false;
        let on = self.tracer.is_on();
        self.tracer.set_on(false);
        for t in 1..=window {
            let epoch = t.div_ceil(lambda);
            self.submit(&log.ticks[t as usize - 1], epoch)?;
            self.advance(t, epoch)?;
            if t % lambda == 0 {
                self.await_epoch(epoch)?;
                self.submit(&log.resub[epoch as usize - 1], epoch + 1)?;
            }
        }
        self.tracer.set_on(on);
        self.counting = true;
        Ok(())
    }
}

/// Reads the child's CPU counters, peak RSS and context switches into
/// `out` (`before` is the reading at the start of the timed span).
fn read_child(daemon: &Daemon, before: (Stat, u64), out: &mut ReplayOut) {
    let pid = daemon.pid();
    if let Some(after) = procfs::read_stat(pid) {
        out.cpu = after.since(&before.0);
    }
    out.involuntary_switches = procfs::involuntary_switches(pid).saturating_sub(before.1);
    out.peak_rss_mb = procfs::peak_rss_mb(pid);
    out.startup_ms = daemon.startup_ms;
}

fn child_baseline(daemon: &Daemon) -> (Stat, u64) {
    let pid = daemon.pid();
    (procfs::read_stat(pid).unwrap_or_default(), procfs::involuntary_switches(pid))
}

/// Shape of the recorded run a replay walks.
#[derive(Clone, Copy, Debug)]
pub struct TraceShape {
    pub window: u64,
    pub lambda: u64,
    pub ticks: u64,
}

/// What every replay needs: the daemon binary, where its socket goes,
/// the trace, and how to record.
#[derive(Clone, Copy)]
pub struct Replay<'a> {
    pub bin: &'a Path,
    pub out_dir: &'a Path,
    pub log: &'a TraceLog,
    pub shape: TraceShape,
    pub traced: bool,
    /// Zero of the span clock.
    pub origin: Instant,
}

/// One `serve_ingest` replay on a freshly spawned daemon.
pub fn replay_ingest(replay: &Replay<'_>) -> ReplayOut {
    let mut out = ReplayOut { traced: replay.traced, ..ReplayOut::default() };
    let mut spans = Vec::new();
    if let Err(e) = ingest_inner(replay, &mut out, &mut spans) {
        out.fail(format!("ingest replay aborted: {e}"));
    }
    out.spans = spans;
    out
}

fn ingest_inner(replay: &Replay<'_>, out: &mut ReplayOut, spans: &mut Vec<Span>) -> io::Result<()> {
    let Replay { bin, out_dir, log, shape, traced, origin } = *replay;
    let TraceShape { window, lambda, ticks } = shape;
    let daemon = Daemon::spawn(bin, out_dir)?;
    let mut probe_client = daemon.connect()?;
    let mut w = Writer {
        client: daemon.connect()?,
        tracer: Tracer::new(traced, origin, 1),
        out,
        counting: true,
    };
    w.warm_up(log, window, lambda)?;

    let stop = AtomicBool::new(false);
    let baseline = child_baseline(&daemon);
    let span_start = Instant::now();
    let result = thread::scope(|scope| {
        // The probe reader: open loop, timed from due times.
        let probe = scope.spawn(|| {
            let mut tracer = Tracer::new(traced, origin, 2);
            let sched = Schedule::per_second(PROBE_HZ);
            let (mut lat, mut lag) = (Samples::default(), Samples::default());
            let (mut failed, mut last_epoch) = (0u64, 0u64);
            for i in 0.. {
                let due = sched.due_ns(i);
                let sent = pacer::wait_until(span_start, due);
                if stop.load(Ordering::Acquire) {
                    break;
                }
                tracer.begin("wire.query", last_epoch);
                let reply = probe_client.query();
                tracer.end();
                let done = span_start.elapsed().as_nanos() as u64;
                match reply {
                    Ok(q) if q.epoch >= last_epoch => last_epoch = q.epoch,
                    _ => failed += 1,
                }
                let paced = pacer::account(due, sent, done);
                lat.push(paced.latency_ns as f64);
                lag.push(paced.lag_ns as f64);
            }
            (lat, lag, failed, tracer.into_spans())
        });

        let run = (|| -> io::Result<()> {
            for t in window + 1..=ticks {
                let epoch = t.div_ceil(lambda);
                w.submit(&log.ticks[t as usize - 1], epoch)?;
                if t % lambda != 0 {
                    w.advance(t, epoch)?;
                    continue;
                }
                let handed_over = Instant::now();
                w.advance(t, epoch)?;
                w.out.attempted += 1;
                let (seen, at) = w.await_epoch(epoch)?;
                w.out.epoch_latency_ns.push((at - handed_over).as_nanos() as f64);
                w.out.epochs += 1;
                w.out.saw_epoch(epoch, &seen, log);
                w.submit(&log.resub[epoch as usize - 1], epoch + 1)?;
            }
            Ok(())
        })();
        w.out.span_s = span_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let (lat, lag, probe_failed, probe_spans) = probe.join().expect("probe reader panicked");
        w.out.reads = lat.len() as u64;
        w.out.attempted += lat.len() as u64;
        w.out.failed += probe_failed;
        w.out.read_latency_ns = lat;
        w.out.pacer_lag_ns = lag;
        spans.extend(probe_spans);
        run
    });
    read_child(&daemon, baseline, w.out);
    w.tracer.abandon();
    spans.extend(w.tracer.into_spans());
    result
}

/// One `serve_read_storm` replay on a freshly spawned daemon: the
/// writer paces the timed ticks at `tick_hz`, `readers` connections
/// query back to back.
pub fn replay_storm(replay: &Replay<'_>, readers: usize, tick_hz: f64) -> ReplayOut {
    let mut out = ReplayOut { traced: replay.traced, ..ReplayOut::default() };
    let mut spans = Vec::new();
    if let Err(e) = storm_inner(replay, readers, tick_hz, &mut out, &mut spans) {
        out.fail(format!("storm replay aborted: {e}"));
    }
    out.spans = spans;
    out
}

/// What one storm reader connection saw.
struct ReaderOut {
    bytes_received: u64,
    latency_ns: Vec<f64>,
    /// Completion time of each read, ns from the start of the span.
    done_ns: Vec<u64>,
    failed: u64,
    messages: Vec<String>,
    spans: Vec<Span>,
}

fn storm_inner(
    replay: &Replay<'_>,
    readers: usize,
    tick_hz: f64,
    out: &mut ReplayOut,
    spans: &mut Vec<Span>,
) -> io::Result<()> {
    let Replay { bin, out_dir, log, shape, traced, origin } = *replay;
    let TraceShape { window, lambda, ticks } = shape;
    let daemon = Daemon::spawn(bin, out_dir)?;
    let reader_clients: Vec<UnixClient> =
        (0..readers).map(|_| daemon.connect()).collect::<io::Result<_>>()?;
    let mut w = Writer {
        client: daemon.connect()?,
        tracer: Tracer::new(traced, origin, 1),
        out,
        counting: true,
    };
    w.warm_up(log, window, lambda)?;

    let first_epoch = window / lambda + 1;
    let last_epoch = ticks / lambda;
    // When each timed epoch was first seen by any reader, ns from the
    // start of the span, and by which snapshot.
    let first_seen: Vec<AtomicU64> =
        (first_epoch..=last_epoch).map(|_| AtomicU64::new(u64::MAX)).collect();
    let stop = AtomicBool::new(false);
    let baseline = child_baseline(&daemon);
    let span_start = Instant::now();

    let result = thread::scope(|scope| {
        let handles: Vec<_> = reader_clients
            .into_iter()
            .enumerate()
            .map(|(r, mut client)| {
                let (stop, first_seen) = (&stop, &first_seen);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, origin, 3 + r as u64);
                    let mut me = ReaderOut {
                        bytes_received: 0,
                        latency_ns: Vec::new(),
                        done_ns: Vec::new(),
                        failed: 0,
                        messages: Vec::new(),
                        spans: Vec::new(),
                    };
                    let mut last = first_epoch - 1;
                    while !stop.load(Ordering::Acquire) {
                        let sent = Instant::now();
                        tracer.begin("wire.query", last);
                        let reply = client.query();
                        tracer.end();
                        let done = Instant::now();
                        me.latency_ns.push((done - sent).as_nanos() as f64);
                        me.done_ns.push((done - span_start).as_nanos() as u64);
                        let Ok(q) = reply else {
                            me.failed += 1;
                            break;
                        };
                        me.bytes_received += snapshot_reply_bytes(&q);
                        if q.epoch < last {
                            me.failed += 1;
                            me.messages.push(format!("epoch went back from {last} to {}", q.epoch));
                        }
                        if q.epoch > last && q.epoch <= last_epoch {
                            // First sight (by this reader) of one or more
                            // epochs: all of them became visible by now.
                            let at = (done - span_start).as_nanos() as u64;
                            for e in last + 1..=q.epoch {
                                first_seen[(e - first_epoch) as usize]
                                    .fetch_min(at, Ordering::Relaxed);
                            }
                            if log.reference.get(q.epoch as usize - 1) != Some(&q) {
                                me.failed += 1;
                                me.messages.push(format!(
                                    "epoch {}: served snapshot differs from the reference",
                                    q.epoch
                                ));
                            }
                        }
                        last = last.max(q.epoch);
                    }
                    me.spans = tracer.into_spans();
                    me
                })
            })
            .collect();

        // The paced writer: tick `window + 1 + i` is due `i` periods in.
        let sched = Schedule::per_second(tick_hz);
        let mut due_of_epoch = Vec::new();
        let run = (|| -> io::Result<()> {
            for t in window + 1..=ticks {
                let epoch = t.div_ceil(lambda);
                let due = sched.due_ns(t - window - 1);
                let sent = pacer::wait_until(span_start, due);
                w.out.pacer_lag_ns.push(sent.saturating_sub(due) as f64);
                w.submit(&log.ticks[t as usize - 1], epoch)?;
                w.advance(t, epoch)?;
                if t % lambda == 0 {
                    due_of_epoch.push(due);
                    w.out.attempted += 1;
                    w.submit(&log.resub[epoch as usize - 1], epoch + 1)?;
                }
            }
            // Closed at the very end only: the last epoch must land. The
            // writer's own sighting counts, in case it beats the readers'.
            let (_, at) = w.await_epoch(last_epoch)?;
            let at = (at - span_start).as_nanos() as u64;
            first_seen[(last_epoch - first_epoch) as usize].fetch_min(at, Ordering::Relaxed);
            Ok(())
        })();
        w.out.span_s = span_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);

        let mut reads_done: Vec<u64> = Vec::new();
        for h in handles {
            let r = h.join().expect("storm reader panicked");
            w.out.reads += r.latency_ns.len() as u64;
            w.out.attempted += r.latency_ns.len() as u64;
            w.out.bytes_sent += FRAME_OVERHEAD * r.latency_ns.len() as u64;
            w.out.bytes_received += r.bytes_received;
            w.out.failed += r.failed;
            for m in r.messages {
                w.out.fail(m);
            }
            for latency in r.latency_ns {
                w.out.read_latency_ns.push(latency);
            }
            reads_done.extend(r.done_ns);
            spans.extend(r.spans);
        }
        // Completed reads per full second of the paced span.
        let paced_s = sched.due_ns(ticks - window) / 1_000_000_000;
        let mut buckets = vec![0f64; paced_s as usize];
        for done in reads_done {
            if let Some(b) = buckets.get_mut((done / 1_000_000_000) as usize) {
                *b += 1.0;
            }
        }
        w.out.reads_per_second = buckets;

        for (i, due) in due_of_epoch.iter().enumerate() {
            let epoch = first_epoch + i as u64;
            let seen = first_seen[i].load(Ordering::Relaxed);
            if seen == u64::MAX {
                w.out.fail(format!("epoch {epoch} was never seen by a reader"));
                w.out.epoch_latency_ns.push(f64::INFINITY);
                continue;
            }
            w.out.epoch_latency_ns.push(seen.saturating_sub(*due) as f64);
            w.out.epochs += 1;
            w.out.saw_epoch(epoch, &log.reference[epoch as usize - 1], log);
        }
        run
    });
    read_child(&daemon, baseline, w.out);
    w.tracer.abandon();
    spans.extend(w.tracer.into_spans());
    result
}

/// `SnapshotHandle::read` against an in-process `Hotpathd` replaying the
/// trace: per-read ns of the lock-free cell alone, no socket.
pub fn in_process_read_ns(log: &TraceLog, shape: TraceShape) -> Samples {
    const BATCH: usize = 1000;
    let server = sut::InProcessServer::spawn();
    let mut reader = server.reader();
    let stop = AtomicBool::new(false);
    let mut samples = Samples::default();
    thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut s = Samples::default();
            while !stop.load(Ordering::Acquire) {
                let t = Instant::now();
                for _ in 0..BATCH {
                    std::hint::black_box(reader.read_epoch());
                }
                s.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
            }
            s
        });
        for t in 1..=shape.ticks {
            server.submit(log.ticks[t as usize - 1].clone());
            server.advance(t);
            if t % shape.lambda == 0 {
                server.submit(log.resub[(t / shape.lambda) as usize - 1].clone());
            }
        }
        // `advance` only enqueues: wait for the writer thread to drain.
        let last = shape.ticks / shape.lambda;
        let mut waiter = server.reader();
        let deadline = Instant::now() + EPOCH_TIMEOUT;
        while waiter.read_epoch() < last && Instant::now() < deadline {
            thread::sleep(POLL_PAUSE);
        }
        stop.store(true, Ordering::Release);
        samples = reading.join().expect("in-process reader panicked");
    });
    drop(reader);
    server.shutdown();
    samples
}
