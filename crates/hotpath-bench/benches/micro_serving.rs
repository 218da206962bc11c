//! Serving-path micro-bench: snapshot read throughput through a
//! `hotpathd` front door, at 1/4/16 reader threads, with the epoch loop
//! idle and with it publishing continuously. Reads go through
//! [`SnapshotHandle::read`] — one atomic load while nothing new is
//! published, one lock-and-clone on the first read after a publish, no
//! allocation — so throughput must not collapse when the writer
//! publishes or when more readers pile on (modulo plain CPU contention
//! on small hosts).
//!
//! [`SnapshotHandle::read`]: hotpath_core::snapshot::SnapshotHandle::read

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::engine::EngineKind;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_serve::server::{Hotpathd, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Reads measured per `b.iter` pass.
const READS: usize = 256;

fn traversal(w: u64, t: u64) -> ClientState {
    let y = (w % 4) as f64 * 300.0;
    let end = Point::new(50.0, y);
    ClientState {
        object: ObjectId(w),
        start: Point::new(0.0, y),
        ts: Timestamp(t.saturating_sub(8)),
        fsa: Rect::new(Point::new(end.x - 2.0, end.y - 2.0), Point::new(end.x + 2.0, end.y + 2.0)),
        te: Timestamp(t),
    }
}

struct Rig {
    handle: Option<ServerHandle>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<u64>>,
}

impl Rig {
    /// A running server with `extra_readers` background reader threads
    /// and, when `busy`, a feeder publishing epochs continuously
    /// (closed-loop paced so the command queue stays bounded).
    fn spawn(extra_readers: usize, busy: bool) -> Rig {
        let config = Config::paper_defaults();
        let handle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        if busy {
            let tx = handle.sender();
            let mut reader = handle.reader();
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                use hotpath_serve::server::ServerMsg;
                let mut t = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    t += 1;
                    let batch = (0..4u64).map(|w| traversal(w, t)).collect();
                    let _ = tx.send(ServerMsg::SubmitBatch(batch));
                    let _ = tx.send(ServerMsg::Advance(Timestamp(t)));
                    if t.is_multiple_of(10) {
                        // Pace against the publish so the queue stays small.
                        while reader.epoch() < t / 10 && !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                }
                t
            }));
        }
        for _ in 0..extra_readers {
            let mut reader = handle.reader();
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut acc = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    acc = acc.wrapping_add(reader.read().epoch);
                }
                acc
            }));
        }
        Rig { handle: Some(handle), stop, threads }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.shutdown();
        }
    }
}

fn bench_serving_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");
    for busy in [false, true] {
        let mode = if busy { "read_busy" } else { "read_idle" };
        for readers in [1usize, 4, 16] {
            let rig = Rig::spawn(readers - 1, busy);
            let mut reader = rig.handle.as_ref().expect("live server").reader();
            g.bench_with_input(BenchmarkId::new(mode, readers), &readers, |b, _| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for _ in 0..READS {
                        let snap = reader.read();
                        acc = acc.wrapping_add(snap.epoch).wrapping_add(snap.index_size as u64);
                    }
                    acc
                });
            });
            drop(rig);
        }
    }
    g.finish();
}

criterion_group!(benches, bench_serving_reads);
criterion_main!(benches);
