//! The in-process serving front door.
//!
//! [`Hotpathd::spawn`] takes ownership of an engine and moves it onto a
//! dedicated writer thread — the only thread that ever touches the
//! engine. Clients talk to it through a [`ServerHandle`]:
//!
//! - **Writes** ([`ServerHandle::submit_batch`], [`ServerHandle::advance`])
//!   are enqueued on an mpsc channel and applied in program order by
//!   the writer thread. `advance` drives every granule up to the target
//!   clock and runs [`process_epoch`](hotpath_core::engine::Engine::process_epoch)
//!   at each epoch boundary it crosses, so no boundary is ever skipped
//!   however coarse the caller's ticks are.
//! - **Reads** go through the engine's [`SnapshotCell`], which its
//!   publish stage installs each epoch into. A [`ServerHandle::reader`]
//!   handle reads the latest [`HotSnapshot`] without a channel or an
//!   allocation: one atomic load between publishes, one short
//!   lock-and-clone after each, so the epoch loop waits at most that
//!   long for a reader.
//!
//! The handle is cheap to share behind an `Arc`; [`ServerHandle::shutdown`]
//! (or drop) stops the writer thread and returns the final snapshot —
//! whose `epoch` counts the boundaries processed and whose
//! `comm.uplink_msgs` counts the states submitted before its publish.

use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use hotpath_core::coordinator::HotSnapshot;
use hotpath_core::engine::Engine;
use hotpath_core::raytrace::ClientState;
use hotpath_core::snapshot::{SnapshotCell, SnapshotHandle};
use hotpath_core::time::{EpochClock, Timestamp};

/// A command applied by the writer thread, in program order.
#[derive(Debug)]
pub enum ServerMsg {
    /// A batch of state messages for the next epoch.
    SubmitBatch(Vec<ClientState>),
    /// Advance the server clock to `t`, running every epoch boundary
    /// crossed on the way.
    Advance(Timestamp),
    /// Stop the writer thread after draining prior messages.
    Shutdown,
}

/// The `hotpathd` server: constructor namespace for [`ServerHandle`].
#[derive(Debug)]
pub struct Hotpathd;

impl Hotpathd {
    /// Moves `engine` onto a dedicated writer thread and returns the
    /// client handle. Readers share the engine's own cell, so those
    /// registered before the first epoch see its current (empty
    /// epoch-0) image rather than blocking.
    pub fn spawn(engine: Box<dyn Engine>) -> ServerHandle {
        let cell = engine.cell();
        let epochs = engine.config().epochs;
        let (tx, rx) = mpsc::channel();
        let writer = thread::spawn(move || writer_loop(engine, rx, epochs));
        ServerHandle { tx, cell, writer: Some(writer) }
    }
}

fn writer_loop(mut engine: Box<dyn Engine>, rx: mpsc::Receiver<ServerMsg>, epochs: EpochClock) {
    let mut clock = Timestamp::ZERO;
    while let Ok(msg) = rx.recv() {
        match msg {
            ServerMsg::SubmitBatch(batch) => engine.submit_batch(&mut batch.into_iter()),
            ServerMsg::Advance(t) => {
                // Drive every granule so coarse ticks still hit every
                // epoch boundary; stale ticks are ignored.
                for g in (clock.0 + 1)..=t.0 {
                    let now = Timestamp(g);
                    engine.advance_time(now);
                    if epochs.is_epoch(now) {
                        engine.process_epoch(now);
                    }
                }
                clock = clock.max(t);
            }
            ServerMsg::Shutdown => break,
        }
    }
}

/// The client surface of a running `hotpathd`.
///
/// Cloneable via `Arc`; writes are serialized through the channel,
/// reads go through the cell. Dropping the handle shuts the
/// server down.
#[derive(Debug)]
pub struct ServerHandle {
    tx: mpsc::Sender<ServerMsg>,
    cell: Arc<SnapshotCell>,
    writer: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Registers a reader over the published snapshot. Any number of
    /// readers may exist, on any thread; a publish waits on them only
    /// for the `Arc` clones they take under the cell's lock.
    pub fn reader(&self) -> SnapshotHandle {
        self.cell.register()
    }

    /// The snapshot cell itself — for transports that register their
    /// own per-connection readers.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.cell)
    }

    /// A sender for raw [`ServerMsg`]s (the wire transport uses this).
    pub fn sender(&self) -> mpsc::Sender<ServerMsg> {
        self.tx.clone()
    }

    /// Enqueues a batch of state messages.
    pub fn submit_batch(&self, batch: Vec<ClientState>) {
        let _ = self.tx.send(ServerMsg::SubmitBatch(batch));
    }

    /// Advances the server clock, processing every epoch boundary up
    /// to and including `t`.
    pub fn advance(&self, t: Timestamp) {
        let _ = self.tx.send(ServerMsg::Advance(t));
    }

    /// Stops the writer thread, waits for it to drain, and returns the
    /// final published snapshot.
    pub fn shutdown(mut self) -> Arc<HotSnapshot> {
        self.stop();
        self.cell.load()
    }

    fn stop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.tx.send(ServerMsg::Shutdown);
            let _ = writer.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::coordinator::Coordinator;
    use hotpath_core::engine::EngineKind;
    use hotpath_core::geometry::{Point, Rect};
    use hotpath_core::prelude::Config;
    use hotpath_core::ObjectId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> Config {
        Config::builder().window(10_000).build().unwrap()
    }

    fn state(obj: u64, start: (f64, f64), end: (f64, f64), te: u64) -> ClientState {
        ClientState {
            object: ObjectId(obj),
            start: Point::new(start.0, start.1),
            ts: Timestamp(te.saturating_sub(8)),
            fsa: Rect::new(
                Point::new(end.0 - 2.0, end.1 - 2.0),
                Point::new(end.0 + 2.0, end.1 + 2.0),
            ),
            te: Timestamp(te),
        }
    }

    fn spawn() -> ServerHandle {
        Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(cfg())))
    }

    #[test]
    fn driven_server_processes_every_boundary_in_one_coarse_advance() {
        let handle = spawn();
        for e in 1..=5u64 {
            handle.submit_batch(vec![state(e, (0.0, 0.0), (50.0, 0.0), e * 10 - 1)]);
        }
        // One coarse tick: the server must still run epochs 1..=5.
        handle.advance(Timestamp(50));
        let snap = handle.shutdown();
        assert_eq!(snap.epoch, 5);
        assert_eq!(snap.timestamp, Timestamp(50));
    }

    #[test]
    fn readers_observe_epochs_without_calling_into_the_engine() {
        let handle = spawn();
        let mut reader = handle.reader();
        assert_eq!(reader.epoch(), 0, "epoch-0 image pre-published");

        handle.submit_batch(vec![state(1, (0.0, 0.0), (50.0, 0.0), 9)]);
        handle.advance(Timestamp(10));
        // Open loop: wait for the publish to land in the cell.
        let snap = crate::wait_for_epoch(1, || {
            let snap = reader.load();
            (snap.epoch, snap)
        });
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.top_k.len(), 1);

        // The image counts the state that reached it.
        assert_eq!(snap.comm.uplink_msgs, 1);
    }

    #[test]
    fn stale_and_duplicate_advances_are_ignored() {
        let handle = spawn();
        handle.advance(Timestamp(20));
        handle.advance(Timestamp(20));
        handle.advance(Timestamp(5));
        // Shutdown drains the queue and joins the writer, so the
        // snapshot is final when it returns.
        let snap = handle.shutdown();
        assert_eq!(snap.epoch, 2, "re-advancing must not re-run boundaries");
    }

    /// The serving-layer hammer: readers spin on their handles while
    /// the writer publishes continuously. Every observed image must be
    /// epoch-consistent (all fields from the same publish) and epochs
    /// must be monotone per reader.
    #[test]
    fn hammered_readers_see_epoch_consistent_images_while_writer_publishes() {
        const EPOCHS: u64 = 120;
        let handle = spawn();
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let mut reader = handle.reader();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    // Read before testing `stop`: on a loaded host
                    // the run can end before a reader is scheduled.
                    loop {
                        let snap = reader.read();
                        let e = snap.epoch;
                        // One traversal per epoch: a torn image would
                        // break one of these cross-field identities.
                        assert_eq!(snap.timestamp, Timestamp(e * 10));
                        if e > 0 {
                            assert_eq!(snap.top_k.len(), 1);
                            assert_eq!(snap.top_k[0].hotness, e as u32);
                        }
                        assert!(e >= last, "epochs went backwards: {last} -> {e}");
                        last = e;
                        reads += 1;
                        if stop.load(Ordering::Relaxed) != 0 {
                            break reads;
                        }
                    }
                })
            })
            .collect();

        for e in 1..=EPOCHS {
            handle.submit_batch(vec![state(e, (0.0, 0.0), (50.0, 0.0), e * 10 - 1)]);
            handle.advance(Timestamp(e * 10));
        }
        let snap = handle.shutdown();
        stop.store(1, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert_eq!(snap.epoch, EPOCHS);
        assert!(reads > 0, "readers must have made progress");
    }
}
