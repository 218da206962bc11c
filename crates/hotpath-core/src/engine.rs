//! The engine layer: epoch execution behind one interface.
//!
//! [`Coordinator::process_epoch`] is internally four named stages —
//! *drain-ingest* → *Phase A* → *Phase B* → *publish* — and
//! [`SyncEngine`] runs all of them on the caller's thread: `submit` goes
//! straight to the coordinator, `process_epoch` returns the endpoint
//! responses and publishes the freshly stamped [`HotSnapshot`] into the
//! engine's own [`SnapshotCell`]. Reads go through that cell, never
//! through live coordinator state.
//!
//! Responses are causally required at the epoch boundary — clients seed
//! their next SSA from them — so the strategy stages cannot move off the
//! boundary's critical path without changing behavior; only publish and
//! expiry could overlap ingest, and that measured slower than running
//! them inline.
//!
//! `benchmark/src/sut.rs` names `engine::{Engine, EngineKind}`,
//! `EngineKind::Sync.build(..) -> Box<dyn Engine>` and the trait methods
//! `config`/`submit_batch`/`advance_time`/`process_epoch`/`snapshot`/
//! `checkpoint`/`restore`/`finish`, so the [`Engine`] trait and the
//! one-variant [`EngineKind`] keep those exact signatures until a
//! `benchmark` PR can collapse them into [`SyncEngine`] (see ROADMAP).

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::Config;
use crate::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use crate::raytrace::ClientState;
use crate::snapshot::SnapshotCell;
use crate::time::Timestamp;
use std::sync::Arc;

/// How a coordinator is wrapped into an engine. One variant: see the
/// module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Every stage on the caller's thread.
    #[default]
    Sync,
}

impl EngineKind {
    /// Wraps a coordinator in a [`SyncEngine`].
    pub fn build(self, coordinator: Coordinator) -> Box<dyn Engine> {
        match self {
            EngineKind::Sync => Box::new(SyncEngine::new(coordinator)),
        }
    }
}

/// Epoch execution behind one interface: buffered ingest, the epoch
/// boundary, and snapshot-based reads.
///
/// `Send` is a supertrait: a server moves its engine onto a dedicated
/// writer thread (see the `hotpath-serve` crate).
pub trait Engine: Send {
    /// The configuration in force.
    fn config(&self) -> &Config;
    /// Accepts one state message for the next epoch.
    fn submit(&mut self, state: ClientState);
    /// Accepts a batch of state messages, in order — equivalent to a
    /// `submit` loop.
    fn submit_batch(&mut self, states: &mut dyn Iterator<Item = ClientState>);
    /// States buffered for the next epoch.
    fn pending_len(&self) -> usize;
    /// Advances the sliding-window clock (expiry).
    fn advance_time(&mut self, now: Timestamp);
    /// Runs the epoch ending at `now` and returns its endpoint
    /// responses.
    fn process_epoch(&mut self, now: Timestamp) -> Vec<EndpointResponse>;
    /// The snapshot published by the last `process_epoch` (an empty
    /// epoch-0 snapshot before the first).
    fn snapshot(&mut self) -> Arc<HotSnapshot>;
    /// The [`SnapshotCell`] every publish stage and every restore
    /// installs its snapshot into, so any number of
    /// [`SnapshotHandle`](crate::snapshot::SnapshotHandle) readers
    /// observe each epoch without ever calling into the engine (the
    /// cell never serves pre-restore data).
    fn cell(&self) -> Arc<SnapshotCell>;
    /// Serializes the engine's complete state — the coordinator,
    /// buffered pending batch included — into a validated [`Checkpoint`]
    /// image; the engine continues unchanged afterwards. Re-checkpointing
    /// a restored replica reproduces the image byte for byte.
    ///
    /// ```
    /// use hotpath_core::prelude::*;
    ///
    /// let config = Config::builder().epoch(5).window(50).build().unwrap();
    /// let mut engine = SyncEngine::new(Coordinator::new(config));
    /// engine.submit(ClientState {
    ///     object: ObjectId(1),
    ///     start: Point::new(0.0, 0.0),
    ///     ts: Timestamp(1),
    ///     fsa: Rect::new(Point::new(9.0, -1.0), Point::new(11.0, 1.0)),
    ///     te: Timestamp(4),
    /// });
    /// engine.process_epoch(Timestamp(5));
    ///
    /// let image = engine.checkpoint();
    /// let mut replica = SyncEngine::new(Coordinator::new(config));
    /// replica.restore(&image).expect("image validates");
    /// assert_eq!(replica.snapshot().epoch, engine.snapshot().epoch);
    /// assert_eq!(replica.checkpoint().as_bytes(), image.as_bytes());
    /// ```
    fn checkpoint(&mut self) -> Checkpoint;
    /// Replaces the engine's state with the checkpoint's, discarding
    /// whatever it held: the restored engine continues bit-for-bit where
    /// the checkpointed one stood, including its buffered pending batch
    /// (see [`Engine::checkpoint`] for a runnable round-trip example).
    /// The published snapshot is rebuilt from the restored state, so
    /// reads never serve pre-restore data.
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError>;
    /// Tears the engine down and returns the final coordinator, any
    /// still-buffered ingest in its pending batch.
    fn finish(self: Box<Self>) -> Coordinator;
}

/// The engine: a thin adapter over [`Coordinator`] that publishes its
/// snapshot into the engine's cell at each boundary.
pub struct SyncEngine {
    coordinator: Coordinator,
    cell: Arc<SnapshotCell>,
}

impl SyncEngine {
    /// Wraps a coordinator; its cell holds the empty epoch-0 snapshot
    /// until the first boundary.
    pub fn new(coordinator: Coordinator) -> Self {
        SyncEngine { coordinator, cell: SnapshotCell::new() }
    }
}

impl Engine for SyncEngine {
    fn config(&self) -> &Config {
        self.coordinator.config()
    }

    fn submit(&mut self, state: ClientState) {
        self.coordinator.submit(state);
    }

    fn submit_batch(&mut self, states: &mut dyn Iterator<Item = ClientState>) {
        for state in states {
            self.coordinator.submit(state);
        }
    }

    fn pending_len(&self) -> usize {
        self.coordinator.pending_len()
    }

    fn advance_time(&mut self, now: Timestamp) {
        self.coordinator.advance_time(now);
    }

    fn process_epoch(&mut self, now: Timestamp) -> Vec<EndpointResponse> {
        let responses = self.coordinator.process_epoch(now);
        // `process_epoch` ends with the publish stage, so this is the
        // freshly published snapshot (comm as of the publish — before
        // any boundary resubmissions land).
        self.cell.publish(self.coordinator.snapshot());
        responses
    }

    fn snapshot(&mut self) -> Arc<HotSnapshot> {
        self.cell.load()
    }

    fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.cell)
    }

    fn checkpoint(&mut self) -> Checkpoint {
        self.coordinator.checkpoint()
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        self.coordinator = Coordinator::from_checkpoint(*self.coordinator.config(), ck)?;
        // Rebuild the published view from the restored state: the old
        // snapshot must never survive a restore.
        self.cell.publish(self.coordinator.snapshot());
        Ok(())
    }

    fn finish(self: Box<Self>) -> Coordinator {
        self.coordinator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Point, Rect};
    use crate::ObjectId;

    fn state(obj: u64, start: (f64, f64), end: (f64, f64), te: u64) -> ClientState {
        let e = Point::new(end.0, end.1);
        ClientState {
            object: ObjectId(obj),
            start: Point::new(start.0, start.1),
            ts: Timestamp(te.saturating_sub(8)),
            fsa: Rect::new(e - Point::new(2.0, 2.0), e + Point::new(2.0, 2.0)),
            te: Timestamp(te),
        }
    }

    /// The robustness layer through the engine: a workload where
    /// clients go silent mid-run, the admission cap fires, and epochs
    /// degrade under overload. Every admission counter must show it,
    /// and two runs must agree on all of it.
    #[test]
    fn engines_agree_with_admission_on() {
        fn drive_robust() -> (Vec<Vec<(u64, u64)>>, Vec<u64>) {
            let config = Config::builder().admission_cap(24).degrade_threshold(20).build().unwrap();
            let mut engine = EngineKind::Sync.build(Coordinator::new(config));
            let mut responses_log = Vec::new();
            let mut s = 11u64;
            let mut rand = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s >> 33
            };
            for epoch in 1..=8u64 {
                // Half the client pool falls silent after epoch 4.
                let pool = if epoch <= 4 { 12 } else { 5 };
                for tick in 1..=10u64 {
                    let now = Timestamp((epoch - 1) * 10 + tick);
                    for _ in 0..3 + (rand() % 3) as usize {
                        let obj = rand() % pool;
                        let x = ((rand() % 6) * 500) as f64;
                        let y = ((rand() % 3) * 300) as f64;
                        engine.submit(state(obj, (x, y), (x + 50.0, y), now.raw()));
                    }
                    engine.advance_time(now);
                    if tick == 10 {
                        let resp = engine.process_epoch(now);
                        responses_log
                            .push(resp.iter().map(|r| (r.object.0, r.endpoint.t.raw())).collect());
                    }
                }
            }
            let snap = engine.snapshot();
            let adm = snap.admission;
            let coordinator = engine.finish();
            coordinator.check_consistency().unwrap();
            (responses_log, vec![adm.ejected, adm.degraded_epochs])
        }

        let base = drive_robust();
        assert!(base.1[0] > 0, "the cap must eject states");
        assert!(base.1[1] > 0, "overload must degrade epochs");
        assert_eq!(drive_robust(), base, "the robust run is not deterministic");
    }

    #[test]
    fn snapshot_is_stamped_and_stable_between_epochs() {
        let mut engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
        assert_eq!(engine.snapshot().epoch, 0);
        engine.submit(state(1, (0.0, 0.0), (50.0, 0.0), 9));
        assert_eq!(engine.pending_len(), 1);
        let _ = engine.process_epoch(Timestamp(10));
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.timestamp, Timestamp(10));
        assert_eq!(snap.index_size, 1);
        assert_eq!(snap.top_k.len(), 1);
        assert_eq!(snap.comm.uplink_msgs, 1);
        // Ingest after the boundary does not disturb the published view.
        engine.submit(state(2, (0.0, 0.0), (50.0, 0.0), 19));
        let again = engine.snapshot();
        assert_eq!(again.comm.uplink_msgs, 1);
        assert_eq!(engine.pending_len(), 1);
        let coordinator = engine.finish();
        // ...but the residual ingest reached the final coordinator.
        assert_eq!(coordinator.pending_len(), 1);
        assert_eq!(coordinator.comm_stats().uplink_msgs, 2);
    }

    /// Deterministic per-epoch batch shared by the checkpoint tests.
    fn workload(epoch: u64) -> Vec<ClientState> {
        let mut out = Vec::new();
        let mut s = epoch.wrapping_mul(1799).wrapping_add(5);
        for i in 0..12u64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = s >> 33;
            let x = ((r % 6) * 500) as f64;
            let y = ((r % 3) * 300) as f64;
            out.push(state(i, (x, y), (x + 50.0, y), epoch * 10 - 1));
        }
        out
    }

    /// `checkpoint()` must be a pure observer — a run with a mid-run
    /// checkpoint equals one without — and an engine restored from that
    /// image must replay the remaining epochs bit-for-bit, pending batch
    /// included.
    #[test]
    fn checkpoint_is_transparent_and_restore_resumes_bit_for_bit() {
        type EpochLog = Vec<(Vec<(u64, u64)>, u64, u64, u64)>;
        let observe = |engine: &mut Box<dyn Engine>, now: Timestamp| {
            let resp: Vec<(u64, u64)> = engine
                .process_epoch(now)
                .iter()
                .map(|r| (r.object.0, r.endpoint.p.x.to_bits()))
                .collect();
            let snap = engine.snapshot();
            (resp, snap.epoch, snap.top_k_score.to_bits(), snap.comm.uplink_msgs)
        };
        let run = |interrupt: Option<u64>| -> (EpochLog, Option<Checkpoint>) {
            let mut engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
            let mut log = Vec::new();
            let mut image = None;
            for epoch in 1..=8u64 {
                let now = Timestamp(epoch * 10);
                engine.submit_batch(&mut workload(epoch).into_iter());
                if interrupt == Some(epoch) {
                    // The epoch's batch is still buffered: the
                    // image must carry it.
                    image = Some(engine.checkpoint());
                }
                engine.advance_time(now);
                log.push(observe(&mut engine, now));
            }
            engine.finish().check_consistency().unwrap();
            (log, image)
        };

        let (base, _) = run(None);
        let (with_ck, image) = run(Some(4));
        assert_eq!(base, with_ck, "checkpoint perturbed the run");

        // Resume: restore into a *dirtied* fresh engine and replay
        // epochs 4..=8 (epoch 4's batch rides in the image's pending
        // section).
        let image = image.unwrap();
        assert_eq!(image.epoch(), 3);
        let mut engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
        engine.submit(state(77, (0.0, 0.0), (50.0, 0.0), 9));
        let _ = engine.process_epoch(Timestamp(10));
        engine.restore(&image).unwrap();
        assert_eq!(engine.pending_len(), 12, "pending batch lost in restore");
        for epoch in 4..=8u64 {
            let now = Timestamp(epoch * 10);
            if epoch > 4 {
                engine.submit_batch(&mut workload(epoch).into_iter());
            }
            engine.advance_time(now);
            assert_eq!(
                observe(&mut engine, now),
                base[(epoch - 1) as usize],
                "restored engine diverged at epoch {epoch}"
            );
        }
        engine.finish().check_consistency().unwrap();
    }

    /// Regression: after `restore()` the cached snapshot must be
    /// invalidated — `snapshot()`/top-k never serve pre-restore data.
    #[test]
    fn restore_invalidates_the_snapshot_cache() {
        let mut engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
        // Epoch 1: corridor A is the only hot path.
        for obj in 0..3u64 {
            engine.submit(state(obj, (0.0, 0.0), (50.0, 0.0), 9));
        }
        let _ = engine.process_epoch(Timestamp(10));
        let image = engine.checkpoint();
        // Epoch 2: corridor B overtakes it.
        for obj in 0..5u64 {
            engine.submit(state(obj, (1000.0, 0.0), (1080.0, 0.0), 19));
        }
        let _ = engine.process_epoch(Timestamp(20));
        let before = engine.snapshot();
        assert_eq!(before.epoch, 2);
        assert_eq!(before.top_k[0].hotness, 5, "corridor B should lead pre-restore");

        engine.restore(&image).unwrap();
        let after = engine.snapshot();
        assert_eq!(after.epoch, 1, "stale snapshot survived the restore");
        assert_eq!(after.top_k.len(), 1);
        assert_eq!(after.top_k[0].hotness, 3, "top-k served pre-restore data");
        assert_eq!(after.index_size, 1);
        engine.finish().check_consistency().unwrap();
    }

    /// The engine's cell holds the current state, tracks every epoch,
    /// and a restore re-publishes the restored state.
    #[test]
    fn attached_cell_tracks_epochs_and_restores() {
        let mut engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
        engine.submit(state(1, (0.0, 0.0), (50.0, 0.0), 9));
        let _ = engine.process_epoch(Timestamp(10));
        let image = engine.checkpoint();

        let cell = engine.cell();
        let mut reader = cell.register();
        assert_eq!(reader.read().epoch, 1, "the cell must hold the current state");
        let _ = engine.process_epoch(Timestamp(20));
        assert_eq!(reader.read().epoch, 2, "cell missed the publish stage");

        for epoch in 3..=5u64 {
            engine.submit(state(epoch, (0.0, 0.0), (50.0, 0.0), epoch * 10 - 1));
            let _ = engine.process_epoch(Timestamp(epoch * 10));
        }
        assert_eq!(reader.read().epoch, 5, "cell fell behind the epoch loop");

        engine.restore(&image).unwrap();
        assert_eq!(reader.read().epoch, 1, "cell served pre-restore data");
        engine.finish().check_consistency().unwrap();
    }

    /// Spawn-and-hammer consistency: reader threads poll the cell while
    /// the writer drives real epochs. The workload adds exactly one
    /// traversal of one corridor per epoch under a non-expiring window,
    /// so any consistent image at epoch `e >= 1` has exactly one hot
    /// path of hotness `e` — a torn or stale-mixed snapshot cannot
    /// satisfy that. Epochs must also be monotone per reader.
    #[test]
    fn cell_readers_see_epoch_consistent_images_under_continuous_publish() {
        let config = Config::builder().window(10_000).build().unwrap();
        let mut engine = EngineKind::Sync.build(Coordinator::new(config));
        let cell = engine.cell();
        let epochs = 300u64;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for _ in 0..3 {
                let mut handle = cell.register();
                let stop = stop.clone();
                joins.push(scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = handle.read();
                        let e = snap.epoch;
                        assert!(e >= last, "epoch went backwards: {last} -> {e}");
                        if e >= 1 {
                            assert_eq!(snap.timestamp, Timestamp(e * 10), "inconsistent image");
                            assert_eq!(snap.top_k.len(), 1, "inconsistent image at epoch {e}");
                            assert_eq!(
                                snap.top_k[0].hotness, e as u32,
                                "top-k contents disagree with the epoch stamp"
                            );
                        }
                        last = e;
                    }
                }));
            }
            for epoch in 1..=epochs {
                engine.submit(state(epoch, (0.0, 0.0), (50.0, 0.0), epoch * 10 - 1));
                let _ = engine.process_epoch(Timestamp(epoch * 10));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            for j in joins {
                j.join().expect("reader panicked");
            }
        });
        assert_eq!(cell.epoch(), epochs, "cell missed the final epoch");
        engine.finish().check_consistency().unwrap();
    }
}
