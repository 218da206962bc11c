//! The shared epoch loop: every driver in this crate — the figure
//! simulation and the scenario runner — is the same tick/epoch cadence
//! around an [`Engine`], differing only in where measurements come from
//! and how client filters observe them. This module owns that cadence
//! once, parameterized by an [`EpochDriver`], so the two drivers
//! cannot drift apart and both inherit snapshot-based reads: per-epoch
//! metrics come from the engine's published [`HotSnapshot`], never from
//! live coordinator state.

use crate::metrics::EpochMetrics;
use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use std::path::PathBuf;
use std::time::Instant;

/// Checkpoint controls for a run. The default is all-off: no images
/// written, no restore, no restart probe.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint image every `N` epochs (requires [`Self::dir`]).
    pub every_epochs: Option<u64>,
    /// Directory the images land in: `epoch-<n>.ckpt` per boundary plus
    /// an always-current `latest.ckpt` for resumption.
    pub dir: Option<PathBuf>,
    /// Warm start: restore this image into the engine before the first
    /// tick (the run continues the checkpointed window and counters).
    pub restore_from: Option<PathBuf>,
    /// Restart-parity probe: at this epoch boundary, checkpoint, tear
    /// the engine down completely, rebuild a fresh one, restore the
    /// image into it, and continue — the in-process
    /// equivalent of a crash/restart, pinned by the parity tests.
    pub restart_at: Option<u64>,
}

impl CheckpointPolicy {
    /// True when the loop has any checkpoint work to do.
    pub fn is_active(&self) -> bool {
        *self != CheckpointPolicy::default()
    }

    /// The path of the always-current image under `dir`.
    pub fn latest_path(dir: &std::path::Path) -> PathBuf {
        dir.join("latest.ckpt")
    }
}

/// What a concrete driver plugs into the shared loop: a measurement
/// source feeding client filters (ingest), response delivery back into
/// those filters, and an optional per-epoch observer.
pub trait EpochDriver {
    /// Advances one timestamp: generate this tick's measurements, run
    /// them through the client filters, and submit every escaping state
    /// to `engine` (in measurement order). Returns the number of raw
    /// measurements generated.
    fn tick(&mut self, now: Timestamp, engine: &mut dyn Engine) -> u64;

    /// Delivers one endpoint response to its client filter; a returned
    /// state is resubmitted by the loop (in response order), seeding the
    /// next epoch exactly as the paper's Section 3.2 protocol does.
    fn deliver(&mut self, resp: &EndpointResponse) -> Option<ClientState>;

    /// Observes the epoch's published snapshot; returns the optional DP
    /// competitor columns for the metrics row.
    fn on_epoch(&mut self, snap: &HotSnapshot) -> (Option<usize>, Option<f64>) {
        let _ = snap;
        (None, None)
    }
}

/// What the loop hands back: the per-epoch metric series and the raw
/// measurement count (totals such as final comm counters come from the
/// finished engine's coordinator).
pub struct EpochLoopResult {
    /// Metrics at every epoch boundary, from the published snapshots.
    pub per_epoch: Vec<EpochMetrics>,
    /// Raw measurements the driver generated over the run.
    pub measurements: u64,
}

/// Drives `driver` through `duration` timestamps against `engine`:
/// per-tick ingest + window advance, and at every epoch boundary the
/// full process/deliver/observe exchange.
pub fn run_epoch_loop(
    engine: &mut Box<dyn Engine>,
    duration: u64,
    driver: &mut dyn EpochDriver,
) -> EpochLoopResult {
    run_epoch_loop_with(engine, duration, driver, &CheckpointPolicy::default())
}

/// [`run_epoch_loop`] with checkpoint controls: warm-start restore
/// before the first tick, periodic image writes, and the restart-parity
/// probe (engine teardown + rebuild-from-image mid-run). The engine is
/// taken as `&mut Box` because the restart probe replaces it wholesale.
pub fn run_epoch_loop_with(
    engine: &mut Box<dyn Engine>,
    duration: u64,
    driver: &mut dyn EpochDriver,
    ckpt: &CheckpointPolicy,
) -> EpochLoopResult {
    if let Some(path) = &ckpt.restore_from {
        let image = Checkpoint::read_from_path(path)
            .unwrap_or_else(|e| panic!("cannot restore from {}: {e}", path.display()));
        engine.restore(&image).unwrap_or_else(|e| panic!("restore failed: {e}"));
    }
    let epochs = engine.config().epochs;
    let mut per_epoch = Vec::new();
    let mut measurements = 0u64;
    // Baseline the comm deltas on whatever the engine already carries —
    // zero for a fresh engine, the restored counters after a warm start.
    let mut comm_prev = engine.snapshot().comm;
    for t in 1..=duration {
        let now = Timestamp(t);
        measurements += driver.tick(now, engine.as_mut());
        engine.advance_time(now);
        if epochs.is_epoch(now) {
            let reporting = engine.pending_len();
            // Boundary-blocking wall time: all four stages.
            let start = Instant::now();
            let responses = engine.process_epoch(now);
            let elapsed = start.elapsed();
            {
                let driver = &mut *driver;
                engine.submit_batch(&mut responses.iter().filter_map(|r| driver.deliver(r)));
            }
            let snap = engine.snapshot();
            let (dp_index_size, dp_score) = driver.on_epoch(&snap);
            per_epoch.push(EpochMetrics {
                epoch: epochs.epoch_index(now),
                timestamp: now,
                reporting,
                index_size: snap.index_size,
                top_k_score: snap.top_k_score,
                processing: elapsed,
                // Snapshot comm is as of the publish: boundary
                // resubmissions count toward the following epoch.
                comm: snap.comm.since(&comm_prev),
                dp_index_size,
                dp_score,
                phase_b_deferred: snap.phase_b.deferred,
            });
            comm_prev = snap.comm;
            if ckpt.is_active() {
                checkpoint_boundary(engine, epochs.epoch_index(now), ckpt);
            }
        }
    }
    EpochLoopResult { per_epoch, measurements }
}

/// The end-of-boundary checkpoint work: periodic image writes and the
/// restart-parity probe. Runs after boundary resubmissions, so written
/// images carry them in the pending section.
fn checkpoint_boundary(engine: &mut Box<dyn Engine>, epoch_ix: u64, ckpt: &CheckpointPolicy) {
    let write_due = matches!(
        (ckpt.every_epochs, &ckpt.dir),
        (Some(n), Some(_)) if n > 0 && epoch_ix.is_multiple_of(n)
    );
    if write_due {
        let dir = ckpt.dir.as_ref().expect("checked above");
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let image = engine.checkpoint();
        for path in [dir.join(format!("epoch-{epoch_ix}.ckpt")), CheckpointPolicy::latest_path(dir)]
        {
            image
                .write_to_path(&path)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }
    if ckpt.restart_at == Some(epoch_ix) {
        // The crash/restart rehearsal: serialize, destroy the engine,
        // rebuild from the bytes alone.
        let image = engine.checkpoint();
        let config = *engine.config();
        *engine = EngineKind::Sync.build(Coordinator::new(config));
        engine.restore(&image).unwrap_or_else(|e| panic!("restart-parity restore failed: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::config::Config;
    use hotpath_core::geometry::{Point, Rect};
    use hotpath_core::ObjectId;

    /// A minimal driver: one object crossing the same corridor each
    /// tick, responses counted.
    struct OneCorridor {
        delivered: usize,
    }

    impl EpochDriver for OneCorridor {
        fn tick(&mut self, now: Timestamp, engine: &mut dyn Engine) -> u64 {
            let end = Point::new(50.0, 0.0);
            engine.submit(ClientState {
                object: ObjectId(0),
                start: Point::new(0.0, 0.0),
                ts: now,
                fsa: Rect::new(end - Point::new(2.0, 2.0), end + Point::new(2.0, 2.0)),
                te: now,
            });
            1
        }

        fn deliver(&mut self, _resp: &EndpointResponse) -> Option<ClientState> {
            self.delivered += 1;
            None
        }
    }

    /// The restart-parity probe (checkpoint → engine teardown → rebuild
    /// from the image) must be invisible: identical metric rows and
    /// final coordinator as the uninterrupted loop.
    #[test]
    fn restart_probe_is_invisible_and_periodic_writes_resume() {
        let rows = |ckpt: &CheckpointPolicy, duration: u64| {
            let config = Config::paper_defaults().with_epoch(5).with_window(50);
            let mut engine = EngineKind::Sync.build(Coordinator::new(config));
            let mut driver = OneCorridor { delivered: 0 };
            let out = run_epoch_loop_with(&mut engine, duration, &mut driver, ckpt);
            let c = engine.finish();
            c.check_consistency().unwrap();
            let fp: Vec<(u64, usize, u64, u64)> = out
                .per_epoch
                .iter()
                .map(|e| (e.epoch, e.index_size, e.top_k_score.to_bits(), e.comm.uplink_msgs))
                .collect();
            (fp, c.comm_stats(), c.processing_stats().epochs)
        };
        let base = rows(&CheckpointPolicy::default(), 20);
        let probed =
            rows(&CheckpointPolicy { restart_at: Some(2), ..CheckpointPolicy::default() }, 20);
        assert_eq!(base, probed, "restart probe perturbed the loop");

        // Periodic writes + warm start: run 20 ticks writing every 2
        // epochs, then resume another 20 ticks from `latest.ckpt`; the
        // resumed engine continues the epoch counter.
        let dir = std::env::temp_dir().join("hotpath-loop-ckpt-test");
        let _ = std::fs::remove_dir_all(&dir);
        let write = CheckpointPolicy {
            every_epochs: Some(2),
            dir: Some(dir.clone()),
            ..CheckpointPolicy::default()
        };
        let (_, _, epochs_a) = rows(&write, 20);
        assert_eq!(epochs_a, 4);
        assert!(dir.join("epoch-2.ckpt").exists());
        assert!(dir.join("epoch-4.ckpt").exists());
        let resume = CheckpointPolicy {
            restore_from: Some(CheckpointPolicy::latest_path(&dir)),
            ..CheckpointPolicy::default()
        };
        let (fp, comm, epochs_b) = rows(&resume, 20);
        assert_eq!(epochs_b, 8, "resumed run must continue the epoch counter");
        assert_eq!(comm.uplink_msgs, 40, "restored comm must keep the first run's uplink");
        // Warm-started rows report only the new traffic.
        assert_eq!(fp[0].3, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loop_produces_one_metrics_row_per_epoch() {
        let config = Config::paper_defaults().with_epoch(5).with_window(50);
        let mut engine = EngineKind::Sync.build(Coordinator::new(config));
        let mut driver = OneCorridor { delivered: 0 };
        let out = run_epoch_loop(&mut engine, 20, &mut driver);
        assert_eq!(out.per_epoch.len(), 4);
        assert_eq!(out.measurements, 20);
        assert_eq!(driver.delivered, 20, "every state gets a response");
        for (i, e) in out.per_epoch.iter().enumerate() {
            assert_eq!(e.epoch, i as u64 + 1);
            assert_eq!(e.timestamp.raw(), (i as u64 + 1) * 5);
            assert_eq!(e.reporting, 5);
            assert!(e.index_size > 0);
        }
        let coordinator = engine.finish();
        coordinator.check_consistency().unwrap();
        assert_eq!(coordinator.comm_stats().uplink_msgs, 20);
    }
}
