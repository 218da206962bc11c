//! The epoch loop of the run driver
//! ([`run_scenario`](crate::scenario_run::run_scenario)): the
//! tick/epoch cadence around an [`Engine`], with checkpoint controls.
//! Per-epoch metrics come from the engine's published [`HotSnapshot`],
//! never from live coordinator state.
//!
//! [`HotSnapshot`]: hotpath_core::coordinator::HotSnapshot

use crate::metrics::EpochMetrics;
use crate::scenario_run::ScenarioDriver;
use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::engine::{Engine, EngineKind};
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

/// Drives `driver` through `duration` timestamps against `engine`:
/// per-tick ingest + window advance, and at every epoch boundary the
/// full process/deliver/observe exchange, returning one metrics row per
/// boundary. Checkpoint controls:
/// warm-start restore before the first tick, periodic image writes, and
/// the restart-parity probe (engine teardown + rebuild-from-image
/// mid-run). The engine is taken as `&mut Box` because the restart probe
/// replaces it wholesale.
pub(crate) fn run_epochs(
    engine: &mut Box<dyn Engine>,
    duration: u64,
    driver: &mut ScenarioDriver<'_>,
    ckpt: &CheckpointPolicy,
) -> Vec<EpochMetrics> {
    if let Some(path) = &ckpt.restore_from {
        let image = Checkpoint::read_from_path(path)
            .unwrap_or_else(|e| panic!("cannot restore from {}: {e}", path.display()));
        engine.restore(&image).unwrap_or_else(|e| panic!("restore failed: {e}"));
    }
    let epochs = engine.config().epochs;
    let mut per_epoch = Vec::new();
    // Baseline the comm deltas on whatever the engine already carries —
    // zero for a fresh engine, the restored counters after a warm start.
    let mut comm_prev = engine.snapshot().comm;
    for t in 1..=duration {
        let now = Timestamp(t);
        driver.tick(now, engine.as_mut());
        engine.advance_time(now);
        if epochs.is_epoch(now) {
            let reporting = engine.pending_len();
            // Boundary-blocking wall time: all four stages.
            let start = Instant::now();
            let responses = engine.process_epoch(now);
            let elapsed = start.elapsed();
            engine.submit_batch(&mut responses.iter().filter_map(|r| driver.deliver(r)));
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
    per_epoch
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
    use crate::scenario_run::{run_scenario, ScenarioRunParams, ScenarioRunResult};
    use hotpath_core::geometry::{Point, TimePoint};
    use hotpath_core::ObjectId;
    use hotpath_netsim::mobility::Measurement;
    use hotpath_netsim::network::{generate, NetworkParams, RoadNetwork};
    use hotpath_netsim::scenario::{Scenario, ScenarioOutcome};

    /// One object on a stop-and-go corridor: it drives east at a
    /// constant 10 m/tick for one 5-tick epoch and parks for the next.
    /// Each phase change is reported once and answered at the following
    /// boundary, and the parked or cruising backlog always fits the new
    /// safe area, so no boundary resubmits anything — checkpoint images
    /// carry no pending state.
    struct StopAndGo(RoadNetwork, f64);

    impl Scenario for StopAndGo {
        fn name(&self) -> &'static str {
            "stop_and_go"
        }
        fn network(&self) -> &RoadNetwork {
            &self.0
        }
        fn n(&self) -> usize {
            1
        }
        fn duration(&self) -> u64 {
            20
        }
        fn seed_timepoint(&self, _obj: ObjectId, t: Timestamp) -> TimePoint {
            TimePoint::new(Point::new(0.0, 0.0), t)
        }
        fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
            if ((t.raw() - 1) / 5).is_multiple_of(2) {
                self.1 += 10.0;
            }
            let observed = TimePoint::new(Point::new(self.1, 0.0), t);
            out.clear();
            out.push(Measurement { object: ObjectId(0), observed, truth: observed.p });
        }
        fn check_invariants(&self, _outcome: &ScenarioOutcome) -> Result<(), String> {
            Ok(())
        }
    }

    /// The 20 stop-and-go ticks in 5-tick epochs, under `ckpt`.
    fn stop_and_go(ckpt: &CheckpointPolicy) -> ScenarioRunResult {
        let params =
            ScenarioRunParams { epoch: 5, window: Some(50), ..ScenarioRunParams::default() }
                .with_checkpoint(ckpt.clone());
        run_scenario(&mut StopAndGo(generate(NetworkParams::tiny(1)), 0.0), &params)
    }

    /// The restart-parity probe (checkpoint → engine teardown → rebuild
    /// from the image) must be invisible: identical metric rows and
    /// final coordinator as the uninterrupted loop.
    #[test]
    fn restart_probe_is_invisible_and_periodic_writes_resume() {
        let rows = |ckpt: &CheckpointPolicy| {
            let res = stop_and_go(ckpt);
            let c = &res.coordinator;
            c.check_consistency().unwrap();
            let fp: Vec<(u64, usize, u64, u64)> = res
                .per_epoch
                .iter()
                .map(|e| (e.epoch, e.index_size, e.top_k_score.to_bits(), e.comm.uplink_msgs))
                .collect();
            (fp, c.comm_stats(), c.processing_stats().epochs, res.filter_stats.reports)
        };
        let base = rows(&CheckpointPolicy::default());
        let probed = rows(&CheckpointPolicy { restart_at: Some(2), ..CheckpointPolicy::default() });
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
        let (_, first, epochs_a, _) = rows(&write);
        assert_eq!(epochs_a, 4);
        assert!(dir.join("epoch-2.ckpt").exists());
        assert!(dir.join("epoch-4.ckpt").exists());
        let resume = CheckpointPolicy {
            restore_from: Some(CheckpointPolicy::latest_path(&dir)),
            ..CheckpointPolicy::default()
        };
        let (fp, comm, epochs_b, reports_b) = rows(&resume);
        assert_eq!(epochs_b, 8, "resumed run must continue the epoch counter");
        assert_eq!(
            comm.uplink_msgs,
            first.uplink_msgs + reports_b,
            "restored comm must keep the first run's uplink"
        );
        // Warm-started rows report only the new traffic.
        assert_eq!(fp.iter().map(|r| r.3).sum::<u64>(), reports_b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loop_produces_one_metrics_row_per_epoch() {
        let res = stop_and_go(&CheckpointPolicy::default());
        assert_eq!(res.per_epoch.len(), 4);
        assert_eq!(res.summary.measurements, 20);
        for (i, e) in res.per_epoch.iter().enumerate() {
            assert_eq!(e.epoch, i as u64 + 1);
            assert_eq!(e.timestamp.raw(), (i as u64 + 1) * 5);
        }
        // The first cruise fits one safe area; every later phase change
        // is one report, answered at the next boundary.
        let reporting: Vec<usize> = res.per_epoch.iter().map(|e| e.reporting).collect();
        assert_eq!(reporting, [0, 1, 1, 1]);
        assert!(res.per_epoch[3].index_size > 0);
        let coordinator = &res.coordinator;
        coordinator.check_consistency().unwrap();
        let comm = coordinator.comm_stats();
        assert_eq!((comm.uplink_msgs, comm.downlink_msgs, res.filter_stats.reports), (3, 3, 3));
    }
}
