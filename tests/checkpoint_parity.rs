//! Restart-parity acceptance for checkpoint/restore: for every
//! registered scenario, a run that checkpoints at its mid-run epoch,
//! tears the engine down, and restores from the image bytes must equal
//! the uninterrupted run bit for bit — per-epoch snapshot series, final
//! top-k, and communication counters — and the restored coordinator
//! must pass `check_consistency`. A proptest then drives a raw engine
//! with random checkpoint epochs and submit interleavings (states split
//! across the checkpoint boundary) and requires the same equality on
//! responses and snapshots, plus a byte-identical image after a double
//! restore.

use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::strategy::OverlapPolicy;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::scenario::{ScenarioParams, Workload, REGISTRY};
use hotpath_sim::scenario_run::{check_restart_parity, ScenarioRunParams};
use proptest::prelude::*;

/// Restart parity for every registered scenario.
#[test]
fn every_scenario_survives_a_mid_run_restart() {
    for (i, spec) in REGISTRY.iter().enumerate() {
        let scale = ScenarioParams { n: 300, ..ScenarioParams::quick(41 + i as u64) };
        check_restart_parity(
            || Box::new(Workload::new(spec, &scale)),
            &ScenarioRunParams::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Restart parity reaches the Table 2 workload: once with the DP
/// competitor, once under the own-centroid ablation (whose
/// `degrade_threshold` must survive the checkpoint image).
#[test]
fn uniform_workload_survives_a_mid_run_restart() {
    let table2 = ScenarioRunParams { window: Some(50), ..ScenarioRunParams::table2() };
    for params in [table2, ScenarioRunParams { overlap: OverlapPolicy::Own, ..table2 }] {
        check_restart_parity(|| Box::new(Workload::uniform_quick(300, 47)), &params)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

// ---------------------------------------------------------------------
// Random checkpoint epochs and submit interleavings on a raw engine.
// ---------------------------------------------------------------------

fn cfg() -> Config {
    Config::builder().window(40).k(8).build().unwrap()
}

/// A deterministic per-epoch batch: 12 states on a coarse lattice so
/// corridors repeat across epochs and heat up.
fn workload(epoch: u64, seed: u64) -> Vec<ClientState> {
    let mut out = Vec::new();
    let mut s = epoch.wrapping_mul(1799).wrapping_add(seed | 1);
    for i in 0..12u64 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = s >> 33;
        let x = ((r % 6) * 500) as f64;
        let y = ((r % 3) * 300) as f64;
        let end = Point::new(x + 50.0, y);
        out.push(ClientState {
            object: ObjectId(i),
            start: Point::new(x, y),
            ts: Timestamp(epoch * 10 - 9),
            fsa: Rect::new(end - Point::new(2.0, 2.0), end + Point::new(2.0, 2.0)),
            te: Timestamp(epoch * 10 - 1),
        });
    }
    out
}

/// One epoch's observable output: responses, snapshot epoch, score
/// bits, index size, uplink messages.
type EpochRow = (Vec<(u64, u64)>, u64, u64, usize, u64);

fn run_epoch(engine: &mut Box<dyn Engine>, epoch: u64, seed: u64) -> EpochRow {
    let mut states = workload(epoch, seed).into_iter();
    engine.submit_batch(&mut states);
    let responses: Vec<(u64, u64)> = engine
        .process_epoch(Timestamp(epoch * 10))
        .iter()
        .map(|r| (r.object.0, r.endpoint.t.raw()))
        .collect();
    let snap = engine.snapshot();
    (responses, snap.epoch, snap.top_k_score.to_bits(), snap.index_size, snap.comm.uplink_msgs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint at a random epoch with a random slice of the next
    /// batch already submitted (it must travel inside the image's
    /// pending section), restore into a dirtied fresh engine, and the
    /// continuation must equal the uninterrupted run bit for bit. A
    /// second restore of the same image must checkpoint back to the
    /// identical bytes.
    #[test]
    fn random_checkpoint_epochs_and_interleavings_restore_bit_for_bit(
        seed in 0u64..10_000,
        ck_epoch in 1u64..6,
        split in 0usize..=12,
    ) {
        let total = 6u64;

        // Uninterrupted reference.
        let mut base = EngineKind::Sync.build(Coordinator::new(cfg()));
        let base_log: Vec<EpochRow> =
            (1..=total).map(|e| run_epoch(&mut base, e, seed)).collect();
        base.finish().check_consistency().expect("reference inconsistent");

        // Interrupted run: play up to `ck_epoch`, pre-submit `split`
        // states of the next batch, checkpoint, and destroy the engine.
        let mut first = EngineKind::Sync.build(Coordinator::new(cfg()));
        let head: Vec<EpochRow> =
            (1..=ck_epoch).map(|e| run_epoch(&mut first, e, seed)).collect();
        let next = workload(ck_epoch + 1, seed);
        let mut early = next[..split].iter().copied();
        first.submit_batch(&mut early);
        let image = first.checkpoint();
        prop_assert_eq!(image.epoch(), ck_epoch);
        drop(first);

        // Fresh process-equivalent engine, dirtied so a leaky restore
        // would show, then restored from the image bytes.
        let mut second = EngineKind::Sync.build(Coordinator::new(cfg()));
        let _ = run_epoch(&mut second, 17, seed ^ 0x5eed);
        second.restore(&image).expect("restore failed");
        prop_assert_eq!(second.pending_len(), split);
        let restored_image = second.checkpoint();
        prop_assert_eq!(restored_image.as_bytes(), image.as_bytes(), "re-checkpoint drifted");
        let twice = Coordinator::from_checkpoint(cfg(), &restored_image)
            .expect("double restore failed");
        let twice_image = twice.checkpoint();
        prop_assert_eq!(twice_image.as_bytes(), image.as_bytes(), "double restore drifted");

        // Continue: the rest of the split batch, then the tail epochs.
        let mut late = next[split..].iter().copied();
        second.submit_batch(&mut late);
        let boundary = {
            let responses: Vec<(u64, u64)> = second
                .process_epoch(Timestamp((ck_epoch + 1) * 10))
                .iter()
                .map(|r| (r.object.0, r.endpoint.t.raw()))
                .collect();
            let snap = second.snapshot();
            (responses, snap.epoch, snap.top_k_score.to_bits(), snap.index_size,
             snap.comm.uplink_msgs)
        };
        let mut log = head;
        log.push(boundary);
        log.extend((ck_epoch + 2..=total).map(|e| run_epoch(&mut second, e, seed)));
        prop_assert_eq!(&log, &base_log, "divergence after restart at epoch {}", ck_epoch);
        second.finish().check_consistency().expect("restored run inconsistent");
    }
}
