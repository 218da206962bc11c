//! `client_swarm`: a seeded, deterministic open-loop load generator.
//!
//! The swarm drives a [`Hotpathd`] the way a
//! fleet of RayTrace clients would: a population of writers each walks
//! a fixed corridor of a synthetic lattice and reports a traversal on
//! the ticks its seeded schedule selects; concurrent reader threads
//! hammer snapshot handles the whole time. Churn reuses the
//! scenario fault machinery — a [`FaultPlan`] disconnect window
//! suppresses a seeded fraction of the population mid-run.
//!
//! Everything that touches the engine is a pure function of
//! `(seed, fault seed, params)`: the schedule, the corridor geometry,
//! and the tick clock. Readers are real threads but strictly read-only,
//! so they cannot perturb the stream. That makes the final snapshot
//! reproducible bit for bit — [`SwarmReport::fingerprint`] hashes it,
//! and [`SwarmReport::parity`] compares two runs of one schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hotpath_core::coordinator::{Coordinator, HotSnapshot};
use hotpath_core::engine::EngineKind;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::prelude::Config;
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::scenario::{FaultKind, FaultWindow};
use hotpath_sim::fault::FaultPlan;

use crate::server::Hotpathd;

/// Corridor lattice geometry: column pitch, row pitch, corridor length.
const COL_PITCH: f64 = 500.0;
const ROW_PITCH: f64 = 300.0;
const CORRIDOR_LEN: f64 = 50.0;
/// Lattice width in corridors; writers wrap onto it.
const LATTICE_COLS: u64 = 8;
const LATTICE_ROWS: u64 = 8;
/// Per-tick emission probability, in percent.
const EMIT_PCT: u64 = 60;

/// Parameters of one swarm run. Two runs with equal params produce
/// identical schedules and identical final snapshots. The default is
/// the CI-sized preset (a couple of seconds on one core); the engine
/// always serves under [`Config::paper_defaults`].
#[derive(Clone, Debug)]
pub struct SwarmParams {
    /// Writer population (one corridor each, wrapping onto the lattice).
    pub writers: usize,
    /// Concurrent snapshot reader threads (read-only; never affect
    /// the stream).
    pub readers: usize,
    /// Ticks to drive; one granule each, epochs at the config cadence.
    pub ticks: u64,
    /// Schedule seed: selects which writers emit on which ticks.
    pub seed: u64,
    /// Fraction of writers disconnected during the middle third of the
    /// run (`0.0` = no churn). Victims are seeded by
    /// [`Self::fault_seed`].
    pub churn: f64,
    /// Seed for churn-victim selection; runs are deterministic per
    /// seed.
    pub fault_seed: u64,
}

impl Default for SwarmParams {
    fn default() -> Self {
        SwarmParams {
            writers: 24,
            readers: 2,
            ticks: 200,
            seed: 0x5EED,
            churn: 0.0,
            fault_seed: FaultPlan::DEFAULT_SEED,
        }
    }
}

impl SwarmParams {
    /// The full preset: a larger population over a longer horizon,
    /// with churn through the middle third.
    pub fn full() -> Self {
        SwarmParams { writers: 64, readers: 4, ticks: 600, churn: 0.2, ..SwarmParams::default() }
    }

    fn fault_plan(&self) -> FaultPlan {
        if self.churn <= 0.0 {
            return FaultPlan::default();
        }
        FaultPlan::new(
            self.fault_seed,
            vec![FaultWindow {
                kind: FaultKind::Disconnect,
                from: Timestamp(self.ticks / 3),
                until: Timestamp(2 * self.ticks / 3),
                fraction: self.churn,
                salt: 0xC4,
            }],
        )
    }
}

/// What one swarm run did and what it converged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwarmReport {
    /// Ticks driven.
    pub ticks: u64,
    /// Traversals submitted.
    pub submitted: u64,
    /// Traversals suppressed by churn.
    pub suppressed: u64,
    /// Snapshot reads completed by the reader threads
    /// (nondeterministic; excluded from parity checks).
    pub reads: u64,
    /// Highest epoch any reader observed.
    pub max_epoch_seen: u64,
    /// Hash of the submitted `(writer, tick)` schedule — equal seeds
    /// must produce equal schedules before the engine is even involved.
    pub schedule_hash: u64,
    /// Hash of the final published snapshot (epoch, counts, full
    /// top-k). Equal for equal schedules.
    pub fingerprint: u64,
    /// Final epoch of the published snapshot: the epoch boundaries
    /// processed.
    pub final_epoch: u64,
    /// Hot paths in the final snapshot.
    pub hot_count: u64,
}

impl SwarmReport {
    /// True when `other` is the same deterministic run: identical
    /// schedule and identical final snapshot (reader counters are
    /// timing noise and excluded).
    pub fn parity(&self, other: &SwarmReport) -> bool {
        self.schedule_hash == other.schedule_hash
            && self.fingerprint == other.fingerprint
            && self.submitted == other.submitted
            && self.suppressed == other.suppressed
            && self.final_epoch == other.final_epoch
    }
}

/// `splitmix64` — the repo-standard seeded mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Does writer `w` emit on tick `t` under `seed`?
fn emits(seed: u64, w: u64, t: u64) -> bool {
    splitmix64(seed ^ splitmix64(w) ^ t.wrapping_mul(0x2545_F491_4F6C_DD1D)) % 100 < EMIT_PCT
}

/// The traversal writer `w` reports ending at tick `t`: one pass of
/// its fixed lattice corridor.
fn traversal(w: u64, t: u64) -> ClientState {
    let col = w % LATTICE_COLS;
    let row = (w / LATTICE_COLS) % LATTICE_ROWS;
    let x0 = col as f64 * COL_PITCH;
    let y0 = row as f64 * ROW_PITCH;
    let end = Point::new(x0 + CORRIDOR_LEN, y0);
    ClientState {
        object: ObjectId(w),
        start: Point::new(x0, y0),
        ts: Timestamp(t.saturating_sub(8)),
        fsa: Rect::new(Point::new(end.x - 2.0, end.y - 2.0), Point::new(end.x + 2.0, end.y + 2.0)),
        te: Timestamp(t),
    }
}

fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// Hashes the final snapshot: epoch, clock, counts, and the complete
/// top-k (ids, hotness, score bits, segment geometry bits).
pub fn snapshot_fingerprint(snap: &HotSnapshot) -> u64 {
    let mut h = 0x5EED_F00D;
    h = fold(h, snap.epoch);
    h = fold(h, snap.timestamp.0);
    h = fold(h, snap.hot_count as u64);
    h = fold(h, snap.index_size as u64);
    h = fold(h, snap.top_k_score.to_bits());
    for hp in snap.top_k.iter() {
        h = fold(h, hp.path.id.0);
        h = fold(h, u64::from(hp.hotness));
        h = fold(h, hp.score.to_bits());
        h = fold(h, hp.path.seg.a.x.to_bits());
        h = fold(h, hp.path.seg.a.y.to_bits());
        h = fold(h, hp.path.seg.b.x.to_bits());
        h = fold(h, hp.path.seg.b.y.to_bits());
    }
    h
}

/// Runs one swarm against a freshly spawned `hotpathd` and reports the
/// deterministic outcome.
pub fn run_swarm(params: &SwarmParams) -> SwarmReport {
    let engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
    let handle = Hotpathd::spawn(engine);
    let plan = params.fault_plan();

    // Concurrent readers: real threads on snapshot handles, strictly
    // read-only. They count reads and track the highest epoch seen.
    // Each iteration samples `stop` and then reads, leaving only after
    // a read that followed a set flag: a reader descheduled for the
    // whole run still reads once, and every reader's last read follows
    // the final publish (the store below is the Release half of the
    // Acquire load here, and it follows `shutdown`).
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..params.readers)
        .map(|_| {
            let mut reader = handle.reader();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut reads = 0u64;
                let mut max_epoch = 0u64;
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    let snap = reader.read();
                    assert!(snap.epoch >= max_epoch, "reader observed epochs out of order");
                    max_epoch = snap.epoch;
                    reads += 1;
                    if stopping {
                        break (reads, max_epoch);
                    }
                }
            })
        })
        .collect();

    let mut submitted = 0u64;
    let mut suppressed = 0u64;
    let mut schedule_hash = params.seed;
    for t in 1..=params.ticks {
        let mut batch = Vec::new();
        for w in 0..params.writers as u64 {
            if !emits(params.seed, w, t) {
                continue;
            }
            if plan.verdict(ObjectId(w), Timestamp(t)).is_some() {
                suppressed += 1;
                continue;
            }
            schedule_hash = fold(fold(schedule_hash, w), t);
            batch.push(traversal(w, t));
        }
        submitted += batch.len() as u64;
        if !batch.is_empty() {
            handle.submit_batch(batch);
        }
        handle.advance(Timestamp(t));
    }

    let snap = handle.shutdown();
    stop.store(true, Ordering::Release);
    let (reads, max_epoch_seen) = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .fold((0, 0), |(r, m), (reads, max)| (r + reads, m.max(max)));

    SwarmReport {
        ticks: params.ticks,
        submitted,
        suppressed,
        reads,
        max_epoch_seen,
        schedule_hash,
        fingerprint: snapshot_fingerprint(&snap),
        final_epoch: snap.epoch,
        hot_count: snap.hot_count as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SwarmParams {
        SwarmParams { writers: 8, readers: 1, ticks: 60, ..SwarmParams::default() }
    }

    #[test]
    fn same_seed_means_same_schedule_and_same_fingerprint() {
        let a = run_swarm(&small());
        let b = run_swarm(&small());
        assert!(a.parity(&b), "identical params must reproduce the run:\n{a:#?}\nvs\n{b:#?}");
        assert_eq!(a.final_epoch, 6);
        assert!(a.submitted > 0);
        // `small()` runs one reader: it must have read, and ended on the
        // final image, however the scheduler treated it.
        for r in [&a, &b] {
            assert!(r.reads > 0);
            assert_eq!(r.max_epoch_seen, r.final_epoch);
        }
    }

    #[test]
    fn different_seeds_pick_different_schedules() {
        let a = run_swarm(&small());
        let b = run_swarm(&SwarmParams { seed: 0xD1FF, ..small() });
        assert_ne!(a.schedule_hash, b.schedule_hash);
    }

    #[test]
    fn churn_suppresses_deterministically_and_keeps_parity() {
        let params = SwarmParams { churn: 0.5, ..small() };
        let a = run_swarm(&params);
        assert!(a.suppressed > 0, "half the fleet must churn out mid-run");
        let b = run_swarm(&params);
        assert!(a.parity(&b), "churned run must reproduce:\n{a:#?}\nvs\n{b:#?}");
    }

    #[test]
    fn fault_seed_selects_the_victims() {
        let params = SwarmParams { churn: 0.3, ..small() };
        let other = SwarmParams { fault_seed: 0xBEEF, ..params.clone() };
        let a = run_swarm(&params);
        let b = run_swarm(&other);
        assert_ne!(
            (a.suppressed, a.schedule_hash),
            (b.suppressed, b.schedule_hash),
            "different fault seeds must pick different victims"
        );
    }
}
