//! The coordinator: epoch-batched processing of client states, path
//! table maintenance, and top-`k` / score queries (Sections 3.1, 5).
//!
//! # One writer, one table
//!
//! The coordinator is the paper's central server. It owns one
//! [`PathTable`] — every stored path with its sliding-window hotness
//! and every index over them — one [`ScratchArena`] and the pending
//! batch's [`Arrivals`]. Every epoch runs SinglePath over the whole
//! batch on the caller's thread, so Phase B always sees one global
//! index; a start-cell shard layer lost every paired comparison against
//! this design and was removed (README, "One coordinator thread").
//!
//! Between a state's [`Coordinator::submit`] and its boundary the table
//! can only lose paths, so `submit` gathers what Phase B will ask: the
//! pending FSAs meeting the state's FSA and the end vertices inside it.
//! The boundary, [`Coordinator::process_epoch`], is *drain-ingest*
//! (expire, seal, eject over the cap with the ejected rows) → *strategy*
//! (Phase A scans Case-1 candidates; Phase B keeps the gathered vertices
//! still stored, adds this pass's new paths and commits — no grid walk)
//! → *respond* → *publish*. A restore gathers the pending states again.
//!
//! # Hot-loop allocation discipline
//!
//! After warm-up, ingest and the strategy allocate nothing; a boundary
//! allocates only its reply and its snapshot. [`Arrivals`] pools the
//! overlap grid's emptied cells and the gathered rows, the
//! [`ScratchArena`] every Phase A and Phase B buffer and the
//! selections, and the batch vector is recycled; top-k walks the count
//! buckets ([`PathTable::top_n`]). Keep new per-epoch buffers pooled.

use crate::checkpoint::{CheckpointError, CoordinatorImage};
use crate::config::Config;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::geometry::TimePoint;
use crate::index::PathTable;
use crate::motion_path::{MotionPath, PathId};
use crate::raytrace::ClientState;
use crate::stats::{AdmissionStats, CommStats, ProcessingStats};
use crate::strategy::{process_batch, Arrivals, OverlapPolicy, PhaseBLoad, ScratchArena};
use crate::time::Timestamp;
use crate::ObjectId;
use std::sync::Arc;
use std::time::Instant;

/// The endpoint message `<e, te>` returned to a reporting object at the
/// next epoch.
#[derive(Clone, Copy, Debug)]
pub struct EndpointResponse {
    /// Destination object.
    pub object: ObjectId,
    /// The endpoint timepoint seeding the object's next SSA.
    pub endpoint: TimePoint,
    /// Always `None`, and `Infallible` proves it: a leftover of the
    /// removed hot-path hints, kept only until the frozen benchmark
    /// harness, which still names it, is next revised. It takes no bytes.
    pub hint: Option<std::convert::Infallible>,
}

impl EndpointResponse {
    /// Wire size: one point, one timestamp, one object id.
    pub const WIRE_BYTES: usize = 16 + 8 + 8;
}

/// A hot path with its current hotness and score.
#[derive(Clone, Copy, Debug)]
pub struct HotPath {
    /// The path.
    pub path: MotionPath,
    /// Crossings within the window.
    pub hotness: u32,
    /// `hotness x length` (Section 3.1 score).
    pub score: f64,
}

/// An epoch-stamped, immutable view of everything the read side needs:
/// the top-k, index size, and the communication/processing counters as
/// of the publish. The coordinator builds one at the end of every
/// [`Coordinator::process_epoch`] (the *publish* stage) and holds it
/// until the next, so repeated reads between epochs share one
/// allocation — and the engine layer can hand snapshots across threads
/// without touching live coordinator state.
#[derive(Clone, Debug)]
pub struct HotSnapshot {
    /// Epochs processed when this snapshot was published (0 before the
    /// first epoch).
    pub epoch: u64,
    /// The clock value at publish time (the epoch's boundary timestamp).
    pub timestamp: Timestamp,
    /// The top-`k` hottest paths (config `k`), hottest first.
    pub top_k: Arc<[HotPath]>,
    /// The top-k set score (Section 3.1): mean `hotness x length` over
    /// the members, `0` when nothing is hot.
    pub top_k_score: f64,
    /// Motion paths stored in the index — every one of them hot, since
    /// a path is stored exactly while it is crossed.
    pub index_size: usize,
    /// Communication counters as of the publish.
    pub comm: CommStats,
    /// Processing counters as of the publish.
    pub processing: ProcessingStats,
    /// Admission counters as of the publish (all zeros while the
    /// ingest bound and the degrade threshold are off).
    pub admission: AdmissionStats,
    /// Phase-B load for the published epoch: the states it deferred.
    pub phase_b: PhaseBLoad,
}

impl HotSnapshot {
    /// The pre-first-epoch snapshot: empty, stamped zero.
    pub fn empty() -> Self {
        HotSnapshot {
            epoch: 0,
            timestamp: Timestamp(0),
            top_k: Arc::from(Vec::new()),
            top_k_score: 0.0,
            index_size: 0,
            comm: CommStats::default(),
            processing: ProcessingStats::default(),
            admission: AdmissionStats::default(),
            phase_b: PhaseBLoad::default(),
        }
    }
}

/// Grid cell edge shared by the epoch FSA-overlap structure and the
/// path table's end-vertex grid: about one FSA diameter (`2 eps`), floored
/// away from zero for degenerate tolerances, so an FSA-sized range
/// query probes at most four cells. Affects performance only, never
/// results.
fn overlap_cell_of(config: &Config) -> f64 {
    (2.0 * config.tolerance.eps()).max(1e-6)
}

/// The central coordinator.
#[derive(Debug)]
pub struct Coordinator {
    config: Config,
    table: PathTable,
    scratch: ScratchArena,
    pending: Vec<ClientState>,
    /// What each pending state's arrival gathered, row for row with
    /// `pending`. Not checkpointed: a restore gathers again.
    arrivals: Arrivals,
    comm: CommStats,
    processing: ProcessingStats,
    /// The latest timestamp the coordinator has been advanced to; stamps
    /// published snapshots.
    clock: Timestamp,
    /// The snapshot the last publish stage (or `new` /
    /// `from_image`) built; `advance_time` leaves it alone.
    published: Arc<HotSnapshot>,
    /// Admission-control counters (what drain-ingest did with overload).
    admission: AdmissionStats,
}

impl Coordinator {
    /// Creates a coordinator for the given configuration.
    pub fn new(config: Config) -> Self {
        Coordinator {
            table: PathTable::new(config.window, overlap_cell_of(&config), config.vertex_grain),
            scratch: ScratchArena::new(),
            arrivals: Arrivals::new(overlap_cell_of(&config)),
            config,
            pending: Vec::new(),
            comm: CommStats::default(),
            processing: ProcessingStats::default(),
            clock: Timestamp(0),
            published: Arc::new(HotSnapshot::empty()),
            admission: AdmissionStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Accepts a state message (buffered until the next epoch) and
    /// gathers what Phase B will ask about it: the pending FSAs meeting
    /// its FSA and the end vertices inside it.
    pub fn submit(&mut self, state: ClientState) {
        self.comm.uplink_msgs += 1;
        self.arrivals.gather(&state.fsa, &self.table);
        self.pending.push(state);
    }

    /// Bulk epoch ingest: accepts a whole batch of state messages —
    /// equivalent to calling [`Coordinator::submit`] per state (same
    /// accounting, same order). The batch buffer itself is recycled
    /// across epochs, so steady-state ingest reuses its retained
    /// capacity.
    ///
    /// ```
    /// use hotpath_core::prelude::*;
    ///
    /// let config = Config::builder().epoch(5).window(50).build().unwrap();
    /// let mut coordinator = Coordinator::new(config);
    /// let crossing = |obj: u64| ClientState {
    ///     object: ObjectId(obj),
    ///     start: Point::new(0.0, 0.0),
    ///     ts: Timestamp(1),
    ///     fsa: Rect::new(Point::new(9.0, -1.0), Point::new(11.0, 1.0)),
    ///     te: Timestamp(4),
    /// };
    /// coordinator.submit_batch((0..3).map(crossing));
    /// assert_eq!(coordinator.pending_len(), 3);
    ///
    /// // The batch is processed at the next epoch boundary; three
    /// // objects crossing the same corridor make one hot path.
    /// let responses = coordinator.process_epoch(Timestamp(5));
    /// assert_eq!(responses.len(), 3);
    /// assert_eq!(coordinator.hot_count(), 1);
    /// ```
    pub fn submit_batch(&mut self, states: impl IntoIterator<Item = ClientState>) {
        for state in states {
            self.submit(state);
        }
    }

    /// Number of states awaiting the next epoch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Advances the window clock to `now`, expiring crossings (a path
    /// whose last crossing expires leaves the table in the same call;
    /// cheap when nothing expires).
    pub fn advance_time(&mut self, now: Timestamp) {
        let start = Instant::now();
        self.table.advance(now);
        self.clock = self.clock.max(now);
        self.processing.expiry_time += start.elapsed();
    }

    /// Runs SinglePath over the pending batch (call at epoch boundaries)
    /// and returns the endpoint responses for all reporting objects.
    ///
    /// Internally this is the four named stages of the epoch pipeline —
    /// *drain-ingest* → *strategy* (Phase A, Phase B) → *respond* →
    /// *publish* — run back to back on the caller's thread.
    pub fn process_epoch(&mut self, now: Timestamp) -> Vec<EndpointResponse> {
        let batch = self.stage_drain_ingest(now);
        let load = self.stage_strategy(&batch);
        let responses = self.stage_respond();
        self.stage_recycle(batch);
        self.stage_publish(load);
        responses
    }

    /// Stage *drain-ingest*: advance the window clock (expiring dead
    /// paths), seal the pending batch, and apply the queue cap to it.
    fn stage_drain_ingest(&mut self, now: Timestamp) -> Vec<ClientState> {
        self.advance_time(now);
        let mut states = std::mem::take(&mut self.pending);
        self.apply_admission(&mut states);
        states
    }

    /// Admission control over one sealed epoch batch: an over-cap batch
    /// ejects its slowest clients until it fits, and their gathered rows
    /// go with them. The decision reads the batch alone; the coordinator
    /// keeps no per-client state.
    fn apply_admission(&mut self, states: &mut Vec<ClientState>) {
        let cap = self.config.admission.queue_cap;
        if cap == 0 || states.len() <= cap {
            return; // layer off, or the batch fits
        }
        // Key each client by the `te` of its newest batch state and
        // eject clients stalest first, ties toward the smaller id, until
        // the batch fits. Ejecting one client moves no other client's
        // key, so one sort orders every round.
        let mut newest: FxHashMap<ObjectId, (Timestamp, usize)> = FxHashMap::default();
        for s in states.iter() {
            let (te, held) = newest.entry(s.object).or_insert((s.te, 0));
            *te = (*te).max(s.te);
            *held += 1;
        }
        let mut slowest: Vec<(Timestamp, ObjectId)> =
            newest.iter().map(|(&object, &(te, _))| (te, object)).collect();
        slowest.sort_unstable();
        let mut kept = states.len();
        let mut victims = FxHashSet::default();
        for (_, victim) in slowest {
            if kept <= cap {
                break;
            }
            kept -= newest[&victim].1;
            victims.insert(victim);
        }
        self.admission.ejected += (states.len() - kept) as u64;
        let keep: Vec<bool> = states.iter().map(|s| !victims.contains(&s.object)).collect();
        self.arrivals.retain(&keep);
        states.retain(|s| !victims.contains(&s.object));
    }

    /// Stage *strategy*: run SinglePath (Phase A, then Phase B) over the
    /// sealed batch and account the processing statistics; the
    /// selections stay in the scratch arena for the respond stage, and
    /// Phase B's load is returned for the publish stage.
    fn stage_strategy(&mut self, states: &[ClientState]) -> PhaseBLoad {
        let start = Instant::now();
        // Degraded-epoch mode: past the overload threshold, shed the
        // Phase B FSA-overlap refinement for this epoch (the `Own`
        // policy — each state only considers its own FSA).
        // The trigger is the admitted batch size.
        let degrade = self.config.admission.degrade_threshold;
        let policy = if degrade > 0 && states.len() > degrade {
            self.admission.degraded_epochs += 1;
            OverlapPolicy::Own
        } else {
            OverlapPolicy::Full
        };
        let (tally, load) =
            process_batch(states, &mut self.table, &mut self.scratch, &self.arrivals, policy);
        self.processing.strategy_time += start.elapsed();
        self.processing.epochs += 1;
        self.processing.states_processed += states.len() as u64;
        self.processing.case1 += tally.case1;
        self.processing.case2 += tally.case2;
        self.processing.case3 += tally.case3;
        load
    }

    /// Builds the endpoint responses for the epoch's selections, in
    /// selection order: one per processed state.
    fn stage_respond(&self) -> Vec<EndpointResponse> {
        self.scratch
            .selections()
            .iter()
            .map(|sel| EndpointResponse {
                object: sel.object,
                endpoint: TimePoint::new(sel.endpoint, sel.te),
                hint: None,
            })
            .collect()
    }

    /// Returns the drained batch buffer to the pending slot, and clears
    /// the gathered rows, so the next epoch's ingest reuses both.
    fn stage_recycle(&mut self, mut states: Vec<ClientState>) {
        states.clear();
        self.pending = states;
        self.arrivals.clear();
    }

    /// Stage *publish*: build the epoch-stamped [`HotSnapshot`] — the
    /// one read path for the published top-k, index size and counters.
    fn stage_publish(&mut self, phase_b: PhaseBLoad) {
        let start = Instant::now();
        self.published = self.build_snapshot(phase_b);
        self.processing.publish_time += start.elapsed();
    }

    /// A snapshot of the live state, stamped with the epoch count and
    /// the clock.
    fn build_snapshot(&self, phase_b: PhaseBLoad) -> Arc<HotSnapshot> {
        let top = self.top_k();
        Arc::new(HotSnapshot {
            epoch: self.processing.epochs,
            timestamp: self.clock,
            top_k_score: mean_score(&top),
            top_k: top.into(),
            index_size: self.index_size(),
            comm: self.comm,
            processing: self.processing,
            admission: self.admission,
            phase_b,
        })
    }

    /// Number of motion paths currently stored (the paper's *index size*
    /// metric, Figures 7a / 8a) — the same number as [`Self::hot_count`],
    /// since a path is stored exactly while it is crossed. Reads the
    /// live table.
    pub fn index_size(&self) -> usize {
        self.table.len()
    }

    /// Looks up a stored path by id.
    pub fn path(&self, id: PathId) -> Option<&MotionPath> {
        self.table.get(id)
    }

    /// A path with its hotness, as reported.
    fn hot_path(path: &MotionPath, hotness: u32) -> HotPath {
        HotPath { path: *path, hotness, score: hotness as f64 * path.length() }
    }

    /// All stored paths with their (positive) hotness, in id order, so
    /// the list depends on the logical state only, never on the slab
    /// layout. Enumerates the live table on every call.
    pub fn hot_paths(&self) -> Vec<HotPath> {
        let mut hot: Vec<HotPath> = self.table.iter().map(|(p, h)| Self::hot_path(p, h)).collect();
        hot.sort_unstable_by_key(|h| h.path.id);
        hot
    }

    /// The [`HotSnapshot`] published at the end of the last
    /// `process_epoch` (or built by `new` / `from_image`): the same
    /// `Arc` the engine installs into its cell. Window advances between
    /// boundaries do not change it; the live reads are [`Self::top_k`],
    /// [`Self::top_k_score`] and [`Self::index_size`].
    pub fn snapshot(&self) -> Arc<HotSnapshot> {
        Arc::clone(&self.published)
    }

    /// The top-`k` hottest motion paths (config `k`), hottest first;
    /// ties break toward longer paths, then lower ids (deterministic).
    /// One [`PathTable::top_n`] bucket walk over the live table.
    pub fn top_k(&self) -> Vec<HotPath> {
        self.top_n(self.config.k)
    }

    /// The top-`n` hottest motion paths for an explicit `n`, in the
    /// order [`PathTable::top_n`] already returns — hotness desc, length
    /// desc, id asc — from its count buckets (see there for the cost).
    pub fn top_n(&self, n: usize) -> Vec<HotPath> {
        self.table
            .top_n(n)
            .into_iter()
            .filter_map(|(id, h)| Some(Self::hot_path(self.table.get(id)?, h)))
            .collect()
    }

    /// The score of the top-`k` set: the average of `hotness x length`
    /// over its members (Section 3.1). Zero when no paths are hot.
    /// Reads the live table, as [`Self::top_k`] does.
    pub fn top_k_score(&self) -> f64 {
        mean_score(&self.top_k())
    }

    /// Communication counters.
    pub fn comm_stats(&self) -> CommStats {
        self.comm
    }

    /// Admission-control counters (all zeros while the ingest bound and
    /// the degrade threshold are off).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission
    }

    /// Processing counters.
    pub fn processing_stats(&self) -> &ProcessingStats {
        &self.processing
    }

    /// Current hotness of a specific path.
    pub fn hotness_of(&self, id: PathId) -> u32 {
        self.table.hotness(id)
    }

    /// Number of paths with positive hotness — every stored path.
    pub fn hot_count(&self) -> usize {
        self.table.len()
    }

    /// Expiry events pending in the path table: one per unexpired
    /// crossing (diagnostics).
    pub fn pending_expiry_events(&self) -> usize {
        self.table.pending_events()
    }

    /// Internal-consistency audit: the path table must be
    /// self-consistent (see [`PathTable::check_consistency`]), and the
    /// bucket-walk top-k must equal the sort-based oracle over the full
    /// hot set.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.table.check_consistency().map_err(|e| format!("path table: {e}"))?;
        // The bucket walk must reproduce the naive full sort of the
        // whole hot set.
        let mut oracle = self.hot_paths();
        oracle.sort_by(|a, b| {
            b.hotness
                .cmp(&a.hotness)
                .then_with(|| b.path.length().total_cmp(&a.path.length()))
                .then_with(|| a.path.id.cmp(&b.path.id))
        });
        let fast = self.top_n(oracle.len().max(1));
        if fast.len() != oracle.len() {
            return Err(format!("top_n returned {} of {} hot paths", fast.len(), oracle.len()));
        }
        for (f, o) in fast.iter().zip(&oracle) {
            if f.path.id != o.path.id || f.hotness != o.hotness || f.score != o.score {
                return Err(format!(
                    "bucketed top-k diverged from full sort at {} (oracle {})",
                    f.path.id, o.path.id
                ));
            }
        }
        Ok(())
    }

    // ---- checkpoint / restore -----------------------------------------

    /// The coordinator's logical state: counters, configuration echo,
    /// pending batch, the stored paths by id and the expiry events in
    /// `(expiry, id)` order. Both orders are canonical, so the image
    /// depends on the logical state only, not on any slab or wheel
    /// layout.
    pub fn image(&self) -> CoordinatorImage {
        CoordinatorImage {
            clock: self.clock,
            next_path_id: self.table.next_id(),
            config: self.config,
            comm: self.comm,
            processing: self.processing,
            admission: self.admission,
            recorded: self.table.total_recorded(),
            pending: self.pending.clone(),
            paths: self.table.paths_by_id(),
            events: self.table.events_vec(),
        }
    }

    /// Rebuilds a coordinator from an image, continuing bit-for-bit
    /// where the imaged one left off. `config` must equal the image's
    /// configuration, so a restore can never change it.
    ///
    /// The paths go into a fresh table in id order, each with as many
    /// crossings as it has expiry events, and the events re-enter the
    /// timer wheel keyed by the image's clock; every derived structure
    /// is rebuilt, and the published snapshot is built from the
    /// restored state — a read after a restore can never serve
    /// pre-restore data.
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] on another configuration;
    /// [`CheckpointError::Malformed`] on a forged table: ids out of
    /// order or at or past the counter, two paths with one geometry, an
    /// event without its path or a path without an event.
    pub fn from_image(config: Config, image: &CoordinatorImage) -> Result<Self, CheckpointError> {
        if image.config != config {
            return Err(CheckpointError::ConfigMismatch(format!(
                "the image was taken under {:?}, the coordinator runs {config:?}",
                image.config
            )));
        }
        let table = PathTable::new(config.window, overlap_cell_of(&config), config.vertex_grain)
            .restore(&image.paths, &image.events, image.next_path_id, image.recorded, image.clock)
            .map_err(|e| CheckpointError::Malformed(format!("path table: {e}")))?;

        // Not part of the image: the pending states are gathered again,
        // against the restored table.
        let mut arrivals = Arrivals::new(overlap_cell_of(&config));
        for st in &image.pending {
            arrivals.gather(&st.fsa, &table);
        }
        let mut restored = Coordinator {
            table,
            scratch: ScratchArena::new(),
            arrivals,
            config,
            pending: image.pending.clone(),
            comm: image.comm,
            processing: image.processing,
            clock: image.clock,
            published: Arc::new(HotSnapshot::empty()),
            admission: image.admission,
        };
        // Phase-B load is not part of the image: the restored snapshot
        // reports none until the next boundary.
        restored.published = restored.build_snapshot(PhaseBLoad::default());
        Ok(restored)
    }
}

/// The top-k set score: mean `hotness x length` over `top`, `0` when it
/// is empty.
fn mean_score(top: &[HotPath]) -> f64 {
    if top.is_empty() {
        0.0
    } else {
        top.iter().map(|h| h.score).sum::<f64>() / top.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::geometry::{Point, Rect};
    use crate::index::ExpiryEvent;

    /// `c`'s image through the byte codec: encoded, then decoded.
    fn through_bytes(c: &Coordinator) -> Checkpoint {
        Checkpoint::from_bytes(Checkpoint::new(c.image()).as_bytes().to_vec()).unwrap()
    }

    fn state(obj: u64, start: (f64, f64), end: (f64, f64), ts: u64, te: u64) -> ClientState {
        let e = Point::new(end.0, end.1);
        ClientState {
            object: ObjectId(obj),
            start: Point::new(start.0, start.1),
            ts: Timestamp(ts),
            fsa: Rect::new(e - Point::new(2.0, 2.0), e + Point::new(2.0, 2.0)),
            te: Timestamp(te),
        }
    }

    #[test]
    fn epoch_processing_creates_and_responds() {
        let mut c = Coordinator::new(Config::paper_defaults());
        c.submit(state(1, (0.0, 0.0), (50.0, 0.0), 0, 8));
        c.submit(state(2, (0.0, 100.0), (50.0, 100.0), 0, 9));
        assert_eq!(c.pending_len(), 2);
        let responses = c.process_epoch(Timestamp(10));
        assert_eq!(responses.len(), 2);
        assert_eq!(c.pending_len(), 0);
        assert_eq!(c.index_size(), 2);
        // Responses carry each object's te and an endpoint inside its FSA.
        let r1 = responses.iter().find(|r| r.object == ObjectId(1)).unwrap();
        assert_eq!(r1.endpoint.t, Timestamp(8));
        assert!((r1.endpoint.p.x - 50.0).abs() <= 2.0);
    }

    #[test]
    fn repeated_crossings_heat_up_and_expire() {
        let mut c = Coordinator::new(Config::paper_defaults());
        // Same corridor crossed by many objects across two epochs.
        for obj in 0..5u64 {
            c.submit(state(obj, (0.0, 0.0), (50.0, 0.0), 0, 9));
        }
        let _ = c.process_epoch(Timestamp(10));
        assert_eq!(c.index_size(), 1, "identical states must share one path");
        let top = c.top_k();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].hotness, 5);
        // Score = hotness x length = 5 * 50.
        assert!((c.top_k_score() - 250.0).abs() < 1.0);

        // After W the crossings expire and the path is deleted.
        c.advance_time(Timestamp(9 + 100));
        assert_eq!(c.index_size(), 0);
        assert!(c.top_k().is_empty());
        assert_eq!(c.top_k_score(), 0.0);
    }

    /// The published snapshot is the boundary's and only the next
    /// boundary replaces it: window advances in between empty the live
    /// table, which `top_k`, `top_k_score` and `index_size` read.
    #[test]
    fn snapshot_stays_the_boundarys_while_live_reads_follow_expiry() {
        let mut c = Coordinator::new(Config::paper_defaults());
        for obj in 0..3u64 {
            c.submit(state(obj, (0.0, 0.0), (50.0, 0.0), 0, 9));
        }
        let _ = c.process_epoch(Timestamp(10));
        let published = c.snapshot();
        assert_eq!((published.epoch, published.timestamp), (1, Timestamp(10)));
        assert_eq!(published.top_k.len(), 1);

        c.advance_time(Timestamp(9 + 100));
        let snap = c.snapshot();
        assert!(Arc::ptr_eq(&snap, &published), "an advance replaced the published snapshot");
        assert_eq!((snap.epoch, snap.timestamp, snap.index_size), (1, Timestamp(10), 1));
        assert_eq!(snap.top_k[0].hotness, 3);
        assert!((snap.top_k_score - 150.0).abs() < 1.0);
        assert!(c.top_k().is_empty());
        assert_eq!(c.top_k_score(), 0.0);
        assert_eq!(c.index_size(), 0);
    }

    #[test]
    fn top_k_orders_by_hotness_then_length() {
        let mut c = Coordinator::new(Config::builder().k(2).build().unwrap());
        // Path A: 3 crossings; path B: 1 crossing but longer; path C: 1.
        for obj in 0..3u64 {
            c.submit(state(obj, (0.0, 0.0), (50.0, 0.0), 0, 9));
        }
        c.submit(state(10, (0.0, 200.0), (150.0, 200.0), 0, 9));
        c.submit(state(11, (0.0, 400.0), (20.0, 400.0), 0, 9));
        let _ = c.process_epoch(Timestamp(10));
        let top = c.top_n(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].hotness, 3);
        assert!(top[1].path.length() > top[2].path.length());
        // top_k respects config k = 2.
        assert_eq!(c.top_k().len(), 2);
    }

    #[test]
    fn comm_accounting_tracks_both_directions() {
        let mut c = Coordinator::new(Config::paper_defaults());
        c.submit(state(1, (0.0, 0.0), (50.0, 0.0), 0, 9));
        c.submit(state(2, (0.0, 90.0), (50.0, 90.0), 0, 9));
        let responses = c.process_epoch(Timestamp(10));
        // Uplink is counted on arrival; the downlink is one reply per
        // processed state, so it is `states_processed`.
        assert_eq!(c.comm_stats().uplink_msgs, 2);
        assert_eq!(c.processing_stats().states_processed, responses.len() as u64);
    }

    #[test]
    fn processing_stats_accumulate() {
        let mut c = Coordinator::new(Config::paper_defaults());
        c.submit(state(1, (0.0, 0.0), (50.0, 0.0), 0, 9));
        let _ = c.process_epoch(Timestamp(10));
        c.submit(state(1, (50.0, 0.0), (100.0, 0.0), 9, 19));
        let _ = c.process_epoch(Timestamp(20));
        let p = c.processing_stats();
        assert_eq!(p.epochs, 2);
        assert_eq!(p.states_processed, 2);
        assert_eq!(p.case1 + p.case2 + p.case3, 2);
    }

    /// `submit_batch` must be observationally identical to a loop of
    /// `submit` calls — same responses, same comm accounting, same
    /// state.
    #[test]
    fn submit_batch_matches_individual_submits() {
        let mk_states = || {
            (0..30u64).map(|obj| {
                let x = (obj % 6) as f64 * 500.0;
                state(obj, (x, 0.0), (x + 50.0, (obj % 3) as f64 * 10.0), 0, 9)
            })
        };
        let mut a = Coordinator::new(Config::paper_defaults());
        for s in mk_states() {
            a.submit(s);
        }
        let mut b = Coordinator::new(Config::paper_defaults());
        b.submit_batch(mk_states());
        assert_eq!(a.pending_len(), b.pending_len());

        let ra: Vec<(u64, u64)> = a
            .process_epoch(Timestamp(10))
            .iter()
            .map(|r| (r.object.0, r.endpoint.t.raw()))
            .collect();
        let rb: Vec<(u64, u64)> = b
            .process_epoch(Timestamp(10))
            .iter()
            .map(|r| (r.object.0, r.endpoint.t.raw()))
            .collect();
        assert_eq!(ra, rb);
        assert_eq!(a.comm_stats().uplink_msgs, b.comm_stats().uplink_msgs);
        assert_eq!(a.index_size(), b.index_size());
        assert_eq!(a.top_k_score().to_bits(), b.top_k_score().to_bits());
        a.check_consistency().unwrap();
        b.check_consistency().unwrap();
    }

    /// Steady-state epochs must not leak state through the recycled
    /// buffers: many epochs over the same coordinator keep producing
    /// consistent answers (and the oracle check inside
    /// `check_consistency` pins incremental top-k == full sort).
    #[test]
    fn recycled_epoch_buffers_stay_clean_over_many_epochs() {
        let mut c = Coordinator::new(Config::paper_defaults());
        for epoch in 1..=20u64 {
            let now = Timestamp(epoch * 10);
            for obj in 0..25u64 {
                let x = (obj % 5) as f64 * 600.0;
                let y = ((obj + epoch) % 4) as f64 * 300.0;
                c.submit_batch(std::iter::once(state(
                    obj,
                    (x, y),
                    (x + 40.0, y),
                    now.raw() - 10,
                    now.raw() - 1,
                )));
            }
            let responses = c.process_epoch(now);
            assert_eq!(responses.len(), 25);
            assert_eq!(c.pending_len(), 0);
            c.check_consistency().unwrap();
        }
        assert!(c.hot_count() > 0);
    }

    /// Checkpoint mid-run, rebuild from the bytes, and continue: every
    /// observable — responses, top-k bits, stats, consistency — must
    /// match the uninterrupted coordinator exactly, including a
    /// checkpoint taken with a *pending* (undrained) batch.
    #[test]
    fn checkpoint_roundtrip_continues_bit_for_bit() {
        let config = Config::builder().k(5).build().unwrap();
        let mut live = Coordinator::new(config);
        let mut s = 7u64;
        let mut rand = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut feed = |c: &mut Coordinator, epoch: u64| {
            let now = Timestamp(epoch * 10);
            for i in 0..30u64 {
                let x = ((rand() % 8) * 400) as f64;
                let y = ((rand() % 4) * 300) as f64;
                c.submit(state(i, (x, y), (x + 50.0, y), now.raw() - 10, now.raw() - 1));
            }
            now
        };
        for epoch in 1..=6u64 {
            let now = feed(&mut live, epoch);
            let _ = live.process_epoch(now);
        }
        // Leave a half-submitted batch pending before checkpointing.
        live.submit(state(99, (0.0, 0.0), (50.0, 0.0), 60, 65));
        let image = through_bytes(&live);
        let mut restored = Coordinator::from_image(config, image.image()).expect("restore failed");
        assert_eq!(restored.pending_len(), live.pending_len());
        restored.check_consistency().unwrap();

        // Both must now evolve identically. Reuse one RNG stream so
        // both sides see the same future workload.
        let mut s2 = 1234u64;
        for epoch in 7..=12u64 {
            let mut batch = Vec::new();
            for i in 0..25u64 {
                s2 = s2.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = s2 >> 33;
                let x = ((r % 8) * 400) as f64;
                let y = ((r % 4) * 300) as f64;
                batch.push(state(i, (x, y), (x + 50.0, y), epoch * 10 - 10, epoch * 10 - 1));
            }
            let now = Timestamp(epoch * 10);
            live.submit_batch(batch.iter().copied());
            restored.submit_batch(batch.iter().copied());
            let ra: Vec<(u64, u64, u64)> = live
                .process_epoch(now)
                .iter()
                .map(|r| (r.object.0, r.endpoint.p.x.to_bits(), r.endpoint.t.raw()))
                .collect();
            let rb: Vec<(u64, u64, u64)> = restored
                .process_epoch(now)
                .iter()
                .map(|r| (r.object.0, r.endpoint.p.x.to_bits(), r.endpoint.t.raw()))
                .collect();
            assert_eq!(ra, rb, "responses diverged at epoch {epoch}");
            assert_eq!(
                live.top_k_score().to_bits(),
                restored.top_k_score().to_bits(),
                "scores diverged at epoch {epoch}"
            );
        }
        assert_eq!(live.comm_stats(), restored.comm_stats());
        assert_eq!(live.index_size(), restored.index_size());
        live.check_consistency().unwrap();
        restored.check_consistency().unwrap();

        // Double restore from the same image is idempotent.
        let again = Coordinator::from_image(config, image.image()).unwrap();
        assert_eq!(Checkpoint::new(again.image()).as_bytes(), image.as_bytes());
    }

    #[test]
    fn restore_rejects_wrong_config_and_foreign_bytes() {
        let config = Config::paper_defaults();
        let image = Coordinator::new(config).image();
        for other in [
            Config::builder().k(3).build().unwrap(),
            Config::builder().vertex_grain(1e-2).build().unwrap(),
        ] {
            assert!(matches!(
                Coordinator::from_image(other, &image),
                Err(CheckpointError::ConfigMismatch(_))
            ));
        }
        let bytes = Checkpoint::new(image).as_bytes()[8..].to_vec();
        assert!(Checkpoint::from_bytes(bytes).is_err());
    }

    /// An image taken without the admission switches does not restore
    /// into a coordinator that sets one, nor the other way round: a
    /// restore would otherwise cap or degrade epochs the run never did.
    #[test]
    fn restore_refuses_switches_the_config_does_not_set() {
        let degraded = Config::builder().degrade_threshold(1).build().unwrap();
        let capped = Config::builder().admission_cap(30).build().unwrap();
        let configs = [Config::paper_defaults(), degraded, capped];
        for (i, taken) in configs.iter().enumerate() {
            let image = Coordinator::new(*taken).image();
            for (j, run) in configs.iter().enumerate() {
                let result = Coordinator::from_image(*run, &image);
                if i == j {
                    result.unwrap();
                } else {
                    assert!(matches!(result, Err(CheckpointError::ConfigMismatch(_))), "{i} {j}");
                }
            }
        }
    }

    /// A small image to forge: three paths, one of them crossed twice.
    fn forgeable() -> (Config, CoordinatorImage) {
        let config = Config::paper_defaults();
        let mut c = Coordinator::new(config);
        c.submit(state(1, (0.0, 0.0), (50.0, 0.0), 0, 8));
        c.submit(state(2, (0.0, 0.0), (50.0, 0.0), 0, 9));
        c.submit(state(3, (0.0, 300.0), (50.0, 300.0), 0, 7));
        c.submit(state(4, (0.0, 600.0), (50.0, 600.0), 0, 6));
        let _ = c.process_epoch(Timestamp(10));
        assert_eq!(c.index_size(), 3);
        (config, c.image())
    }

    /// Restores a forgery of the [`forgeable`] image, which must fail as
    /// `Malformed` (and the unforged image must restore).
    fn assert_forgery_malformed(forge: impl FnOnce(&mut Vec<MotionPath>, &mut Vec<ExpiryEvent>)) {
        let (config, mut image) = forgeable();
        Coordinator::from_image(config, &image).unwrap();
        forge(&mut image.paths, &mut image.events);
        let result = Coordinator::from_image(config, &image);
        assert!(matches!(result, Err(CheckpointError::Malformed(_))), "{result:?}");
    }

    #[test]
    fn restore_rejects_an_event_naming_no_stored_path() {
        assert_forgery_malformed(|_, events| {
            let last = *events.last().unwrap();
            events.push(ExpiryEvent { expiry: last.expiry, id: PathId(last.id.0 + 100) });
        });
    }

    #[test]
    fn restore_rejects_a_stored_path_without_an_event() {
        assert_forgery_malformed(|paths, events| events.retain(|e| e.id != paths[1].id));
    }

    #[test]
    fn restore_rejects_paths_not_ascending_by_id() {
        assert_forgery_malformed(|paths, _| paths.swap(0, 2));
    }

    #[test]
    fn restore_rejects_a_path_id_at_or_past_the_counter() {
        assert_forgery_malformed(|paths, events| {
            let next = PathId(paths.last().unwrap().id.0 + 1);
            paths.push(MotionPath::new(next, Point::new(0.0, 900.0), Point::new(50.0, 900.0)));
            let expiry = events.last().unwrap().expiry;
            events.push(ExpiryEvent { expiry, id: next });
        });
    }

    #[test]
    fn restore_rejects_two_paths_with_one_geometry() {
        // Insert dedups by quantized geometry; a forged twin would split
        // one corridor's crossings across two paths.
        assert_forgery_malformed(|paths, _| paths[2].seg = paths[0].seg);
    }

    /// A path gathered when a state arrives but expired before its
    /// boundary is no available vertex: it neither ranks nor panics,
    /// and the state mints its own vertex.
    #[test]
    fn a_gathered_vertex_that_expires_before_the_boundary_does_not_rank() {
        let mut c = Coordinator::new(Config::paper_defaults());
        c.submit(state(1, (0.0, 0.0), (50.0, 0.0), 0, 8));
        let _ = c.process_epoch(Timestamp(10));
        let stored = c.top_k()[0].path;
        assert_eq!(stored.end(), Point::new(50.0, 0.0));
        // Its FSA holds the stored vertex when it arrives...
        c.submit(state(2, (0.0, 300.0), (51.0, 1.0), 100, 105));
        // ...and the vertex's only path expires (te 8 + W 100) before
        // the boundary.
        c.advance_time(Timestamp(108));
        assert!(c.path(stored.id).is_none());
        let responses = c.process_epoch(Timestamp(110));
        assert_eq!(responses[0].endpoint.p, Point::new(51.0, 1.0), "the FSA's own centroid");
        let p = c.processing_stats();
        assert_eq!((p.case2, p.case3), (0, 2));
        assert_eq!(c.index_size(), 1);
        c.check_consistency().unwrap();
    }

    /// A path an earlier deferred state creates in the same Phase B
    /// joins a later state's converging sum: here it breaks what would
    /// otherwise be a tie the other vertex wins.
    #[test]
    fn a_path_created_earlier_in_phase_b_joins_the_converging_sum() {
        let at =
            |obj: u64, start: (f64, f64), lo: (f64, f64), hi: (f64, f64), te: u64| ClientState {
                object: ObjectId(obj),
                start: Point::new(start.0, start.1),
                ts: Timestamp(te - 5),
                fsa: Rect::new(Point::new(lo.0, lo.1), Point::new(hi.0, hi.1)),
                te: Timestamp(te),
            };
        let mut c = Coordinator::new(Config::paper_defaults());
        // v = (60, 0) crossed once, w = (56, 0) twice, from far away.
        c.submit(at(1, (60.0, 500.0), (59.0, -1.0), (61.0, 1.0), 8));
        c.submit(at(2, (56.0, 900.0), (55.0, -1.0), (57.0, 1.0), 8));
        c.submit(at(3, (56.0, 900.0), (55.0, -1.0), (57.0, 1.0), 8));
        let _ = c.process_epoch(Timestamp(10));
        assert_eq!(c.index_size(), 2);
        // (The second crossing of w was Case 2, a dedup hit.)
        assert_eq!(c.processing_stats().case2, 1);
        // A's FSA holds v only, B's both. A joins v (rank 1 + depth 2);
        // then B ranks v at 1 + 1 (A's new path) + depth 2 = 4 against
        // w's 2 + 1 = 3. Without A's path, v's 3 would tie w's, and the
        // smaller x, w, would win.
        c.submit(at(4, (-300.0, 0.0), (58.0, -2.0), (62.0, 2.0), 18));
        c.submit(at(5, (-300.0, 50.0), (55.0, -2.0), (61.0, 2.0), 18));
        let responses = c.process_epoch(Timestamp(20));
        let endpoints: Vec<Point> = responses.iter().map(|r| r.endpoint.p).collect();
        assert_eq!(endpoints, vec![Point::new(60.0, 0.0); 2]);
        assert_eq!(c.processing_stats().case2, 1 + 2);
        c.check_consistency().unwrap();
    }

    #[test]
    fn admission_cap_accounts_every_ejected_state() {
        let config = Config::builder().admission_cap(10).build().unwrap();
        let mut c = Coordinator::new(config);
        // 3 clients x 5 states = 15 pending, 5 over the cap.
        for obj in 0..3u64 {
            for i in 0..5u64 {
                let x = (obj * 600) as f64;
                c.submit(state(obj, (x, 0.0), (x + 50.0, i as f64 * 40.0), 0, 1 + i));
            }
        }
        let responses = c.process_epoch(Timestamp(10));
        c.check_consistency().unwrap();
        assert_eq!(responses.len(), 10, "only admitted states are answered");
        assert_eq!(c.admission_stats().ejected, 5);
        assert_eq!(c.processing_stats().states_processed, 10);
    }

    /// The queue cap keys each client by its newest batch state's `te`
    /// and ejects the stalest key first, ties toward the smaller id —
    /// whatever the submission order and the client's older states.
    #[test]
    fn eject_slowest_removes_the_client_with_the_stalest_newest_state() {
        let survivors = |cap: usize, batch: &[(u64, u64)]| {
            let config = Config::builder().admission_cap(cap).build().unwrap();
            let mut c = Coordinator::new(config);
            for (i, &(obj, te)) in batch.iter().enumerate() {
                let x = (obj * 600) as f64;
                c.submit(state(obj, (x, 0.0), (x + 50.0, i as f64 * 40.0), 0, te));
            }
            let mut kept: Vec<u64> =
                c.process_epoch(Timestamp(10)).iter().map(|r| r.object.0).collect();
            c.check_consistency().unwrap();
            assert_eq!(c.admission_stats().ejected as usize, batch.len() - kept.len());
            kept.sort_unstable();
            kept.dedup();
            kept
        };
        // Client 9 submits first and newest; client 8's oldest state is
        // the oldest in the batch, but its newest (te 8) beats client
        // 7's newest (te 4), so 7 goes.
        let batch = [(9, 9), (8, 1), (7, 2), (9, 9), (7, 3), (8, 8), (7, 4), (9, 9), (8, 1)];
        assert_eq!(survivors(6, &batch), vec![8, 9]);
        // One more round at cap 3 ejects 8 next.
        assert_eq!(survivors(3, &batch), vec![9]);
        // Equal newest `te`: the smaller id goes first.
        let tied = [(5, 6), (4, 6), (5, 2), (4, 6), (6, 7)];
        assert_eq!(survivors(3, &tied), vec![5, 6]);
    }

    #[test]
    fn overload_degrades_phase_b_and_counts_epochs() {
        let mut c = Coordinator::new(Config::builder().degrade_threshold(5).build().unwrap());
        for obj in 0..10u64 {
            let x = (obj % 5) as f64 * 600.0;
            c.submit(state(obj, (x, 0.0), (x + 50.0, 0.0), 0, 9));
        }
        let over = c.process_epoch(Timestamp(10)).len();
        // A under-threshold epoch runs the full policy again.
        c.submit(state(0, (0.0, 0.0), (50.0, 0.0), 10, 19));
        let _ = c.process_epoch(Timestamp(20));
        c.check_consistency().unwrap();
        assert_eq!(over, 10, "degraded epochs still answer every state");
        assert_eq!(
            c.admission_stats().degraded_epochs,
            1,
            "exactly the over-threshold epoch degraded"
        );
    }

    #[test]
    fn checkpoint_roundtrip_with_admission() {
        let config =
            Config::builder().k(5).admission_cap(20).degrade_threshold(18).build().unwrap();
        let mut live = Coordinator::new(config);
        let mut s = 99u64;
        let mut rand = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut feed = |c: &mut Coordinator, epoch: u64, spread: u64| {
            let now = epoch * 10;
            for _ in 0..25u64 {
                let obj = rand() % spread;
                let x = ((rand() % 8) * 400) as f64;
                let y = ((rand() % 4) * 300) as f64;
                c.submit(state(obj, (x, y), (x + 50.0, y), now - 10, now - 1));
            }
            Timestamp(now)
        };
        for epoch in 1..=6u64 {
            let spread = if epoch <= 3 { 12 } else { 6 };
            let now = feed(&mut live, epoch, spread);
            let _ = live.process_epoch(now);
        }
        let stats = live.admission_stats();
        assert!(stats.ejected > 0, "cap must have fired");
        assert!(stats.degraded_epochs > 0, "overload must have degraded");

        let image = through_bytes(&live);
        let mut restored = Coordinator::from_image(config, image.image()).expect("restore failed");
        restored.check_consistency().unwrap();
        assert_eq!(restored.admission_stats(), live.admission_stats());
        assert_eq!(
            Checkpoint::new(restored.image()).as_bytes(),
            image.as_bytes(),
            "checkpoint of restore must be byte-identical"
        );

        // Both must continue in lock-step, admission counters included.
        let mut s2 = 4242u64;
        for epoch in 7..=12u64 {
            let mut batch = Vec::new();
            for _ in 0..25u64 {
                s2 = s2.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = s2 >> 33;
                let x = ((r % 8) * 400) as f64;
                let y = ((r % 4) * 300) as f64;
                batch.push(state(r % 12, (x, y), (x + 50.0, y), epoch * 10 - 10, epoch * 10 - 1));
            }
            let now = Timestamp(epoch * 10);
            live.submit_batch(batch.iter().copied());
            restored.submit_batch(batch.iter().copied());
            let ra: Vec<(u64, u64)> = live
                .process_epoch(now)
                .iter()
                .map(|r| (r.object.0, r.endpoint.p.x.to_bits()))
                .collect();
            let rb: Vec<(u64, u64)> = restored
                .process_epoch(now)
                .iter()
                .map(|r| (r.object.0, r.endpoint.p.x.to_bits()))
                .collect();
            assert_eq!(ra, rb, "responses diverged at epoch {epoch}");
            assert_eq!(live.admission_stats(), restored.admission_stats());
        }
        live.check_consistency().unwrap();
        restored.check_consistency().unwrap();
    }
}
