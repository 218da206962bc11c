//! The system under test: every call the benchmark makes into the
//! repository's crates goes through this file, and only through the
//! surfaces ROADMAP intends to keep (`Config::builder()`,
//! `EngineKind::Sync.build`, `wire::UnixClient`, and the `hotpathd`
//! flags `--socket` / `--tick-ms`). An audit PR that deletes code has
//! one file to repair here, and the workloads, checks and metrics in
//! the other modules keep their meaning.

use std::path::Path;
use std::process::{Command, Stdio};

use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::geometry::{Point, Rect, Segment, TimePoint};
use hotpath_core::raytrace::RayTraceFilter;
use hotpath_core::snapshot::SnapshotHandle;
use hotpath_core::strategy::{FsaCache, FsaSet};
use hotpath_netsim::mobility::{Population, PopulationParams};
use hotpath_netsim::network::{generate, NetworkParams, RoadNetwork};
use hotpath_netsim::scenario::{self, Scenario, ScenarioParams};
use hotpath_serve::server::{Hotpathd, ServerHandle};

pub use hotpath_core::coordinator::{EndpointResponse, HotSnapshot};
pub use hotpath_core::raytrace::ClientState;
pub use hotpath_core::time::Timestamp;
pub use hotpath_core::ObjectId;
pub use hotpath_netsim::mobility::Measurement;
pub use hotpath_serve::wire::{SnapshotWire, UnixClient, MAX_BATCH};

/// The configuration a user gets without asking for anything: paper
/// Table 2 (eps 10, W 100, epoch 10, k 10), one shard, one Phase-B
/// worker. `hotpathd` with no flags runs the same values.
pub fn default_config() -> Config {
    Config::builder().build().expect("the default configuration validates")
}

/// A fresh engine of the default kind over [`default_config`].
pub fn new_engine() -> Box<dyn Engine> {
    EngineKind::Sync.build(Coordinator::new(default_config()))
}

/// The engine surface the workloads drive.
pub type BoxEngine = Box<dyn Engine>;

/// Window length `W` and epoch length `Lambda` of the default
/// configuration, in ticks.
pub fn window_and_epoch() -> (u64, u64) {
    let c = default_config();
    (c.window.len, c.epochs.lambda)
}

/// What an in-process reader does to get the current result: take the
/// published snapshot and look at its top-k.
#[inline]
pub fn read_top_len(engine: &mut BoxEngine) -> usize {
    engine.snapshot().top_k.len()
}

/// Gauges only the finished coordinator exposes.
pub struct FinalGauges {
    pub index_paths: usize,
    pub hot_paths: usize,
    pub pending_expiry_events: usize,
}

/// Tears the engine down, audits the final coordinator, and returns its
/// gauges; `Err` carries the consistency violation.
pub fn finish_and_audit(engine: BoxEngine) -> Result<FinalGauges, String> {
    let c = engine.finish();
    c.check_consistency()?;
    Ok(FinalGauges {
        index_paths: c.index_size(),
        hot_paths: c.hot_count(),
        pending_expiry_events: c.pending_expiry_events(),
    })
}

/// The identity the index gives a path: its quantized end vertices.
pub type PathKey = (i64, i64, i64, i64);

/// The key of the path from `start` to `end` under the default vertex
/// grain — two crossings share a path exactly when their keys agree.
pub fn path_key(start: &Point, end: &Point, grain: f64) -> PathKey {
    let (sx, sy) = start.quantize(grain);
    let (ex, ey) = end.quantize(grain);
    (sx, sy, ex, ey)
}

/// Which measurement source a pipeline workload walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Paper Table 2 on the Athens network: agility 0.1, displacement
    /// 10 m, error 1 m, weighted link choice.
    Uniform,
    /// `scenario::build("flash_crowd")`: the whole fleet stampedes into
    /// one hub for the middle 40 % of the run.
    FlashCrowd,
}

/// A seeded generator of per-tick measurement batches.
// One `Source` exists per rep; boxing the larger variant buys nothing.
#[allow(clippy::large_enum_variant)]
pub enum Source {
    Uniform { net: RoadNetwork, pop: Population },
    Scenario(Box<dyn Scenario>),
}

impl Source {
    /// Builds the source for `n` objects; `ticks` is the run length the
    /// scenario schedules its surge against.
    pub fn build(kind: SourceKind, n: usize, ticks: u64, seed: u64) -> Source {
        match kind {
            SourceKind::Uniform => {
                let net = generate(NetworkParams::athens());
                let pop = Population::new(&net, PopulationParams::paper_defaults(n, seed));
                Source::Uniform { net, pop }
            }
            SourceKind::FlashCrowd => {
                let params =
                    ScenarioParams { n, seed, duration: ticks, network: NetworkParams::athens() };
                Source::Scenario(
                    scenario::build("flash_crowd", &params).expect("flash_crowd is registered"),
                )
            }
        }
    }

    /// Advances one tick and fills `out` with its measurements.
    pub fn tick(&mut self, t: Timestamp, out: &mut Vec<Measurement>) {
        match self {
            Source::Uniform { net, pop } => pop.tick(net, t, out),
            Source::Scenario(s) => s.tick(t, out),
        }
    }

    fn seed_timepoint(&self, obj: ObjectId, t: Timestamp) -> TimePoint {
        match self {
            Source::Uniform { net, pop } => pop.seed_timepoint(net, obj, t),
            Source::Scenario(s) => s.seed_timepoint(obj, t),
        }
    }
}

/// One RayTrace client filter per object.
pub struct Fleet {
    filters: Vec<RayTraceFilter>,
}

impl Fleet {
    /// Seeds every object's filter at its exact position at time zero.
    pub fn new(source: &Source, n: usize, config: &Config) -> Fleet {
        let eps = config.tolerance.eps();
        let filters = (0..n as u64)
            .map(|i| {
                let obj = ObjectId(i);
                RayTraceFilter::new(obj, source.seed_timepoint(obj, Timestamp(0)), eps)
            })
            .collect();
        Fleet { filters }
    }

    /// Feeds one measurement to its object's filter.
    #[inline]
    pub fn observe(&mut self, m: &Measurement) -> Option<ClientState> {
        self.filters[m.object.0 as usize].observe(m.observed)
    }

    /// Delivers one endpoint response; a returned state is the
    /// boundary resubmission that seeds the next epoch.
    #[inline]
    pub fn receive(&mut self, r: &EndpointResponse) -> Option<ClientState> {
        self.filters[r.object.0 as usize].receive_endpoint(r.endpoint)
    }

    /// Filters still waiting for an endpoint (must be zero right after
    /// a boundary's responses are delivered and nothing re-reported).
    pub fn waiting(&self) -> usize {
        self.filters.iter().filter(|f| f.is_waiting()).count()
    }
}

/// True when `r` answers `s` as the protocol demands: same object, the
/// state's exit time, and an endpoint inside the state's FSA.
pub fn answers(r: &EndpointResponse, s: &ClientState) -> bool {
    r.object == s.object && r.endpoint.t == s.te && s.fsa.contains(&r.endpoint.p)
}

/// Index of the object a response is addressed to.
pub fn addressee(r: &EndpointResponse) -> usize {
    r.object.0 as usize
}

/// Index of the object that reported a state.
pub fn reporter(s: &ClientState) -> usize {
    s.object.0 as usize
}

/// The crossing a response commits: the path from the state's start
/// vertex to the chosen endpoint, exited at the state's `te`.
pub fn crossing(s: &ClientState, r: &EndpointResponse, grain: f64) -> (PathKey, u64) {
    (path_key(&s.start, &r.endpoint.p, grain), s.te.0)
}

/// One published top-k entry in the benchmark's own terms.
#[derive(Clone, Debug, PartialEq)]
pub struct TopEntry {
    pub id: u64,
    pub key: PathKey,
    pub hotness: u32,
    pub length: f64,
    pub score: f64,
}

/// A published snapshot in the benchmark's own terms: what a reader
/// gets, whether through `Engine::snapshot` or an `OP_QUERY` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Published {
    pub epoch: u64,
    pub timestamp: u64,
    pub index_size: u64,
    pub hot_count: u64,
    pub top_k_score: f64,
    pub top: Vec<TopEntry>,
}

impl Published {
    pub fn of(snap: &HotSnapshot) -> Published {
        Published::of_wire(&SnapshotWire::from_snapshot(snap))
    }

    pub fn of_wire(w: &SnapshotWire) -> Published {
        let grain = default_config().vertex_grain;
        Published {
            epoch: w.epoch,
            timestamp: w.timestamp.0,
            index_size: w.index_size,
            hot_count: w.hot_count,
            top_k_score: w.top_k_score,
            top: w
                .top
                .iter()
                .map(|e| {
                    let (a, b) = (Point::new(e.a.0, e.a.1), Point::new(e.b.0, e.b.1));
                    TopEntry {
                        id: e.id,
                        key: path_key(&a, &b, grain),
                        hotness: e.hotness,
                        length: Segment::new(a, b).length(),
                        score: e.score,
                    }
                })
                .collect(),
        }
    }
}

/// The coordinator's own counters as of a publish (cumulative except
/// `phase_b_deferred`, which is the published epoch's).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub uplink_msgs: u64,
    pub states_processed: u64,
    pub strategy_s: f64,
    pub expiry_s: f64,
    pub publish_s: f64,
    pub case1: u64,
    pub case2: u64,
    pub case3: u64,
    pub phase_b_deferred: u64,
}

pub fn counters(snap: &HotSnapshot) -> Counters {
    let p = &snap.processing;
    Counters {
        uplink_msgs: snap.comm.uplink_msgs,
        states_processed: p.states_processed,
        strategy_s: p.strategy_time.as_secs_f64(),
        expiry_s: p.expiry_time.as_secs_f64(),
        publish_s: p.publish_time.as_secs_f64(),
        case1: p.case1,
        case2: p.case2,
        case3: p.case3,
        phase_b_deferred: snap.phase_b.deferred as u64,
    }
}

/// Checkpoint capture (`checkpoint()` plus the `as_bytes` copy a writer
/// to disk or a replica would make).
pub fn checkpoint_bytes(engine: &mut BoxEngine) -> Vec<u8> {
    engine.checkpoint().as_bytes().to_vec()
}

/// Validates a byte image (magic, version, every CRC).
pub fn checkpoint_decode(bytes: Vec<u8>) -> Result<Checkpoint, String> {
    Checkpoint::from_bytes(bytes).map_err(|e| e.to_string())
}

/// Restores `image` into a fresh default engine.
pub fn restore_fresh(image: &Checkpoint) -> Result<BoxEngine, String> {
    let mut engine = new_engine();
    engine.restore(image).map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Shadow of the coordinator's per-epoch FSA-overlap work, so the traced
/// pass can price a from-scratch build against the incremental delta on
/// the very batches the run produced.
pub struct FsaShadow {
    cell: f64,
    cache: FsaCache,
}

impl FsaShadow {
    pub fn new(config: &Config) -> FsaShadow {
        // The coordinator rasterizes FSAs at 2 eps.
        let cell = 2.0 * config.tolerance.eps();
        FsaShadow { cell, cache: FsaCache::new(cell) }
    }

    /// `FsaSet::build` over the batch's rectangles; returns the set size.
    pub fn build(&self, batch: &[ClientState]) -> usize {
        let rects: Vec<Rect> = batch.iter().map(|s| s.fsa).collect();
        FsaSet::build(rects, self.cell).len()
    }

    /// `FsaCache::update` with the batch; returns the set size.
    pub fn delta(&mut self, batch: &[ClientState]) -> usize {
        self.cache.update(batch.iter().map(|s| (s.object.0, s.fsa))).len()
    }
}

/// Wire codec shadows (the functions `hotpathd` runs per frame).
pub mod codec {
    use super::{ClientState, HotSnapshot, SnapshotWire};
    use hotpath_serve::wire;

    pub fn encode_state(s: &ClientState, buf: &mut Vec<u8>) {
        wire::encode_state(s, buf)
    }

    pub fn decode_state(buf: &[u8]) -> std::io::Result<ClientState> {
        wire::decode_state(buf)
    }

    pub const STATE_BYTES: usize = wire::STATE_WIRE_BYTES;

    pub fn project(snap: &HotSnapshot) -> SnapshotWire {
        SnapshotWire::from_snapshot(snap)
    }

    pub fn encode_snapshot(s: &SnapshotWire) -> Vec<u8> {
        s.encode()
    }

    pub fn decode_snapshot(buf: &[u8]) -> std::io::Result<SnapshotWire> {
        SnapshotWire::decode(buf)
    }
}

/// An in-process `Hotpathd` front door (writer thread + lock-free
/// snapshot cell) over a fresh default engine.
pub struct InProcessServer(ServerHandle);

impl InProcessServer {
    pub fn spawn() -> InProcessServer {
        InProcessServer(Hotpathd::spawn(new_engine()))
    }

    /// Registers a lock-free reader on the snapshot cell.
    pub fn reader(&self) -> CellReader {
        CellReader(self.0.reader())
    }

    pub fn submit(&self, batch: Vec<ClientState>) {
        self.0.submit_batch(batch);
    }

    /// Enqueues a clock advance (processed by the writer thread).
    pub fn advance(&self, t: u64) {
        self.0.advance(Timestamp(t));
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A `SnapshotHandle` reduced to the read the benchmark times.
pub struct CellReader(SnapshotHandle);

impl CellReader {
    /// One `SnapshotHandle::read`, returning the epoch it shows.
    #[inline]
    pub fn read_epoch(&mut self) -> u64 {
        self.0.read().epoch
    }
}

/// The daemon command line: driven mode (`--tick-ms 0`, the clients own
/// the clock) on a unix socket. Everything else is the daemon's default.
pub fn daemon_command(bin: &Path, socket: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("--tick-ms").arg("0").arg("--socket").arg(socket);
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Constructors for the unit tests of the checks.
#[cfg(test)]
pub mod testing {
    use super::*;

    /// A state of `obj` that started at `start` and ended at `te` inside
    /// the square of half-side `r` around `end`.
    pub fn state(obj: u64, start: (f64, f64), end: (f64, f64), r: f64, te: u64) -> ClientState {
        ClientState {
            object: ObjectId(obj),
            start: Point::new(start.0, start.1),
            ts: Timestamp(te.saturating_sub(5)),
            fsa: Rect::new(Point::new(end.0 - r, end.1 - r), Point::new(end.0 + r, end.1 + r)),
            te: Timestamp(te),
        }
    }

    pub fn response(obj: u64, endpoint: (f64, f64), te: u64) -> EndpointResponse {
        EndpointResponse {
            object: ObjectId(obj),
            endpoint: TimePoint::new(Point::new(endpoint.0, endpoint.1), Timestamp(te)),
            hint: None,
        }
    }
}
