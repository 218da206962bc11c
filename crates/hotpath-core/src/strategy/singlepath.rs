//! The SinglePath discovery strategy (Section 5.3, Algorithm 2).
//!
//! Per epoch, the coordinator processes the batch of reported states
//! `{<s_i, ts_i, l_i, u_i, te_i>}`. For every object it finds the hottest
//! motion path starting at `s_i` and ending inside the FSA `(l_i, u_i)`:
//!
//! * **Case 1** — an existing path qualifies: pick the hottest (with
//!   cross-object boosts) and record the crossing.
//! * **Case 2** — no path, but existing end vertices fall in the FSA:
//!   rank them by the summed hotness of their converging paths plus the
//!   FSA stabbing depth, and build a new path to the winner.
//! * **Case 3** — nothing in the FSA: mint a vertex at the centroid of
//!   the deepest FSA-overlap region inside the FSA, so co-located
//!   objects converge on a shared vertex (Example 2 of the paper).
//!
//! Candidate "hotness" values computed during selection are *ranks*; the
//! persistent hotness table only ever records actual crossings, keeping
//! sliding-window bookkeeping exact (each crossing has exactly one
//! expiry event).

use super::overlap::{FsaSet, QueryScratch};
use super::pool::WorkerPool;
use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};
use crate::hotness::Hotness;
use crate::index::{point_lt, MotionPathIndex, OutEdge, VertexGroups, VertexKey};
use crate::motion_path::PathId;
use crate::raytrace::ClientState;
use crate::time::Timestamp;
use crate::ObjectId;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Which of the three cases resolved an object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CaseKind {
    /// Case 1: an existing motion path was reused.
    ExistingPath,
    /// Case 2: a new path to an existing end vertex was created.
    ExistingVertex,
    /// Case 3: a new path to a freshly generated vertex was created.
    NewVertex,
}

/// The outcome of SinglePath for one reporting object.
#[derive(Clone, Copy, Debug)]
pub struct Selection {
    /// The reporting object.
    pub object: ObjectId,
    /// The selected (or created) motion path.
    pub path: PathId,
    /// The chosen endpoint — the object's next chain vertex.
    pub endpoint: Point,
    /// The exit timestamp of the crossing (the state's `te`).
    pub te: Timestamp,
    /// Which case applied.
    pub case: CaseKind,
    /// Whether a brand-new path was inserted.
    pub created: bool,
}

/// Tallies of case frequencies for one batch.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CaseTally {
    /// Case-1 selections.
    pub case1: u64,
    /// Case-2 selections.
    pub case2: u64,
    /// Case-3 selections.
    pub case3: u64,
}

/// How Cases 2-3 use the epoch's FSA overlaps. [`OverlapPolicy::Full`]
/// is the paper's Algorithm 2; [`OverlapPolicy::Own`] is the naive
/// ablation that ignores other objects' FSAs — each object ranks
/// vertices by converging hotness alone and mints fresh vertices at its
/// own FSA centroid. The ablation quantifies how much the Example-2
/// sharing machinery buys (see the `ablation` experiments).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlapPolicy {
    /// Algorithm 2 as published: stabbing-depth boosts and max-depth
    /// generated vertices.
    #[default]
    Full,
    /// No cross-object overlap analysis (ablation baseline).
    Own,
}

/// Read/write surface Phase B (Cases 2-3) needs from path storage.
///
/// The sequential coordinator answers it from one `(index, hotness)`
/// pair; the sharded coordinator merges the per-shard structures so the
/// global Phase B sees exactly the view a single index would present.
pub trait PathStore {
    /// Distinct end vertices inside `fsa` with their converging paths,
    /// grouped into `out` in canonical order — by `(x, y)` with ids
    /// ascending (the Case-2 query). `out` is a reusable accumulator;
    /// implementations clear it first.
    fn end_vertices_into(&self, fsa: &Rect, out: &mut VertexGroups);
    /// Current hotness of `id` (zero when unknown).
    fn hotness_of(&self, id: PathId) -> u32;
    /// The store's quantized vertex key for `p` (the grouping key
    /// `end_vertices_into` buckets by).
    fn vertex_key(&self, p: &Point) -> VertexKey;
    /// Inserts (or dedups onto) the path `start -> end`, records a
    /// crossing exiting at `te`, and returns `(id, created, endpoint)`
    /// where `endpoint` is the stored path's end vertex.
    fn commit(&mut self, start: Point, end: Point, te: Timestamp) -> (PathId, bool, Point);
}

/// The read-only slice of [`PathStore`] the parallel Phase-B *eval* pass
/// needs. `Sync` so worker threads can share one reader over the
/// pre-Phase-B index snapshot — eval never touches hotness or commits,
/// which is exactly what makes it safe to run out of order.
pub trait PathReader: Sync {
    /// Same contract as [`PathStore::end_vertices_into`].
    fn end_vertices_into(&self, fsa: &Rect, out: &mut VertexGroups);
}

/// [`PathReader`] over a single index (the sequential coordinator).
pub struct SingleReader<'a> {
    /// The motion-path index, borrowed read-only.
    pub index: &'a MotionPathIndex,
}

impl PathReader for SingleReader<'_> {
    fn end_vertices_into(&self, fsa: &Rect, out: &mut VertexGroups) {
        self.index.end_vertices_into(fsa, out);
    }
}

/// The sequential store: one index, one hotness table.
pub struct SingleStore<'a> {
    /// The motion-path index.
    pub index: &'a mut MotionPathIndex,
    /// The hotness table.
    pub hotness: &'a mut Hotness,
}

impl PathStore for SingleStore<'_> {
    fn end_vertices_into(&self, fsa: &Rect, out: &mut VertexGroups) {
        self.index.end_vertices_into(fsa, out);
    }

    fn hotness_of(&self, id: PathId) -> u32 {
        self.hotness.get(id)
    }

    fn vertex_key(&self, p: &Point) -> VertexKey {
        self.index.vertex_key(p)
    }

    fn commit(&mut self, start: Point, end: Point, te: Timestamp) -> (PathId, bool, Point) {
        let (edge, created) = self.index.insert_edge(start, end);
        self.hotness.record_crossing(edge.id, te, edge.len);
        (edge.id, created, edge.end)
    }
}

/// Reusable Phase-B scratch, one per thread that runs Cases 2-3: the
/// Case-2 vertex-group accumulator and the buffers of the max-depth
/// overlap query, kept alive across deferred states and epochs. Held by
/// [`ScratchArena`] (single-shard path), the coordinator's front-side
/// scratch (sharded path) and each parallel eval worker.
#[derive(Debug, Default)]
pub struct PhaseBScratch {
    groups: VertexGroups,
    overlap: QueryScratch,
}

/// Reusable per-shard scratch for the epoch hot loop: every buffer the
/// SinglePath phases need, kept alive across epochs so the steady state
/// allocates nothing. Candidate paths live in a flat CSR layout instead
/// of one `Vec` per state; hash maps are cleared, never dropped; and the
/// Phase-A output vectors are recycled through
/// [`ScratchArena::recycle`] after the coordinator merges them.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Flattened candidate paths (CSR values), each with its end vertex
    /// and length so selection never goes back to the index.
    cp: Vec<OutEdge>,
    /// CSR offsets: the candidate set of `seqs[k]` is
    /// `cp[cp_off[k]..cp_off[k + 1]]`.
    cp_off: Vec<u32>,
    /// Cross-object occurrence counts, cleared each epoch.
    occurrences: FxHashMap<PathId, u32>,
    /// Scratch of the sequential Phase B.
    phase_b: PhaseBScratch,
    /// Recycled Phase-A selection buffer.
    selections_pool: Vec<(u32, Selection)>,
    /// Recycled Phase-A deferred buffer.
    deferred_pool: Vec<u32>,
    /// Recycled identity `seqs` slice for the sequential batch path.
    seqs_pool: Vec<u32>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a drained [`PhaseAOutput`]'s buffers to the pool so the
    /// next epoch reuses their capacity.
    pub fn recycle(&mut self, mut out: PhaseAOutput) {
        out.selections.clear();
        out.deferred.clear();
        self.selections_pool = out.selections;
        self.deferred_pool = out.deferred;
    }
}

/// The outcome of [`phase_a`] over one shard's slice of the batch.
pub struct PhaseAOutput {
    /// Case-1 selections tagged with their global batch position.
    pub selections: Vec<(u32, Selection)>,
    /// Global batch positions deferred to Phase B (empty candidate set).
    pub deferred: Vec<u32>,
    /// Case tallies (only `case1` can be non-zero here).
    pub tally: CaseTally,
}

/// Phase A — Case 1 (Alg. 2 lines 4-7, 13-20) over the states at batch
/// positions `seqs` (in order) against one shard's index and hotness,
/// using the shard's [`ScratchArena`] for every intermediate buffer.
///
/// Sharding by start-vertex cell keeps Phase A exact: a state's
/// candidate paths all start at its own vertex, so candidate sets,
/// cross-object boosts, and intra-batch crossing visibility never span
/// shards — running each shard's slice independently produces the same
/// selections the sequential pass would.
pub fn phase_a(
    states: &[ClientState],
    seqs: &[u32],
    index: &mut MotionPathIndex,
    hotness: &mut Hotness,
    scratch: &mut ScratchArena,
) -> PhaseAOutput {
    // Candidate-path generation (Alg. 2 lines 4-7) into the CSR scratch.
    scratch.cp.clear();
    scratch.cp_off.clear();
    scratch.cp_off.reserve(seqs.len() + 1);
    scratch.cp_off.push(0);
    for &i in seqs {
        let st = &states[i as usize];
        index.paths_from_into_buf(&st.start, &st.fsa, &mut scratch.cp);
        scratch.cp_off.push(scratch.cp.len() as u32);
    }

    // Cross-object boost (lines 13-15): a path appearing in several CP
    // sets gains one rank unit per additional set. Candidate paths start
    // at the reporting object's vertex, so every occurrence of an id is
    // in this slice — the count equals the whole batch's.
    scratch.occurrences.clear();
    for e in &scratch.cp {
        *scratch.occurrences.entry(e.id).or_insert(0) += 1;
    }
    let occurrences = &scratch.occurrences;

    let mut selections = std::mem::take(&mut scratch.selections_pool);
    selections.reserve(seqs.len());
    let mut out = PhaseAOutput {
        selections,
        deferred: std::mem::take(&mut scratch.deferred_pool),
        tally: CaseTally::default(),
    };

    // Case 1 (lines 16-20). Processing order is batch order; each
    // recorded crossing is immediately visible to later selections.
    for (k, &i) in seqs.iter().enumerate() {
        let st = &states[i as usize];
        let cp = &scratch.cp[scratch.cp_off[k] as usize..scratch.cp_off[k + 1] as usize];
        // Each candidate's rank — hotness + 1 + boost, the boost being
        // its occurrences beyond this one — is computed once; ties go to
        // the longer path, then the lower id.
        let ranked = cp.iter().map(|e| (hotness.get(e.id) + occurrences[&e.id], e));
        let best = ranked.max_by(|(ra, a), (rb, b)| {
            ra.cmp(rb).then_with(|| a.len.total_cmp(&b.len)).then_with(|| b.id.cmp(&a.id))
        });
        let Some((_, chosen)) = best else {
            out.deferred.push(i);
            continue;
        };
        hotness.record_crossing(chosen.id, st.te, chosen.len);
        out.tally.case1 += 1;
        out.selections.push((
            i,
            Selection {
                object: st.object,
                path: chosen.id,
                endpoint: chosen.end,
                te: st.te,
                case: CaseKind::ExistingPath,
                created: false,
            },
        ));
    }
    out
}

/// Phase B — Cases 2 and 3 (Alg. 2 lines 21-37) over the deferred batch
/// positions, in order, against a [`PathStore`]. Sequential, so paths
/// minted for earlier objects are visible to later ones ("newly
/// generated motion paths will also provide additional vertices").
/// `scratch` holds the buffers the Case-2 and max-depth queries refill
/// per deferred state.
#[allow(clippy::too_many_arguments)]
pub fn phase_b<S: PathStore>(
    states: &[ClientState],
    deferred: &[u32],
    store: &mut S,
    fsas: &FsaSet,
    policy: OverlapPolicy,
    tally: &mut CaseTally,
    selections: &mut Vec<Selection>,
    scratch: &mut PhaseBScratch,
) {
    let PhaseBScratch { groups, overlap } = scratch;
    for &i in deferred {
        let st = &states[i as usize];

        // Available vertices with converging-path hotness plus stabbing
        // depth (lines 22-26).
        let mut best: Option<(u32, bool, Point)> = None; // (rank, existing, vertex)
        store.end_vertices_into(&st.fsa, groups);
        for (&vertex, incoming) in groups.iter() {
            let converging: u32 = incoming.iter().map(|&id| store.hotness_of(id)).sum();
            let boost = match policy {
                OverlapPolicy::Full => fsas.stab_count(&vertex) as u32,
                OverlapPolicy::Own => 0,
            };
            let cand = (converging + boost, true, vertex);
            if better_vertex(&cand, &best) {
                best = Some(cand);
            }
        }

        // Generated candidate from the deepest overlap region
        // (lines 27-34); the clip guarantees validity for this object.
        let generated = match policy {
            OverlapPolicy::Full => fsas
                .max_depth_region_in(&st.fsa, overlap)
                .map(|(region, depth)| (depth as u32, false, region.centroid())),
            OverlapPolicy::Own => Some((1, false, st.fsa.centroid())),
        };
        if let Some(cand) = generated {
            if better_vertex(&cand, &best) {
                best = Some(cand);
            }
        }

        let (_, existing, vertex) = best.unwrap_or_else(|| {
            // Degenerate fallback: the FSA participates in the FsaSet, so
            // max_depth_region over its own clip cannot be None; keep a
            // safe default anyway.
            (0, false, st.fsa.centroid())
        });

        let (id, created, endpoint) = store.commit(st.start, vertex, st.te);
        if existing {
            tally.case2 += 1;
        } else {
            tally.case3 += 1;
        }
        selections.push(Selection {
            object: st.object,
            path: id,
            endpoint,
            te: st.te,
            case: if existing { CaseKind::ExistingVertex } else { CaseKind::NewVertex },
            created,
        });
    }
}

/// Per-epoch Phase-B load telemetry: how the deferred set was split
/// across workers and how much the work-stealing had to rebalance.
/// Published in `HotSnapshot`; purely observational (never checkpointed,
/// never part of parity traces — worker timings and steal counts depend
/// on the machine, not the algorithm).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseBLoad {
    /// Workers the eval pass actually ran with (1 = sequential path).
    pub workers: usize,
    /// Deferred states Phase B processed this epoch.
    pub deferred: usize,
    /// Distinct FSA grid regions the deferred set spanned (0 on the
    /// sequential path, which never partitions).
    pub regions: usize,
    /// Region chunks enqueued for stealing (0 on the sequential path).
    pub chunks: usize,
    /// Chunks a worker stole from another worker's queue.
    pub stolen: u64,
    /// Per-worker busy time (nanoseconds spent evaluating chunks).
    pub busy_ns: Vec<u64>,
    /// Worst per-worker busy time over the mean (1.0 when degenerate —
    /// sequential, or no measurable work). The number the `flash_crowd`
    /// invariant bounds: stealing keeps it near 1 even when every
    /// deferred state lands in one region.
    pub imbalance: f64,
}

impl PhaseBLoad {
    /// The load record for a sequential (1-worker) Phase B.
    pub fn sequential(deferred: usize) -> Self {
        PhaseBLoad { workers: 1, deferred, imbalance: 1.0, ..Self::default() }
    }

    fn finish(&mut self) {
        let sum: u64 = self.busy_ns.iter().sum();
        if self.workers <= 1 || sum == 0 {
            self.imbalance = 1.0;
        } else {
            let mean = sum as f64 / self.workers as f64;
            let worst = self.busy_ns.iter().copied().max().unwrap_or(0) as f64;
            self.imbalance = worst / mean;
        }
    }
}

/// One deferred state's evaluated (pure) Phase-B inputs: the base vertex
/// groups from the pre-Phase-B index snapshot in CSR layout, each with
/// its stabbing-depth boost, plus the generated max-depth candidate.
/// Everything here is a pure function of `(index snapshot, FsaSet,
/// state)` — independent of worker schedule, commit interleaving, and
/// hotness, which is what makes the eval pass parallel-safe.
#[derive(Debug, Default)]
struct EvalOne {
    /// Per group: canonical representative point and overlap boost.
    groups: Vec<(Point, u32)>,
    /// Converging path ids, flattened (CSR values).
    ids: Vec<PathId>,
    /// CSR offsets: group `g`'s ids are `ids[off[g]..off[g + 1]]`.
    off: Vec<u32>,
    /// The Case-3 candidate `(depth, false, centroid)`.
    generated: Option<(u32, bool, Point)>,
}

/// The output of [`phase_b_eval`]: one `EvalOne` per deferred slot
/// (in deferred order) plus the load telemetry. Opaque to callers —
/// produced by eval, consumed whole by [`phase_b_apply`].
#[derive(Debug)]
pub struct PhaseBEval {
    per_state: Vec<EvalOne>,
    /// Load telemetry for the eval pass.
    pub load: PhaseBLoad,
}

/// What one eval worker brings home: evaluated slots plus its counters.
#[derive(Default)]
struct EvalWorkerOut {
    results: Vec<(u32, EvalOne)>,
    busy_ns: u64,
    stolen: u64,
}

/// Evaluates one deferred state's pure Phase-B inputs against the shared
/// read-only index snapshot and FSA set.
fn eval_one<R: PathReader>(
    st: &ClientState,
    reader: &R,
    fsas: &FsaSet,
    policy: OverlapPolicy,
    scratch: &mut PhaseBScratch,
) -> EvalOne {
    let PhaseBScratch { groups, overlap } = scratch;
    let mut ev = EvalOne::default();
    reader.end_vertices_into(&st.fsa, groups);
    ev.off.push(0);
    for (&vertex, incoming) in groups.iter() {
        let boost = match policy {
            OverlapPolicy::Full => fsas.stab_count(&vertex) as u32,
            OverlapPolicy::Own => 0,
        };
        ev.groups.push((vertex, boost));
        ev.ids.extend_from_slice(incoming);
        ev.off.push(ev.ids.len() as u32);
    }
    ev.generated = match policy {
        OverlapPolicy::Full => fsas
            .max_depth_region_in(&st.fsa, overlap)
            .map(|(region, depth)| (depth as u32, false, region.centroid())),
        OverlapPolicy::Own => Some((1, false, st.fsa.centroid())),
    };
    ev
}

/// One eval worker: drain the own queue front-to-back, then steal from
/// the backs of the other queues until everything is empty. No new work
/// is ever produced after the queues are seeded, so an all-empty scan is
/// a correct exit condition.
#[allow(clippy::too_many_arguments)]
fn eval_worker<R: PathReader>(
    me: usize,
    queues: &[Mutex<VecDeque<(u32, u32)>>],
    states: &[ClientState],
    deferred: &[u32],
    order: &[u32],
    reader: &R,
    fsas: &FsaSet,
    policy: OverlapPolicy,
) -> EvalWorkerOut {
    let mut out = EvalWorkerOut::default();
    let mut scratch = PhaseBScratch::default();
    loop {
        let mut job = queues[me].lock().expect("queue poisoned").pop_front().map(|r| (r, false));
        if job.is_none() {
            for step in 1..queues.len() {
                let victim = (me + step) % queues.len();
                if let Some(r) = queues[victim].lock().expect("queue poisoned").pop_back() {
                    job = Some((r, true));
                    break;
                }
            }
        }
        let Some(((lo, hi), was_stolen)) = job else { break };
        let t0 = Instant::now();
        for &slot in &order[lo as usize..hi as usize] {
            let st = &states[deferred[slot as usize] as usize];
            out.results.push((slot, eval_one(st, reader, fsas, policy, &mut scratch)));
        }
        out.busy_ns += t0.elapsed().as_nanos() as u64;
        if was_stolen {
            out.stolen += 1;
        }
    }
    out
}

/// The parallel Phase-B *eval* pass: partitions the deferred set by FSA
/// grid region (the overlap-grid cell of each state's FSA centroid, so
/// states whose queries touch the same rects stay on one worker),
/// chunks the region-sorted order, seeds per-worker deques, and runs
/// `workers` scoped threads (one inline on the caller, matching the
/// sharded Phase-A pattern) that steal from each other's queue backs
/// when their own runs dry. Results land by deferred slot, so the
/// output is identical for every worker count and steal schedule.
pub fn phase_b_eval<R: PathReader>(
    states: &[ClientState],
    deferred: &[u32],
    reader: &R,
    fsas: &FsaSet,
    policy: OverlapPolicy,
    workers: usize,
) -> PhaseBEval {
    let d = deferred.len();
    let workers = workers.max(1).min(d.max(1));
    // Region-sort the deferred slots: stable, so slot order is preserved
    // within a region (pure cosmetics — eval is schedule-independent).
    let mut order: Vec<u32> = (0..d as u32).collect();
    order.sort_by_key(|&slot| {
        fsas.cell_key(&states[deferred[slot as usize] as usize].fsa.centroid())
    });
    let regions = order
        .windows(2)
        .filter(|w| {
            let cell =
                |slot: u32| fsas.cell_key(&states[deferred[slot as usize] as usize].fsa.centroid());
            cell(w[0]) != cell(w[1])
        })
        .count()
        + usize::from(d > 0);

    // Chunk the sorted order: ~4 chunks per worker so stealing has
    // granularity to rebalance a fully skewed region, capped so tiny
    // chunks don't drown in queue traffic.
    let chunk_len = (d / (workers * 4)).clamp(1, 64);
    let mut chunks: Vec<(u32, u32)> = Vec::with_capacity(d.div_ceil(chunk_len));
    let mut lo = 0u32;
    while (lo as usize) < d {
        let hi = ((lo as usize + chunk_len).min(d)) as u32;
        chunks.push((lo, hi));
        lo = hi;
    }
    let nchunks = chunks.len();

    // Seed queues with contiguous chunk runs (region locality); thieves
    // take from the far end, so a steal grabs the work most distant from
    // what the owner is currently touching.
    let queues: Vec<Mutex<VecDeque<(u32, u32)>>> = (0..workers)
        .map(|w| {
            let a = w * nchunks / workers;
            let b = (w + 1) * nchunks / workers;
            Mutex::new(chunks[a..b].iter().copied().collect())
        })
        .collect();

    let mut load = PhaseBLoad {
        workers,
        deferred: d,
        regions,
        chunks: nchunks,
        stolen: 0,
        busy_ns: vec![0; workers],
        imbalance: 1.0,
    };
    let mut per_state: Vec<EvalOne> = (0..d).map(|_| EvalOne::default()).collect();
    let mut outs: Vec<(usize, EvalWorkerOut)> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let queues = &queues;
        let order = &order[..];
        let mut handles = Vec::with_capacity(workers.saturating_sub(1));
        for w in 1..workers {
            handles.push((
                w,
                scope.spawn(move || {
                    eval_worker(w, queues, states, deferred, order, reader, fsas, policy)
                }),
            ));
        }
        outs.push((0, eval_worker(0, queues, states, deferred, order, reader, fsas, policy)));
        for (w, h) in handles {
            outs.push((w, h.join().expect("phase-B eval worker panicked")));
        }
    });
    for (w, out) in outs {
        load.busy_ns[w] = out.busy_ns;
        load.stolen += out.stolen;
        for (slot, ev) in out.results {
            per_state[slot as usize] = ev;
        }
    }
    load.finish();
    PhaseBEval { per_state, load }
}

/// The sequential Phase-B *apply* pass: walks the deferred states in
/// original order, merging each state's evaluated base groups with an
/// *overlay* of the endpoints committed earlier in this same pass (the
/// visibility the sequential `phase_b` gets for free from the live
/// index), computing the live parts — converging-hotness sums and
/// commits — exactly where the sequential pass would. Bit-for-bit
/// equal to [`phase_b`] for any [`PhaseBEval`]:
///
/// * base groups are static during Phase B (Phase A never inserts paths;
///   dedup never changes a stored endpoint; expiry is a separate stage),
/// * overlay entries reproduce precisely the grid entries new paths
///   added (one end-vertex entry per *created* path, filtered per raw
///   endpoint just like `for_each_end_in`),
/// * group representatives stay the lexicographic minimum over base and
///   overlay observations, with the stabbing boost recomputed when an
///   overlay point lowers the representative (stab queries are pure),
/// * `better_vertex` is a strict total order over distinct candidates,
///   so candidate visit order cannot change the winner.
#[allow(clippy::too_many_arguments)]
pub fn phase_b_apply<S: PathStore>(
    states: &[ClientState],
    deferred: &[u32],
    eval: &PhaseBEval,
    store: &mut S,
    fsas: &FsaSet,
    policy: OverlapPolicy,
    tally: &mut CaseTally,
    selections: &mut Vec<Selection>,
) {
    debug_assert_eq!(eval.per_state.len(), deferred.len());
    // Endpoints of paths created by *this* pass, in commit order.
    let mut overlay: Vec<(Point, PathId)> = Vec::new();
    // Per-state regrouping of the overlay entries inside the FSA:
    // (key, representative, ids, merged-with-base flag).
    let mut ov_groups: Vec<(VertexKey, Point, Vec<PathId>, bool)> = Vec::new();
    let stab = |p: &Point| match policy {
        OverlapPolicy::Full => fsas.stab_count(p) as u32,
        OverlapPolicy::Own => 0,
    };
    for (j, &i) in deferred.iter().enumerate() {
        let st = &states[i as usize];
        let ev = &eval.per_state[j];

        // Overlay candidates: this-pass endpoints inside the FSA,
        // grouped by quantized key with lexicographic-min reps — the
        // same canonicalization `VertexGroups` applies.
        ov_groups.clear();
        for &(p, id) in &overlay {
            if !st.fsa.contains(&p) {
                continue;
            }
            let k = store.vertex_key(&p);
            match ov_groups.iter_mut().find(|(gk, ..)| *gk == k) {
                Some((_, rep, ids, _)) => {
                    if point_lt(&p, rep) {
                        *rep = p;
                    }
                    ids.push(id);
                }
                None => ov_groups.push((k, p, vec![id], false)),
            }
        }

        let mut best: Option<(u32, bool, Point)> = None;
        for (g, &(rep, boost)) in ev.groups.iter().enumerate() {
            let ids = &ev.ids[ev.off[g] as usize..ev.off[g + 1] as usize];
            let mut rank: u32 = ids.iter().map(|&id| store.hotness_of(id)).sum();
            let mut rep2 = rep;
            let mut boost2 = boost;
            let k = store.vertex_key(&rep);
            if let Some((_, ov_rep, ov_ids, used)) = ov_groups.iter_mut().find(|(gk, ..)| *gk == k)
            {
                *used = true;
                rank += ov_ids.iter().map(|&id| store.hotness_of(id)).sum::<u32>();
                if point_lt(ov_rep, &rep2) {
                    rep2 = *ov_rep;
                    boost2 = stab(&rep2);
                }
            }
            let cand = (rank + boost2, true, rep2);
            if better_vertex(&cand, &best) {
                best = Some(cand);
            }
        }
        for (_, rep, ids, used) in ov_groups.iter() {
            if *used {
                continue;
            }
            let rank: u32 = ids.iter().map(|&id| store.hotness_of(id)).sum();
            let cand = (rank + stab(rep), true, *rep);
            if better_vertex(&cand, &best) {
                best = Some(cand);
            }
        }
        if let Some(cand) = ev.generated {
            if better_vertex(&cand, &best) {
                best = Some(cand);
            }
        }

        let (_, existing, vertex) = best.unwrap_or((0, false, st.fsa.centroid()));
        let (id, created, endpoint) = store.commit(st.start, vertex, st.te);
        if existing {
            tally.case2 += 1;
        } else {
            tally.case3 += 1;
        }
        selections.push(Selection {
            object: st.object,
            path: id,
            endpoint,
            te: st.te,
            case: if existing { CaseKind::ExistingVertex } else { CaseKind::NewVertex },
            created,
        });
        if created {
            overlay.push((endpoint, id));
        }
    }
}

/// Builds the epoch's FSA-overlap structure for `policy` (Alg. 2 lines
/// 8-12, shared across Cases 2-3; built empty under the `Own` ablation,
/// which never queries it).
pub fn build_fsa_set(states: &[ClientState], overlap_cell: f64, policy: OverlapPolicy) -> FsaSet {
    match policy {
        OverlapPolicy::Full => FsaSet::build(states.iter().map(|s| s.fsa).collect(), overlap_cell),
        OverlapPolicy::Own => FsaSet::new(overlap_cell),
    }
}

/// Runs the SinglePath strategy over one epoch's batch of states.
/// Selections are deterministic: ties break toward longer paths, then
/// lower ids / lexicographically smaller vertices.
///
/// Every intermediate buffer comes from `scratch`, which the caller
/// keeps across epochs. `fsas` is the epoch's FSA-overlap structure —
/// [`build_fsa_set`] or the set the coordinator rebuilds in place
/// through [`crate::strategy::FsaCache`] — over exactly this batch's
/// FSAs under the same policy.
///
/// `pool` governs the Phase-B eval fan-out. At one effective worker (the
/// default pool, a single-core host, or a batch below break-even) this
/// is *exactly* the sequential code path — same functions, same
/// allocation discipline; with more, Phase B splits into the parallel
/// eval pass over region chunks plus the sequential apply pass,
/// producing bit-for-bit identical selections (see [`phase_b_apply`]).
/// The returned [`PhaseBLoad`] reports how the work spread.
pub fn process_batch(
    states: &[ClientState],
    index: &mut MotionPathIndex,
    hotness: &mut Hotness,
    scratch: &mut ScratchArena,
    fsas: &FsaSet,
    policy: OverlapPolicy,
    pool: WorkerPool,
) -> (Vec<Selection>, CaseTally, PhaseBLoad) {
    let mut tally = CaseTally::default();
    if states.is_empty() {
        return (Vec::new(), tally, PhaseBLoad::sequential(0));
    }

    let mut seqs = std::mem::take(&mut scratch.seqs_pool);
    seqs.clear();
    seqs.extend(0..states.len() as u32);
    let mut a = phase_a(states, &seqs, index, hotness, scratch);
    scratch.seqs_pool = seqs;
    tally = a.tally;
    let mut selections: Vec<Selection> = a.selections.drain(..).map(|(_, s)| s).collect();
    let deferred = std::mem::take(&mut a.deferred);
    let workers = pool.for_items(deferred.len());
    let load = if workers > 1 {
        let eval = phase_b_eval(states, &deferred, &SingleReader { index }, fsas, policy, workers);
        let mut store = SingleStore { index, hotness };
        phase_b_apply(
            states,
            &deferred,
            &eval,
            &mut store,
            fsas,
            policy,
            &mut tally,
            &mut selections,
        );
        eval.load
    } else {
        let t0 = Instant::now();
        let mut store = SingleStore { index, hotness };
        phase_b(
            states,
            &deferred,
            &mut store,
            fsas,
            policy,
            &mut tally,
            &mut selections,
            &mut scratch.phase_b,
        );
        let mut load = PhaseBLoad::sequential(deferred.len());
        load.busy_ns = vec![t0.elapsed().as_nanos() as u64];
        load
    };
    a.deferred = deferred;
    scratch.recycle(a);
    (selections, tally, load)
}

/// Vertex-candidate comparison: higher rank wins; ties prefer existing
/// vertices (maximizing reuse), then lexicographically smaller points
/// for determinism.
fn better_vertex(cand: &(u32, bool, Point), best: &Option<(u32, bool, Point)>) -> bool {
    let Some(b) = best else { return true };
    (cand.0, cand.1, -cand.2.x, -cand.2.y) > (b.0, b.1, -b.2.x, -b.2.y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::time::SlidingWindow;

    fn state(obj: u64, start: (f64, f64), fsa: Rect, ts: u64, te: u64) -> ClientState {
        ClientState {
            object: ObjectId(obj),
            start: Point::new(start.0, start.1),
            ts: Timestamp(ts),
            fsa,
            te: Timestamp(te),
        }
    }

    fn setup() -> (MotionPathIndex, Hotness) {
        (MotionPathIndex::new(50.0, 1e-3), Hotness::new(SlidingWindow::new(100)))
    }

    fn fsa_around(x: f64, y: f64, r: f64) -> Rect {
        Rect::new(Point::new(x - r, y - r), Point::new(x + r, y + r))
    }

    /// One epoch through [`process_batch`] with a throwaway `FsaSet`
    /// and `ScratchArena` on the default (one-worker) pool.
    fn run_batch(
        states: &[ClientState],
        index: &mut MotionPathIndex,
        hotness: &mut Hotness,
        overlap_cell: f64,
        policy: OverlapPolicy,
    ) -> (Vec<Selection>, CaseTally) {
        let fsas = build_fsa_set(states, overlap_cell, policy);
        let mut scratch = ScratchArena::new();
        let (selections, tally, _) = process_batch(
            states,
            index,
            hotness,
            &mut scratch,
            &fsas,
            policy,
            WorkerPool::default(),
        );
        (selections, tally)
    }

    #[test]
    fn case1_reuses_hottest_existing_path() {
        let (mut index, mut hotness) = setup();
        let s = Point::new(0.0, 0.0);
        let (cold, _) = index.insert(s, Point::new(100.0, 1.0));
        let (hot, _) = index.insert(s, Point::new(100.0, -1.0));
        hotness.record_crossing(cold, Timestamp(0), 1.0);
        for _ in 0..5 {
            hotness.record_crossing(hot, Timestamp(0), 1.0);
        }

        let st = state(1, (0.0, 0.0), fsa_around(100.0, 0.0, 5.0), 0, 10);
        let (sel, tally) = run_batch(&[st], &mut index, &mut hotness, 20.0, OverlapPolicy::Full);
        assert_eq!(tally, CaseTally { case1: 1, case2: 0, case3: 0 });
        assert_eq!(sel[0].path, hot);
        assert_eq!(sel[0].case, CaseKind::ExistingPath);
        assert!(!sel[0].created);
        // The crossing was recorded.
        assert_eq!(hotness.get(hot), 6);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn case1_cross_object_boost_changes_winner() {
        // Path A has hotness 2; path B hotness 1 but appears in the CP
        // sets of three objects this epoch, giving it boost +2 per
        // object: rank(B) = 1 + 1 + 2 = 4 > rank(A) = 2 + 1 + 0 = 3.
        let (mut index, mut hotness) = setup();
        let s_shared = Point::new(0.0, 0.0);
        let (b, _) = index.insert(s_shared, Point::new(100.0, 0.0));
        hotness.record_crossing(b, Timestamp(0), 1.0);
        let s_solo = Point::new(0.0, 50.0);
        let (a, _) = index.insert(s_solo, Point::new(100.0, 2.0));
        hotness.record_crossing(a, Timestamp(0), 1.0);
        hotness.record_crossing(a, Timestamp(0), 1.0);

        // Object 9's FSA sees both paths' ends; it starts where both A
        // and B start... but Case 1 requires matching starts, so give
        // object 9 the shared start and make A share it too.
        let (mut index, mut hotness) = setup();
        let (a, _) = index.insert(s_shared, Point::new(100.0, 2.0));
        let (b, _) = index.insert(s_shared, Point::new(100.0, 0.0));
        hotness.record_crossing(a, Timestamp(0), 1.0);
        hotness.record_crossing(a, Timestamp(0), 1.0);
        hotness.record_crossing(b, Timestamp(0), 1.0);

        // Three objects whose FSAs contain only B's end; one object
        // seeing both.
        let tight = fsa_around(100.0, 0.0, 1.0); // contains only B's end
        let wide = fsa_around(100.0, 1.0, 2.0); // contains both ends
        let states = [
            state(1, (0.0, 0.0), tight, 0, 10),
            state(2, (0.0, 0.0), tight, 0, 10),
            state(3, (0.0, 0.0), wide, 0, 10),
        ];
        let (sel, tally) = run_batch(&states, &mut index, &mut hotness, 20.0, OverlapPolicy::Full);
        assert_eq!(tally.case1, 3);
        // Object 3 prefers B (hotness 1 + 1 + boost 2 = 4) over A
        // (hotness 2 + 1 + boost 0 = 3).
        let obj3 = sel.iter().find(|s| s.object == ObjectId(3)).unwrap();
        assert_eq!(obj3.path, b);
    }

    #[test]
    fn case2_builds_path_to_existing_vertex() {
        let (mut index, mut hotness) = setup();
        // An existing hot path converging to vertex v, but starting
        // elsewhere — so no Case-1 match for our object.
        let v = Point::new(100.0, 0.0);
        let (incoming, _) = index.insert(Point::new(200.0, 0.0), v);
        hotness.record_crossing(incoming, Timestamp(0), 1.0);
        hotness.record_crossing(incoming, Timestamp(0), 1.0);

        let st = state(1, (0.0, 0.0), fsa_around(100.0, 0.0, 5.0), 0, 10);
        let (sel, tally) = run_batch(&[st], &mut index, &mut hotness, 20.0, OverlapPolicy::Full);
        assert_eq!(tally, CaseTally { case1: 0, case2: 1, case3: 0 });
        assert_eq!(sel[0].case, CaseKind::ExistingVertex);
        assert!(sel[0].created);
        assert_eq!(sel[0].endpoint, v);
        // A new path 0,0 -> v exists with one crossing.
        assert_eq!(index.len(), 2);
        assert_eq!(hotness.get(sel[0].path), 1);
    }

    #[test]
    fn case3_mints_vertex_in_deepest_overlap() {
        let (mut index, mut hotness) = setup();
        // Three objects with overlapping FSAs, empty index: all Case 3.
        // FSAs mirror Example 2; the triple overlap is around (8, 8).
        let f1 = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let f2 = Rect::new(Point::new(6.0, 4.0), Point::new(16.0, 14.0));
        let f3 = Rect::new(Point::new(4.0, 6.0), Point::new(14.0, 16.0));
        let states = [
            state(1, (-50.0, 0.0), f1, 0, 10),
            state(2, (-50.0, 20.0), f2, 0, 10),
            state(3, (-50.0, 40.0), f3, 0, 10),
        ];
        let (sel, tally) = run_batch(&states, &mut index, &mut hotness, 10.0, OverlapPolicy::Full);
        assert_eq!(tally.case3 + tally.case2, 3);
        assert_eq!(tally.case1, 0);
        // Object 1 creates a vertex at the centroid of R123 = [6,10]x[6,10].
        let first = &sel[0];
        assert_eq!(first.case, CaseKind::NewVertex);
        assert_eq!(first.endpoint, Point::new(8.0, 8.0));
        assert!(f1.contains(&first.endpoint));
        // Later objects see that vertex inside their FSAs and converge on
        // it (Case 2), exactly the sharing Example 2 argues for.
        for s in &sel[1..] {
            assert_eq!(s.endpoint, Point::new(8.0, 8.0), "object {:?}", s.object);
        }
        // Three distinct paths (different starts) to one shared vertex.
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (mut index, mut hotness) = setup();
        let (sel, tally) = run_batch(&[], &mut index, &mut hotness, 10.0, OverlapPolicy::Full);
        assert!(sel.is_empty());
        assert_eq!(tally, CaseTally::default());
    }

    #[test]
    fn duplicate_geometry_reuses_path_id() {
        let (mut index, mut hotness) = setup();
        // Two objects with identical starts and identical single-point
        // FSAs: the second insert dedups onto the first's path.
        let fsa = fsa_around(50.0, 0.0, 0.5);
        let states = [state(1, (0.0, 0.0), fsa, 0, 10), state(2, (0.0, 0.0), fsa, 0, 10)];
        let (sel, _) = run_batch(&states, &mut index, &mut hotness, 10.0, OverlapPolicy::Full);
        assert_eq!(sel[0].endpoint, sel[1].endpoint);
        assert_eq!(sel[0].path, sel[1].path);
        assert_eq!(index.len(), 1);
        assert_eq!(hotness.get(sel[0].path), 2);
        // Only the first actually created it.
        assert!(sel[0].created);
        assert!(!sel[1].created);
    }

    #[test]
    fn selection_endpoint_always_inside_fsa() {
        let (mut index, mut hotness) = setup();
        // A mix: existing path for object 1, nothing for object 2.
        let s1 = Point::new(0.0, 0.0);
        let (p, _) = index.insert(s1, Point::new(30.0, 0.0));
        hotness.record_crossing(p, Timestamp(0), 1.0);
        let states = [
            state(1, (0.0, 0.0), fsa_around(30.0, 0.0, 3.0), 0, 10),
            state(2, (500.0, 500.0), fsa_around(530.0, 500.0, 3.0), 0, 10),
        ];
        let (sel, _) = run_batch(&states, &mut index, &mut hotness, 10.0, OverlapPolicy::Full);
        for s in &sel {
            let st = states
                .iter()
                .find(|st| st.object == s.object)
                .expect("selection for a known state");
            assert!(
                st.fsa.contains(&s.endpoint),
                "endpoint {:?} outside FSA for {:?}",
                s.endpoint,
                s.object
            );
        }
    }

    #[test]
    fn own_policy_never_shares_fresh_vertices() {
        // Same Example-2 layout as above, but with the overlap analysis
        // ablated: each object mints its own FSA centroid, so no
        // sharing happens and three DISTINCT vertices appear.
        let (mut index, mut hotness) = setup();
        let f1 = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let f2 = Rect::new(Point::new(6.0, 4.0), Point::new(16.0, 14.0));
        let f3 = Rect::new(Point::new(4.0, 6.0), Point::new(14.0, 16.0));
        let states = [
            state(1, (-50.0, 0.0), f1, 0, 10),
            state(2, (-50.0, 20.0), f2, 0, 10),
            state(3, (-50.0, 40.0), f3, 0, 10),
        ];
        let (sel, _) = run_batch(&states, &mut index, &mut hotness, 10.0, OverlapPolicy::Own);
        // Objects 1 and 2 mint their own centroids (no overlap logic).
        assert_eq!(sel[0].endpoint, f1.centroid());
        assert_eq!(sel[0].case, CaseKind::NewVertex);
        assert_eq!(sel[1].endpoint, f2.centroid());
        assert_eq!(sel[1].case, CaseKind::NewVertex);
        // Object 3 still reuses object 2's vertex via plain Case 2 —
        // the ablation removes overlap *analysis*, not vertex reuse —
        // but nobody lands on the triple-overlap centroid (8, 8) that
        // the full algorithm picks (see case3_mints_vertex_in_deepest_overlap).
        assert_eq!(sel[2].endpoint, f2.centroid());
        assert_eq!(sel[2].case, CaseKind::ExistingVertex);
        assert!(sel.iter().all(|s| s.endpoint != Point::new(8.0, 8.0)));
    }

    #[test]
    fn case1_tie_breaks_toward_longer_path() {
        let (mut index, mut hotness) = setup();
        let s = Point::new(0.0, 0.0);
        let (short, _) = index.insert(s, Point::new(50.0, 0.0));
        let (long, _) = index.insert(s, Point::new(52.0, 0.0));
        hotness.record_crossing(short, Timestamp(0), 1.0);
        hotness.record_crossing(long, Timestamp(0), 1.0);
        let st = state(1, (0.0, 0.0), fsa_around(51.0, 0.0, 2.0), 0, 10);
        let (sel, _) = run_batch(&[st], &mut index, &mut hotness, 10.0, OverlapPolicy::Full);
        assert_eq!(sel[0].path, long);
    }

    /// A flash-crowd-shaped batch: every start is unique (so Phase A
    /// defers the whole batch), while the FSAs pile onto a handful of
    /// cluster centers — heavy overlap within a cluster, several grid
    /// regions across clusters.
    fn skewed_batch(epoch: u64, n: usize) -> Vec<ClientState> {
        let mut s = epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut roll = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        (0..n)
            .map(|i| {
                let r = roll();
                let cx = ((r % 5) * 400) as f64 + (r % 37) as f64;
                let cy = ((r % 3) * 350) as f64 + (r % 23) as f64;
                state(
                    i as u64,
                    (epoch as f64 * 1000.0 + i as f64 * 3.0, 9000.0),
                    fsa_around(cx, cy, 30.0 + (r % 3) as f64 * 10.0),
                    epoch * 10,
                    epoch * 10 + 9,
                )
            })
            .collect()
    }

    /// One selection, reduced to comparable bits.
    type SelRow = (u64, u64, u64, u64, u64, CaseKind, bool);

    /// One stored path, reduced to comparable bits: id, endpoint
    /// coordinate bits, hotness.
    type PathRow = (u64, u64, u64, u32);

    /// Runs three flash-crowd epochs through `process_batch`
    /// under `pool` and returns every observable: the selection rows in
    /// order, the per-epoch tallies, the index size, and each stored
    /// path's endpoint geometry with its hotness.
    fn run_pooled(
        pool: WorkerPool,
        policy: OverlapPolicy,
    ) -> (Vec<SelRow>, Vec<CaseTally>, usize, Vec<PathRow>) {
        let (mut index, mut hotness) = setup();
        let mut scratch = ScratchArena::default();
        let mut rows = Vec::new();
        let mut tallies = Vec::new();
        for e in 1..=3u64 {
            let states = skewed_batch(e, 96);
            let fsas = build_fsa_set(&states, 40.0, policy);
            let (sel, tally, load) =
                process_batch(&states, &mut index, &mut hotness, &mut scratch, &fsas, policy, pool);
            assert_eq!(load.deferred + tally.case1 as usize, states.len());
            rows.extend(sel.iter().map(|s| {
                (
                    s.object.0,
                    s.path.0,
                    s.endpoint.x.to_bits(),
                    s.endpoint.y.to_bits(),
                    s.te.raw(),
                    s.case,
                    s.created,
                )
            }));
            tallies.push(tally);
        }
        let mut paths: Vec<PathRow> = index
            .iter()
            .map(|p| (p.id.0, p.end().x.to_bits(), p.end().y.to_bits(), hotness.get(p.id)))
            .collect();
        paths.sort_unstable();
        (rows, tallies, index.len(), paths)
    }

    #[test]
    fn parallel_phase_b_is_bit_for_bit_sequential() {
        for policy in [OverlapPolicy::Full, OverlapPolicy::Own] {
            let reference = run_pooled(WorkerPool::exact(1), policy);
            for workers in [2, 4, 8] {
                // exact() bypasses the hardware clamp so the parallel
                // eval genuinely runs on a single-core machine too.
                let parallel = run_pooled(WorkerPool::exact(workers), policy);
                assert_eq!(reference, parallel, "{policy:?} diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_eval_reports_load_and_engages_workers() {
        let (mut index, mut hotness) = setup();
        let mut scratch = ScratchArena::default();
        let states = skewed_batch(1, 96);
        let fsas = build_fsa_set(&states, 40.0, OverlapPolicy::Full);
        let (_, _, load) = process_batch(
            &states,
            &mut index,
            &mut hotness,
            &mut scratch,
            &fsas,
            OverlapPolicy::Full,
            WorkerPool::exact(4),
        );
        // 96 unique starts all defer; 96 items over break-even 32
        // yields 3 workers from a 4-worker pool.
        assert_eq!(load.deferred, 96);
        assert!(load.workers > 1, "parallel path never engaged: {load:?}");
        assert_eq!(load.busy_ns.len(), load.workers);
        assert!(load.regions > 1, "flash-crowd batch collapsed to one region");
        assert!(load.imbalance >= 1.0 && load.imbalance.is_finite());
    }

    #[test]
    fn small_batches_degrade_to_sequential_phase_b() {
        let (mut index, mut hotness) = setup();
        let mut scratch = ScratchArena::default();
        let states = skewed_batch(1, 20);
        let fsas = build_fsa_set(&states, 40.0, OverlapPolicy::Full);
        let (_, _, load) = process_batch(
            &states,
            &mut index,
            &mut hotness,
            &mut scratch,
            &fsas,
            OverlapPolicy::Full,
            WorkerPool::exact(8),
        );
        // 20 deferred states are below the 2x break-even floor: the
        // pool degrades to the sequential path even with 8 workers.
        assert_eq!(load.workers, 1);
        assert_eq!(load.stolen, 0);
        assert_eq!(load.imbalance, 1.0);
    }
}
