//! Steady-state memory pins for the default-path hot loops: a RayTrace
//! filter absorbing measurements, the Phase-B FSA-neighbourhood queries
//! on a reused scratch, a coordinator's ingest and epoch boundary, and
//! path-table maintenance as paths come and go by expiry; snapshot
//! reads on the serving path; plus the inline size of the filters and
//! the heap a checkpoint restore takes. A
//! counting `#[global_allocator]` needs a test binary of its own; counts
//! are per thread, so the harness and the other tests running beside a
//! measurement never show up in it.

use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::config::Config;
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::geometry::{Point, Rect, TimePoint};
use hotpath_core::index::PathTable;
use hotpath_core::raytrace::{ClientState, RayTraceFilter, UncertainRayTraceFilter};
use hotpath_core::snapshot::SnapshotCell;
use hotpath_core::strategy::{FsaSet, QueryScratch};
use hotpath_core::time::{SlidingWindow, Timestamp};
use hotpath_core::uncertainty::{FallbackPolicy, ToleranceTable2D};
use hotpath_core::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its whole
    /// new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread may still free or allocate while its
    // thread-locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised `Cell`s without a destructor, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes the calling thread allocates while running `f`.
fn bytes_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn tp(x: f64, y: f64, t: u64) -> TimePoint {
    TimePoint::new(Point::new(x, y), Timestamp(t))
}

/// Feeds `f` the constant-velocity run `from.p + v * k` at `from.t + k`
/// for `k = 1..=n`, asserting every measurement is absorbed.
fn absorb_run(f: &mut RayTraceFilter, from: TimePoint, v: Point, n: u64) {
    for k in 1..=n {
        let m = TimePoint::new(from.p + v * k as f64, Timestamp(from.t.0 + k));
        assert!(f.observe(m).is_none(), "report at {:?}", m.t);
    }
}

#[test]
fn the_counter_counts() {
    let (n, v) = allocs_in(|| vec![0u8; 64]);
    assert!(n >= 1, "a fresh Vec must register");
    drop(v);
}

/// Paper Table 2: ~90 % of objects never move, so most filters never
/// violate — those must never own a heap buffer at all.
#[test]
fn a_filter_that_never_violated_owns_no_heap() {
    let (n, f) = allocs_in(|| {
        let seed = tp(0.0, 0.0, 0);
        let mut f = RayTraceFilter::new(ObjectId(1), seed, 2.0);
        absorb_run(&mut f, seed, Point::new(3.0, 0.5), 10_000);
        f
    });
    assert_eq!(n, 0, "construction + 10 000 absorbed observations allocated");
    let s = f.stats();
    assert_eq!((s.observed, s.absorbed, s.reports), (10_000, 10_000, 0));
}

/// The fleet is walked one filter per measurement, so the filter's
/// inline size is its cache footprint. Inline are only the SSA (64
/// bytes), the `absorbed` count, the object id, the `waiting` flag, the
/// pointer to the lazily boxed backlog and counters, and `eps` (or the
/// uncertain filter's table handle): 104 bytes, down from 160. On
/// `paper_uniform`'s stream (`micro_raytrace`'s `table2/100000` row,
/// nproc 2) that stride alone took an observation from 31.8 to 21.0 ns;
/// an earlier probe at a 256-byte stride had cost 25 ns against 15.
#[test]
fn a_filter_stays_within_104_bytes() {
    assert_eq!(std::mem::size_of::<RayTraceFilter>(), 104);
}

#[test]
fn an_uncertain_filter_stays_within_104_bytes() {
    assert_eq!(std::mem::size_of::<UncertainRayTraceFilter>(), 104);
}

#[test]
fn a_resumed_filter_absorbs_without_allocating() {
    let seed = tp(0.0, 0.0, 0);
    let mut f = RayTraceFilter::new(ObjectId(2), seed, 2.0);
    absorb_run(&mut f, seed, Point::new(3.0, 0.5), 10);
    // The first violation is where a filter's heap begins: the violator
    // is kept for replay against the next SSA.
    let violator = tp(0.0, 40.0, 11);
    let (n, state) = allocs_in(|| f.observe(violator));
    let state = state.expect("the sideways jump must violate");
    assert!(n >= 1, "the violator has to be buffered somewhere");
    let endpoint = TimePoint::new(state.fsa.centroid(), state.te);
    assert!(f.receive_endpoint(endpoint).is_none());
    assert!(!f.is_waiting());

    // Carry on at the velocity the endpoint -> violator hop implies.
    let (n, ()) = allocs_in(|| absorb_run(&mut f, violator, violator.p - endpoint.p, 10_000));
    assert_eq!(n, 0, "10 000 absorbed observations after a resume allocated");
    assert_eq!(f.stats().absorbed, 10 + 1 + 10_000);
}

/// Every uncertain filter holds a clone of the one tolerance table its
/// run built; the clone shares the table's widths instead of copying
/// its 257 entries per object.
#[test]
fn uncertain_filters_built_from_one_table_do_not_allocate() {
    let table = ToleranceTable2D::build(10.0, 0.05, 8.0, 256, FallbackPolicy::Reject);
    let mut fleet = Vec::with_capacity(1_000);
    let (n, ()) = allocs_in(|| {
        fleet.extend((0..1_000u64).map(|i| {
            UncertainRayTraceFilter::new(ObjectId(i), tp(i as f64, 0.0, 0), table.clone())
        }));
    });
    assert_eq!(n, 0, "building 1 000 uncertain filters from one table allocated");
    assert_eq!(fleet.len(), 1_000);
}

/// Number of paths [`a_restore_allocates_at_most_16_times_its_image`]
/// stores: a 100 x 100 lattice of isolated crossings.
const RESTORE_PATHS: u64 = 10_000;

/// The allocation side of a restore: the table's derived structures are
/// rebuilt from the image's lists in place, so the bytes a restore
/// allocates are a bounded multiple of the image's encoding. Measured on
/// this 10 000-path image (560 208 bytes): 7 256 164 bytes, 12.95 times
/// its length — the index rebuilt around the paths (three allocations
/// per path, among them its start vertex's adjacency list and its end
/// cell, and hash maps grown by doubling) plus the top-k walk of the
/// snapshot the restore publishes. The pin allows 16.
#[test]
fn a_restore_allocates_at_most_16_times_its_image() {
    let config = Config::builder().window(1_000).k(10).build().unwrap();
    let mut coordinator = Coordinator::new(config);
    // Each state ends 500 m east of its own start, far from every other
    // FSA: a Case-3 path per state.
    coordinator.submit_batch((0..RESTORE_PATHS).map(|i| {
        let start = Point::new((i % 100) as f64 * 2_000.0, (i / 100) as f64 * 2_000.0);
        let end = start + Point::new(500.0, 0.0);
        ClientState {
            object: ObjectId(i),
            start,
            ts: Timestamp(0),
            fsa: Rect::tolerance_square(end, 2.0),
            te: Timestamp(10),
        }
    }));
    assert_eq!(coordinator.process_epoch(Timestamp(10)).len(), RESTORE_PATHS as usize);
    assert_eq!(coordinator.index_size(), RESTORE_PATHS as usize);
    let image = Checkpoint::new(coordinator.image());

    let (bytes, restored) = bytes_in(|| Coordinator::from_image(config, image.image()));
    let restored = restored.expect("the image restores");
    assert_eq!(restored.index_size(), RESTORE_PATHS as usize);
    let image_bytes = image.as_bytes().len();
    let ratio = bytes as f64 / image_bytes as f64;
    println!("restore: {bytes} bytes allocated for a {image_bytes}-byte image ({ratio:.2}x)");
    assert!(ratio <= 16.0, "a restore allocated {ratio:.2} times its image");
}

#[test]
fn max_depth_queries_on_a_warmed_scratch_do_not_allocate() {
    // A lattice of overlapping FSAs plus a hub pile, so clips range from
    // the lone-rect fast path to sweeps over dozens of rects.
    let mut rects: Vec<Rect> = (0..400)
        .map(|i| {
            let lo = Point::new((i % 20) as f64 * 15.0, (i / 20) as f64 * 15.0);
            Rect::new(lo, lo + Point::new(20.0, 20.0))
        })
        .collect();
    rects.extend((0..40).map(|i| {
        let lo = Point::new(600.0 + i as f64 * 0.5, 600.0 - i as f64 * 0.25);
        Rect::new(lo, lo + Point::new(20.0, 20.0))
    }));
    rects.push(Rect::new(Point::new(900.0, 900.0), Point::new(920.0, 920.0)));
    // Each FSA arrives as the coordinator files it; its neighbourhood
    // is itself, the earlier FSAs its push reported and the later ones
    // that reported it.
    let mut set = FsaSet::new(20.0);
    let mut scratch = QueryScratch::default();
    let mut near_lists: Vec<Vec<u32>> = Vec::new();
    for (i, rect) in rects.iter().enumerate() {
        let earlier = set.push(*rect, &mut scratch).to_vec();
        for &j in &earlier {
            near_lists[j as usize].push(i as u32);
        }
        near_lists.push(earlier);
        near_lists[i].push(i as u32);
    }
    // Phase B's questions per deferred state: hand its neighbourhood
    // back, count stabs at a vertex inside it, find the deepest region.
    let sweep = |scratch: &mut QueryScratch| {
        let mut deepest = 0;
        for (clip, hits) in rects.iter().zip(&near_lists).cycle().take(1_000) {
            let mut near = set.neighbourhood_of(clip, hits.iter().copied(), scratch);
            let stabbed = near.stab_count(&clip.centroid());
            let (_, depth) = near.deepest_above(0).expect("clip is in the set");
            assert!((1..=depth).contains(&stabbed), "stab {stabbed} outside 1..={depth}");
            deepest = deepest.max(depth);
        }
        deepest
    };
    let warm = sweep(&mut scratch);
    assert!(warm >= 40, "the hub clips must sweep many rects, got depth {warm}");
    let (n, again) = allocs_in(|| sweep(&mut scratch));
    assert_eq!(n, 0, "1 000 queries on a warmed scratch allocated");
    assert_eq!(again, warm);
}

/// A warmed coordinator's epoch allocates only what it hands out:
/// `submit_batch` of a same-shaped batch — each state's gather into the
/// overlap grid and the end-vertex rows — allocates 0 bytes, and
/// `process_epoch` allocates the reply vector plus exactly what an idle
/// boundary right after it allocates, which is the published snapshot.
/// Every batch is all Phase B: fresh start vertices, FSAs piled on
/// eight hubs, so states join earlier epochs' vertices, each other's
/// and the overlap regions.
#[test]
fn a_warmed_epoch_allocates_only_its_reply_and_snapshot() {
    let mut c = Coordinator::new(Config::builder().window(100).epoch(10).k(10).build().unwrap());
    // Start vertices cycle every 32 epochs, long after their paths (10
    // epochs) expired.
    let batch = |epoch: u64| -> Vec<ClientState> {
        (0..48u64)
            .map(|i| {
                let start = Point::new((epoch % 32) as f64 * 1_000.0 + i as f64 * 10.0, -5_000.0);
                let hub = Point::new((i % 8) as f64 * 300.0, 0.0);
                let end = hub + Point::new((i / 8) as f64 * 3.0, (i / 8 % 3) as f64 * 2.0);
                ClientState {
                    object: ObjectId(i),
                    start,
                    ts: Timestamp(epoch * 10 - 8),
                    fsa: Rect::tolerance_square(end, 10.0),
                    te: Timestamp(epoch * 10 - 1),
                }
            })
            .collect()
    };
    let epoch = |c: &mut Coordinator, e: u64| {
        let states = batch(e);
        let (ingest, ()) = bytes_in(|| c.submit_batch(states.iter().copied()));
        let now = Timestamp(e * 10);
        let (boundary, reply) = bytes_in(|| c.process_epoch(now));
        let (idle, nothing) = bytes_in(|| c.process_epoch(now));
        assert!(nothing.is_empty());
        assert_eq!(reply.len(), states.len());
        let reply_bytes = (reply.capacity() * std::mem::size_of::<EndpointResponse>()) as u64;
        (ingest, boundary - idle - reply_bytes)
    };
    // Warm-up: the clock sweeps a whole rotation of the expiry wheel's
    // second level (4 096 ticks), so every bucket holds a buffer.
    for e in 1..=450 {
        epoch(&mut c, e);
    }
    for e in 451..=470 {
        assert_eq!(epoch(&mut c, e), (0, 0), "epoch {e}: (ingest, strategy) bytes");
    }
    let p = c.processing_stats();
    assert_eq!(p.case1, 0, "every state goes through Phase B");
    assert!(p.case2 > 0 && p.case3 > 0, "cases 2 and 3 both occur: {p:?}");
    c.check_consistency().unwrap();
}

/// Expiry empties end-vertex cells and adjacency lists all the time, and
/// Phase B fills new ones: their buffers are recycled, not freed and
/// allocated again.
#[test]
fn index_churn_through_empty_cells_and_lists_does_not_allocate() {
    // Every crossing leaves the window one tick after it exits.
    let mut table = PathTable::new(SlidingWindow::new(1), 50.0, 1e-3);
    // A resident population the churn runs beside, crossed so far in
    // the future that it never expires here.
    for k in 0..64 {
        let k = k as f64;
        let (start, end) = (Point::new(k * 10.0, -5_000.0), Point::new(k * 10.0, -4_000.0));
        table.insert_edge(start, end, Timestamp(1 << 30));
    }
    // Sixteen paths, each from its own start vertex into an end-vertex
    // cell nothing else occupies, stored and then expired: every cycle
    // creates and empties 16 cells and 16 adjacency lists.
    let mut now = 0u64;
    let mut cycle = |table: &mut PathTable| {
        now += 1;
        for k in 0..16 {
            let k = k as f64;
            let (start, end) = (Point::new(k * 100.0, 0.0), Point::new(k * 100.0, 1_000.0));
            assert!(table.insert_edge(start, end, Timestamp(now)).1);
        }
        now += 1;
        assert_eq!(table.advance(Timestamp(now)).len(), 16);
    };
    // Warm-up: path ids are always fresh, so the id map settles its
    // capacity; and the clock sweeps a whole rotation of the wheel's
    // second level (4 096 ticks), so every bucket the churn's expiries
    // land in holds a buffer before the count starts.
    for _ in 0..2_100 {
        cycle(&mut table);
    }
    let (n, ()) = allocs_in(|| (0..100).for_each(|_| cycle(&mut table)));
    assert_eq!(n, 0, "100 store/expire cycles through empty cells and lists allocated");
    assert_eq!(table.len(), 64);
    table.check_consistency().unwrap();
}

/// A snapshot read is one atomic load while nothing new is published
/// and one lock-and-`Arc`-clone on the first read after a publish:
/// neither allocates.
#[test]
fn snapshot_reads_allocate_nothing_before_or_after_a_publish() {
    let cell = SnapshotCell::new();
    let mut handle = cell.register();
    for epoch in 1..=50u64 {
        let mut snap = HotSnapshot::empty();
        snap.epoch = epoch;
        cell.publish(Arc::new(snap));
        let (first, seen) = bytes_in(|| handle.read().epoch);
        assert_eq!(first, 0, "the first read after publish {epoch} allocated");
        assert_eq!(seen, epoch);
        let (idle, sum) = bytes_in(|| (0..100).map(|_| handle.read().epoch).sum::<u64>());
        assert_eq!(idle, 0, "reads between publishes allocated");
        assert_eq!(sum, 100 * epoch);
    }
}
