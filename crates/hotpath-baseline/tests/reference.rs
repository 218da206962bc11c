//! The core coordinator against the paper-level reference
//! ([`hotpath_baseline::reference`]), and the overlap layer against
//! brute force: `FsaSet::push` hit lists against a full scan, the
//! max-depth sweep against the per-slab oracle the reference uses.

use hotpath_baseline::reference::{self, max_depth_region};
use hotpath_core::checkpoint::Checkpoint;
use hotpath_core::config::{Config, Tolerance};
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotPath};
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::strategy::{FsaSet, QueryScratch};
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use proptest::prelude::*;

/// One state: `(site, x, y, half, start, noise, late)`. Sites 0-2 are
/// hubs where FSAs pile up at a 1 m pitch; 3-7 a 10 m lattice whose
/// points lie on the 10 m grid-cell borders (`eps = 5`). `noise` nudges
/// the FSA by a sub-grain amount that keeps vertex keys but can cross a
/// cell border; `half` picks the FSA half-side, 0 making the FSA one
/// point. Starts 0-3 are shared, 4 is the state's own, 5 a lattice
/// point (so paths chain through vertices other paths end at); `late` 7
/// puts `te` outside the window already. `obj` is the state's index in
/// the batch and `client` the id it reports under, so one client can
/// hold several states of a batch.
type Spec = (u8, u32, u32, u8, u8, u8, u8);

fn state(
    obj: usize,
    client: u64,
    (site, x, y, half, start, noise, late): Spec,
    now: u64,
    w: u64,
) -> ClientState {
    let nudge = [0.0, 2e-4, -2e-4][noise as usize];
    let c = match site {
        0..=2 => Point::new(site as f64 * 60.0 + x as f64, y as f64),
        _ => Point::new(200.0 + x as f64 * 10.0, y as f64 * 10.0),
    } + Point::new(nudge, -nudge);
    let half = Point::new(1.0, 1.0) * [0.0, 0.5, 3.0, 8.0][half as usize];
    let start = match start {
        0..=3 => Point::new(-50.0, start as f64 * 25.0),
        4 => Point::new(-500.0, obj as f64),
        _ => Point::new(200.0 + y as f64 * 10.0, x as f64 * 10.0),
    };
    let te = if late == 7 { now.saturating_sub(w + 2) } else { now - 1 - late as u64 % 4 };
    ClientState {
        object: ObjectId(client),
        start,
        ts: Timestamp(te.saturating_sub(4)),
        fsa: Rect::new(c - half, c + half),
        te: Timestamp(te),
    }
}

fn spec() -> impl Strategy<Value = Spec> {
    (0u8..8, 0u32..6, 0u32..6, 0u8..4, 0u8..6, 0u8..3, 0u8..8)
}

/// A response bit for bit: object, endpoint, `te`.
fn response(r: &EndpointResponse) -> (u64, [u64; 2], u64) {
    let p = r.endpoint.p;
    (r.object.0, [p.x.to_bits(), p.y.to_bits()], r.endpoint.t.raw())
}

/// A path bit for bit: id, geometry, hotness.
fn path(h: &HotPath) -> (u64, [u64; 4], u32) {
    let (a, b) = (h.path.start(), h.path.end());
    (h.path.id.0, [a.x, a.y, b.x, b.y].map(f64::to_bits), h.hotness)
}

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.lo().x.to_bits(), r.lo().y.to_bits(), r.hi().x.to_bits(), r.hi().y.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every epoch, the core coordinator publishes what Algorithm 2 by
    /// full scan publishes: the same responses in the same order, the
    /// same stored paths with the same hotness, the same top-k and
    /// score, the same case tallies, and the same ejected and degraded
    /// counts. The schedules mix hub pile-ups with isolated FSAs, shared
    /// starts, sub-grain copies of one vertex across cell borders, late
    /// crossings and idle gaps past the window, over 1-41 clients; the
    /// admission cap is off in half the cases and at 1-12 in the other
    /// half, and the degrade threshold off or at 1-20 (which drives
    /// both sides through `Own`) where it stays below the cap. The core
    /// side is restarted from its checkpoint bytes, pending batch
    /// included, before each epoch whose bit is set in `restarts`: no
    /// restart, any subset, or one before every epoch.
    #[test]
    fn coordinator_matches_the_full_scan_reference(
        epochs in prop::collection::vec((0u8..4, prop::collection::vec(spec(), 0..41)), 1..9),
        degrade in 0u8..25,
        cap in 0u8..48,
        clients in 1u64..42,
        window in 10u64..40,
        k in 1usize..6,
        restarts in 0u16..512,
    ) {
        let mut builder = Config::builder()
            .tolerance(Tolerance::crisp(5.0))
            .window(window)
            .epoch(5)
            .k(k);
        let cap = (cap < 24).then(|| cap as usize % 12 + 1);
        if let Some(cap) = cap {
            builder = builder.admission_cap(cap);
        }
        let degrade = degrade as usize + 1;
        if degrade <= 20 && cap.is_none_or(|cap| degrade < cap) {
            builder = builder.degrade_threshold(degrade);
        }
        let config = builder.build().unwrap();
        let mut real = Coordinator::new(config);
        let mut oracle = reference::Coordinator::new(config);
        let mut now = 0;
        for (e, (gap, specs)) in epochs.iter().enumerate() {
            now += if *gap == 3 { window + 5 } else { 5 * (*gap as u64 + 1) };
            for (i, &s) in specs.iter().enumerate() {
                let st = state(i, i as u64 % clients, s, now, window);
                real.submit(st);
                oracle.submit(st);
            }
            if (restarts >> e) & 1 == 1 {
                let bytes = Checkpoint::new(real.image()).as_bytes().to_vec();
                real = Coordinator::from_image(config, Checkpoint::from_bytes(bytes).unwrap().image())
                    .unwrap();
            }
            let at = Timestamp(now);
            let got: Vec<_> = real.process_epoch(at).iter().map(response).collect();
            let want: Vec<_> = oracle.process_epoch(at).iter().map(response).collect();
            prop_assert_eq!(got, want, "responses at epoch {}", e);
            let paths = |hot: &[HotPath]| hot.iter().map(path).collect::<Vec<_>>();
            prop_assert_eq!(paths(&real.hot_paths()), paths(&oracle.hot_paths()), "paths at {}", e);
            prop_assert_eq!(paths(&real.top_k()), paths(&oracle.top_k()), "top-k at epoch {}", e);
            prop_assert_eq!(real.top_k_score().to_bits(), oracle.top_k_score().to_bits());
            let (p, t) = (real.processing_stats(), oracle.tally());
            prop_assert_eq!((p.case1, p.case2, p.case3), (t.case1, t.case2, t.case3));
            let adm = real.admission_stats();
            prop_assert_eq!(
                (adm.ejected, adm.degraded_epochs),
                (oracle.ejected(), oracle.degraded_epochs()),
                "admission at epoch {}",
                e
            );
            real.check_consistency().map_err(TestCaseError::fail)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Each rect's `FsaSet::push` must report exactly the earlier rects
    /// meeting it, and the one-pass sweep behind
    /// `Neighbourhood::deepest_above` must return the very
    /// `(Rect, depth)` the per-slab oracle returns — bit for bit — at
    /// every floor below that depth and nothing at or above it, over
    /// rect sets from one rect to a few hundred, drawn from a coarse
    /// lattice so duplicates, edge-touching neighbours, and
    /// zero-width/zero-height rects are common. The neighbourhood's
    /// stabbing counts must equal a containment count anywhere inside
    /// the clip.
    #[test]
    fn max_depth_sweep_matches_per_slab_reference(
        rects in prop::collection::vec((0u32..40, 0u32..40, 0u32..9, 0u32..9, 0.0..1.0f64), 1..300),
        clips in prop::collection::vec((0u32..40, 0u32..40, 0u32..30, 0u32..30), 1..8),
        lattice in 0u8..3,
        hub in 0u8..3,
        cell in 1.0..40.0f64,
    ) {
        // `lattice` picks the coordinate pitch (the last one adds
        // off-lattice jitter so most boundaries are distinct); `hub`
        // picks how hard the rects pile up — at the tightest setting
        // every rect of the set overlaps every clip.
        let pitch = [1.0, 2.5, 0.37][lattice as usize];
        let span = [40, 8, 3][hub as usize];
        let rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h, jitter)| {
                let j = if lattice == 2 { jitter } else { 0.0 };
                let (x, y) = (x % span, y % span);
                let lo = Point::new(x as f64 * pitch + j, y as f64 * pitch - j);
                Rect::new(lo, lo + Point::new(w as f64 * pitch, h as f64 * pitch))
            })
            .collect();
        let meeting = |clip: &Rect, below: usize| -> Vec<u32> {
            (0..below as u32).filter(|&j| rects[j as usize].intersects(clip)).collect()
        };
        let mut set = FsaSet::new(cell);
        let mut scratch = QueryScratch::default();
        for (i, rect) in rects.iter().enumerate() {
            let mut hits = set.push(*rect, &mut scratch).to_vec();
            hits.sort_unstable();
            prop_assert_eq!(hits, meeting(rect, i), "push of rect {}", i);
        }
        // Every rect as its own clip (the hot loop's shape) plus free
        // clips, some far larger than any rect.
        let clips = rects.iter().copied().take(40).chain(clips.into_iter().map(|(x, y, w, h)| {
            let lo = Point::new(x as f64 * pitch, y as f64 * pitch);
            Rect::new(lo, lo + Point::new(w as f64 * pitch, h as f64 * pitch))
        }));
        for clip in clips {
            let mut near = set.neighbourhood_of(&clip, meeting(&clip, rects.len()), &mut scratch);
            let want = max_depth_region(&rects, &clip);
            let want_depth = want.map_or(0, |(_, d)| d);
            prop_assert!(want_depth <= near.len(), "depth {} over {} rects", want_depth, near.len());
            // The unbounded query, the floors just below, at and above
            // the answer, and a floor in between: the same region while
            // it is strictly deeper, then nothing — a tie included.
            let floors = [0, want_depth / 2, want_depth.saturating_sub(1), want_depth, want_depth + 1];
            for floor in floors {
                prop_assert_eq!(
                    near.deepest_above(floor).map(|(r, d)| (rect_bits(&r), d)),
                    want.filter(|&(_, d)| d > floor).map(|(r, d)| (rect_bits(&r), d)),
                    "clip {:?} floor {}",
                    clip,
                    floor
                );
            }
            // Stabbing counts over the neighbourhood are exact inside the
            // clip: its corners, edge midpoints and centroid, and every
            // corner of a set rect that lies in the clip.
            let (lo, hi) = (clip.lo(), clip.hi());
            let (mx, my) = ((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0);
            let own = [(lo.x, lo.y), (lo.x, hi.y), (hi.x, lo.y), (hi.x, hi.y), (mx, lo.y), (mx, hi.y), (lo.x, my), (hi.x, my), (mx, my)];
            let corners = rects.iter().take(16).flat_map(|r| {
                [(r.lo().x, r.lo().y), (r.lo().x, r.hi().y), (r.hi().x, r.lo().y), (r.hi().x, r.hi().y)]
            });
            for p in own.into_iter().chain(corners).map(|(x, y)| Point::new(x, y)) {
                if clip.contains(&p) {
                    let want = rects.iter().filter(|r| r.contains(&p)).count();
                    prop_assert_eq!(near.stab_count(&p), want, "clip {:?} at {:?}", clip, p);
                }
            }
        }
    }
}
