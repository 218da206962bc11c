//! Sliding-window semantics across the whole coordinator stack:
//! crossings expire exactly at `te + W` and dead paths leave the index.

use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;

fn state(obj: u64, sx: f64, ex: f64, ts: u64, te: u64) -> ClientState {
    let e = Point::new(ex, 0.0);
    ClientState {
        object: ObjectId(obj),
        start: Point::new(sx, 0.0),
        ts: Timestamp(ts),
        fsa: Rect::new(e - Point::new(1.0, 1.0), e + Point::new(1.0, 1.0)),
        te: Timestamp(te),
    }
}

#[test]
fn crossing_expires_exactly_at_te_plus_w() {
    let cfg = Config::builder().window(50).build().unwrap();
    let mut c = Coordinator::new(cfg);
    c.submit(state(1, 0.0, 30.0, 0, 7));
    let _ = c.process_epoch(Timestamp(10));
    assert_eq!(c.index_size(), 1);
    // Alive through te + W - 1 = 56.
    c.advance_time(Timestamp(56));
    assert_eq!(c.index_size(), 1);
    // Dead at te + W = 57.
    c.advance_time(Timestamp(57));
    assert_eq!(c.index_size(), 0);
    c.check_consistency().unwrap();
}

#[test]
fn refreshed_paths_survive_expiry_of_old_crossings() {
    let cfg = Config::builder().window(50).build().unwrap();
    let mut c = Coordinator::new(cfg);
    // Crossing at te=5, re-crossed at te=45 by another object.
    c.submit(state(1, 0.0, 30.0, 0, 5));
    let _ = c.process_epoch(Timestamp(10));
    c.submit(state(2, 0.0, 30.0, 30, 45));
    let _ = c.process_epoch(Timestamp(50));
    let id = c.top_k()[0].path.id;
    assert_eq!(c.hotness_of(id), 2);
    // First crossing expires at 55; the path stays with hotness 1.
    c.advance_time(Timestamp(60));
    assert_eq!(c.hotness_of(id), 1);
    assert_eq!(c.index_size(), 1);
    // Second expires at 95.
    c.advance_time(Timestamp(95));
    assert_eq!(c.index_size(), 0);
}

#[test]
fn score_tracks_window_contents() {
    let cfg = Config::builder().window(50).build().unwrap();
    let mut c = Coordinator::new(cfg);
    for obj in 0..4u64 {
        c.submit(state(obj, 0.0, 100.0, 0, 8));
    }
    let _ = c.process_epoch(Timestamp(10));
    // One path, hotness 4, length ~100: score ~400.
    let s1 = c.top_k_score();
    assert!(s1 > 300.0, "score {s1}");
    c.advance_time(Timestamp(58));
    assert_eq!(c.top_k_score(), 0.0);
}

#[test]
fn expired_path_id_is_never_reused() {
    let cfg = Config::builder().window(20).build().unwrap();
    let mut c = Coordinator::new(cfg);
    c.submit(state(1, 0.0, 30.0, 0, 5));
    let _ = c.process_epoch(Timestamp(10));
    let first = c.top_k()[0].path.id;
    c.advance_time(Timestamp(100)); // expire everything
    c.submit(state(1, 0.0, 30.0, 100, 105));
    let _ = c.process_epoch(Timestamp(110));
    let second = c.top_k()[0].path.id;
    assert_ne!(first, second, "path ids must be fresh after expiry");
}
