//! The curated-facade acceptance: everything a downstream program needs
//! for the submit -> epoch -> lock-free-read lifecycle must be
//! reachable through `hotpath::prelude` alone — no `hotpath_core::...`
//! paths, no reaching into member crates.

use hotpath::prelude::*;

fn traversal(obj: u64, te: u64) -> ClientState {
    let end = Point::new(50.0, 0.0);
    ClientState {
        object: ObjectId(obj),
        start: Point::new(0.0, 0.0),
        ts: Timestamp(te.saturating_sub(8)),
        fsa: Rect::new(Point::new(end.x - 2.0, end.y - 2.0), Point::new(end.x + 2.0, end.y + 2.0)),
        te: Timestamp(te),
    }
}

/// The raw-engine lifecycle through the prelude: validated config,
/// the engine, a snapshot cell, and lock-free reads.
#[test]
fn prelude_drives_submit_epoch_and_snapshot_read() {
    let config = Config::builder().window(10_000).build().expect("builder invariants hold");
    let mut engine = EngineKind::Sync.build(Coordinator::new(config));
    let cell = SnapshotCell::new();
    engine.attach_cell(cell.clone());
    let mut reader: SnapshotHandle = cell.register();
    assert_eq!(reader.epoch(), 0, "epoch-0 image pre-published");

    for epoch in 1..=3u64 {
        engine.submit(traversal(epoch, epoch * 10 - 1));
        engine.advance_time(Timestamp(epoch * 10));
        let responses: Vec<EndpointResponse> = engine.process_epoch(Timestamp(epoch * 10));
        assert_eq!(responses.len(), 1, "one client answered per epoch");
    }
    let last: std::sync::Arc<HotSnapshot> = engine.snapshot();
    assert_eq!(last.epoch, 3);
    let sessions: SessionCounters = last.sessions;
    assert_eq!(sessions, SessionCounters::default(), "sessions are off by default");

    // The lock-free read path agrees with the engine's own view.
    let guard: SnapshotGuard<'_> = reader.read();
    assert_eq!(guard.epoch, 3);
    assert_eq!(guard.top_k.len(), 1);
    let hot: &HotPath = &guard.top_k[0];
    assert_eq!(hot.hotness, 3, "three traversals of one corridor");
    assert!(hot.score > 0.0);
    drop(guard);
    engine.finish();
}

/// The serving lifecycle through the prelude: `hotpathd` front door,
/// reader handles, and the deterministic swarm.
#[test]
fn prelude_serves_and_verifies_the_swarm() {
    let config = Config::paper_defaults();
    let handle: ServerHandle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
    let mut reader = handle.reader();
    handle.submit_batch(vec![traversal(1, 9)]);
    handle.advance(Timestamp(10));
    let snap = handle.shutdown();
    assert_eq!(snap.epoch, 1);
    assert_eq!(snap.comm.uplink_msgs, 1);
    assert_eq!(reader.epoch(), 1);

    let params = SwarmParams { writers: 6, readers: 1, ticks: 40, ..SwarmParams::default() };
    let report: SwarmReport = run_swarm(&params);
    assert_eq!(report.final_epoch, 4);
}

/// Typed parsing is part of the curated surface.
#[test]
fn prelude_parses_cli_tags_with_typed_errors() {
    assert_eq!("shed-oldest".parse::<AdmissionPolicy>().unwrap(), AdmissionPolicy::ShedOldest);
    assert!(
        matches!("minimal:0.5".parse::<FallbackPolicy>(), Ok(FallbackPolicy::MinimalArea(w)) if w == 0.5)
    );
    let err: ParseError = "warp".parse::<AdmissionPolicy>().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid admission policy \"warp\": expected reject | shed-oldest | eject-slowest"
    );
    let config_err: ConfigError =
        Config::builder().epoch(50).window(10).build().expect_err("epoch > window");
    assert!(config_err.to_string().contains("epoch"));
}
