//! The curated-facade acceptance: everything a downstream program needs
//! for the submit -> epoch -> snapshot-read lifecycle must be
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
/// the engine, its snapshot cell, and cached reads.
#[test]
fn prelude_drives_submit_epoch_and_snapshot_read() {
    let config = Config::builder().window(10_000).build().expect("builder invariants hold");
    let mut engine = EngineKind::Sync.build(Coordinator::new(config));
    let cell: std::sync::Arc<SnapshotCell> = engine.cell();
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

    // The cached read path agrees with the engine's own view.
    let read: &HotSnapshot = reader.read();
    assert_eq!(read.epoch, 3);
    assert_eq!(read.top_k.len(), 1);
    let hot: &HotPath = &read.top_k[0];
    assert_eq!(hot.hotness, 3, "three traversals of one corridor");
    assert!(hot.score > 0.0);
    engine.finish();
}

/// The serving lifecycle through the prelude: `hotpathd` front door
/// and reader handles.
#[test]
fn prelude_serves_snapshots() {
    let config = Config::paper_defaults();
    let handle: ServerHandle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
    let mut reader = handle.reader();
    handle.submit_batch(vec![traversal(1, 9)]);
    handle.advance(Timestamp(10));
    let snap = handle.shutdown();
    assert_eq!(snap.epoch, 1);
    assert_eq!(snap.comm.uplink_msgs, 1);
    assert_eq!(reader.epoch(), 1);
}

/// Typed parsing is part of the curated surface.
#[test]
fn prelude_parses_cli_tags_with_typed_errors() {
    assert!(
        matches!("minimal:0.5".parse::<FallbackPolicy>(), Ok(FallbackPolicy::MinimalArea(w)) if w == 0.5)
    );
    let err: ParseError = "warp".parse::<FallbackPolicy>().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid fallback policy \"warp\": expected reject | minimal | minimal:<width-in-meters>"
    );
    let config_err: ConfigError =
        Config::builder().epoch(50).window(10).build().expect_err("epoch > window");
    assert!(config_err.to_string().contains("epoch"));
}
