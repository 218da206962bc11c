//! # hotpath-serve
//!
//! The serving front door of the EDBT 2008 reproduction: a long-lived
//! `hotpathd` server that owns an [`Engine`](hotpath_core::engine::Engine),
//! drives the epoch loop on a single writer thread, and serves reads
//! from the engine's
//! [`SnapshotCell`](hotpath_core::snapshot::SnapshotCell) — a read is
//! one atomic load between publishes and one short lock-and-clone
//! after each.
//!
//! Two layers:
//!
//! - [`server`] — the in-process front door: [`Hotpathd`](server::Hotpathd)
//!   spawns the writer thread, [`ServerHandle`](server::ServerHandle)
//!   is the client surface (submit / advance / snapshot readers).
//! - [`wire`] — a length-prefixed binary frame protocol plus a unix-
//!   socket transport, so out-of-process clients can submit batches and
//!   query the published top-k without linking the engine.
//!
//! ```no_run
//! use hotpath_core::prelude::*;
//! use hotpath_serve::server::Hotpathd;
//!
//! let engine = EngineKind::Sync.build(Coordinator::new(Config::paper_defaults()));
//! let handle = Hotpathd::spawn(engine);
//! let mut reader = handle.reader();
//! for t in 1..=100 {
//!     handle.advance(Timestamp(t));
//! }
//! let snap = reader.load();
//! println!("epoch {} hot {}", snap.epoch, snap.hot_count);
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod server;
pub mod wire;

/// Polls `poll`, which returns a published epoch and the value read
/// with it, with a short sleep until that epoch reaches `want`, and
/// returns the value. Panics after a deadline naming `want`, so a lost
/// publish fails the test instead of hanging it.
#[cfg(test)]
fn wait_for_epoch<T>(want: u64, mut poll: impl FnMut() -> (u64, T)) -> T {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (epoch, value) = poll();
        if epoch >= want {
            return value;
        }
        assert!(Instant::now() < deadline, "epoch {want} not published within 10 s (at {epoch})");
        std::thread::sleep(Duration::from_millis(1));
    }
}
