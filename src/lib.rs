//! # hotpath
//!
//! Thin facade over the hot-motion-path workspace ("On-Line Discovery of
//! Hot Motion Paths", Sacharidis et al., EDBT 2008). It re-exports the
//! member crates so the root-level integration tests and examples have a
//! single owning package, and so downstream users can depend on one crate.
//!
//! Most programs only need [`prelude`]: it curates the supported public
//! surface — configuration, the engine, snapshot
//! reads, the serving front door, the scenario registry, and the
//! run driver — so `use hotpath::prelude::*;` is enough to
//! build, drive, and read a coordinator end to end:
//!
//! ```
//! use hotpath::prelude::*;
//!
//! let config = Config::paper_defaults();
//! let mut engine = EngineKind::Sync.build(Coordinator::new(config));
//! let mut reader = engine.cell().register();
//! engine.process_epoch(Timestamp(10));
//! assert_eq!(reader.read().epoch, 1);
//! # engine.finish();
//! ```

#![warn(missing_docs)]

pub use hotpath_baseline as baseline;
pub use hotpath_core as core;
pub use hotpath_netsim as netsim;
pub use hotpath_serve as serve;
pub use hotpath_sim as sim;

/// The curated public surface: everything a downstream program needs to
/// configure an engine, drive epochs, read published snapshots, serve
/// them out of process, and run the scenario driver —
/// without reaching into individual member crates.
pub mod prelude {
    // Configuration and typed parsing.
    pub use hotpath_core::config::{
        Admission, Config, ConfigBuilder, ConfigError, ParseError, Tolerance,
    };
    // The engine surface and the published view.
    pub use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotPath, HotSnapshot};
    pub use hotpath_core::engine::{Engine, EngineKind, SyncEngine};
    // Snapshot reads.
    pub use hotpath_core::snapshot::{SnapshotCell, SnapshotHandle};
    // Checkpoint/restore.
    pub use hotpath_core::checkpoint::{Checkpoint, CheckpointError};
    // The client-side state vocabulary.
    pub use hotpath_core::geometry::{Point, Rect, Segment};
    pub use hotpath_core::motion_path::{MotionPath, PathId};
    pub use hotpath_core::raytrace::{ClientState, RayTraceFilter};
    pub use hotpath_core::time::{EpochClock, SlidingWindow, Timestamp};
    pub use hotpath_core::uncertainty::FallbackPolicy;
    pub use hotpath_core::ObjectId;
    // The serving front door.
    pub use hotpath_serve::server::{Hotpathd, ServerHandle, ServerMsg};
    pub use hotpath_serve::wire::{serve_unix, SnapshotWire, UnixClient, UnixServer};
    // The scenario registry, the run driver, and its per-epoch record
    // (the published snapshot plus the driver's own columns).
    pub use hotpath_netsim::scenario::{EpochSample, ScenarioParams, Workload, REGISTRY};
    pub use hotpath_sim::scenario_run::{run_named, run_scenario, ScenarioRunParams};
}
