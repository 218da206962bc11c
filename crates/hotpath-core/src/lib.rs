//! # hotpath-core
//!
//! A from-scratch implementation of **"On-Line Discovery of Hot Motion
//! Paths"** (Sacharidis et al., EDBT 2008).
//!
//! Numerous moving objects report noisy positions to a coordinator, which
//! maintains the *hot motion paths* — directed segments frequently crossed
//! (within a max-distance tolerance `eps`, or a probabilistic `(eps,
//! delta)` tolerance) during a sliding window of the last `W` time units.
//!
//! The crate provides the paper's full stack:
//!
//! * [`raytrace`] — the client-side **RayTrace** filter (Algorithm 1): an
//!   `O(1)`-space, one-pass greedy compressor that maintains a Spatial
//!   Safe Area and only contacts the coordinator when a measurement
//!   escapes it.
//! * [`uncertainty`] — Gaussian measurement handling (Section 4.1):
//!   tolerance-interval solving from the normal CDF, with a precomputed
//!   lookup-table fast path.
//! * [`index`] — the **path table**: every stored motion path with its
//!   sliding-window hotness in one slab, under the grid-based MotionPath
//!   index of Section 5.1 and the expiry wheel of Section 5.2.
//! * [`strategy`] — the **SinglePath** discovery strategy (Algorithm 2)
//!   with FSA-overlap candidate generation.
//! * [`coordinator`] — the epoch-batched coordinator facade tying the
//!   path table and the strategy together, answering top-`k` queries and the
//!   score metric of Section 3.1.
//! * [`engine`] — the execution layer over the coordinator: the epoch
//!   stages (drain-ingest → Phase A → Phase B → publish) run on the
//!   caller's thread by `SyncEngine`; reads go through the
//!   epoch-stamped `HotSnapshot` it publishes into its
//!   [`snapshot::SnapshotCell`].
//!
//! ## Quick example
//!
//! ```
//! use hotpath_core::prelude::*;
//!
//! let config = Config::builder().epoch(5).window(50).build().unwrap();
//! let mut coordinator = Coordinator::new(config);
//! let mut client = RayTraceFilter::new(
//!     ObjectId(0),
//!     TimePoint::new(Point::new(0.0, 0.0), Timestamp(0)),
//!     config.tolerance.eps(),
//! );
//!
//! // Feed measurements; ship any escaping state to the coordinator.
//! for t in 1..=30u64 {
//!     let p = Point::new(t as f64 * 12.0, 0.0); // fast mover: violates often
//!     if let Some(state) = client.observe(TimePoint::new(p, Timestamp(t))) {
//!         coordinator.submit(state);
//!     }
//!     if config.epochs.is_epoch(Timestamp(t)) {
//!         for resp in coordinator.process_epoch(Timestamp(t)) {
//!             if resp.object == ObjectId(0) {
//!                 client.receive_endpoint(resp.endpoint);
//!             }
//!         }
//!     }
//! }
//! let hottest = coordinator.top_k();
//! println!("{} hot paths", hottest.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod config;
pub mod coordinator;
pub mod engine;
pub mod fxhash;
pub mod geometry;
pub mod index;
pub mod motion_path;
pub mod raytrace;
pub mod snapshot;
pub mod stats;
pub mod strategy;
pub mod time;
pub mod uncertainty;
pub mod wheel;

/// Tests of the path table's sliding-window hotness side: counting,
/// expiry order, the top-k walk and restore (Section 5.2).
#[cfg(test)]
mod hotness {
    mod tests;
}

/// Identifier of a moving object (client).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(transparent)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Convenient glob-import of the public API.
pub mod prelude {
    pub use crate::checkpoint::{Checkpoint, CheckpointError, CoordinatorImage};
    pub use crate::config::{Admission, Config, ConfigBuilder, ConfigError, ParseError, Tolerance};
    pub use crate::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
    pub use crate::engine::{Engine, EngineKind, SyncEngine};
    pub use crate::geometry::{Point, Rect, Segment, TimePoint, Trajectory};
    pub use crate::motion_path::{MotionPath, PathId};
    pub use crate::raytrace::{ClientState, RayTraceFilter};
    pub use crate::snapshot::{SnapshotCell, SnapshotHandle};
    pub use crate::stats::AdmissionStats;
    pub use crate::time::{EpochClock, SlidingWindow, TimeInterval, Timestamp};
    pub use crate::uncertainty::{GaussianPoint, ToleranceTable};
    pub use crate::ObjectId;
}
