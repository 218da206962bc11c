//! # hotpath-baseline
//!
//! The Douglas-Peucker competitor family of the EDBT 2008 evaluation:
//!
//! * [`douglas_peucker`] — the classic offline algorithm \[8\], for
//!   validation;
//! * [`opening_window`] — the on-line DP-nopw / DP-bopw variants of
//!   Meratnia & de By \[20\];
//! * [`hot_segments`] — the paper's relaxed "DP" method (Section 6):
//!   time-agnostic segments with eps-expanded-MBB reuse and
//!   sliding-window hotness, the benchmark SinglePath is compared
//!   against in Figures 7 and 8;
//! * [`dead_reckoning`] — the classic linear-prediction location-update
//!   filter, a communication baseline for RayTrace;
//! * [`reference`](mod@reference) — the paper's SinglePath coordinator by full scan,
//!   the oracle `hotpath_core`'s coordinator is tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dead_reckoning;
pub mod douglas_peucker;
pub mod hot_segments;
pub mod opening_window;
pub mod reference;

pub use dead_reckoning::{DeadReckoningFilter, DrStats, DrUpdate};
pub use douglas_peucker::Metric;
pub use hot_segments::{DpHotSegments, HotSegment};
pub use opening_window::{EmittedSegment, EndpointPolicy, OpeningWindow};
