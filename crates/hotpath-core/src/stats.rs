//! Communication and processing accounting.
//!
//! The evaluation's efficiency metrics — messages exchanged and
//! coordinator processing time per epoch — are collected here so both
//! the simulation harness and the benches read one source of truth.
//! Bytes on the wire are not counted: they are message counts times the
//! fixed message sizes.

use std::time::Duration;

/// Monotone counters for client/coordinator traffic. Only the uplink
/// count is kept: both message sizes are fixed
/// (`ClientState::WIRE_BYTES`, `EndpointResponse::WIRE_BYTES`) and every
/// processed state gets exactly one endpoint reply, so the byte totals
/// and the downlink count follow from this count and
/// [`ProcessingStats::states_processed`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CommStats {
    /// State messages from objects to the coordinator.
    pub uplink_msgs: u64,
}

/// Monotone admission-control counters: what the drain-ingest stage
/// did with overload. All zeros while the ingest bound and the degrade
/// threshold are off (the default), so the paper pipeline reads as
/// fully admitted; the admitted states are
/// [`ProcessingStats::states_processed`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct AdmissionStats {
    /// States removed because their client was ejected by the queue cap.
    pub ejected: u64,
    /// Epochs that shed Phase B refinement under overload.
    pub degraded_epochs: u64,
}

/// Coordinator-side processing accounting.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcessingStats {
    /// Epochs processed.
    pub epochs: u64,
    /// States processed across all epochs.
    pub states_processed: u64,
    /// Accumulated SinglePath wall time.
    pub strategy_time: Duration,
    /// Accumulated hotness-expiry wall time.
    pub expiry_time: Duration,
    /// Accumulated snapshot-publish wall time (the epoch pipeline's
    /// publish stage).
    pub publish_time: Duration,
    /// Case-1 selections (existing path reused).
    pub case1: u64,
    /// Case-2 selections (existing vertex reused).
    pub case2: u64,
    /// Case-3 selections (fresh vertex generated).
    pub case3: u64,
}
