//! Communication and processing accounting.
//!
//! The evaluation's efficiency metrics — messages exchanged, bytes on the
//! wire, and coordinator processing time per epoch — are collected here
//! so both the simulation harness and the benches read one source of
//! truth.

use std::time::Duration;

/// Monotone counters for client/coordinator traffic.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CommStats {
    /// State messages from objects to the coordinator.
    pub uplink_msgs: u64,
    /// Uplink payload bytes.
    pub uplink_bytes: u64,
    /// Endpoint responses from the coordinator to objects.
    pub downlink_msgs: u64,
    /// Downlink payload bytes.
    pub downlink_bytes: u64,
}

impl CommStats {
    /// Records one uplink message of `bytes` payload.
    #[inline]
    pub fn record_uplink(&mut self, bytes: usize) {
        self.uplink_msgs += 1;
        self.uplink_bytes += bytes as u64;
    }

    /// Records one downlink message of `bytes` payload.
    #[inline]
    pub fn record_downlink(&mut self, bytes: usize) {
        self.downlink_msgs += 1;
        self.downlink_bytes += bytes as u64;
    }

    /// Component-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            uplink_msgs: self.uplink_msgs - earlier.uplink_msgs,
            uplink_bytes: self.uplink_bytes - earlier.uplink_bytes,
            downlink_msgs: self.downlink_msgs - earlier.downlink_msgs,
            downlink_bytes: self.downlink_bytes - earlier.downlink_bytes,
        }
    }
}

/// Monotone admission-control counters: what the drain-ingest stage
/// did with overload. All zeros while the ingest bound is off (the
/// default), so the paper pipeline reads as fully admitted.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct AdmissionStats {
    /// States admitted into epoch processing.
    pub admitted: u64,
    /// States refused at the cap under the `Reject` policy.
    pub rejected: u64,
    /// States shed from the queue front under `ShedOldest`.
    pub shed: u64,
    /// States removed because their client was ejected under
    /// `EjectSlowest`.
    pub ejected: u64,
    /// Epochs that shed Phase B refinement under overload.
    pub degraded_epochs: u64,
}

impl AdmissionStats {
    /// Total states turned away, under any policy.
    #[inline]
    pub fn turned_away(&self) -> u64 {
        self.rejected + self.shed + self.ejected
    }
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

impl ProcessingStats {
    /// Fraction of selections that reused an existing path (Case 1).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.case1 + self.case2 + self.case3;
        if total == 0 {
            0.0
        } else {
            self.case1 as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_counters_accumulate() {
        let mut c = CommStats::default();
        c.record_uplink(72);
        c.record_uplink(72);
        c.record_downlink(24);
        assert_eq!(c.uplink_msgs, 2);
        assert_eq!(c.uplink_bytes, 144);
        assert_eq!(c.downlink_msgs, 1);
    }

    #[test]
    fn since_computes_deltas() {
        let mut c = CommStats::default();
        c.record_uplink(10);
        let snap = c;
        c.record_uplink(10);
        c.record_downlink(5);
        let d = c.since(&snap);
        assert_eq!(d.uplink_msgs, 1);
        assert_eq!(d.uplink_bytes, 10);
        assert_eq!(d.downlink_msgs, 1);
        assert_eq!(d.downlink_bytes, 5);
    }

    #[test]
    fn processing_means_and_ratios() {
        let mut p = ProcessingStats::default();
        assert_eq!(p.reuse_ratio(), 0.0);
        p.epochs = 4;
        p.strategy_time = Duration::from_millis(100);
        p.case1 = 6;
        p.case2 = 3;
        p.case3 = 1;
        assert!((p.reuse_ratio() - 0.6).abs() < 1e-12);
    }
}
