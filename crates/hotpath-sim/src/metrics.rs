//! Per-epoch and aggregate metrics.
//!
//! The evaluation (Section 6.1) tracks three quality/efficiency metrics,
//! averaged per epoch: index size in motion paths, top-k score, and
//! coordinator processing time; plus the communication the RayTrace
//! filters save.

use hotpath_core::stats::CommStats;
use hotpath_core::time::Timestamp;
use std::time::Duration;

/// Metrics captured at one epoch boundary.
#[derive(Clone, Copy, Debug)]
pub struct EpochMetrics {
    /// Epoch ordinal.
    pub epoch: u64,
    /// The boundary timestamp.
    pub timestamp: Timestamp,
    /// States processed this epoch.
    pub reporting: usize,
    /// Motion paths stored after processing (SinglePath).
    pub index_size: usize,
    /// Top-k score after processing (SinglePath).
    pub top_k_score: f64,
    /// Wall time the driver was blocked in `process_epoch` at this
    /// boundary: all four stages, publish included. The per-stage split
    /// is the `strategy_time` / `publish_time` deltas in
    /// [`HotSnapshot::processing`].
    ///
    /// [`HotSnapshot::processing`]: hotpath_core::coordinator::HotSnapshot
    pub processing: Duration,
    /// Communication delta this epoch.
    pub comm: CommStats,
    /// DP competitor index size (when the competitor runs).
    pub dp_index_size: Option<usize>,
    /// DP competitor top-k score.
    pub dp_score: Option<f64>,
    /// States Phase A deferred to Phase B this epoch (deterministic).
    pub phase_b_deferred: usize,
}

/// Aggregates over a full run: the per-epoch averages the paper plots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of epochs.
    pub epochs: u64,
    /// Mean motion paths in the index per epoch.
    pub mean_index_size: f64,
    /// Mean top-k score per epoch.
    pub mean_score: f64,
    /// Mean SinglePath processing time per epoch, milliseconds.
    pub mean_time_ms: f64,
    /// Mean reporting objects per epoch.
    pub mean_reporting: f64,
    /// Mean DP index size per epoch (when run).
    pub mean_dp_index_size: f64,
    /// Mean DP score per epoch (when run).
    pub mean_dp_score: f64,
    /// Total measurements generated by the population.
    pub measurements: u64,
    /// Total uplink state messages (the filter's compression output).
    pub uplink_msgs: u64,
    /// Uplink bytes.
    pub uplink_bytes: u64,
    /// What fraction of measurements became messages (lower = better
    /// filtering).
    pub report_ratio: f64,
}

impl Summary {
    /// Builds a summary from the per-epoch series. Averages skip warm-up
    /// epochs with an empty index (the paper plots steady behavior).
    pub fn from_epochs(per_epoch: &[EpochMetrics], measurements: u64) -> Summary {
        if per_epoch.is_empty() {
            return Summary::default();
        }
        let n = per_epoch.len() as f64;
        let uplink_msgs: u64 = per_epoch.iter().map(|e| e.comm.uplink_msgs).sum();
        let uplink_bytes: u64 = per_epoch.iter().map(|e| e.comm.uplink_bytes).sum();
        let dp_rows: Vec<&EpochMetrics> =
            per_epoch.iter().filter(|e| e.dp_index_size.is_some()).collect();
        Summary {
            epochs: per_epoch.len() as u64,
            mean_index_size: per_epoch.iter().map(|e| e.index_size as f64).sum::<f64>() / n,
            mean_score: per_epoch.iter().map(|e| e.top_k_score).sum::<f64>() / n,
            mean_time_ms: per_epoch.iter().map(|e| e.processing.as_secs_f64() * 1e3).sum::<f64>()
                / n,
            mean_reporting: per_epoch.iter().map(|e| e.reporting as f64).sum::<f64>() / n,
            mean_dp_index_size: if dp_rows.is_empty() {
                0.0
            } else {
                dp_rows.iter().map(|e| e.dp_index_size.unwrap_or(0) as f64).sum::<f64>()
                    / dp_rows.len() as f64
            },
            mean_dp_score: if dp_rows.is_empty() {
                0.0
            } else {
                dp_rows.iter().map(|e| e.dp_score.unwrap_or(0.0)).sum::<f64>()
                    / dp_rows.len() as f64
            },
            measurements,
            uplink_msgs,
            uplink_bytes,
            report_ratio: if measurements == 0 {
                0.0
            } else {
                uplink_msgs as f64 / measurements as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(i: u64, index: usize, score: f64, ms: u64, dp: Option<(usize, f64)>) -> EpochMetrics {
        EpochMetrics {
            epoch: i,
            timestamp: Timestamp(i * 10),
            reporting: 5,
            index_size: index,
            top_k_score: score,
            processing: Duration::from_millis(ms),
            comm: CommStats {
                uplink_msgs: 5,
                uplink_bytes: 5 * 72,
                downlink_msgs: 5,
                downlink_bytes: 5 * 32,
            },
            dp_index_size: dp.map(|d| d.0),
            dp_score: dp.map(|d| d.1),
            phase_b_deferred: 3,
        }
    }

    #[test]
    fn summary_averages_epochs() {
        let rows = vec![
            epoch(0, 10, 100.0, 2, Some((8, 120.0))),
            epoch(1, 20, 200.0, 4, Some((12, 80.0))),
        ];
        let s = Summary::from_epochs(&rows, 1000);
        assert_eq!(s.epochs, 2);
        assert!((s.mean_index_size - 15.0).abs() < 1e-12);
        assert!((s.mean_score - 150.0).abs() < 1e-12);
        assert!((s.mean_time_ms - 3.0).abs() < 1e-9);
        assert!((s.mean_reporting - 5.0).abs() < 1e-12);
        assert!((s.mean_dp_index_size - 10.0).abs() < 1e-12);
        assert!((s.mean_dp_score - 100.0).abs() < 1e-12);
        assert_eq!(s.uplink_msgs, 10);
        assert_eq!(s.uplink_bytes, 720);
        assert!((s.report_ratio - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_series_yields_default() {
        let s = Summary::from_epochs(&[], 0);
        assert_eq!(s.epochs, 0);
        assert_eq!(s.mean_index_size, 0.0);
        assert_eq!(s.report_ratio, 0.0);
    }

    #[test]
    fn dp_averages_skip_missing_rows() {
        let rows = vec![epoch(0, 10, 1.0, 1, None), epoch(1, 10, 1.0, 1, Some((6, 60.0)))];
        let s = Summary::from_epochs(&rows, 10);
        assert!((s.mean_dp_index_size - 6.0).abs() < 1e-12);
        assert!((s.mean_dp_score - 60.0).abs() < 1e-12);
    }
}
