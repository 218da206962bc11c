//! Aggregate metrics over a run's per-epoch series.
//!
//! The evaluation (Section 6.1) tracks three quality/efficiency metrics,
//! averaged per epoch: index size in motion paths, top-k score, and
//! coordinator processing time; plus the communication the RayTrace
//! filters save. The per-epoch record is the driver's [`EpochSample`]:
//! the published snapshot plus the boundary's wall time, reporting
//! count, uplink delta and DP columns.

use hotpath_netsim::scenario::EpochSample;

/// Aggregates over a full run: the per-epoch averages the paper plots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of epochs.
    pub epochs: u64,
    /// Mean motion paths in the index per epoch.
    pub mean_index_size: f64,
    /// Mean top-k score per epoch.
    pub mean_score: f64,
    /// Mean wall time per epoch boundary, milliseconds: the whole
    /// boundary — drain, strategy (SinglePath), respond and publish.
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
    /// What fraction of measurements became messages (lower = better
    /// filtering).
    pub report_ratio: f64,
}

impl Summary {
    /// Builds a summary from the per-epoch series and the run's totals:
    /// `measurements` generated and `uplink_msgs` received (the
    /// coordinator's count, which also holds the states reported after
    /// the last boundary).
    pub fn from_epochs(per_epoch: &[EpochSample], measurements: u64, uplink_msgs: u64) -> Summary {
        let report_ratio =
            if measurements == 0 { 0.0 } else { uplink_msgs as f64 / measurements as f64 };
        if per_epoch.is_empty() {
            return Summary { measurements, uplink_msgs, report_ratio, ..Summary::default() };
        }
        let n = per_epoch.len() as f64;
        let dp_rows: Vec<&EpochSample> =
            per_epoch.iter().filter(|e| e.dp_index_size.is_some()).collect();
        Summary {
            epochs: per_epoch.len() as u64,
            mean_index_size: per_epoch.iter().map(|e| e.snap.index_size as f64).sum::<f64>() / n,
            mean_score: per_epoch.iter().map(|e| e.snap.top_k_score).sum::<f64>() / n,
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
            report_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_core::coordinator::HotSnapshot;
    use hotpath_core::stats::CommStats;
    use hotpath_core::time::Timestamp;
    use std::sync::Arc;
    use std::time::Duration;

    fn epoch(i: u64, index: usize, score: f64, ms: u64, dp: Option<(usize, f64)>) -> EpochSample {
        EpochSample {
            snap: Arc::new(HotSnapshot {
                epoch: i,
                timestamp: Timestamp(i * 10),
                index_size: index,
                top_k_score: score,
                ..HotSnapshot::empty()
            }),
            reporting: 5,
            processing: Duration::from_millis(ms),
            comm: CommStats { uplink_msgs: 5 },
            dp_index_size: dp.map(|d| d.0),
            dp_score: dp.map(|d| d.1),
        }
    }

    #[test]
    fn summary_averages_epochs() {
        let rows = vec![
            epoch(0, 10, 100.0, 2, Some((8, 120.0))),
            epoch(1, 20, 200.0, 4, Some((12, 80.0))),
        ];
        let s = Summary::from_epochs(&rows, 1000, 10);
        assert_eq!(s.epochs, 2);
        assert!((s.mean_index_size - 15.0).abs() < 1e-12);
        assert!((s.mean_score - 150.0).abs() < 1e-12);
        assert!((s.mean_time_ms - 3.0).abs() < 1e-9);
        assert!((s.mean_reporting - 5.0).abs() < 1e-12);
        assert!((s.mean_dp_index_size - 10.0).abs() < 1e-12);
        assert!((s.mean_dp_score - 100.0).abs() < 1e-12);
        assert_eq!(s.uplink_msgs, 10);
        assert!((s.report_ratio - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_series_yields_default() {
        let s = Summary::from_epochs(&[], 0, 0);
        assert_eq!(s.epochs, 0);
        assert_eq!(s.mean_index_size, 0.0);
        assert_eq!(s.report_ratio, 0.0);
    }

    #[test]
    fn dp_averages_skip_missing_rows() {
        let rows = vec![epoch(0, 10, 1.0, 1, None), epoch(1, 10, 1.0, 1, Some((6, 60.0)))];
        let s = Summary::from_epochs(&rows, 10, 10);
        assert!((s.mean_dp_index_size - 6.0).abs() < 1e-12);
        assert!((s.mean_dp_score - 60.0).abs() < 1e-12);
    }
}
