//! Order statistics for the report: nearest-rank percentiles, medians,
//! and the rule for which percentile a sample count can support.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`):
/// the smallest value with at least `p` percent of the samples at or
/// below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample (mean of the middle pair when even);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median position by position over repetitions of the same series
/// (`reps[r][i]` is what repetition `r` measured for unit `i`): every
/// repetition does identical work, so a unit's median across them drops
/// the repetitions a busy host slowed. The result is as long as the
/// shortest repetition.
pub fn median_each(reps: &[&[f64]]) -> Vec<f64> {
    let n = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n).map(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>())).collect()
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it in a sample of `n`, or `None` below twenty samples
/// (where not even the median has ten on each side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In per-mille, so that 10 000 samples support p99.9 exactly.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// True when a sample of `n` can carry percentile `p` by the
/// ten-samples-beyond rule.
pub fn supports(n: usize, p: f64) -> bool {
    highest_supported_percentile(n).is_some_and(|top| top >= p)
}

/// A growing sample with sorted-on-demand percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    pub fn percentile(&mut self, p: f64) -> f64 {
        if !self.sorted {
            sort(&mut self.values);
            self.sorted = true;
        }
        percentile(&self.values, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v[..1], 99.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Ten samples: p90 is the ninth, p91 already the tenth.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 90.0), 9.0);
        assert_eq!(percentile(&t, 91.0), 10.0);
    }

    #[test]
    fn median_each_reads_units_across_repetitions() {
        // Two units measured three times each; a short repetition bounds
        // the length, and one slow repetition does not move the median.
        let reps: [&[f64]; 3] = [&[5.0, 9.0, 1.0], &[4.0, 8.0], &[60.0, 70.0, 2.0]];
        assert_eq!(median_each(&reps), vec![5.0, 9.0]);
        assert_eq!(median_each(&[&[3.0, 4.0]]), vec![3.0, 4.0]);
        assert!(median_each(&[]).is_empty());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn ten_samples_beyond_selects_the_percentile() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert!(supports(100, 90.0) && !supports(100, 99.0));
    }

    #[test]
    fn samples_sort_lazily_and_pool() {
        let mut a = Samples::default();
        for v in [5.0, 1.0, 3.0] {
            a.push(v);
        }
        assert_eq!(a.percentile(50.0), 3.0);
        let mut b = Samples::default();
        b.push(0.5);
        a.extend(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(25.0), 0.5);
        assert_eq!(a.mean(), 2.375);
    }
}
