//! Order statistics for reporting: medians with quartiles for per-round
//! values, nearest-rank percentiles for latency samples.

/// Median, quartiles and sample count of a set of per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
    /// spreads printed here are the ones an outside script would compute
    /// from the same samples.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quantile = |i: usize| {
            if n == 1 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            // i*m - 4j may be negative or exceed 4 at the clamped ends:
            // the exclusive method then extrapolates, like Python does
            let delta = (i * m) as f64 - (4 * j) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Self {
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            n,
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (at least one).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending-sorted
/// slice; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of `n` samples that still has at least ten samples
/// beyond it (p99 needs 1000 samples, p90 needs 100); `None` below 20 samples,
/// where only the median is reportable.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // per-mille arithmetic: 100 * (1.0 - 0.9) is 9.99… in floating point
    [(0.999, 1), (0.99, 10), (0.9, 100)]
        .into_iter()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille / 1000 >= 10)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([10,20,30,40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5] (extrapolated)
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        // ten values, as the acceptance script uses
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary_is_degenerate() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[42], 0.99), Some(42));
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }
}
