//! Throughput and latency metrics.
//!
//! The paper evaluates PS2Stream by its processing **throughput** (tuples per
//! second at saturation), per-tuple **latency** (average time a tuple spends
//! in the system) and the latency *distribution* under migration
//! (fractions below 100 ms, between 100 ms and 1 s, above 1 s — Figures 12(c)
//! and 15). These metric types are shared by all executors and are safe to
//! update concurrently.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing tuple counter with wall-clock bookkeeping, used
/// to compute the sustained throughput of a run.
///
/// Entirely lock-free: every executor of the pipeline calls [`record`] on the
/// shared meter once per run for the tuples it completed, so a mutex
/// here serializes the whole hot path. The observation window is kept as
/// first/last-tuple nanosecond offsets (relative to the meter's creation
/// instant) maintained with `fetch_min` / `fetch_max`.
///
/// [`record`]: ThroughputMeter::record
#[derive(Debug)]
pub struct ThroughputMeter {
    count: AtomicU64,
    /// Reference instant; first/last are nanosecond offsets from it.
    origin: Instant,
    /// Nanoseconds of the first recorded tuple (`u64::MAX` = none yet).
    first_ns: AtomicU64,
    /// Nanoseconds of the last recorded tuple.
    last_ns: AtomicU64,
}

impl Default for ThroughputMeter {
    #[expect(
        clippy::disallowed_methods,
        reason = "throughput/latency meters measure real wall time; sim tests assert on delivered sets and counts, never on rates"
    )]
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            origin: Instant::now(),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        }
    }
}

impl ThroughputMeter {
    /// Creates a meter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records `n` processed tuples at the current instant.
    pub fn record(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        let now = self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.first_ns.fetch_min(now, Ordering::Relaxed);
        self.last_ns.fetch_max(now, Ordering::Relaxed);
    }

    /// Total number of tuples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Elapsed time between the first and the last recorded tuple.
    pub fn elapsed(&self) -> Duration {
        let first = self.first_ns.load(Ordering::Relaxed);
        if first == u64::MAX {
            return Duration::ZERO;
        }
        let last = self.last_ns.load(Ordering::Relaxed);
        Duration::from_nanos(last.saturating_sub(first))
    }

    /// Throughput in tuples per second over the observation window. Returns
    /// `None` until at least two distinct instants have been observed.
    pub fn tuples_per_second(&self) -> Option<f64> {
        let elapsed = self.elapsed().as_secs_f64();
        if elapsed <= 0.0 {
            return None;
        }
        Some(self.count() as f64 / elapsed)
    }
}

/// Latency classes reported by the migration experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Fraction of tuples below the `fast` threshold.
    pub fast: f64,
    /// Fraction of tuples between the `fast` and `slow` thresholds.
    pub medium: f64,
    /// Fraction of tuples above the `slow` threshold.
    pub slow: f64,
}

/// A concurrent latency recorder with fixed-resolution histogram buckets
/// (1 ms buckets up to 10 s) plus exact count/sum for the mean.
#[derive(Debug)]
pub struct LatencyRecorder {
    /// `buckets[i]` counts latencies in `[i, i+1)` milliseconds.
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::with_max_millis(10_000)
    }
}

impl LatencyRecorder {
    /// Creates a recorder tracking latencies up to `max_millis` (larger
    /// values land in an overflow bucket).
    pub fn with_max_millis(max_millis: usize) -> Self {
        let mut buckets = Vec::with_capacity(max_millis);
        buckets.resize_with(max_millis, AtomicU64::default);
        Self {
            buckets,
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Creates a shared recorder.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one latency measurement.
    pub fn record(&self, latency: Duration) {
        self.record_all([latency]);
    }

    /// Records the latency of every tuple ingested at one of `ingested`,
    /// completed now, and returns how many there were. The clock is read
    /// once for the whole set, so an executor can report what it completed
    /// during one message as one update instead of one per tuple.
    #[expect(
        clippy::disallowed_methods,
        reason = "throughput/latency meters measure real wall time; sim tests assert on delivered sets and counts, never on rates"
    )]
    pub fn record_since(&self, ingested: impl IntoIterator<Item = Instant>) -> u64 {
        let now = Instant::now();
        self.record_all(
            ingested
                .into_iter()
                .map(|at| now.saturating_duration_since(at)),
        )
    }

    /// Records a set of measurements with one `count` / `total_us` /
    /// `max_us` update and one bucket increment per run of equal buckets;
    /// the result equals recording them one by one. Returns the set's size.
    fn record_all(&self, latencies: impl IntoIterator<Item = Duration>) -> u64 {
        let (mut count, mut total_us, mut max_us) = (0u64, 0u64, 0u64);
        // (bucket index, run length); index `buckets.len()` is the overflow
        let mut run: Option<(usize, u64)> = None;
        for latency in latencies {
            let us = latency.as_micros().min(u64::MAX as u128) as u64;
            let bucket = ((us / 1000) as usize).min(self.buckets.len());
            count += 1;
            total_us = total_us.wrapping_add(us);
            max_us = max_us.max(us);
            run = match run {
                Some((b, n)) if b == bucket => Some((b, n + 1)),
                Some((b, n)) => {
                    self.add_to_bucket(b, n);
                    Some((bucket, 1))
                }
                None => Some((bucket, 1)),
            };
        }
        let Some((b, n)) = run else {
            return 0;
        };
        self.add_to_bucket(b, n);
        self.count.fetch_add(count, Ordering::Relaxed);
        self.total_us.fetch_add(total_us, Ordering::Relaxed);
        self.max_us.fetch_max(max_us, Ordering::Relaxed);
        count
    }

    fn add_to_bucket(&self, bucket: usize, n: u64) {
        self.buckets
            .get(bucket)
            .unwrap_or(&self.overflow)
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Number of recorded measurements.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency, or `None` if nothing was recorded.
    pub fn mean(&self) -> Option<Duration> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        Some(Duration::from_micros(
            self.total_us.load(Ordering::Relaxed) / count,
        ))
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (e.g. `0.99`) computed from the millisecond buckets.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (ms, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Some(Duration::from_millis(ms as u64 + 1));
            }
        }
        Some(self.max())
    }

    /// Fraction of measurements strictly below the threshold.
    pub fn fraction_below(&self, threshold: Duration) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let limit_ms = threshold.as_millis() as usize;
        let below: u64 = self
            .buckets
            .iter()
            .take(limit_ms.min(self.buckets.len()))
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        below as f64 / count as f64
    }

    /// The three-way latency breakdown used by Figures 12(c) and 15.
    pub fn breakdown(&self, fast: Duration, slow: Duration) -> LatencyBreakdown {
        let fast_frac = self.fraction_below(fast);
        let below_slow = self.fraction_below(slow);
        LatencyBreakdown {
            fast: fast_frac,
            medium: (below_slow - fast_frac).max(0.0),
            slow: (1.0 - below_slow).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn throughput_meter_counts_and_rates() {
        let m = ThroughputMeter::new();
        assert_eq!(m.count(), 0);
        assert!(m.tuples_per_second().is_none());
        m.record(10);
        std::thread::sleep(Duration::from_millis(5));
        m.record(10);
        assert_eq!(m.count(), 20);
        let tps = m.tuples_per_second().unwrap();
        assert!(tps > 0.0);
        assert!(m.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn throughput_meter_is_safe_under_concurrency() {
        let m = ThroughputMeter::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.count(), 4000);
        // the window is well-formed: last >= first
        assert!(m.elapsed() >= Duration::ZERO);
        assert!(m.tuples_per_second().is_some());
    }

    #[test]
    fn latency_mean_and_max() {
        let r = LatencyRecorder::default();
        assert!(r.mean().is_none());
        r.record(Duration::from_millis(10));
        r.record(Duration::from_millis(30));
        assert_eq!(r.count(), 2);
        let mean = r.mean().unwrap();
        assert!(mean >= Duration::from_millis(19) && mean <= Duration::from_millis(21));
        assert_eq!(r.max(), Duration::from_millis(30));
    }

    #[test]
    fn latency_quantiles() {
        let r = LatencyRecorder::default();
        for i in 1..=100u64 {
            r.record(Duration::from_millis(i));
        }
        let p50 = r.quantile(0.5).unwrap();
        let p99 = r.quantile(0.99).unwrap();
        assert!(p50 >= Duration::from_millis(49) && p50 <= Duration::from_millis(52));
        assert!(p99 >= Duration::from_millis(98));
        assert!(r.quantile(0.0).is_some());
    }

    #[test]
    fn latency_breakdown_matches_paper_buckets() {
        let r = LatencyRecorder::default();
        // 8 fast, 1 medium, 1 slow
        for _ in 0..8 {
            r.record(Duration::from_millis(20));
        }
        r.record(Duration::from_millis(500));
        r.record(Duration::from_millis(2_000));
        let b = r.breakdown(Duration::from_millis(100), Duration::from_millis(1_000));
        assert!((b.fast - 0.8).abs() < 1e-9);
        assert!((b.medium - 0.1).abs() < 1e-9);
        assert!((b.slow - 0.1).abs() < 1e-9);
    }

    #[test]
    fn overflow_latencies_count_as_slow() {
        let r = LatencyRecorder::with_max_millis(100);
        r.record(Duration::from_secs(60));
        let b = r.breakdown(Duration::from_millis(100), Duration::from_millis(1_000));
        assert_eq!(b.slow, 1.0);
        assert_eq!(r.fraction_below(Duration::from_millis(100)), 0.0);
    }

    #[test]
    fn record_since_counts_and_times_the_whole_set() {
        let r = LatencyRecorder::default();
        let start = Instant::now();
        let ingested = [start, start, start - Duration::from_millis(5)];
        assert_eq!(r.record_since(ingested), 3);
        assert_eq!(r.count(), 3);
        assert!(r.max() >= Duration::from_millis(5));
        assert_eq!(r.record_since(Vec::new()), 0);
        assert_eq!(r.count(), 3);
    }

    /// Everything a reader can observe of a recorder.
    fn observable(r: &LatencyRecorder) -> (u64, Option<Duration>, Duration, Vec<u64>, u64) {
        let buckets = r
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let overflow = r.overflow.load(Ordering::Relaxed);
        (r.count(), r.mean(), r.max(), buckets, overflow)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn record_all_equals_a_loop_of_record(
            // few distinct values → long runs of equal buckets; values up to
            // 2.75× the 100 ms range → many land in the overflow bucket
            steps in proptest::collection::vec((0u64..12, 0u64..1000), 0..80),
        ) {
            let latencies: Vec<Duration> = steps
                .iter()
                .map(|&(quarter, us)| Duration::from_micros(quarter * 25_000 + us))
                .collect();
            let batched = LatencyRecorder::with_max_millis(100);
            let single = LatencyRecorder::with_max_millis(100);
            prop_assert_eq!(
                batched.record_all(latencies.iter().copied()),
                latencies.len() as u64
            );
            for &latency in &latencies {
                single.record(latency);
            }
            prop_assert_eq!(observable(&batched), observable(&single));
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(batched.quantile(q), single.quantile(q));
            }
            let (fast, slow) = (Duration::from_millis(30), Duration::from_millis(80));
            prop_assert_eq!(batched.breakdown(fast, slow), single.breakdown(fast, slow));
        }
    }

    #[test]
    fn concurrent_recording() {
        let r = LatencyRecorder::shared();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.record(Duration::from_micros(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.count(), 4000);
    }
}
