//! The open-loop send schedule and its lateness accounting.
//!
//! Record `i` is *due* `i / rate` seconds after the round starts. The feeder
//! sends every record that has come due and never waits for the system, so a
//! stall shows up as lateness of the records behind it — and, because
//! latency is timed from the due time, in the latency of their deliveries —
//! instead of silently lowering the offered load.

use std::time::Duration;

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Offered rate in records per second.
    rate: u64,
}

impl Schedule {
    /// A schedule offering `rate` records per second (at least 1).
    pub fn new(rate: u64) -> Self {
        Self { rate: rate.max(1) }
    }

    /// When record `index` is due, as an offset from the round start.
    pub fn due(&self, index: u64) -> Duration {
        // whole nanoseconds, rounded down: exact for any rate dividing 1e9
        Duration::from_nanos((index as u128 * 1_000_000_000 / self.rate as u128) as u64)
    }

    /// How many records are due `elapsed` after the round start (record 0 is
    /// due immediately).
    pub fn due_by(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() * self.rate as u128 / 1_000_000_000) as u64 + 1
    }
}

/// How late the generator itself ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lateness {
    /// Largest `send time − due time` seen.
    pub max: Duration,
    /// Bursts sent.
    pub bursts: u64,
}

impl Lateness {
    /// Accounts one burst: its oldest record was due at `due` and the send
    /// of its last record returned at `sent` (both offsets from the start).
    pub fn observe(&mut self, due: Duration, sent: Duration) {
        let late = sent.saturating_sub(due);
        self.max = self.max.max(late);
        self.bursts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = Schedule::new(80_000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_nanos(12_500));
        assert_eq!(s.due(80_000), Duration::from_secs(1));
        assert_eq!(s.due(2_000_000), Duration::from_secs(25));
    }

    #[test]
    fn due_by_counts_every_record_whose_time_has_come() {
        let s = Schedule::new(80_000);
        assert_eq!(s.due_by(Duration::ZERO), 1);
        assert_eq!(s.due_by(Duration::from_nanos(12_499)), 1);
        assert_eq!(s.due_by(Duration::from_nanos(12_500)), 2);
        assert_eq!(s.due_by(Duration::from_secs(1)), 80_001);
        // due_by and due are inverse: everything counted is due, the next is not
        for elapsed_us in [0u64, 7, 1_000, 33_333, 999_999] {
            let elapsed = Duration::from_micros(elapsed_us);
            let n = s.due_by(elapsed);
            assert!(s.due(n - 1) <= elapsed);
            assert!(s.due(n) > elapsed);
        }
        // a zero rate is clamped instead of dividing by zero
        assert_eq!(Schedule::new(0).due(3), Duration::from_secs(3));
    }

    #[test]
    fn lateness_tracks_the_worst_burst() {
        let mut l = Lateness::default();
        l.observe(Duration::from_millis(10), Duration::from_micros(10_200));
        l.observe(Duration::from_millis(20), Duration::from_millis(27));
        // sent before due (cannot happen, but must not underflow)
        l.observe(Duration::from_millis(40), Duration::from_millis(39));
        assert_eq!(l.max, Duration::from_millis(7));
        assert_eq!(l.bursts, 3);
    }
}
