//! Timestamped message envelopes.
//!
//! The latency reported in the paper is "the average time of each tuple
//! staying in the system" (Section VI-C). Every tuple entering PS2Stream is
//! wrapped in an [`Envelope`] stamping its ingestion instant; whichever
//! executor completes the tuple (a worker for a non-matching object, the
//! merger for delivered matches) hands that instant, together with those of
//! the message's other completed tuples, to
//! [`crate::metrics::LatencyRecorder::record_since`].

use std::time::Instant;

/// A payload plus the instant it entered the system.
#[derive(Debug, Clone)]
pub struct Envelope<T> {
    /// The wrapped message.
    pub payload: T,
    /// When the message entered the topology.
    pub ingested_at: Instant,
    /// Monotonic sequence number assigned at ingestion.
    pub sequence: u64,
}

impl<T> Envelope<T> {
    /// Wraps a payload, stamping the current instant.
    #[expect(
        clippy::disallowed_methods,
        reason = "ingest timestamp feeds the latency metrics only; delivered output is independent of it"
    )]
    pub fn now(sequence: u64, payload: T) -> Self {
        Self {
            payload,
            ingested_at: Instant::now(),
            sequence,
        }
    }

    /// Maps the payload, preserving the timestamp and sequence number.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Envelope<U> {
        Envelope {
            payload: f(self.payload),
            ingested_at: self.ingested_at,
            sequence: self.sequence,
        }
    }

    /// Creates a new envelope with the same timestamp and sequence but a
    /// different payload (used when one input tuple fans out into several
    /// downstream messages that must share its latency accounting).
    pub fn derive<U>(&self, payload: U) -> Envelope<U> {
        Envelope {
            payload,
            ingested_at: self.ingested_at,
            sequence: self.sequence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn latency_grows_with_time() {
        let e = Envelope::now(1, "x");
        std::thread::sleep(Duration::from_millis(2));
        assert!(e.ingested_at.elapsed() >= Duration::from_millis(2));
        assert_eq!(e.sequence, 1);
    }

    #[test]
    fn map_and_derive_preserve_timing() {
        let e = Envelope::now(7, 21u32);
        let ts = e.ingested_at;
        let mapped = e.derive("derived");
        assert_eq!(mapped.ingested_at, ts);
        assert_eq!(mapped.sequence, 7);
        let mapped2 = mapped.map(|s| s.len());
        assert_eq!(mapped2.payload, 7);
        assert_eq!(mapped2.ingested_at, ts);
    }
}
