//! A minimal in-process stream-processing substrate for PS2Stream.
//!
//! The paper deploys PS2Stream on Apache Storm over a 32-node EC2 cluster;
//! this crate is the substitution documented in `docs/RUNTIME.md`: operators
//! are spawned onto a pluggable [`runtime::Runtime`] — either one OS thread per
//! executor connected by bounded channels (backpressure and queueing as in
//! the evaluation) or a cooperative executor multiplexing pollable operator
//! tasks over a fixed core pool, with a seeded deterministic simulation mode
//! for reproducing exact interleavings. Executor threads are never
//! pinned: placement is left to the OS scheduler, as the paper leaves it to
//! the cloud platform. Tuples are wrapped in timestamped [`Envelope`]s for
//! latency accounting, and [`metrics`] collects the throughput, mean latency
//! and latency distributions the figures report.
//!
//! # Example
//!
//! Pick a backend the way `PS2_RUNTIME` does:
//!
//! ```
//! use ps2stream_stream::{Runtime, RuntimeBackend};
//!
//! let backend = RuntimeBackend::parse("coop:2").expect("valid backend spec");
//! assert_eq!(backend, RuntimeBackend::Coop { pool_threads: 2 });
//! assert_eq!(backend.name(), "coop");
//! Runtime::new(&backend).join();
//!
//! let sim = RuntimeBackend::parse("sim:7").expect("valid backend spec");
//! assert_eq!(sim, RuntimeBackend::deterministic(7));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod batch;
pub mod channel;
mod coop;
pub mod envelope;
pub mod fault;
pub mod metrics;
pub mod operator;
pub mod runtime;

pub use batch::{Batch, BatchBuffer, BatchingEmitter};
pub use channel::{bounded, unbounded, QueueDepth, Receiver, Sender, TryRecvError};
pub use envelope::Envelope;
pub use fault::{EdgeFault, FaultPlan, FaultRole, FaultSpec};
pub use metrics::{LatencyBreakdown, LatencyRecorder, ThroughputMeter};
pub use operator::{run_operator, Emitter, Operator};
pub use runtime::{Runtime, RuntimeBackend, TaskHandle};

#[cfg(test)]
mod integration {
    use super::*;
    use std::sync::Arc;

    /// A two-stage pipeline: a splitter fans numbers out to two summers by
    /// parity; joining the runtime must observe every number exactly once.
    struct Splitter;
    impl Operator for Splitter {
        type In = Envelope<u64>;
        type Out = Envelope<u64>;
        fn process(&mut self, input: Envelope<u64>, emitter: &Emitter<Envelope<u64>>) {
            let idx = (input.payload % 2) as usize;
            emitter.emit_to(idx, input);
        }
    }

    struct Summer {
        total: u64,
        latencies: Arc<LatencyRecorder>,
        throughput: Arc<ThroughputMeter>,
        result: Sender<u64>,
    }
    impl Operator for Summer {
        type In = Envelope<u64>;
        type Out = ();
        fn process(&mut self, input: Envelope<u64>, _emitter: &Emitter<()>) {
            self.total += input.payload;
            self.latencies.record_since([input.ingested_at]);
            self.throughput.record(1);
        }
        fn finish(&mut self, _emitter: &Emitter<()>) {
            let _ = self.result.send(self.total);
        }
    }

    #[test]
    fn pipeline_processes_every_tuple_once() {
        let latencies = LatencyRecorder::shared();
        let throughput = ThroughputMeter::new();
        let (src_tx, src_rx) = bounded::<Envelope<u64>>(64);
        let (even_tx, even_rx) = bounded::<Envelope<u64>>(64);
        let (odd_tx, odd_rx) = bounded::<Envelope<u64>>(64);
        let (result_tx, result_rx) = unbounded::<u64>();

        let mut rt = Runtime::threads();
        rt.spawn_operator(
            "splitter",
            Splitter,
            src_rx,
            Emitter::new(vec![even_tx, odd_tx]),
        );
        for (name, rx) in [("even", even_rx), ("odd", odd_rx)] {
            let summer = Summer {
                total: 0,
                latencies: Arc::clone(&latencies),
                throughput: Arc::clone(&throughput),
                result: result_tx.clone(),
            };
            rt.spawn_operator(name, summer, rx, Emitter::sink());
        }
        drop(result_tx);

        let n = 1000u64;
        for i in 0..n {
            src_tx.send(Envelope::now(i, i)).unwrap();
        }
        drop(src_tx);
        rt.join();

        let totals: Vec<u64> = result_rx.iter().collect();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals.iter().sum::<u64>(), n * (n - 1) / 2);
        assert_eq!(latencies.count(), n);
        assert_eq!(throughput.count(), n);
        assert!(throughput.tuples_per_second().unwrap() > 0.0);
    }

    #[test]
    fn bounded_channels_apply_backpressure_without_deadlock() {
        // a slow consumer with a tiny channel: the producer must block but
        // everything still completes
        struct Slow(Arc<ThroughputMeter>);
        impl Operator for Slow {
            type In = Envelope<u64>;
            type Out = ();
            fn process(&mut self, _input: Envelope<u64>, _e: &Emitter<()>) {
                self.0.record(1);
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        let (tx, rx) = bounded::<Envelope<u64>>(2);
        let seen = ThroughputMeter::new();
        let mut rt = Runtime::threads();
        rt.spawn_operator("slow", Slow(Arc::clone(&seen)), rx, Emitter::sink());
        for i in 0..100 {
            tx.send(Envelope::now(i, i)).unwrap();
        }
        drop(tx);
        rt.join();
        assert_eq!(seen.count(), 100);
    }
}
