//! End-to-end rounds: a full in-process pipeline on the pinned configuration,
//! fed from the pre-generated inputs, with a draining subscriber thread.
//!
//! A round builds a fresh system, replays the warm-up, waits for it to
//! drain, then times the measured stream from its first `send` until
//! `finish()` returns. Tracing is never on here: every number comes from
//! clocks read outside the system and from the `RunReport`.

use crate::hermetic::{pinned_config, process_cpu_seconds, thread_cpu_seconds};
use crate::schedule::{Lateness, Schedule};
use crate::spec::Pacing;
use crate::workload::{Delivery, Prepared};
use ps2stream::{Ps2StreamBuilder, RunReport, RunningSystem};
use ps2stream_model::{MatchResult, StreamRecord};
use ps2stream_partition::HybridPartitioner;
use ps2stream_stream::{bounded, Receiver};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the subscriber channel. Bounded, so a stuck subscriber would
/// back-pressure the merger instead of growing memory; the receiver thread
/// drains it continuously, so in practice it stays near empty.
const DELIVERY_CAPACITY: usize = 1 << 16;

/// How long the completed-tuple counter must stand still before the warm-up
/// counts as drained.
const QUIESCENT_FOR: Duration = Duration::from_millis(4);

/// Everything measured in one round.
pub struct Round {
    /// `start()` plus the warm-up replay, until the pipeline went quiet.
    pub setup_s: f64,
    /// First measured `send` until `finish()` returned.
    pub round_s: f64,
    /// Process CPU time over the same window.
    pub cpu_s: f64,
    /// Wall time of the send loop alone.
    pub feed_s: f64,
    /// CPU time the feeder thread spent in the send loop.
    pub feeder_cpu_s: f64,
    /// The system's own end-of-run report.
    pub report: RunReport,
    /// Deliveries seen on the subscriber channel, all objects.
    pub delivered_total: u64,
    /// Deliveries for oracle-sampled objects, with receipt times.
    pub sampled: Vec<Delivery>,
    /// The instant record 0 of the measured stream was due.
    pub started_at: Instant,
    /// Generator lateness (open loop only).
    pub lateness: Option<Lateness>,
}

impl Round {
    /// Measured records per second of round time.
    pub fn throughput_tps(&self, records: usize) -> f64 {
        records as f64 / self.round_s
    }

    /// Process CPU microseconds per measured record.
    pub fn cpu_us_per_record(&self, records: usize) -> f64 {
        self.cpu_s * 1e6 / records as f64
    }

    /// Worker index plus dispatcher routing-table bytes per live query.
    pub fn state_bytes_per_query(&self, live_queries: usize) -> f64 {
        let bytes: usize =
            self.report.worker_memory.iter().sum::<usize>() + self.report.dispatcher_memory;
        bytes as f64 / live_queries.max(1) as f64
    }

    /// Time between the last `send` returning and `finish()` returning.
    pub fn drain_s(&self) -> f64 {
        (self.round_s - self.feed_s).max(0.0)
    }

    /// Share of the round the feeder thread was *not* on a CPU: near 1 means
    /// it sat blocked on the bounded input (the pipeline is the bottleneck),
    /// near 0 means the generator itself limited the round.
    pub fn feeder_blocked_share(&self) -> f64 {
        (1.0 - self.feeder_cpu_s / self.round_s).clamp(0.0, 1.0)
    }
}

/// Spawns the subscriber: drains the delivery channel until every sender is
/// gone, counting everything and keeping the sampled objects' deliveries.
fn spawn_subscriber(
    rx: Receiver<MatchResult>,
    sampled: Arc<HashSet<u64>>,
) -> JoinHandle<(u64, Vec<Delivery>)> {
    std::thread::Builder::new()
        .name("subscriber".to_string())
        .spawn(move || {
            let mut total = 0u64;
            let mut kept = Vec::new();
            while let Ok(result) = rx.recv() {
                total += 1;
                if sampled.contains(&result.object_id.value()) {
                    kept.push(Delivery {
                        result,
                        received_at: Instant::now(),
                    });
                }
            }
            (total, kept)
        })
        .expect("spawn the subscriber thread")
}

/// Blocks until the pipeline has completed at least `at_least` tuples and
/// its completed-tuple counter has stood still for [`QUIESCENT_FOR`].
/// (Replicated inserts complete once per replica, so the counter has no
/// exact target; with every executor idle it simply stops moving.)
fn wait_quiescent(system: &RunningSystem, at_least: u64) {
    let throughput = Arc::clone(&system.metrics().throughput);
    let mut last = throughput.count();
    let mut still_since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_micros(500));
        let now = throughput.count();
        if now != last {
            last = now;
            still_since = Instant::now();
        } else if now >= at_least && still_since.elapsed() >= QUIESCENT_FOR {
            return;
        }
    }
}

/// Feeds `records` as fast as the bounded input accepts them.
fn feed_closed(system: &mut RunningSystem, records: Vec<StreamRecord>) {
    for record in records {
        system.send(record);
    }
}

/// How long the open-loop feeder sleeps once it has sent everything due.
/// Sleeping (not spinning) because the feeder shares two cores with four
/// executors; a whole millisecond because at sub-batch bursts the system's
/// CPU cost per record is set by how wake-ups happen to align, not by the
/// code, and flips between two regimes from run to run (6.5 vs 11 us/record
/// at a 100 us tick). At 1 ms the bursts are ~5 batches and the cost is steady.
const OPEN_LOOP_TICK: Duration = Duration::from_millis(1);

/// Feeds `records` on a fixed-rate schedule starting at `start`: every tick,
/// everything that has come due is sent, however far behind the system is.
fn feed_open(
    system: &mut RunningSystem,
    records: Vec<StreamRecord>,
    schedule: Schedule,
    start: Instant,
) -> Lateness {
    let total = records.len() as u64;
    let mut records = records.into_iter();
    let mut lateness = Lateness::default();
    let mut next = 0u64;
    while next < total {
        let due = schedule.due_by(start.elapsed()).min(total);
        if next < due {
            let oldest_due = schedule.due(next);
            for record in records.by_ref().take((due - next) as usize) {
                system.send(record);
            }
            lateness.observe(oldest_due, start.elapsed());
            next = due;
        } else {
            std::thread::sleep(OPEN_LOOP_TICK);
        }
    }
    lateness
}

/// Runs one round of `prepared`'s workload over the first `measured_len`
/// records of its measured stream (the whole stream for a timed round, a
/// prefix for the discarded first round that faults the process's memory in).
pub fn run_round(prepared: &Prepared, measured_len: usize) -> Round {
    // clones happen outside every timed window
    let warmup = prepared.warmup.clone();
    let measured = prepared.measured[..measured_len.min(prepared.measured.len())].to_vec();
    let sample = prepared.sample.clone();
    let sampled: Arc<HashSet<u64>> = Arc::new(prepared.oracle.expected.keys().copied().collect());
    let (delivery_tx, delivery_rx) = bounded::<MatchResult>(DELIVERY_CAPACITY);
    let subscriber = spawn_subscriber(delivery_rx, sampled);

    let setup_start = Instant::now();
    let mut system = Ps2StreamBuilder::new(pinned_config())
        .with_partitioner(Box::new(HybridPartitioner::default()))
        .with_calibration_sample(sample)
        .with_delivery(delivery_tx)
        .start();
    let warmup_len = warmup.len() as u64;
    for record in warmup {
        system.send(record);
    }
    system.flush();
    wait_quiescent(&system, warmup_len);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let cpu_before = process_cpu_seconds();
    let feeder_cpu_before = thread_cpu_seconds();
    let started_at = Instant::now();
    let lateness = match prepared.spec.pacing {
        Pacing::Closed { .. } => {
            feed_closed(&mut system, measured);
            None
        }
        Pacing::Open { rate } => Some(feed_open(
            &mut system,
            measured,
            Schedule::new(rate),
            started_at,
        )),
    };
    let feed_s = started_at.elapsed().as_secs_f64();
    let feeder_cpu_after = thread_cpu_seconds();
    let report = system.finish();
    let round_s = started_at.elapsed().as_secs_f64();
    let cpu_after = process_cpu_seconds();

    let (delivered_total, sampled) = subscriber.join().expect("subscriber thread panicked");
    let delta = |before: Option<f64>, after: Option<f64>| match (before, after) {
        (Some(b), Some(a)) => a - b,
        _ => 0.0,
    };
    Round {
        setup_s,
        round_s,
        cpu_s: delta(cpu_before, cpu_after),
        feed_s,
        feeder_cpu_s: delta(feeder_cpu_before, feeder_cpu_after),
        report,
        delivered_total,
        sampled,
        started_at,
        lateness,
    }
}

/// Due-time → receipt latencies (µs, ascending) of the sampled objects'
/// deliveries in an open-loop round, and the number of owed deliveries that
/// missed `slo` (late or never delivered).
pub fn open_loop_latencies(
    prepared: &Prepared,
    round: &Round,
    schedule: Schedule,
    slo: Duration,
) -> (Vec<u64>, u64) {
    let mut latencies: Vec<u64> = Vec::with_capacity(round.sampled.len());
    let mut on_time = 0u64;
    for delivery in &round.sampled {
        let Some(expected) = prepared
            .oracle
            .expected
            .get(&delivery.result.object_id.value())
        else {
            continue;
        };
        let due_at = round.started_at + schedule.due(expected.stream_index as u64);
        let latency = delivery.received_at.saturating_duration_since(due_at);
        latencies.push(latency.as_micros() as u64);
        if latency <= slo {
            on_time += 1;
        }
    }
    latencies.sort_unstable();
    let owed = prepared.oracle.expected_deliveries();
    (latencies, owed.saturating_sub(on_time))
}
