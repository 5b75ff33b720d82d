//! System-wide metrics shared by every executor.

use parking_lot::Mutex;
use ps2stream_partition::WorkerLoad;
use ps2stream_stream::{LatencyBreakdown, LatencyRecorder, ThroughputMeter};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters describing the migrations performed by the dynamic load
/// adjustment during a run.
#[derive(Debug, Default)]
pub struct MigrationMetrics {
    /// Number of adjustment rounds that produced at least one move.
    pub rounds: AtomicU64,
    /// Total number of cell moves executed.
    pub moves: AtomicU64,
    /// Total bytes of query state shipped between workers.
    pub bytes_moved: AtomicU64,
    /// Total time spent selecting the cells to migrate (planning), in µs.
    pub selection_time_us: AtomicU64,
    /// Total time spent extracting + re-indexing migrated queries, in µs.
    pub migration_time_us: AtomicU64,
}

/// Counters describing injected faults, supervised recoveries and overload
/// shedding during a run. All zero in a fault-free run with the default
/// `Block` overload policy.
#[derive(Debug, Default)]
pub struct FaultMetrics {
    /// Worker crashes fired by the fault plan (in-memory index destroyed).
    pub worker_crashes: AtomicU64,
    /// Workers respawned (index restored from the worker's own log of the
    /// changes it applied).
    pub worker_respawns: AtomicU64,
    /// Logged index changes (insert, delete, cell extract) replayed during
    /// respawns.
    pub restored_updates: AtomicU64,
    /// Records parked during crash/wedge windows and replayed afterwards.
    pub replayed_records: AtomicU64,
    /// Records parked by wedge windows (stalls without state loss).
    pub wedge_parks: AtomicU64,
    /// Stream records dropped by the worker overload policy.
    pub shed_records: AtomicU64,
    /// Match results dropped by the merger overload policy.
    pub shed_matches: AtomicU64,
    /// Messages diverted (and later retransmitted) by drop/delay channel
    /// shims. Shared with the shims, which only see the channel layer.
    pub diverted_sends: Arc<AtomicU64>,
    /// Executors whose input channel reported disconnection mid-run.
    pub peer_disconnects: AtomicU64,
    /// Workers that failed to answer a stats poll before its deadline.
    pub liveness_suspects: AtomicU64,
    /// Durable-store failures survived by degrading to non-durable mode.
    pub persist_errors: AtomicU64,
}

/// All metrics of one PS2Stream run.
#[derive(Debug)]
pub struct SystemMetrics {
    /// Records ingested and completed (throughput measurement).
    pub throughput: Arc<ThroughputMeter>,
    /// Per-tuple latency from ingestion to completion.
    pub latency: Arc<LatencyRecorder>,
    /// Matches delivered to subscribers (after merger deduplication).
    pub matches_delivered: AtomicU64,
    /// Duplicate match results suppressed by the mergers.
    pub duplicates_removed: AtomicU64,
    /// Tuples discarded by the dispatchers (objects matching no registered
    /// keyword in their cell).
    pub discarded_objects: AtomicU64,
    /// Per-worker tuple counts accumulated over the whole run.
    pub worker_loads: Mutex<Vec<WorkerLoad>>,
    /// Final memory usage per worker (bytes), filled at shutdown.
    pub worker_memory: Mutex<Vec<usize>>,
    /// Dispatcher routing-table memory usage (bytes), sampled at shutdown.
    pub dispatcher_memory: AtomicUsize,
    /// Migration accounting.
    pub migration: MigrationMetrics,
    /// Fault-injection, supervision and overload accounting.
    pub faults: FaultMetrics,
}

impl SystemMetrics {
    /// Creates metrics for a cluster of `num_workers` workers.
    pub fn new(num_workers: usize) -> Arc<Self> {
        Arc::new(Self {
            throughput: ThroughputMeter::new(),
            latency: LatencyRecorder::shared(),
            matches_delivered: AtomicU64::new(0),
            duplicates_removed: AtomicU64::new(0),
            discarded_objects: AtomicU64::new(0),
            worker_loads: Mutex::new(vec![WorkerLoad::default(); num_workers]),
            worker_memory: Mutex::new(vec![0; num_workers]),
            dispatcher_memory: AtomicUsize::new(0),
            migration: MigrationMetrics::default(),
            faults: FaultMetrics::default(),
        })
    }

    /// Records the tuples an executor completed during one message, given
    /// their ingest instants (drained from `ingested`, which the executor
    /// reuses): one latency update and one throughput update for the set.
    pub fn record_completed(&self, ingested: &mut Vec<Instant>) {
        if ingested.is_empty() {
            return;
        }
        let completed = self.latency.record_since(ingested.drain(..));
        self.throughput.record(completed);
    }

    /// Adds tuple counts to a worker's cumulative load.
    pub fn add_worker_load(&self, worker: usize, delta: &WorkerLoad) {
        let mut loads = self.worker_loads.lock();
        if worker < loads.len() {
            loads[worker].accumulate(delta);
        }
    }

    /// Records the final memory footprint of a worker.
    pub fn set_worker_memory(&self, worker: usize, bytes: usize) {
        let mut mem = self.worker_memory.lock();
        if worker < mem.len() {
            mem[worker] = bytes;
        }
    }
}

/// Durability accounting of a run launched with
/// `SystemConfig::with_durability` (absent otherwise).
#[derive(Debug, Clone, Default)]
pub struct PersistenceReport {
    /// Operations recovered from the store (snapshot + log replay) when the
    /// system launched.
    pub recovered_ops: u64,
    /// Bytes of torn/corrupt log tail truncated during recovery.
    pub truncated_bytes: u64,
    /// Wall-clock time spent replaying the recovered updates through the
    /// normal routing path at launch.
    pub replay_time: Duration,
    /// Operations appended to the log during this run.
    pub ops_logged: u64,
    /// Durable log size at shutdown, in bytes.
    pub log_bytes: u64,
    /// Size of the newest snapshot, in bytes (0 when none was written).
    pub snapshot_bytes: u64,
    /// Snapshots written during this run.
    pub snapshots_written: u64,
}

/// Snapshot of [`FaultMetrics`] reported when a run finishes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Worker crashes fired by the fault plan.
    pub worker_crashes: u64,
    /// Workers respawned from their own log of applied index changes.
    pub worker_respawns: u64,
    /// Logged index changes replayed during respawns.
    pub restored_updates: u64,
    /// Records parked during crash/wedge windows and replayed afterwards.
    pub replayed_records: u64,
    /// Records parked by wedge windows.
    pub wedge_parks: u64,
    /// Stream records dropped by the worker overload policy.
    pub shed_records: u64,
    /// Match results dropped by the merger overload policy.
    pub shed_matches: u64,
    /// Messages diverted (and retransmitted) by drop/delay channel shims.
    pub diverted_sends: u64,
    /// Executors whose input channel reported disconnection mid-run.
    pub peer_disconnects: u64,
    /// Workers that missed a stats-poll deadline.
    pub liveness_suspects: u64,
    /// Durable-store failures survived by degrading to non-durable mode.
    pub persist_errors: u64,
}

impl FaultReport {
    fn from_metrics(faults: &FaultMetrics) -> Self {
        Self {
            worker_crashes: faults.worker_crashes.load(Ordering::Relaxed),
            worker_respawns: faults.worker_respawns.load(Ordering::Relaxed),
            restored_updates: faults.restored_updates.load(Ordering::Relaxed),
            replayed_records: faults.replayed_records.load(Ordering::Relaxed),
            wedge_parks: faults.wedge_parks.load(Ordering::Relaxed),
            shed_records: faults.shed_records.load(Ordering::Relaxed),
            shed_matches: faults.shed_matches.load(Ordering::Relaxed),
            diverted_sends: faults.diverted_sends.load(Ordering::Relaxed),
            peer_disconnects: faults.peer_disconnects.load(Ordering::Relaxed),
            liveness_suspects: faults.liveness_suspects.load(Ordering::Relaxed),
            persist_errors: faults.persist_errors.load(Ordering::Relaxed),
        }
    }
}

/// The report produced when a run finishes.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total records fed into the system.
    pub records_in: u64,
    /// Wall-clock duration of the run (first to last completed tuple).
    pub elapsed: Duration,
    /// Sustained throughput in tuples per second.
    pub throughput_tps: f64,
    /// Mean per-tuple latency.
    pub mean_latency: Duration,
    /// 99th percentile latency.
    pub p99_latency: Duration,
    /// Latency distribution (<100 ms, 100 ms–1 s, >1 s).
    pub latency_breakdown: LatencyBreakdown,
    /// Matches delivered to subscribers.
    pub matches_delivered: u64,
    /// Duplicate matches suppressed by the mergers.
    pub duplicates_removed: u64,
    /// Objects discarded at the dispatchers.
    pub discarded_objects: u64,
    /// Per-worker cumulative tuple counts.
    pub worker_loads: Vec<WorkerLoad>,
    /// Per-worker final index memory (bytes).
    pub worker_memory: Vec<usize>,
    /// Dispatcher routing-table memory (bytes).
    pub dispatcher_memory: usize,
    /// Number of adjustment rounds that moved load.
    pub migration_rounds: u64,
    /// Number of cell moves executed.
    pub migration_moves: u64,
    /// Bytes of query state migrated.
    pub migration_bytes: u64,
    /// Time spent selecting cells to migrate.
    pub migration_selection_time: Duration,
    /// Time spent executing migrations.
    pub migration_time: Duration,
    /// Durability accounting (`Some` only for runs with durable
    /// subscriptions enabled; filled at shutdown).
    pub persistence: Option<PersistenceReport>,
    /// Fault-injection, supervision and overload accounting (all zero on a
    /// fault-free run with the default overload policy).
    pub faults: FaultReport,
}

impl RunReport {
    /// Builds the report from the collected metrics.
    pub fn from_metrics(metrics: &SystemMetrics, records_in: u64) -> Self {
        let elapsed = metrics.throughput.elapsed();
        // Throughput is the service rate of the *input* stream (as in the
        // paper), not the number of per-worker deliveries: replicating a
        // tuple to several workers must not inflate it.
        let throughput_tps = if elapsed.as_secs_f64() > 0.0 {
            records_in as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let mean_latency = metrics.latency.mean().unwrap_or_default();
        let p99_latency = metrics.latency.quantile(0.99).unwrap_or_default();
        let latency_breakdown = metrics
            .latency
            .breakdown(Duration::from_millis(100), Duration::from_millis(1_000));
        Self {
            records_in,
            elapsed,
            throughput_tps,
            mean_latency,
            p99_latency,
            latency_breakdown,
            matches_delivered: metrics.matches_delivered.load(Ordering::Relaxed),
            duplicates_removed: metrics.duplicates_removed.load(Ordering::Relaxed),
            discarded_objects: metrics.discarded_objects.load(Ordering::Relaxed),
            worker_loads: metrics.worker_loads.lock().clone(),
            worker_memory: metrics.worker_memory.lock().clone(),
            dispatcher_memory: metrics.dispatcher_memory.load(Ordering::Relaxed),
            migration_rounds: metrics.migration.rounds.load(Ordering::Relaxed),
            migration_moves: metrics.migration.moves.load(Ordering::Relaxed),
            migration_bytes: metrics.migration.bytes_moved.load(Ordering::Relaxed),
            migration_selection_time: Duration::from_micros(
                metrics.migration.selection_time_us.load(Ordering::Relaxed),
            ),
            migration_time: Duration::from_micros(
                metrics.migration.migration_time_us.load(Ordering::Relaxed),
            ),
            persistence: None,
            faults: FaultReport::from_metrics(&metrics.faults),
        }
    }

    /// The load-balance factor observed over the run (`L_max / L_min` over
    /// total tuples routed per worker), or `f64::INFINITY` when some worker
    /// received nothing.
    pub fn balance_factor(&self) -> f64 {
        let tuples: Vec<u64> = self.worker_loads.iter().map(WorkerLoad::tuples).collect();
        let max = tuples.iter().copied().max().unwrap_or(0) as f64;
        let min = tuples.iter().copied().min().unwrap_or(0) as f64;
        if min <= 0.0 {
            if max <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max / min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate_and_report() {
        let m = SystemMetrics::new(2);
        m.throughput.record(100);
        m.latency.record(Duration::from_millis(5));
        m.matches_delivered.fetch_add(7, Ordering::Relaxed);
        m.add_worker_load(0, &WorkerLoad::new(50, 5, 1));
        m.add_worker_load(1, &WorkerLoad::new(25, 2, 0));
        m.add_worker_load(9, &WorkerLoad::new(1, 1, 1)); // out of range: ignored
        m.set_worker_memory(1, 4096);
        let report = RunReport::from_metrics(&m, 100);
        assert_eq!(report.records_in, 100);
        assert_eq!(report.matches_delivered, 7);
        assert_eq!(report.worker_loads[0].objects, 50);
        assert_eq!(report.worker_memory[1], 4096);
        assert!(report.balance_factor() > 1.0);
        assert!(report.latency_breakdown.fast > 0.99);
    }

    #[test]
    fn fault_counters_flow_into_the_report() {
        let m = SystemMetrics::new(1);
        let report = RunReport::from_metrics(&m, 0);
        assert_eq!(report.faults, FaultReport::default());
        m.faults.worker_crashes.fetch_add(1, Ordering::Relaxed);
        m.faults.shed_records.fetch_add(42, Ordering::Relaxed);
        m.faults.diverted_sends.fetch_add(3, Ordering::Relaxed);
        let report = RunReport::from_metrics(&m, 0);
        assert_eq!(report.faults.worker_crashes, 1);
        assert_eq!(report.faults.shed_records, 42);
        assert_eq!(report.faults.diverted_sends, 3);
    }

    #[test]
    fn balance_factor_edge_cases() {
        let m = SystemMetrics::new(2);
        let report = RunReport::from_metrics(&m, 0);
        assert_eq!(report.balance_factor(), 1.0);
        m.add_worker_load(0, &WorkerLoad::new(10, 0, 0));
        let report = RunReport::from_metrics(&m, 0);
        assert!(report.balance_factor().is_infinite());
    }
}
