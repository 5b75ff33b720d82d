//! Assembling and running a PS2Stream topology.
//!
//! [`Ps2StreamBuilder`] wires the executors of Figure 1 together — the
//! dispatchers, the workers and the mergers — on top of the in-process
//! dataflow substrate, using the routing table produced by a workload
//! partitioner. [`RunningSystem`] is the handle used to feed the stream and,
//! at the end of a run, collect the [`RunReport`] with the throughput,
//! latency, memory and migration statistics the paper's figures report.

use crate::config::{OverloadPolicy, SystemConfig};
use crate::controller::AdjustmentController;
use crate::dispatcher::Dispatcher;
use crate::merger::Merger;
use crate::messages::{MergerMessage, WorkerCheckpoint, WorkerMessage};
use crate::metrics::{PersistenceReport, RunReport, SystemMetrics};
use crate::supervisor::{Supervisor, WorkerFaults};
use crate::worker::Worker;
use parking_lot::RwLock;
use ps2stream_geo::UniformGrid;
use ps2stream_index::{Gi2Config, Gi2Index};
use ps2stream_model::{MatchResult, StreamRecord};
use ps2stream_partition::{HybridPartitioner, Partitioner, RoutingTable, WorkloadSample};
use ps2stream_persist::PersistentStore;
use ps2stream_stream::{
    bounded, Batch, BatchingEmitter, Emitter, Envelope, FaultPlan, FaultRole, Runtime, Sender,
    TaskHandle,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An error surfaced by the fallible lifecycle entry points
/// ([`Ps2StreamBuilder::try_start`], [`RunningSystem::try_finish`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The builder was given neither a calibration sample nor an explicit
    /// routing table, so no routing decision is possible.
    MissingCalibration,
    /// An executor panicked. The payload names it; the rest of the pipeline
    /// was still drained and joined before this was returned, so the caller
    /// can inspect metrics or relaunch instead of unwinding.
    ExecutorPanicked(String),
    /// The routing grid is not a `2^k × 2^k` grid, so the workers' GI²
    /// indexes cannot use it. The payload is its columns and rows.
    UnsupportedGrid(u32, u32),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingCalibration => f.write_str(
                "Ps2StreamBuilder::start requires a calibration sample or an explicit routing table",
            ),
            Self::ExecutorPanicked(name) => write!(f, "executor '{name}' panicked"),
            Self::UnsupportedGrid(nx, ny) => write!(
                f,
                "a GI² index needs a 2^k x 2^k routing grid, got {nx} x {ny} cells"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

/// Builds a PS2Stream deployment.
pub struct Ps2StreamBuilder {
    config: SystemConfig,
    partitioner: Box<dyn Partitioner>,
    sample: Option<WorkloadSample>,
    routing: Option<RoutingTable>,
    delivery: Option<Sender<MatchResult>>,
}

impl Ps2StreamBuilder {
    /// Starts building a system with the given configuration. The hybrid
    /// partitioner is used unless another one is selected.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            partitioner: Box::new(HybridPartitioner::default()),
            sample: None,
            routing: None,
            delivery: None,
        }
    }

    /// Selects the workload partitioning strategy.
    pub fn with_partitioner(mut self, partitioner: Box<dyn Partitioner>) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Provides the calibration sample the partitioner analyses to build the
    /// initial routing table.
    pub fn with_calibration_sample(mut self, sample: WorkloadSample) -> Self {
        self.sample = Some(sample);
        self
    }

    /// Uses an explicit, pre-built routing table (skips the partitioner). Its
    /// term table is the one every worker posts queries under.
    pub fn with_routing_table(mut self, routing: RoutingTable) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Registers a channel on which deduplicated match results are delivered
    /// to subscribers.
    pub fn with_delivery(mut self, delivery: Sender<MatchResult>) -> Self {
        self.delivery = Some(delivery);
        self
    }

    /// Builds the routing table, spawns every executor and returns the
    /// running system.
    ///
    /// # Panics
    /// Panics if neither a routing table nor a calibration sample was
    /// provided. Use [`Ps2StreamBuilder::try_start`] to get the failure as a
    /// value instead.
    #[expect(
        clippy::panic,
        reason = "start/finish/finish_with_checkpoints are the documented panicking wrappers re-raising a SystemError on the driver thread; try_start/try_finish return it as a value, and no executor runs this code"
    )]
    pub fn start(self) -> RunningSystem {
        match self.try_start() {
            Ok(system) => system,
            Err(error) => panic!("{error}"),
        }
    }

    /// Like [`Ps2StreamBuilder::start`], but reports a missing calibration
    /// source as [`SystemError::MissingCalibration`] and a routing grid the
    /// workers cannot index on as [`SystemError::UnsupportedGrid`] instead
    /// of panicking.
    pub fn try_start(self) -> Result<RunningSystem, SystemError> {
        let config = self.config;
        let routing = match (self.routing, self.sample) {
            (Some(routing), _) => routing,
            (None, Some(sample)) => self.partitioner.partition(&sample, config.num_workers),
            (None, None) => return Err(SystemError::MissingCalibration),
        };
        let grid = routing.grid();
        let gi2 = gi2_config(grid).ok_or(SystemError::UnsupportedGrid(grid.nx(), grid.ny()))?;
        Ok(RunningSystem::launch(config, routing, gi2, self.delivery))
    }
}

/// The GI² configuration whose grid is `grid`, if GI² can build it: the
/// workers index on the routing grid, so the cell ids they report are the
/// ones the routing table and the adjustment controller address.
fn gi2_config(grid: &UniformGrid) -> Option<Gi2Config> {
    let exp = grid.nx().trailing_zeros();
    let config = Gi2Config::new(grid.bounds()).with_granularity_exp(exp);
    (UniformGrid::with_power_of_two(grid.bounds(), exp) == *grid).then_some(config)
}

/// A running PS2Stream deployment.
pub struct RunningSystem {
    /// Batching feeder over the system input channel: records accumulate up
    /// to [`SystemConfig::batch_size`] before travelling (each one already
    /// carries its own ingestion timestamp). Dropping it (`finish`) closes
    /// the input and lets the dispatchers drain.
    input: Option<BatchingEmitter<StreamRecord>>,
    sequence: u64,
    records_in: u64,
    metrics: Arc<SystemMetrics>,
    routing: Arc<RwLock<RoutingTable>>,
    worker_txs: Vec<Sender<WorkerMessage>>,
    /// The execution substrate every executor below runs on. On the
    /// deterministic backend the executors make progress only while
    /// [`RunningSystem::finish`] joins them.
    runtime: Runtime,
    dispatchers: Vec<TaskHandle>,
    workers: Vec<TaskHandle>,
    mergers: Vec<TaskHandle>,
    /// Durable subscription store (`SystemConfig::durability`); every query
    /// update is logged here *before* it travels, so after a crash the
    /// subscription set is recoverable even though the workers are gone.
    store: Option<PersistentStore>,
    /// Operations recovered and replayed when the system launched.
    recovered_ops: u64,
    /// Torn log-tail bytes truncated during recovery.
    truncated_bytes: u64,
    /// Time spent replaying the recovered updates at launch.
    replay_time: Duration,
}

impl RunningSystem {
    fn launch(
        config: SystemConfig,
        routing: RoutingTable,
        gi2: Gi2Config,
        delivery: Option<Sender<MatchResult>>,
    ) -> Self {
        assert!(config.num_workers > 0, "at least one worker is required");
        assert!(
            config.num_dispatchers > 0,
            "at least one dispatcher is required"
        );
        assert!(config.num_mergers > 0, "at least one merger is required");
        let mut runtime = Runtime::new(&config.runtime);
        let metrics = SystemMetrics::new(config.num_workers);
        // the one posting-term table: every worker's index shares it
        let stats = Arc::clone(routing.object_stats());
        let routing = Arc::new(RwLock::new(routing));

        // Fault injection: an empty plan behaves exactly like no plan.
        let faults: Option<FaultPlan> = config.faults.clone().filter(|plan| !plan.is_empty());
        let supervisor = Supervisor::new(config.num_workers, false);

        // Durable subscriptions: open (and recover) the store. The recovered
        // updates are replayed after the topology is up (end of this
        // function), through the normal dispatch path.
        // An unopenable store degrades the run to non-durable instead of
        // aborting it: matching is unaffected, the failure is logged and
        // counted, and the report simply carries no persistence section.
        let mut store_state = config.durability.clone().and_then(|store_config| {
            match PersistentStore::open(store_config) {
                Ok(opened) => Some(opened),
                Err(error) => {
                    eprintln!(
                        "ps2stream: durable subscription store unavailable, \
                         continuing non-durable: {error}"
                    );
                    metrics
                        .faults
                        .persist_errors
                        .fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        });

        // channels (capacities apply on the thread backend; the cooperative
        // backends make every channel unbounded so tasks never block)
        let (input_tx, input_rx) = runtime.bounded::<Batch<StreamRecord>>(config.input_capacity);
        let mut worker_txs = Vec::with_capacity(config.num_workers);
        let mut worker_rxs = Vec::with_capacity(config.num_workers);
        for _ in 0..config.num_workers {
            #[expect(
                clippy::disallowed_methods,
                reason = "worker command channels: dispatcher fan-out and the CellPending migration barrier rely on non-blocking control sends"
            )]
            let (tx, rx) = runtime.unbounded::<WorkerMessage>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }
        let mut merger_txs = Vec::with_capacity(config.num_mergers);
        let mut merger_rxs = Vec::with_capacity(config.num_mergers);
        for _ in 0..config.num_mergers {
            let (tx, rx) = runtime.bounded::<MergerMessage>(config.merger_capacity);
            merger_txs.push(tx);
            merger_rxs.push(rx);
        }

        // mergers
        let mut mergers = Vec::with_capacity(config.num_mergers);
        for (i, rx) in merger_rxs.into_iter().enumerate() {
            let mut merger = Merger::new(Arc::clone(&metrics), delivery.clone(), 100_000);
            if let OverloadPolicy::ShedOldest { merger_mailbox, .. } = config.overload {
                merger = merger.with_overload(rx.depth_handle(), merger_mailbox);
            }
            mergers.push(runtime.spawn_operator(
                format!("merger-{i}"),
                merger,
                rx,
                Emitter::sink(),
            ));
        }
        drop(delivery);

        // workers
        let worker_merger_fault = faults
            .as_ref()
            .and_then(|plan| plan.edge_fault(FaultRole::Worker, FaultRole::Merger));
        let mut workers = Vec::with_capacity(config.num_workers);
        for (i, rx) in worker_rxs.into_iter().enumerate() {
            let mut index = Gi2Index::new(gi2.clone());
            index.set_term_stats(Arc::clone(&stats));
            // worker → merger drop/delay faults ride a per-worker channel shim
            let merger_txs = match (worker_merger_fault, &faults) {
                (Some(fault), Some(plan)) => merger_txs
                    .iter()
                    .map(|tx| {
                        tx.clone().with_fault(
                            fault,
                            plan.shim_seed(FaultRole::Worker, FaultRole::Merger, i),
                            Arc::clone(&metrics.faults.diverted_sends),
                        )
                    })
                    .collect(),
                _ => merger_txs.clone(),
            };
            let mut worker = Worker::new(
                ps2stream_model::WorkerId(i as u32),
                index,
                worker_txs.clone(),
                merger_txs,
                Arc::clone(&metrics),
                config.batch_size,
            );
            if let OverloadPolicy::ShedOldest { worker_mailbox, .. } = config.overload {
                worker = worker.with_overload(rx.depth_handle(), worker_mailbox);
            }
            if let Some(plan) = &faults {
                // arm fault injection on every worker; the fault schedule
                // itself is usually inert for most of them
                worker = worker.with_faults(WorkerFaults {
                    crash_at: plan.crash_tick(i),
                    wedge: plan.wedge_window(i),
                    recovery_lag: 3,
                });
            }
            workers.push(runtime.spawn_operator(
                format!("worker-{i}"),
                worker,
                rx,
                Emitter::sink(),
            ));
        }
        drop(merger_txs);

        // dispatchers
        let dispatcher_worker_fault = faults
            .as_ref()
            .and_then(|plan| plan.edge_fault(FaultRole::Dispatcher, FaultRole::Worker));
        let mut dispatchers = Vec::with_capacity(config.num_dispatchers);
        for i in 0..config.num_dispatchers {
            let mut dispatcher = Dispatcher::new(
                Arc::clone(&routing),
                Arc::default(),
                Arc::clone(&metrics),
                config.num_workers,
                config.batch_size,
            )
            .with_supervisor(Arc::clone(&supervisor));
            // Dispatcher 0 runs the adjustment controller on its batch
            // clock. The controller gets the workers' own channels, never
            // the fault shim below: a diverted CellPending would break the
            // hand-off barrier.
            if let (0, Some(adjustment)) = (i, &config.adjustment) {
                dispatcher = dispatcher.with_controller(
                    AdjustmentController::new(
                        adjustment,
                        config.costs,
                        Arc::clone(&routing),
                        worker_txs.clone(),
                        Arc::clone(&metrics),
                    )
                    .with_supervisor(Arc::clone(&supervisor)),
                );
            }
            let rx = input_rx.clone();
            // dispatcher → worker drop/delay faults ride a per-dispatcher shim
            let emitter = match (dispatcher_worker_fault, &faults) {
                (Some(fault), Some(plan)) => Emitter::new(
                    worker_txs
                        .iter()
                        .map(|tx| {
                            tx.clone().with_fault(
                                fault,
                                plan.shim_seed(FaultRole::Dispatcher, FaultRole::Worker, i),
                                Arc::clone(&metrics.faults.diverted_sends),
                            )
                        })
                        .collect(),
                ),
                _ => Emitter::new(worker_txs.clone()),
            };
            dispatchers.push(runtime.spawn_operator(
                format!("dispatcher-{i}"),
                dispatcher,
                rx,
                emitter,
            ));
        }
        drop(input_rx);

        let mut system = Self {
            input: Some(BatchingEmitter::new(
                Emitter::new(vec![input_tx]),
                config.batch_size,
            )),
            sequence: 0,
            records_in: 0,
            metrics,
            routing,
            worker_txs,
            runtime,
            dispatchers,
            workers,
            mergers,
            store: None,
            recovered_ops: 0,
            truncated_bytes: 0,
            replay_time: Duration::ZERO,
        };

        // Replay whatever the store recovered through the normal input path
        // without re-logging it: routing the inserts re-registers their
        // `H2` terms.
        if let Some((store, recovered)) = store_state.take() {
            #[expect(
                clippy::disallowed_methods,
                reason = "replay-duration metric at launch; the replayed update sequence and all delivered output are clock-independent"
            )]
            let replay_start = Instant::now();
            for update in recovered.replay_updates() {
                system.send_unlogged(StreamRecord::Update(update));
            }
            system.replay_time = replay_start.elapsed();
            system.recovered_ops = recovered.num_ops() as u64;
            system.truncated_bytes = recovered.truncated_bytes;
            system.store = Some(store);
        }
        system
    }

    /// Feeds one record into the system. Records are stamped immediately but
    /// travel in batches of [`SystemConfig::batch_size`]; a full batch blocks
    /// when the input channel is full (this is the saturation point used for
    /// throughput measurements). Call [`RunningSystem::flush`] to push out a
    /// partial batch.
    /// With durability enabled, query updates are appended to the operation
    /// log *before* they travel — a record the caller saw accepted is
    /// recoverable (subject to the configured fsync policy) even if the
    /// process dies immediately afterwards. Objects are transient stream
    /// data and are never logged. A persistence failure (a full or yanked
    /// disk) does not abort the run: the failure is logged and counted and
    /// the system degrades to non-durable for the rest of the run.
    pub fn send(&mut self, record: StreamRecord) {
        if let StreamRecord::Update(update) = &record {
            let mut failure: Option<String> = None;
            if let Some(store) = &mut self.store {
                match store.log_update(update) {
                    Ok(true) => {
                        if let Err(error) = store.snapshot_now() {
                            failure = Some(format!("subscription snapshot failed: {error}"));
                        }
                    }
                    Ok(false) => {}
                    Err(error) => failure = Some(format!("op-log append failed: {error}")),
                }
            }
            if let Some(why) = failure {
                eprintln!("ps2stream: {why}; continuing non-durable");
                self.metrics
                    .faults
                    .persist_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.store = None;
            }
        }
        self.send_unlogged(record);
    }

    /// The input path proper: stamps, sequences and emits one record. Also
    /// used to replay recovered updates, which must not be re-logged.
    fn send_unlogged(&mut self, record: StreamRecord) {
        self.records_in += 1;
        self.sequence += 1;
        if let Some(input) = &mut self.input {
            input.emit_to(0, Envelope::now(self.sequence, record));
        }
    }

    /// Sends any partially-filled input batch downstream.
    pub fn flush(&mut self) {
        if let Some(input) = &mut self.input {
            input.flush_all();
        }
    }

    /// Flushes the partial input batch and waits until every record fed so
    /// far has been fully processed — a phase barrier, e.g. between
    /// registering queries and streaming objects when several dispatchers
    /// would otherwise race inserts against objects.
    ///
    /// On the deterministic backend this drives the seeded scheduler until
    /// every executor is blocked on an empty mailbox. On `threads` and
    /// `coop` it waits until the completed-tuple counters have stood still
    /// for 300 ms. Returns false if they were still moving after 30 s.
    #[expect(
        clippy::disallowed_methods,
        reason = "settle()'s quiescence wait on threads/coop (under sim it returns before reading the clock); all delivered output is clock-independent"
    )]
    pub fn settle(&mut self) -> bool {
        self.flush();
        if self.records_in == 0 || self.runtime.run_until_idle() {
            return true;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last = (0u64, 0u64);
        let mut stable_since = Instant::now();
        while Instant::now() < deadline {
            let now = (
                self.metrics.throughput.count(),
                self.metrics.latency.count(),
            );
            if now != last || now.0 == 0 {
                last = now;
                stable_since = Instant::now();
            } else if stable_since.elapsed() > Duration::from_millis(300) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// Number of records fed so far.
    pub fn records_sent(&self) -> u64 {
        self.records_in
    }

    /// Live metrics of the run.
    pub fn metrics(&self) -> &Arc<SystemMetrics> {
        &self.metrics
    }

    /// The shared routing table (examples use this to inspect the current
    /// assignment; the adjustment controller mutates it).
    pub fn routing(&self) -> Arc<RwLock<RoutingTable>> {
        Arc::clone(&self.routing)
    }

    /// Closes the input, drains every executor and returns the final report.
    ///
    /// On the deterministic backend this is where the seeded schedule
    /// actually runs: each join below advances *all* alive executors until
    /// the joined group terminates, so migrations still land in the middle
    /// of the stream being drained.
    #[expect(
        clippy::panic,
        reason = "start/finish/finish_with_checkpoints are the documented panicking wrappers re-raising a SystemError on the driver thread; try_start/try_finish return it as a value, and no executor runs this code"
    )]
    pub fn finish(self) -> RunReport {
        match self.shutdown(false) {
            Ok((report, _)) => report,
            Err(error) => panic!("{error}"),
        }
    }

    /// Like [`RunningSystem::finish`], but an executor panic is returned as
    /// [`SystemError::ExecutorPanicked`] instead of unwinding: the rest of
    /// the pipeline is still drained and joined first, so a supervising
    /// caller can log the failure and relaunch.
    pub fn try_finish(self) -> Result<RunReport, SystemError> {
        self.shutdown(false).map(|(report, _)| report)
    }

    /// Like [`RunningSystem::finish`], additionally asking every worker for
    /// a canonical serialization of its final GI² index (sorted by worker
    /// id). The crash-recovery tests use this to prove that a recovered
    /// deployment converges to the same per-worker index state as a freshly
    /// routed one.
    #[expect(
        clippy::panic,
        reason = "start/finish/finish_with_checkpoints are the documented panicking wrappers re-raising a SystemError on the driver thread; try_start/try_finish return it as a value, and no executor runs this code"
    )]
    pub fn finish_with_checkpoints(self) -> (RunReport, Vec<WorkerCheckpoint>) {
        match self.shutdown(true) {
            Ok(pair) => pair,
            Err(error) => panic!("{error}"),
        }
    }

    /// Simulates a hard process kill for the crash-injection tests: every
    /// executor is abandoned without draining — in-flight records and
    /// in-memory index state are lost, exactly as a real kill would lose
    /// them — and the durable store keeps only the log bytes already handed
    /// to the OS. Returns the number of buffered log bytes that died in the
    /// process (0 under `FsyncPolicy::Always`).
    pub fn crash(mut self) -> usize {
        self.store.take().map_or(0, PersistentStore::crash)
    }

    fn shutdown(
        mut self,
        checkpoints: bool,
    ) -> Result<(RunReport, Vec<WorkerCheckpoint>), SystemError> {
        // Executor panics are *captured*, not propagated: the remaining
        // stages still run, so the whole pipeline is drained and joined
        // before the first failure is reported.
        let mut panicked: Option<String> = None;
        // 1. flush the partial input batch, then close the input: dispatchers
        //    drain and terminate (dispatcher 0 sends its controller's last
        //    MigrateCell before it does, so every migration is queued ahead
        //    of the Shutdown below)
        self.flush();
        self.input = None;
        let dispatchers = std::mem::take(&mut self.dispatchers);
        if let Err(name) = self.runtime.try_join_tasks(&dispatchers) {
            panicked.get_or_insert(name);
        }
        // 2. tell the workers to drain and stop; checkpoint requests are
        //    queued first so each worker serializes its final index while
        //    draining (each worker replies at most once, so the reply
        //    channel can never block the workers)
        let checkpoint_rx = checkpoints.then(|| {
            let (tx, rx) = bounded::<WorkerCheckpoint>(self.worker_txs.len().max(1));
            for wtx in &self.worker_txs {
                let _ = wtx.send(WorkerMessage::Checkpoint { reply: tx.clone() });
            }
            rx
        });
        for tx in &self.worker_txs {
            let _ = tx.send(WorkerMessage::Shutdown);
        }
        let workers = std::mem::take(&mut self.workers);
        if let Err(name) = self.runtime.try_join_tasks(&workers) {
            panicked.get_or_insert(name);
        }
        self.worker_txs.clear();
        // 3. mergers terminate once every worker has dropped its senders
        let mergers = std::mem::take(&mut self.mergers);
        if let Err(name) = self.runtime.try_join_tasks(&mergers) {
            panicked.get_or_insert(name);
        }
        // DURABILITY: a clean shutdown leaves the entire log on disk — the
        // next launch recovers from it without loss. A failing final sync is
        // reported but does not replace an executor panic as the outcome.
        let store = self.store.take().map(|mut store| {
            if let Err(error) = store.sync() {
                eprintln!("ps2stream: final op-log sync failed, the log tail may be lost: {error}");
                self.metrics
                    .faults
                    .persist_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            store
        });
        if let Some(name) = panicked {
            return Err(SystemError::ExecutorPanicked(name));
        }
        self.metrics
            .dispatcher_memory
            .store(self.routing.read().memory_usage(), Ordering::Relaxed);
        let mut collected: Vec<WorkerCheckpoint> =
            checkpoint_rx.map_or_else(Vec::new, |rx| rx.try_iter().collect());
        collected.sort_by_key(|c| c.worker.0);
        let mut report = RunReport::from_metrics(&self.metrics, self.records_in);
        if let Some(store) = store {
            report.persistence = Some(PersistenceReport {
                recovered_ops: self.recovered_ops,
                truncated_bytes: self.truncated_bytes,
                replay_time: self.replay_time,
                ops_logged: store.ops_logged(),
                log_bytes: store.log_bytes(),
                snapshot_bytes: store.snapshot_bytes(),
                snapshots_written: store.snapshots_written(),
            });
        }
        Ok((report, collected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_partition::KdTreePartitioner;
    use ps2stream_stream::unbounded;
    use ps2stream_workload::{build_sample, DatasetSpec, QueryClass};

    #[test]
    #[should_panic(expected = "requires a calibration sample")]
    fn builder_requires_sample_or_table() {
        let _ = Ps2StreamBuilder::new(SystemConfig::default()).start();
    }

    #[test]
    fn a_routing_grid_gi2_cannot_index_on_is_an_error() {
        let grid = UniformGrid::new(ps2stream_geo::Rect::from_coords(0.0, 0.0, 8.0, 8.0), 4, 2);
        let cells = vec![ps2stream_partition::CellRouting::Single(ps2stream_model::WorkerId(0)); 8];
        let routing = RoutingTable::new(grid, cells, 1, Arc::default(), "test");
        let started = Ps2StreamBuilder::new(SystemConfig::default())
            .with_routing_table(routing)
            .try_start();
        assert_eq!(started.err(), Some(SystemError::UnsupportedGrid(4, 2)));
    }

    #[test]
    fn small_end_to_end_run_completes() {
        let sample = build_sample(DatasetSpec::tiny(), QueryClass::Q1, 400, 80, 1);
        // a single dispatcher keeps the insert-before-object ordering
        // deterministic, so the exact match count can be asserted
        let config = SystemConfig {
            num_dispatchers: 1,
            num_workers: 3,
            num_mergers: 1,
            ..SystemConfig::default()
        };
        let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
        let mut system = Ps2StreamBuilder::new(config)
            .with_partitioner(Box::new(KdTreePartitioner::default()))
            .with_calibration_sample(sample.clone())
            .with_delivery(delivery_tx)
            .start();

        // feed the calibration queries, then the calibration objects
        for q in sample.insertions() {
            system.send(StreamRecord::Update(ps2stream_model::QueryUpdate::Insert(
                q.clone(),
            )));
        }
        for o in sample.objects() {
            system.send(StreamRecord::Object(o.clone()));
        }
        let records = system.records_sent();
        let report = system.finish();
        assert_eq!(report.records_in, records);
        assert_eq!(report.records_in, 480);
        // deduplicated matches delivered on the subscription channel agree
        // with the report
        let delivered: Vec<MatchResult> = delivery_rx.try_iter().collect();
        assert_eq!(delivered.len() as u64, report.matches_delivered);
        // matching results must be exactly the brute-force expectation
        let mut expected = 0u64;
        for o in sample.objects() {
            for q in sample.insertions() {
                if q.matches(o) {
                    expected += 1;
                }
            }
        }
        assert_eq!(report.matches_delivered, expected);
        assert!(report.throughput_tps > 0.0);
    }

    /// Runs a skewed stream through a system built by `builder` and checks
    /// every (cell, term) each worker posts under against the routing
    /// table: the pair is registered in `H2`, and the term routes to that
    /// worker. Term 3 is rare in the calibration sample and term 2 common,
    /// so both sides post `AND(2, 3)` under term 3 — unless a worker picks
    /// from the stream, in which term 3 is by far the commonest, or from an
    /// empty table, which breaks the tie by the lower id. Returns the run's
    /// report.
    fn assert_workers_post_under_routed_terms(builder: Ps2StreamBuilder) -> RunReport {
        use crate::messages::WorkerStatsReport;
        use ps2stream_geo::{Point, Rect};
        use ps2stream_model::{ObjectId, QueryId, QueryUpdate, SpatioTextualObject};
        use ps2stream_model::{StsQuery, SubscriberId};
        use ps2stream_text::{BooleanExpr, TermId};

        let mut system = builder.start();
        // each query lies inside one grid cell of a hot spot on the diagonal
        let spot = |k: u64| 8.0 * k as f64 + 4.5;
        let insert = |id: u64, k: u64, terms: &[u32]| {
            let (lo, hi) = (spot(k) - 0.3, spot(k) + 0.3);
            let keywords = BooleanExpr::and_of(terms.iter().map(|&t| TermId(t)));
            let query = StsQuery::new(
                QueryId(id),
                SubscriberId(id),
                keywords,
                Rect::from_coords(lo, lo, hi, hi),
            );
            StreamRecord::Update(QueryUpdate::Insert(query))
        };
        for k in 0..8 {
            system.send(insert(k, k, &[3]));
        }
        assert!(system.settle());
        for i in 0..800u64 {
            let at = Point::new(spot(i % 8), spot(i % 8));
            let object = SpatioTextualObject::new(ObjectId(i), vec![TermId(3)], at);
            system.send(StreamRecord::Object(object));
        }
        assert!(system.settle());
        for k in 0..8 {
            system.send(insert(100 + k, k, &[2, 3]));
        }
        assert!(system.settle());
        let (tx, rx) = bounded::<WorkerStatsReport>(system.worker_txs.len());
        for worker in &system.worker_txs {
            let reply = tx.clone();
            let _ = worker.send(WorkerMessage::CollectStats { reply });
        }
        assert!(system.settle());
        let routing = system.routing();
        let table = routing.read();
        let mut postings = 0;
        for _ in 0..system.worker_txs.len() {
            let report = rx.recv().expect("every worker reports");
            for cell in &report.cells {
                let registered = table.cell_query_terms(cell.cell);
                let routed = table.cell_worker_terms(cell.cell);
                let here = routed.get(&report.worker);
                for load in cell.term_loads.iter().filter(|l| l.queries > 0) {
                    postings += 1;
                    assert!(
                        registered.contains(&load.term),
                        "{:?} posts in {:?} under {:?}, which H2 lacks",
                        report.worker,
                        cell.cell,
                        load.term
                    );
                    assert!(
                        here.is_some_and(|terms| terms.contains(&load.term)),
                        "{:?} posts in {:?} under {:?}, which routes elsewhere",
                        report.worker,
                        cell.cell,
                        load.term
                    );
                }
            }
        }
        assert_eq!(postings, 8, "one (cell, term) posting per hot spot");
        drop(table);
        system.finish()
    }

    /// The sample behind [`assert_workers_post_under_routed_terms`]: term 3
    /// in one object, term 2 in 49, over the whole space.
    fn skew_sample() -> WorkloadSample {
        use ps2stream_geo::{Point, Rect};
        use ps2stream_model::{ObjectId, SpatioTextualObject};
        use ps2stream_text::TermId;
        let objects = (0..200u64)
            .map(|i| {
                let mut terms = vec![TermId(10 + (i % 5) as u32)];
                if i == 0 {
                    terms.push(TermId(3));
                } else if i % 4 == 0 {
                    terms.push(TermId(2));
                }
                terms.sort_unstable();
                let at = Point::new((i * 7 % 64) as f64 + 0.5, (i * 13 % 64) as f64 + 0.5);
                SpatioTextualObject::new(ObjectId(i), terms, at)
            })
            .collect();
        WorkloadSample::new(
            Rect::from_coords(0.0, 0.0, 64.0, 64.0),
            objects,
            Vec::new(),
            Vec::new(),
        )
    }

    fn skew_config() -> SystemConfig {
        SystemConfig {
            num_dispatchers: 1,
            num_workers: 3,
            num_mergers: 1,
            runtime: ps2stream_stream::RuntimeBackend::deterministic(7),
            faults: None,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn workers_post_under_the_routed_terms_with_a_sample() {
        let builder = Ps2StreamBuilder::new(skew_config()).with_calibration_sample(skew_sample());
        assert_workers_post_under_routed_terms(builder);
    }

    #[test]
    fn workers_post_under_the_routed_terms_with_a_routing_table() {
        let routing = HybridPartitioner::default().partition(&skew_sample(), 3);
        let builder = Ps2StreamBuilder::new(skew_config()).with_routing_table(routing);
        assert_workers_post_under_routed_terms(builder);
    }

    #[test]
    fn respawned_workers_post_under_the_routed_terms() {
        let plan = "crash:worker:0@tick=200;crash:worker:1@tick=200;crash:worker:2@tick=200";
        let config = SystemConfig {
            faults: Some(FaultPlan::parse(plan).unwrap()),
            ..skew_config()
        };
        let builder = Ps2StreamBuilder::new(config).with_calibration_sample(skew_sample());
        let report = assert_workers_post_under_routed_terms(builder);
        assert!(report.faults.worker_respawns > 0, "no worker crashed");
    }
}
