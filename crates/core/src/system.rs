//! Assembling and running a PS2Stream topology.
//!
//! [`Ps2StreamBuilder`] wires the executors of Figure 1 together — the
//! dispatchers, the workers and the mergers — on top of the in-process
//! dataflow substrate, using the routing table produced by a workload
//! partitioner. [`RunningSystem`] is the handle used to feed the stream and,
//! at the end of a run, collect the [`RunReport`] with the throughput,
//! latency, memory and migration statistics the paper's figures report.

use crate::config::{OverloadPolicy, SystemConfig};
use crate::controller::{AdjustmentController, ControllerTask};
use crate::dispatcher::Dispatcher;
use crate::merger::Merger;
use crate::messages::{MergerMessage, WorkerCheckpoint, WorkerMessage};
use crate::metrics::{PersistenceReport, RunReport, SystemMetrics};
use crate::supervisor::{Supervisor, WorkerFaults};
use crate::worker::Worker;
use parking_lot::RwLock;
use ps2stream_index::{Gi2Config, Gi2Index};
use ps2stream_model::{MatchResult, StreamRecord};
use ps2stream_partition::{HybridPartitioner, Partitioner, RoutingTable, WorkloadSample};
use ps2stream_persist::PersistentStore;
use ps2stream_stream::{
    bounded, Batch, BatchingEmitter, Emitter, Envelope, FaultPlan, FaultRole, Runtime, Sender,
    TaskHandle,
};
use ps2stream_text::TermStats;
use std::sync::atomic::{AtomicBool, Ordering};
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
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingCalibration => f.write_str(
                "Ps2StreamBuilder::start requires a calibration sample or an explicit routing table",
            ),
            Self::ExecutorPanicked(name) => write!(f, "executor '{name}' panicked"),
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

    /// Uses an explicit, pre-built routing table (skips the partitioner).
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
    pub fn start(self) -> RunningSystem {
        match self.try_start() {
            Ok(system) => system,
            Err(error) => panic!("{error}"),
        }
    }

    /// Like [`Ps2StreamBuilder::start`], but reports a missing calibration
    /// source as [`SystemError::MissingCalibration`] instead of panicking.
    pub fn try_start(self) -> Result<RunningSystem, SystemError> {
        let config = self.config;
        let (routing, seed_stats) = match (self.routing, self.sample) {
            (Some(routing), sample) => {
                let stats = sample.map(|s| s.object_stats().clone());
                (routing, stats)
            }
            (None, Some(sample)) => {
                let routing = self.partitioner.partition(&sample, config.num_workers);
                (routing, Some(sample.object_stats().clone()))
            }
            (None, None) => return Err(SystemError::MissingCalibration),
        };
        Ok(RunningSystem::launch(
            config,
            routing,
            seed_stats,
            self.delivery,
        ))
    }
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
    controller_stop: Arc<AtomicBool>,
    /// Shared supervision state: the crash-recovery shadow log plus
    /// peer-death flags (see [`Supervisor`]).
    supervisor: Arc<Supervisor>,
    /// The execution substrate every executor below runs on. On the
    /// deterministic backend the executors make progress only while
    /// [`RunningSystem::finish`] joins them.
    runtime: Runtime,
    controller: Option<TaskHandle>,
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
        seed_stats: Option<TermStats>,
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
        let bounds = routing.grid().bounds();
        let routing = Arc::new(RwLock::new(routing));

        // Fault injection: an empty plan behaves exactly like no plan. The
        // shadow subscription log only costs anything when a worker crash is
        // actually scheduled.
        let faults: Option<FaultPlan> = config.faults.clone().filter(|plan| !plan.is_empty());
        let shadow_enabled = faults.as_ref().is_some_and(|plan| {
            (0..config.num_workers).any(|i| plan.crash_tick(FaultRole::Worker, i).is_some())
        });
        let supervisor = Supervisor::new(config.num_workers, shadow_enabled);

        // Durable subscriptions: open (and recover) the store before the
        // workers spawn, so a recovered snapshot's term statistics can stand
        // in for the calibration stats when no sample was provided. The
        // recovered updates themselves are replayed after the topology is up
        // (end of this function), through the normal dispatch path.
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
        let seed_stats = seed_stats.or_else(|| {
            store_state
                .as_ref()
                .and_then(|(_, recovered)| recovered.snapshot.as_ref())
                .map(|snapshot| snapshot.stats.clone())
        });
        if let (Some((store, _)), Some(stats)) = (&mut store_state, &seed_stats) {
            store.set_stats(stats.clone());
        }

        // channels (capacities apply on the thread backend; the cooperative
        // backends make every channel unbounded so tasks never block)
        let (input_tx, input_rx) = runtime.bounded::<Batch<StreamRecord>>(config.input_capacity);
        let mut worker_txs = Vec::with_capacity(config.num_workers);
        let mut worker_rxs = Vec::with_capacity(config.num_workers);
        for _ in 0..config.num_workers {
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
            let mut index =
                Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(config.grid_exp));
            if let Some(stats) = &seed_stats {
                index.set_term_stats(stats.clone());
            }
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
                // arm supervision on every worker; the fault schedule itself
                // is usually inert for most of them
                let worker_faults = WorkerFaults {
                    crash_at: plan.crash_tick(FaultRole::Worker, i),
                    wedge: plan.wedge_window(FaultRole::Worker, i),
                    recovery_lag: 3,
                };
                let rebuild_stats = seed_stats.clone();
                let grid_exp = config.grid_exp;
                worker = worker.with_supervision(
                    Arc::clone(&supervisor),
                    Arc::clone(&routing),
                    Box::new(move || {
                        let mut index =
                            Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(grid_exp));
                        if let Some(stats) = &rebuild_stats {
                            index.set_term_stats(stats.clone());
                        }
                        index
                    }),
                    worker_faults,
                );
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
            let dispatcher = Dispatcher::new(
                Arc::clone(&routing),
                Arc::default(),
                Arc::clone(&metrics),
                config.num_workers,
                config.batch_size,
            )
            .with_supervisor(Arc::clone(&supervisor));
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

        // adjustment controller: a blocking service thread on the concurrent
        // backends, a cooperative tick-driven task on the deterministic one
        // (a hidden sleeping thread would break reproducibility)
        let controller_stop = Arc::new(AtomicBool::new(false));
        let controller = config.adjustment.clone().map(|adjustment| {
            let controller = AdjustmentController::new(
                adjustment,
                config.costs,
                Arc::clone(&routing),
                worker_txs.clone(),
                Arc::clone(&metrics),
                Arc::clone(&controller_stop),
            )
            .with_supervisor(Arc::clone(&supervisor));
            if runtime.is_deterministic() {
                let wake_on: Vec<&ps2stream_stream::Receiver<WorkerMessage>> = Vec::new();
                runtime.spawn_task(
                    "adjustment-controller",
                    Box::new(ControllerTask::new(controller)),
                    &wake_on,
                )
            } else {
                runtime.spawn_service("adjustment-controller", move || controller.run())
            }
        });

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
            controller_stop,
            supervisor,
            runtime,
            controller,
            dispatchers,
            workers,
            mergers,
            store: None,
            recovered_ops: 0,
            truncated_bytes: 0,
            replay_time: Duration::ZERO,
        };

        // Replay whatever the store recovered: import the snapshot's term
        // registry (belt and braces — routing the inserts rebuilds it too),
        // then push the recovered updates through the normal input path
        // without re-logging them.
        if let Some((store, recovered)) = store_state.take() {
            if let Some(snapshot) = &recovered.snapshot {
                system.routing.read().import_registry(&snapshot.registry);
            }
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
                        let registry = self.routing.read().registry_export();
                        if let Err(error) = store.snapshot_now(registry) {
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
    /// used to replay recovered updates, which must not be re-logged (but
    /// must still reach the supervisor's shadow log: a worker crashing after
    /// a durable restart recovers replayed subscriptions too).
    fn send_unlogged(&mut self, record: StreamRecord) {
        self.records_in += 1;
        self.sequence += 1;
        if let StreamRecord::Update(update) = &record {
            self.supervisor.observe_update(self.sequence, update);
        }
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
        self.controller_stop.store(true, Ordering::Relaxed);
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
        //    drain and terminate
        self.flush();
        self.input = None;
        let dispatchers = std::mem::take(&mut self.dispatchers);
        if let Err(name) = self.runtime.try_join_tasks(&dispatchers) {
            panicked.get_or_insert(name);
        }
        // 2. stop the adjustment controller
        self.controller_stop.store(true, Ordering::Relaxed);
        if let Some(c) = self.controller.take() {
            if let Err(name) = self.runtime.try_join_tasks(&[c]) {
                panicked.get_or_insert(name);
            }
        }
        // 3. tell the workers to drain and stop; checkpoint requests are
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
        // 4. mergers terminate once every worker has dropped its senders
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
}
