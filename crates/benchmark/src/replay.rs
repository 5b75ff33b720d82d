//! The single-threaded layer replay behind the per-layer metrics.
//!
//! The first records of a workload's measured stream (after the same
//! warm-up) are pushed through the public layer entry points in pipeline
//! order — `Dispatcher::process`, then every `Worker::process` the batch
//! caused, then every `Merger::process` — on one thread, with channels
//! drained by the replay itself. Each call is a span. What an operator does
//! *inside* its call (routing, index matching, index writes) is priced by
//! repeating exactly those calls on twin structures — a second routing table
//! and a second GI² index per worker, kept in the same state — right after
//! the operator returns; those are the operator span's children.
//!
//! The replay is run twice: once bare (no spans, no twins) and once traced.
//! The difference in loop time, net of the twin work, is the tracing overhead.

use crate::hermetic::{BATCH_SIZE, GRID_EXP, MERGER_DEDUP_CAPACITY, WORKERS};
use crate::trace::{SpanId, Tracer};
use crate::workload::Prepared;
use parking_lot::RwLock;
use ps2stream::dispatcher::Dispatcher;
use ps2stream::merger::Merger;
use ps2stream::messages::{MergerMessage, WorkerMessage};
use ps2stream::worker::Worker;
use ps2stream::{Supervisor, SystemMetrics};
use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
use ps2stream_model::{wire, MatchResult, QueryUpdate, StreamRecord, WorkerId};
use ps2stream_partition::{HybridPartitioner, Partitioner, RoutingTable, WorkloadSample};
use ps2stream_persist::{FsyncPolicy, OpLog};
use ps2stream_stream::{Batch, Emitter, Envelope, Operator, Receiver, Runtime};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of the replay's operator-to-operator channels. The replay drains
/// them after every 16-record input batch, so they never fill.
const HOP_CAPACITY: usize = 4096;
/// Capacity of the replay's delivery sink, drained after every merger call.
const SINK_CAPACITY: usize = 1 << 16;

/// Counts taken at the layer boundaries during the measured part of a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Input records replayed.
    pub records: u64,
    /// Objects among them.
    pub objects: u64,
    /// Subscription updates among them.
    pub updates: u64,
    /// Worker destinations over all objects (`Σ |route_object|`).
    pub object_sends: u64,
    /// Objects routed nowhere (discarded at the dispatcher).
    pub discarded: u64,
    /// Objects received by workers (an object sent to two workers counts twice).
    pub worker_objects: u64,
    /// Inserts received by workers.
    pub worker_inserts: u64,
    /// Deletes received by workers.
    pub worker_deletes: u64,
    /// Match results produced by the twin indexes.
    pub index_matches: u64,
    /// Candidates that got the full `StsQuery::matches` check.
    pub candidates_checked: u64,
    /// Candidates rejected by the 64-bit signature first.
    pub signature_rejections: u64,
    /// Match results handed to the merger.
    pub merger_matches: u64,
    /// Deliveries that left the merger.
    pub delivered: u64,
    /// Duplicates the merger suppressed.
    pub duplicates: u64,
    /// Bytes held by the twin indexes at the end.
    pub index_bytes: u64,
    /// Queries held by the twin indexes at the end (replicas count).
    pub index_queries: u64,
}

/// What one replay pass produced.
pub struct ReplayOutcome {
    /// Boundary counts (routing and index counts only on a traced pass).
    pub counts: ReplayCounts,
    /// `Partitioner::partition(&sample, 2)` wall times taken by this pass.
    pub partition_build_s: Vec<f64>,
    /// Wall time of the measured loop.
    pub loop_s: f64,
    /// Part of it spent on the twins (payload clones and twin calls).
    pub twin_s: f64,
    /// The spans, on a traced pass.
    pub tracer: Option<Tracer>,
}

/// The twin structures child spans are measured on.
struct Twin {
    table: RoutingTable,
    indexes: Vec<Gi2Index>,
    scratch: MatchScratch,
}

/// What a replay pass carries besides the operators: the spans (once the
/// measured part starts, on a traced pass), the twins (on a traced pass,
/// from the first warm-up record on) and the running counts.
struct Pass {
    tracer: Option<Tracer>,
    twin: Option<Twin>,
    counts: ReplayCounts,
    twin_time: Duration,
}

/// The operators under replay and the channels between them.
struct Pipeline {
    dispatcher: Dispatcher,
    to_workers: Emitter<WorkerMessage>,
    worker_rxs: Vec<Receiver<WorkerMessage>>,
    workers: Vec<Worker>,
    merger_rx: Receiver<MergerMessage>,
    merger: Merger,
    delivery_rx: Receiver<MatchResult>,
    metrics: Arc<SystemMetrics>,
}

fn partition_timed(sample: &WorkloadSample, build_s: &mut Vec<f64>) -> RoutingTable {
    let start = Instant::now();
    let mut table = HybridPartitioner::default().partition(sample, WORKERS);
    build_s.push(start.elapsed().as_secs_f64());
    // what the launcher does with pinning off: the flat single-group registry
    table.reshard_for_topology(1, None);
    table
}

fn empty_index(table: &RoutingTable, sample: &WorkloadSample) -> Gi2Index {
    let mut index =
        Gi2Index::new(Gi2Config::new(table.grid().bounds()).with_granularity_exp(GRID_EXP));
    index.set_term_stats(sample.object_stats().clone());
    index
}

impl Pipeline {
    /// Wires the operators exactly as `RunningSystem::launch` does for the
    /// pinned configuration, minus the threads.
    fn new(table: RoutingTable, sample: &WorkloadSample) -> Self {
        let runtime = Runtime::threads();
        let metrics = SystemMetrics::new(WORKERS);
        let (delivery_tx, delivery_rx) = runtime.bounded::<MatchResult>(SINK_CAPACITY);
        let (merger_tx, merger_rx) = runtime.bounded::<MergerMessage>(HOP_CAPACITY);
        let merger = Merger::new(
            Arc::clone(&metrics),
            Some(delivery_tx),
            MERGER_DEDUP_CAPACITY,
        );
        let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) = (0..WORKERS)
            .map(|_| runtime.bounded::<WorkerMessage>(HOP_CAPACITY))
            .unzip();
        let workers = (0..WORKERS)
            .map(|i| {
                Worker::new(
                    WorkerId(i as u32),
                    empty_index(&table, sample),
                    worker_txs.clone(),
                    vec![merger_tx.clone()],
                    Arc::clone(&metrics),
                    BATCH_SIZE,
                )
            })
            .collect();
        let dispatcher = Dispatcher::new(
            Arc::new(RwLock::new(table)),
            Arc::new(RwLock::new(None)),
            Arc::clone(&metrics),
            WORKERS,
            BATCH_SIZE,
        )
        .with_supervisor(Supervisor::new(WORKERS, false));
        Self {
            dispatcher,
            to_workers: Emitter::new(worker_txs),
            worker_rxs,
            workers,
            merger_rx,
            merger,
            delivery_rx,
            metrics,
        }
    }

    /// Pushes one input batch through dispatcher → workers → merger.
    /// `records` are the batch's payloads (for the twins to repeat).
    fn step(
        &mut self,
        batch: Batch<StreamRecord>,
        records: &[StreamRecord],
        batch_id: u32,
        pass: &mut Pass,
    ) {
        let Pass {
            tracer,
            twin,
            counts,
            twin_time,
        } = pass;
        let sink = Emitter::<()>::sink();
        let dispatcher = &mut self.dispatcher;
        let to_workers = &self.to_workers;
        let parent = timed(tracer, "dispatcher.process", None, batch_id, || {
            dispatcher.process(batch, to_workers)
        });
        if let Some(twin) = twin {
            let start = Instant::now();
            twin.route(records, parent, batch_id, tracer, counts);
            *twin_time += start.elapsed();
        }
        for (w, rx) in self.worker_rxs.iter().enumerate() {
            while let Ok(message) = rx.try_recv() {
                let start = Instant::now();
                let repeat: Option<Vec<StreamRecord>> = match &message {
                    WorkerMessage::Records(batch) if twin.is_some() => {
                        Some(batch.iter().map(|e| e.payload.clone()).collect())
                    }
                    _ => None,
                };
                *twin_time += start.elapsed();
                let worker = &mut self.workers[w];
                let parent = timed(tracer, "worker.process", None, batch_id, || {
                    worker.process(message, &sink)
                });
                if let (Some(twin), Some(repeat)) = (twin.as_mut(), repeat) {
                    let start = Instant::now();
                    twin.index_ops(w, repeat, parent, batch_id, tracer, counts);
                    *twin_time += start.elapsed();
                }
            }
        }
        while let Ok(message) = self.merger_rx.try_recv() {
            let MergerMessage::Matches(matches) = &message;
            counts.merger_matches += matches.iter().map(|e| e.payload.len() as u64).sum::<u64>();
            let merger = &mut self.merger;
            timed(tracer, "merger.process", None, batch_id, || {
                merger.process(message, &sink)
            });
            counts.delivered += self.delivery_rx.try_iter().count() as u64;
        }
    }
}

/// Runs `f`, as a span when tracing is on.
fn timed(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    batch: u32,
    f: impl FnOnce(),
) -> Option<SpanId> {
    match tracer {
        Some(tracer) => Some(tracer.span(name, parent, batch, f).0),
        None => {
            f();
            None
        }
    }
}

impl Twin {
    /// Repeats the dispatcher's routing decisions for one input batch on the
    /// twin table: one span over the batch's objects, one over its updates.
    fn route(
        &mut self,
        records: &[StreamRecord],
        parent: Option<SpanId>,
        batch: u32,
        tracer: &mut Option<Tracer>,
        counts: &mut ReplayCounts,
    ) {
        let table = &self.table;
        let (mut sends, mut discarded, mut objects) = (0u64, 0u64, 0u64);
        timed(tracer, "routing.route_object", parent, batch, || {
            for record in records {
                if let StreamRecord::Object(object) = record {
                    let workers = table.route_object(object);
                    objects += 1;
                    sends += workers.len() as u64;
                    discarded += u64::from(workers.is_empty());
                }
            }
        });
        counts.objects += objects;
        counts.object_sends += sends;
        counts.discarded += discarded;
        let updates = records.len() as u64 - objects;
        if updates == 0 {
            return;
        }
        counts.updates += updates;
        timed(tracer, "routing.route_update", parent, batch, || {
            for record in records {
                match record {
                    StreamRecord::Update(QueryUpdate::Insert(q)) => {
                        std::hint::black_box(table.route_insert(q));
                    }
                    StreamRecord::Update(QueryUpdate::Delete(q)) => {
                        std::hint::black_box(table.route_delete(q));
                    }
                    StreamRecord::Object(_) => {}
                }
            }
        });
    }

    /// Repeats on worker `w`'s twin index what the worker just did with one
    /// `Records` message: runs of consecutive objects go through
    /// `match_batch`, updates through `insert` / `delete`.
    fn index_ops(
        &mut self,
        w: usize,
        records: Vec<StreamRecord>,
        parent: Option<SpanId>,
        batch: u32,
        tracer: &mut Option<Tracer>,
        counts: &mut ReplayCounts,
    ) {
        let index = &mut self.indexes[w];
        let scratch = &mut self.scratch;
        let mut run: Vec<ps2stream_model::SpatioTextualObject> = Vec::new();
        let mut flush_run = |run: &mut Vec<ps2stream_model::SpatioTextualObject>,
                             index: &mut Gi2Index,
                             tracer: &mut Option<Tracer>| {
            if run.is_empty() {
                return;
            }
            counts.worker_objects += run.len() as u64;
            let mut matches = 0u64;
            timed(tracer, "index.match_batch", parent, batch, || {
                index.match_batch(run.iter(), scratch, |_, _, results| {
                    matches += results.len() as u64;
                });
            });
            counts.index_matches += matches;
            run.clear();
        };
        let (mut inserts, mut deletes) = (0u64, 0u64);
        for record in records {
            match record {
                StreamRecord::Object(object) => run.push(object),
                StreamRecord::Update(QueryUpdate::Insert(query)) => {
                    flush_run(&mut run, index, tracer);
                    inserts += 1;
                    timed(tracer, "index.insert", parent, batch, || {
                        index.insert(query)
                    });
                }
                StreamRecord::Update(QueryUpdate::Delete(query)) => {
                    flush_run(&mut run, index, tracer);
                    deletes += 1;
                    timed(tracer, "index.delete", parent, batch, || {
                        index.delete(&query);
                    });
                }
            }
        }
        flush_run(&mut run, index, tracer);
        counts.worker_inserts += inserts;
        counts.worker_deletes += deletes;
    }
}

fn batches_of(records: &[StreamRecord], first_sequence: u64) -> Vec<Batch<StreamRecord>> {
    records
        .chunks(BATCH_SIZE)
        .enumerate()
        .map(|(chunk, records)| {
            let base = first_sequence + (chunk * BATCH_SIZE) as u64;
            Batch::from_records(
                records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Envelope::now(base + i as u64, r.clone()))
                    .collect(),
            )
        })
        .collect()
}

/// Replays the warm-up and then the first `records` measured records of
/// `prepared`, traced or bare.
pub fn replay(prepared: &Prepared, records: usize, traced: bool) -> ReplayOutcome {
    let measured = &prepared.measured[..records.min(prepared.measured.len())];
    let mut partition_build_s = Vec::new();
    let mut pipeline = Pipeline::new(
        partition_timed(&prepared.sample, &mut partition_build_s),
        &prepared.sample,
    );
    let twin = traced.then(|| {
        let table = partition_timed(&prepared.sample, &mut partition_build_s);
        let indexes = (0..WORKERS)
            .map(|_| empty_index(&table, &prepared.sample))
            .collect();
        Twin {
            table,
            indexes,
            scratch: MatchScratch::new(),
        }
    });
    let mut pass = Pass {
        tracer: None,
        twin,
        counts: ReplayCounts::default(),
        twin_time: Duration::ZERO,
    };

    // warm-up: same path, never traced, twins kept in step
    let warmup_batches = batches_of(&prepared.warmup, 1);
    for (batch, records) in warmup_batches
        .into_iter()
        .zip(prepared.warmup.chunks(BATCH_SIZE))
    {
        pipeline.step(batch, records, 0, &mut pass);
    }

    pass.tracer = traced.then(Tracer::new);
    pass.counts = ReplayCounts::default();
    pass.twin_time = Duration::ZERO;
    let checked_before: Vec<(u64, u64)> = pass.twin.as_ref().map_or_else(Vec::new, |t| {
        t.indexes
            .iter()
            .map(|i| (i.matches_checked(), i.signature_rejections()))
            .collect()
    });
    let duplicates_before = pipeline.metrics.duplicates_removed.load(Ordering::Relaxed);
    let batches = batches_of(measured, prepared.warmup.len() as u64 + 1);
    let loop_start = Instant::now();
    for (batch_id, (batch, records)) in batches
        .into_iter()
        .zip(measured.chunks(BATCH_SIZE))
        .enumerate()
    {
        pipeline.step(batch, records, batch_id as u32, &mut pass);
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    let Pass {
        tracer,
        twin,
        mut counts,
        twin_time,
    } = pass;
    counts.records = measured.len() as u64;
    counts.duplicates =
        pipeline.metrics.duplicates_removed.load(Ordering::Relaxed) - duplicates_before;
    if let Some(twin) = &twin {
        for (index, (checked, rejected)) in twin.indexes.iter().zip(checked_before) {
            counts.candidates_checked += index.matches_checked() - checked;
            counts.signature_rejections += index.signature_rejections() - rejected;
            counts.index_bytes += index.memory_usage() as u64;
            counts.index_queries += index.num_queries() as u64;
        }
    }
    ReplayOutcome {
        counts,
        partition_build_s,
        loop_s,
        twin_s: twin_time.as_secs_f64(),
        tracer,
    }
}

/// Nanoseconds per record of one uncontended hop: a 16-record `Batch` sent
/// and received through a bounded channel of the `Threads` backend.
pub fn measure_hop_ns_per_record(prepared: &Prepared) -> f64 {
    const HOPS: usize = 20_000;
    let source = &prepared.measured[..prepared.measured.len().min(HOPS * BATCH_SIZE)];
    let batches = batches_of(source, 0);
    let records: usize = batches.iter().map(Batch::len).sum();
    let (tx, rx) = Runtime::threads().bounded::<Batch<StreamRecord>>(HOP_CAPACITY);
    let start = Instant::now();
    for batch in batches {
        tx.send(batch).expect("receiver is alive");
        std::hint::black_box(rx.recv().expect("sender is alive"));
    }
    start.elapsed().as_nanos() as f64 / records.max(1) as f64
}

/// Price tags of layers the workloads leave switched off.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriceTags {
    /// `OpLog::append` under `FsyncPolicy::Never`, per update.
    pub persist_append_ns: f64,
    /// Log bytes per update.
    pub persist_bytes: f64,
    /// `wire::encode_update`, per update.
    pub wire_encode_ns: f64,
    /// `wire::decode_update_exact`, per update.
    pub wire_decode_ns: f64,
}

/// Prices op-log appends and wire encode/decode on the workload's own update
/// stream (warm-up inserts, then the measured updates), at most `limit`.
pub fn measure_price_tags(prepared: &Prepared, limit: usize) -> std::io::Result<PriceTags> {
    let updates: Vec<&QueryUpdate> = prepared
        .warmup
        .iter()
        .chain(&prepared.measured)
        .filter_map(|r| match r {
            StreamRecord::Update(update) => Some(update),
            StreamRecord::Object(_) => None,
        })
        .take(limit)
        .collect();
    let n = updates.len().max(1) as f64;

    let dir = crate::out_dir().join(format!("tmp-oplog-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let appended = (|| {
        let mut log = OpLog::create(&dir.join("ops.log"), FsyncPolicy::Never)?;
        let start = Instant::now();
        for (seq, update) in updates.iter().enumerate() {
            log.append(seq as u64, update)?;
        }
        log.flush()?;
        Ok::<_, std::io::Error>((start.elapsed(), log.durable_bytes()))
    })();
    std::fs::remove_dir_all(&dir)?;
    let (append_time, log_bytes) = appended?;

    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(updates.len());
    let start = Instant::now();
    for update in &updates {
        let mut buf = Vec::new();
        wire::encode_update(&mut buf, update);
        encoded.push(buf);
    }
    let encode_time = start.elapsed();
    let start = Instant::now();
    for buf in &encoded {
        std::hint::black_box(wire::decode_update_exact(buf).expect("round trip"));
    }
    let decode_time = start.elapsed();

    Ok(PriceTags {
        persist_append_ns: append_time.as_nanos() as f64 / n,
        persist_bytes: log_bytes as f64 / n,
        wire_encode_ns: encode_time.as_nanos() as f64 / n,
        wire_decode_ns: decode_time.as_nanos() as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn tiny(name: &str) -> Prepared {
        let spec = spec::workload(name).unwrap().scaled_down(400);
        Prepared::generate(&spec, 5, 1.0)
    }

    #[test]
    fn traced_and_bare_replays_deliver_the_same() {
        let prepared = tiny("churn");
        let n = prepared.measured.len();
        let bare = replay(&prepared, n, false);
        let traced = replay(&prepared, n, true);
        assert!(bare.tracer.is_none());
        assert_eq!(bare.counts.delivered, traced.counts.delivered);
        assert_eq!(bare.counts.merger_matches, traced.counts.merger_matches);
        assert!(traced.counts.delivered > 0);
        assert_eq!(traced.counts.records as usize, n);
        assert_eq!((traced.counts.objects + traced.counts.updates) as usize, n);
        assert_eq!(traced.partition_build_s.len(), 2);
        assert!(traced.twin_s > 0.0 && traced.twin_s < traced.loop_s);
    }

    #[test]
    fn twins_stay_in_step_with_the_operators() {
        let prepared = tiny("match-heavy");
        let traced = replay(&prepared, prepared.measured.len(), true);
        // the twin indexes found exactly the matches the real workers sent on
        assert_eq!(traced.counts.index_matches, traced.counts.merger_matches);
        // and the merger's output is those minus what it deduplicated
        assert_eq!(
            traced.counts.delivered + traced.counts.duplicates,
            traced.counts.merger_matches
        );
        // every span of a batch carries its id; children point at operators
        let tracer = traced.tracer.unwrap();
        let spans = tracer.spans();
        assert!(!spans.is_empty());
        for span in spans {
            match span.name {
                "dispatcher.process" | "worker.process" | "merger.process" => {
                    assert!(span.parent.is_none())
                }
                _ => assert!(span.parent.is_some(), "{} has no parent", span.name),
            }
        }
        let totals = tracer.totals();
        assert!(totals["worker.process"].self_ns <= totals["worker.process"].total_ns);
        assert!(totals.contains_key("index.match_batch"));
        assert!(totals.contains_key("routing.route_object"));
    }

    #[test]
    fn price_tags_and_hop_are_positive_and_leave_nothing_behind() {
        let prepared = tiny("churn");
        let tags = measure_price_tags(&prepared, 500).unwrap();
        assert!(tags.persist_append_ns > 0.0 && tags.persist_bytes > 20.0);
        assert!(tags.wire_encode_ns > 0.0 && tags.wire_decode_ns > 0.0);
        assert!(measure_hop_ns_per_record(&prepared) > 0.0);
        let leftover = crate::out_dir().join(format!("tmp-oplog-{}", std::process::id()));
        assert!(!leftover.exists());
    }
}
