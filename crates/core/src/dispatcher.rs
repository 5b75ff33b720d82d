//! The dispatcher executor.
//!
//! Dispatchers consume the interleaved input stream and route every record to
//! the workers that need it, using the shared gridt routing table
//! (Section IV-C): objects go to the workers owning their cell/terms (or are
//! discarded when no registered keyword matches), query insertions and
//! deletions go to every worker holding a replica of the query.
//!
//! The hot path is batch-oriented and read-mostly: records arrive in
//! [`Batch`]es, every routing decision — objects, insertions **and**
//! deletions — takes only a *read* lock on the shared table (insertions
//! register their terms through the table's sharded
//! [`ps2stream_partition::TermRegistry`]), and routed records accumulate in
//! per-worker reorder buffers that are flushed as [`WorkerMessage::Records`]
//! batches. Adding dispatchers therefore scales the ingest path instead of
//! serializing it on a table-level write lock.
//!
//! A dispatcher routes a whole run of input batches (see
//! [`Operator::process_run`]) under one read guard and flushes each
//! worker's partial batch once, at the end of the run: when the gridt `H2`
//! filter discards most objects, a batch-by-batch flush would wake a worker
//! for one or two records.
//!
//! Dispatcher 0 also owns the [`AdjustmentController`] when dynamic load
//! adjustment is on, and steps it once per input batch of a run, after the
//! run's read guard is released.

use crate::controller::AdjustmentController;
use crate::messages::WorkerMessage;
use crate::metrics::SystemMetrics;
use crate::supervisor::Supervisor;
use parking_lot::RwLock;
use ps2stream_model::{QueryUpdate, StreamRecord, WorkerId};
use ps2stream_partition::RoutingTable;
use ps2stream_stream::{Batch, BatchBuffer, Emitter, Envelope, Operator};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A dispatcher executor. Several dispatcher instances share the same routing
/// table (behind an `RwLock`) and pull from the same input channel.
pub struct Dispatcher {
    routing: Arc<RwLock<RoutingTable>>,
    metrics: Arc<SystemMetrics>,
    /// Per-worker reorder buffers: routed records accumulate here and leave
    /// as batches. Flushed at the end of every run, before its read guard
    /// is released, so the buffers never hold records across a guard
    /// release or a quiescent period.
    buffer: BatchBuffer<StreamRecord>,
    /// The destinations of the record being routed (recycled).
    targets: Vec<WorkerId>,
    /// When set, a failed send to a worker channel is reported as peer death
    /// instead of being silently dropped.
    supervisor: Option<Arc<Supervisor>>,
    /// Ingest instants of the records discarded during the current run,
    /// recorded as completed once at its end (recycled).
    completed: Vec<Instant>,
    /// Objects discarded during the current run, added to
    /// `SystemMetrics::discarded_objects` once at its end.
    discarded: u64,
    /// The load adjustment controller, on dispatcher 0 only.
    controller: Option<AdjustmentController>,
}

impl Dispatcher {
    /// Creates a dispatcher over the shared routing state, fanning out to
    /// `num_workers` workers in batches of `batch_size` records.
    ///
    /// `_unused` has no effect. It survives only because the frozen
    /// `crates/benchmark/` replay still passes it; the next PR allowed to
    /// edit that crate deletes it.
    pub fn new(
        routing: Arc<RwLock<RoutingTable>>,
        _unused: Arc<RwLock<Option<RoutingTable>>>,
        metrics: Arc<SystemMetrics>,
        num_workers: usize,
        batch_size: usize,
    ) -> Self {
        Self {
            routing,
            metrics,
            buffer: BatchBuffer::new(num_workers, batch_size),
            targets: Vec::new(),
            supervisor: None,
            completed: Vec::new(),
            discarded: 0,
            controller: None,
        }
    }

    /// Arms peer-death reporting: a send to a disconnected worker channel
    /// flags that worker down on `supervisor` (counted once per worker).
    pub fn with_supervisor(mut self, supervisor: Arc<Supervisor>) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Makes this dispatcher the one that runs dynamic load adjustment: the
    /// controller is stepped once per input batch, at the end of each run.
    pub fn with_controller(mut self, controller: AdjustmentController) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Sends a routed batch to worker `worker`, turning a disconnected
    /// channel into a supervisor peer-death signal rather than a silent drop.
    fn deliver(&self, worker: usize, batch: Batch<StreamRecord>, emitter: &Emitter<WorkerMessage>) {
        if !emitter.emit_to_checked(worker, WorkerMessage::Records(batch)) {
            if let Some(supervisor) = &self.supervisor {
                if supervisor.note_peer_down(worker) {
                    self.metrics
                        .faults
                        .peer_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Routes one record. The read guard is acquired once per run (not per
    /// record) by the caller.
    fn route_envelope(
        &mut self,
        routing: &RoutingTable,
        envelope: Envelope<StreamRecord>,
        emitter: &Emitter<WorkerMessage>,
    ) {
        let mut targets = std::mem::take(&mut self.targets);
        match &envelope.payload {
            StreamRecord::Object(o) => routing.route_object_into(o, &mut targets),
            // steady state: term registration goes through the sharded
            // registry, so even insertions need only the read lock
            StreamRecord::Update(QueryUpdate::Insert(q)) => {
                routing.route_insert_into(q, &mut targets)
            }
            StreamRecord::Update(QueryUpdate::Delete(q)) => {
                routing.route_delete_into(q, &mut targets)
            }
        }
        match targets.split_last() {
            None => {
                // Discarded at the dispatcher (object with no registered
                // keyword in its cell): the tuple is complete.
                self.discarded += u64::from(envelope.payload.is_object());
                self.completed.push(envelope.ingested_at);
            }
            Some((&last, rest)) => {
                // clone the payload for every worker but the last; the
                // original envelope moves into the final buffer slot
                for w in rest {
                    if let Some(batch) = self
                        .buffer
                        .push(w.index(), envelope.derive(envelope.payload.clone()))
                    {
                        self.deliver(w.index(), batch, emitter);
                    }
                }
                if let Some(batch) = self.buffer.push(last.index(), envelope) {
                    self.deliver(last.index(), batch, emitter);
                }
            }
        }
        self.targets = targets;
    }
}

impl Operator for Dispatcher {
    type In = Batch<StreamRecord>;
    type Out = WorkerMessage;

    fn process(&mut self, input: Batch<StreamRecord>, emitter: &Emitter<WorkerMessage>) {
        self.process_run(std::iter::once(input), emitter);
    }

    fn process_run<I>(&mut self, run: I, emitter: &Emitter<WorkerMessage>)
    where
        I: Iterator<Item = Batch<StreamRecord>>,
    {
        // acquire the read guard once per run: the per-record lock traffic
        // is what batching amortizes away (writers — the adjustment
        // controller — wait at most one run)
        let routing = Arc::clone(&self.routing);
        let routing = routing.read();
        let mut batches = 0u64;
        for input in run {
            batches += 1;
            for envelope in input {
                self.route_envelope(&routing, envelope, emitter);
            }
        }
        // Flush the partial per-worker buffers while still holding the read
        // guard: a routed record must reach its worker's channel before the
        // adjustment controller can reassign the cell and issue the
        // MigrateCell (worker channels are unbounded, so these sends never
        // block while the lock is held). Per-channel FIFO then guarantees the
        // record is matched before the cell's queries are extracted. Nothing
        // is held back across a guard release or between runs, so downstream
        // latency is bounded by the run the record arrived in.
        for (worker, batch) in self.buffer.flush_all() {
            self.deliver(worker, batch, emitter);
        }
        drop(routing);
        // one add per run, before the run's records are recorded complete
        if self.discarded > 0 {
            self.metrics
                .discarded_objects
                .fetch_add(std::mem::take(&mut self.discarded), Ordering::Relaxed);
        }
        self.metrics.record_completed(&mut self.completed);
        // The controller may take the write lock, so it steps only after
        // the run's read guard is gone — once per input batch, so its
        // period keeps counting batches whatever the run length.
        if let Some(controller) = &mut self.controller {
            for _ in 0..batches {
                controller.step();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_model::{
        ObjectId, QueryId, SpatioTextualObject, StsQuery, SubscriberId, WorkerId,
    };
    use ps2stream_partition::{CellRouting, RoutingTable};
    use ps2stream_stream::bounded;
    use ps2stream_text::{BooleanExpr, TermId, TermStats};

    fn split_routing() -> RoutingTable {
        let grid = ps2stream_geo::UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 4, 4);
        let cells: Vec<CellRouting> = grid
            .all_cells()
            .map(|c| {
                if c.col < 2 {
                    CellRouting::Single(WorkerId(0))
                } else {
                    CellRouting::Single(WorkerId(1))
                }
            })
            .collect();
        RoutingTable::new(grid, cells, 2, Arc::new(TermStats::new()), "test")
    }

    fn query(id: u64, term: u32, region: Rect) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::single(TermId(term)),
            region,
        )
    }

    fn object(id: u64, term: u32, x: f64, y: f64) -> SpatioTextualObject {
        SpatioTextualObject::new(ObjectId(id), vec![TermId(term)], Point::new(x, y))
    }

    /// Collects the records of every `Records` batch currently queued.
    fn drain_records(
        rx: &ps2stream_stream::Receiver<WorkerMessage>,
    ) -> Vec<Envelope<StreamRecord>> {
        let mut out = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            let WorkerMessage::Records(batch) = msg else {
                panic!("expected a Records batch");
            };
            out.extend(batch);
        }
        out
    }

    #[test]
    fn dispatcher_routes_and_discards() {
        let metrics = SystemMetrics::new(2);
        let routing = Arc::new(RwLock::new(split_routing()));
        let mut d = Dispatcher::new(routing, Arc::default(), Arc::clone(&metrics), 2, 4);
        let (tx0, rx0) = bounded::<WorkerMessage>(16);
        let (tx1, rx1) = bounded::<WorkerMessage>(16);
        let emitter = Emitter::new(vec![tx0, tx1]);

        // a query spanning both halves goes to both workers
        let q = query(1, 7, Rect::from_coords(0.0, 0.0, 16.0, 16.0));
        d.process(
            Batch::of_one(Envelope::now(
                0,
                StreamRecord::Update(QueryUpdate::Insert(q.clone())),
            )),
            &emitter,
        );
        assert_eq!(drain_records(&rx0).len(), 1);
        assert_eq!(drain_records(&rx1).len(), 1);

        // an object in the left half with the registered keyword goes to worker 0 only
        d.process(
            Batch::of_one(Envelope::now(
                1,
                StreamRecord::Object(object(1, 7, 1.0, 1.0)),
            )),
            &emitter,
        );
        assert_eq!(drain_records(&rx0).len(), 1);
        assert!(rx1.try_recv().is_err());

        // an object with an unregistered keyword is discarded
        d.process(
            Batch::of_one(Envelope::now(
                2,
                StreamRecord::Object(object(2, 99, 1.0, 1.0)),
            )),
            &emitter,
        );
        assert!(rx0.try_recv().is_err());
        assert_eq!(metrics.discarded_objects.load(Ordering::Relaxed), 1);

        // the deletion follows the insertion's routing
        d.process(
            Batch::of_one(Envelope::now(
                3,
                StreamRecord::Update(QueryUpdate::Delete(q)),
            )),
            &emitter,
        );
        assert_eq!(drain_records(&rx0).len(), 1);
        assert_eq!(drain_records(&rx1).len(), 1);
    }

    #[test]
    fn batched_input_is_grouped_per_worker_in_order() {
        let metrics = SystemMetrics::new(2);
        let routing = Arc::new(RwLock::new(split_routing()));
        let mut d = Dispatcher::new(routing, Arc::default(), metrics, 2, 64);
        let (tx0, rx0) = bounded::<WorkerMessage>(16);
        let (tx1, rx1) = bounded::<WorkerMessage>(16);
        let emitter = Emitter::new(vec![tx0, tx1]);

        let mut batch = Batch::new();
        batch.push(Envelope::now(
            0,
            StreamRecord::Update(QueryUpdate::Insert(query(
                1,
                7,
                Rect::from_coords(0.0, 0.0, 16.0, 16.0),
            ))),
        ));
        // interleave objects for both halves
        batch.push(Envelope::now(
            1,
            StreamRecord::Object(object(1, 7, 1.0, 1.0)),
        ));
        batch.push(Envelope::now(
            2,
            StreamRecord::Object(object(2, 7, 15.0, 1.0)),
        ));
        batch.push(Envelope::now(
            3,
            StreamRecord::Object(object(3, 7, 2.0, 2.0)),
        ));
        d.process(batch, &emitter);

        // worker 0: insert + two left-half objects, in input order, one batch
        let to_w0 = drain_records(&rx0);
        assert_eq!(
            to_w0.iter().map(|e| e.sequence).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        // worker 1: insert replica + the right-half object
        let to_w1 = drain_records(&rx1);
        assert_eq!(
            to_w1.iter().map(|e| e.sequence).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn full_buffers_flush_mid_batch() {
        let metrics = SystemMetrics::new(1);
        let grid = ps2stream_geo::UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 4, 4);
        let cells = vec![CellRouting::Single(WorkerId(0)); grid.num_cells()];
        let table = RoutingTable::new(grid, cells, 1, Arc::new(TermStats::new()), "one");
        table.route_insert(&query(1, 7, Rect::from_coords(0.0, 0.0, 16.0, 16.0)));
        let routing = Arc::new(RwLock::new(table));
        // batch size 2: five objects produce two full batches and one remainder
        let mut d = Dispatcher::new(routing, Arc::default(), metrics, 1, 2);
        let (tx0, rx0) = bounded::<WorkerMessage>(16);
        let emitter = Emitter::new(vec![tx0]);
        let mut batch = Batch::new();
        for i in 0..5 {
            batch.push(Envelope::now(
                i,
                StreamRecord::Object(object(i, 7, 1.0, 1.0)),
            ));
        }
        d.process(batch, &emitter);
        let mut sizes = Vec::new();
        while let Ok(WorkerMessage::Records(b)) = rx0.try_recv() {
            sizes.push(b.len());
        }
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    /// `batches` input batches of 16 records over `split_routing`: an insert
    /// of query 7 spanning both halves, then objects of which one in eight
    /// carries the query's keyword, spread over both halves.
    fn sparse_batches(batches: u64) -> Vec<Batch<StreamRecord>> {
        let mut sequence = 0u64;
        (0..batches)
            .map(|b| {
                let mut batch = Batch::new();
                for i in 0..16u64 {
                    sequence += 1;
                    let record = if b == 0 && i == 0 {
                        StreamRecord::Update(QueryUpdate::Insert(query(
                            1,
                            7,
                            Rect::from_coords(0.0, 0.0, 16.0, 16.0),
                        )))
                    } else {
                        let term = if sequence.is_multiple_of(8) { 7 } else { 99 };
                        let x = if sequence.is_multiple_of(16) {
                            13.0
                        } else {
                            1.0
                        };
                        StreamRecord::Object(object(sequence, term, x, 1.0))
                    };
                    batch.push(Envelope::now(sequence, record));
                }
                batch
            })
            .collect()
    }

    /// Per-worker `Records` messages emitted for `batches`, fed as one run
    /// (`as_run`) or as one `process` call per batch.
    fn dispatch(batches: Vec<Batch<StreamRecord>>, as_run: bool) -> Vec<Vec<Batch<StreamRecord>>> {
        let routing = Arc::new(RwLock::new(split_routing()));
        let mut d = Dispatcher::new(routing, Arc::default(), SystemMetrics::new(2), 2, 16);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| bounded::<WorkerMessage>(1024)).unzip();
        let emitter = Emitter::new(txs);
        if as_run {
            d.process_run(batches.into_iter(), &emitter);
        } else {
            for batch in batches {
                d.process(batch, &emitter);
            }
        }
        rxs.iter()
            .map(|rx| {
                rx.try_iter()
                    .map(|msg| match msg {
                        WorkerMessage::Records(batch) => batch,
                        _ => panic!("expected a Records batch"),
                    })
                    .collect()
            })
            .collect()
    }

    fn sequences(messages: &[Batch<StreamRecord>]) -> Vec<u64> {
        messages
            .iter()
            .flat_map(|b| b.records().iter().map(|e| e.sequence))
            .collect()
    }

    #[test]
    fn a_run_routes_like_single_batches_with_one_flush_per_worker() {
        for k in [1, 2, 5, 32] {
            let singles = dispatch(sparse_batches(k), false);
            let run = dispatch(sparse_batches(k), true);
            for worker in 0..2 {
                assert_eq!(
                    sequences(&run[worker]),
                    sequences(&singles[worker]),
                    "run of {k}: worker {worker} got a different record sequence"
                );
                let partial = run[worker].iter().filter(|b| b.len() < 16).count();
                assert!(
                    partial <= 1,
                    "run of {k}: worker {worker} got {partial} partial batches"
                );
            }
            if k == 32 {
                // one routed record in eight: the run hands each worker full
                // batches plus one remainder, where single batches flushed a
                // partial batch almost every time
                let run_messages: usize = run.iter().map(Vec::len).sum();
                let single_messages: usize = singles.iter().map(Vec::len).sum();
                assert!(
                    run_messages * 4 <= single_messages,
                    "{run_messages} messages in a run vs {single_messages} singly"
                );
            }
        }
    }

    /// Input batches fed when the controller of a dispatcher fed `calls`
    /// (each a run of that many batches) was seen to send `CollectStats`.
    /// Nothing answers, so there is at most one request.
    fn stats_requests(calls: &[u64]) -> Vec<u64> {
        let metrics = SystemMetrics::new(1);
        let routing = Arc::new(RwLock::new(split_routing()));
        let (ctl_tx, ctl_rx) = ps2stream_stream::unbounded::<WorkerMessage>();
        let controller = AdjustmentController::new(
            &crate::config::AdjustmentConfig {
                period_batches: 8,
                ..Default::default()
            },
            ps2stream_partition::CostConstants::default(),
            Arc::clone(&routing),
            vec![ctl_tx],
            Arc::clone(&metrics),
        );
        let mut d =
            Dispatcher::new(routing, Arc::default(), metrics, 2, 16).with_controller(controller);
        let (txs, _rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| bounded::<WorkerMessage>(64)).unzip();
        let emitter = Emitter::new(txs);
        let mut fed = 0u64;
        let mut requested_after = Vec::new();
        for &len in calls {
            let run = (0..len).map(|i| {
                Batch::of_one(Envelope::now(
                    fed + i,
                    StreamRecord::Object(object(fed + i, 99, 1.0, 1.0)),
                ))
            });
            d.process_run(run, &emitter);
            fed += len;
            while let Ok(msg) = ctl_rx.try_recv() {
                assert!(matches!(msg, WorkerMessage::CollectStats { .. }));
                requested_after.push(fed);
            }
        }
        requested_after
    }

    #[test]
    fn the_controller_counts_batches_not_runs() {
        // period 8: single batches request stats with the ninth batch
        assert_eq!(stats_requests(&[1; 10]), vec![9]);
        // a run of ten requests them too, once the run's guard is gone
        assert_eq!(stats_requests(&[10]), vec![10]);
        // and at the same batch count: a run of n requests iff n singles do
        for n in 0..=12u64 {
            let singles = stats_requests(&vec![1; n as usize]).len();
            assert_eq!(stats_requests(&[n]).len(), singles, "run of {n}");
            assert_eq!(singles, usize::from(n >= 9), "{n} single batches");
        }
    }

    #[test]
    fn disconnected_worker_channel_flags_peer_death_exactly_once() {
        let metrics = SystemMetrics::new(2);
        let routing = Arc::new(RwLock::new(split_routing()));
        let supervisor = Supervisor::new(2, false);
        let mut d = Dispatcher::new(routing, Arc::default(), Arc::clone(&metrics), 2, 4)
            .with_supervisor(Arc::clone(&supervisor));
        let (tx0, rx0) = bounded::<WorkerMessage>(16);
        let (tx1, rx1) = bounded::<WorkerMessage>(16);
        let emitter = Emitter::new(vec![tx0, tx1]);
        drop(rx1); // worker 1 dies

        // two queries spanning both halves: each batch flush hits the dead
        // channel, but the death is counted only once
        for id in 1..=2u64 {
            d.process(
                Batch::of_one(Envelope::now(
                    id,
                    StreamRecord::Update(QueryUpdate::Insert(query(
                        id,
                        7,
                        Rect::from_coords(0.0, 0.0, 16.0, 16.0),
                    ))),
                )),
                &emitter,
            );
        }
        assert!(supervisor.is_down(1));
        assert!(!supervisor.is_down(0));
        assert_eq!(metrics.faults.peer_disconnects.load(Ordering::Relaxed), 1);
        // the healthy worker still received both replicas
        assert_eq!(drain_records(&rx0).len(), 2);
    }
}
