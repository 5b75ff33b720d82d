//! The worker executor.
//!
//! Every worker maintains a GI² index over the STS queries routed to it
//! (Section IV-D): it applies query insertions and deletions, matches
//! incoming objects and forwards match results to the mergers. Workers also
//! execute the control messages of the dynamic load adjustment: they report
//! their per-cell loads, extract the queries of migrated cells and index
//! queries migrated in from peers.
//!
//! The worker is an [`Operator`], so it runs unchanged on any
//! [`ps2stream_stream::Runtime`] backend: a blocking OS thread, a cooperative
//! pool task, or the deterministic simulator.
//!
//! # Lossless cell hand-off
//!
//! When a cell is migrated *to* this worker, records routed by the
//! already-updated table can arrive before the migrated queries do. A
//! [`WorkerMessage::CellPending`] barrier — enqueued by the controller under
//! the routing-table write lock, hence ahead of any such record — opens a
//! hand-off, and the [`WorkerMessage::MigrateIn`] that carries the queries
//! closes it. The worker keeps one park list with one rule: while a
//! hand-off towards it is pending or a fault window is open, every routed
//! record — object or subscription update — parks in arrival order; once
//! neither holds, the list replays through the one admission path. An
//! update routed by the new table therefore lands after the copy of its
//! query that the `MigrateIn` carries, and after the objects that arrived
//! before it.
//!
//! # Crash recovery
//!
//! A worker armed with a fault schedule ([`Worker::with_faults`]) logs, while
//! a crash is still scheduled, every change it applies to its index: each
//! insert, each delete that found its query, and each whole-cell extract.
//! The crash empties the index and takes the log; records park until the
//! window closes, and the respawn then replays the log onto the empty index
//! before the park list. What a worker held is a matter of its own history,
//! so the respawn reads neither the routing table, which a migration may
//! have changed since, nor ingest sequence numbers, which racing
//! dispatchers deliver out of order. Any control message closes an open
//! window first, so a hand-off on either side meets the restored index.

use crate::messages::{MergerMessage, WorkerCheckpoint, WorkerMessage, WorkerStatsReport};
use crate::metrics::SystemMetrics;
use crate::supervisor::WorkerFaults;
use ps2stream_balance::{CellLoadInfo, TermLoad};
use ps2stream_geo::CellId;
use ps2stream_index::{Gi2Index, MatchScratch};
use ps2stream_model::{MatchResult, QueryId, QueryUpdate, StreamRecord, StsQuery, WorkerId};
use ps2stream_partition::WorkerLoad;
use ps2stream_stream::{
    Batch, BatchBuffer, Emitter, Envelope, Operator, QueueDepth, Receiver, Sender,
};
use ps2stream_text::TermId;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Fault-injection plumbing armed by the launcher when the system carries a
/// fault plan: this worker's fault schedule and the history a respawn
/// restores from.
struct Supervision {
    faults: WorkerFaults,
    /// Stream records admitted so far — the deterministic fault clock
    /// (control messages do not tick).
    records_seen: u64,
    window: Option<FaultWindow>,
    /// The changes applied to the index, in the order applied; logged only
    /// while a crash is still scheduled.
    history: Vec<IndexChange>,
}

/// One change a worker applied to its index: the history a respawn replays.
/// A text split's `replicate_cell_where` changes nothing, so it has no entry.
enum IndexChange {
    Insert(StsQuery),
    Delete(QueryId),
    /// A whole-cell hand-off to a peer.
    Extract(CellId),
}

/// An open fault window: a crash (the in-memory index is gone and is
/// restored from its history when the window closes) or a wedge (the worker
/// stalls without state loss). It closes when its last tick arrives, or
/// early at any control message or at drain.
struct FaultWindow {
    /// Tick (exclusive) at which the respawn completes or the stall ends.
    until: u64,
    /// A crash's history of the dead index, replayed at the close; `None`
    /// for a wedge.
    restore: Option<Vec<IndexChange>>,
}

/// A worker executor.
pub struct Worker {
    id: WorkerId,
    index: Gi2Index,
    /// Senders to every worker (including this one) for migration traffic.
    peers: Vec<Sender<WorkerMessage>>,
    /// Senders to the mergers; results are routed by object id.
    mergers: Vec<Sender<MergerMessage>>,
    metrics: Arc<SystemMetrics>,
    /// Tuple counts since the last stats report.
    period_load: WorkerLoad,
    /// Per-merger buffers of per-object match sets; flushed at the end of
    /// every run (never held across runs).
    match_buffer: BatchBuffer<Vec<MatchResult>>,
    /// Per-merger count of match *results* (not objects) currently buffered;
    /// a buffer is flushed early once it holds `result_budget` results so a
    /// hot object storm cannot inflate a single merger message unboundedly.
    result_counts: Vec<usize>,
    /// Maximum match results per merger message (merger message sizing).
    result_budget: usize,
    /// Reusable matching scratch threaded through the GI² kernel
    /// (epoch-stamped dedup, recycled result/purge buffers).
    scratch: MatchScratch,
    /// Run of consecutive object records of the current input batch, matched
    /// together through [`Gi2Index::match_batch`] (recycled).
    object_run: Vec<Envelope<StreamRecord>>,
    /// `(position in run, matches)` pairs of the current run (recycled).
    run_results: Vec<(usize, Vec<MatchResult>)>,
    /// Ingest instants of the records this worker completed (updates and
    /// unmatched objects) during the current run, recorded once at its end
    /// (recycled).
    completed: Vec<Instant>,
    /// Hand-offs *towards* this worker whose `MigrateIn` is still owed.
    pending_handoffs: u32,
    /// Records routed here while a hand-off is pending or a fault window is
    /// open, in arrival order.
    parked: Vec<Envelope<StreamRecord>>,
    /// A `Shutdown` arrived while hand-offs were pending; stop as soon as
    /// the last one completes.
    shutdown_requested: bool,
    /// Terminate after the current message (drives [`Operator::wants_stop`]).
    stopped: bool,
    /// Fault-injection and recovery plumbing (`None` on fault-free runs).
    supervision: Option<Supervision>,
    /// Shed-oldest overload policy: `(input backlog gauge, mailbox bound)`.
    /// `None` keeps the historical blocking behaviour.
    overload: Option<(QueueDepth, usize)>,
}

impl Worker {
    /// Creates a worker emitting match batches of up to `batch_size` objects.
    pub fn new(
        id: WorkerId,
        index: Gi2Index,
        peers: Vec<Sender<WorkerMessage>>,
        mergers: Vec<Sender<MergerMessage>>,
        metrics: Arc<SystemMetrics>,
        batch_size: usize,
    ) -> Self {
        let match_buffer = BatchBuffer::new(mergers.len(), batch_size);
        let result_counts = vec![0; mergers.len()];
        Self {
            id,
            index,
            peers,
            mergers,
            metrics,
            period_load: WorkerLoad::default(),
            match_buffer,
            result_counts,
            result_budget: (batch_size * 4).max(64),
            scratch: MatchScratch::new(),
            object_run: Vec::new(),
            run_results: Vec::new(),
            completed: Vec::new(),
            pending_handoffs: 0,
            parked: Vec::new(),
            shutdown_requested: false,
            stopped: false,
            supervision: None,
            overload: None,
        }
    }

    /// Arms fault injection: `faults` is this worker's slice of the system
    /// fault plan. While a crash is scheduled the worker logs every change
    /// it applies to its index, and the respawn replays that log onto the
    /// index emptied in place (same grid, same shared term table).
    pub fn with_faults(mut self, faults: WorkerFaults) -> Self {
        self.supervision = Some(Supervision {
            faults,
            records_seen: 0,
            window: None,
            history: Vec::new(),
        });
        self
    }

    /// Arms the shed-oldest overload policy: when a `Records` message is
    /// dequeued while more than `mailbox` messages still wait in `depth`,
    /// its objects are dropped (and counted) instead of matched.
    pub fn with_overload(mut self, depth: QueueDepth, mailbox: usize) -> Self {
        self.overload = Some((depth, mailbox));
        self
    }

    /// The worker's GI² index (exposed for tests).
    pub fn index(&self) -> &Gi2Index {
        &self.index
    }

    fn send_matches(&mut self, merger: usize, batch: Batch<Vec<MatchResult>>) {
        if let Some(count) = self.result_counts.get_mut(merger) {
            *count = 0;
        }
        if let Some(tx) = self.mergers.get(merger) {
            let _ = tx.send(MergerMessage::Matches(batch));
        }
    }

    /// Buffers one object's matches towards its merger, flushing on the
    /// record threshold **or** once the buffered match-result count reaches
    /// the per-message budget (merger message sizing: a few hot objects with
    /// large match sets must not inflate one merger message unboundedly).
    fn push_matches(&mut self, envelope: &Envelope<StreamRecord>, matches: Vec<MatchResult>) {
        let StreamRecord::Object(o) = &envelope.payload else {
            unreachable!("matches are produced for objects only");
        };
        let merger = (o.id.value() as usize) % self.mergers.len().max(1);
        if let Some(count) = self.result_counts.get_mut(merger) {
            *count += matches.len();
        }
        if let Some(full) = self.match_buffer.push(merger, envelope.derive(matches)) {
            self.send_matches(merger, full);
        } else if self.result_counts.get(merger).copied().unwrap_or(0) >= self.result_budget {
            if let Some(full) = self.match_buffer.flush(merger) {
                self.send_matches(merger, full);
            }
        }
    }

    /// Appends one change to the index history while a crash is still
    /// scheduled; the closure runs only then.
    fn log_change(&mut self, change: impl FnOnce() -> IndexChange) {
        if let Some(sup) = self
            .supervision
            .as_mut()
            .filter(|s| s.faults.crash_at.is_some())
        {
            sup.history.push(change());
        }
    }

    /// True while routed records must park: a hand-off towards this worker
    /// is pending or a fault window is open.
    fn parking(&self) -> bool {
        self.pending_handoffs > 0
            || self
                .supervision
                .as_ref()
                .is_some_and(|s| s.window.is_some())
    }

    /// Admits one routed record — the only way a record, live or replayed,
    /// reaches the index. An object joins the run that
    /// [`Worker::flush_object_run`] matches as one batch. An update is
    /// applied at once, but the run so far is matched first, so an
    /// insert/delete cannot affect objects that arrived before it.
    fn admit(&mut self, envelope: Envelope<StreamRecord>) {
        // the ingest instant outlives the payload, which an insert moves into
        // the index
        let ingested_at = envelope.ingested_at;
        match envelope.payload {
            StreamRecord::Object(_) => self.object_run.push(envelope),
            StreamRecord::Update(update) => {
                self.flush_object_run();
                match update {
                    QueryUpdate::Insert(q) => {
                        self.period_load.insertions += 1;
                        self.log_change(|| IndexChange::Insert(q.clone()));
                        self.index.insert(q);
                    }
                    // a deletion reaches every worker: only one that held
                    // the query counts it
                    QueryUpdate::Delete(q) => {
                        if self.index.delete(&q) {
                            self.period_load.deletions += 1;
                            self.log_change(|| IndexChange::Delete(q.id));
                        }
                    }
                }
                // tuple finished here
                self.completed.push(ingested_at);
            }
        }
    }

    /// Replays the park list through [`Worker::admit`] in arrival order,
    /// unless a hand-off or a fault window still holds it; the results leave
    /// with the rest of the run's.
    fn release(&mut self) {
        if self.parking() {
            return;
        }
        for envelope in std::mem::take(&mut self.parked) {
            self.admit(envelope);
        }
        self.flush_object_run();
    }

    /// Flushes the partial match batches so no result waits for future
    /// input: once per run, and in `finish`.
    fn flush_matches(&mut self) {
        for (merger, batch) in self.match_buffer.flush_all() {
            self.send_matches(merger, batch);
        }
    }

    /// Matches the buffered run of consecutive object records as one
    /// [`Gi2Index::match_batch`] — the only place the worker matches objects.
    fn flush_object_run(&mut self) {
        if self.object_run.is_empty() {
            return;
        }
        self.period_load.objects += self.object_run.len() as u64;
        let run = std::mem::take(&mut self.object_run);
        self.run_results.clear();
        {
            let run_results = &mut self.run_results;
            self.index.match_batch(
                run.iter().map(|e| match &e.payload {
                    StreamRecord::Object(o) => o,
                    _ => unreachable!("the object run holds objects only"),
                }),
                &mut self.scratch,
                |i, _, results| {
                    if !results.is_empty() {
                        run_results.push((i, results.to_vec()));
                    }
                },
            );
        }
        let mut next = 0usize;
        for (i, envelope) in run.iter().enumerate() {
            if self.run_results.get(next).is_some_and(|(j, _)| *j == i) {
                let matches = std::mem::take(&mut self.run_results[next].1);
                next += 1;
                self.push_matches(envelope, matches);
            } else {
                // tuple finished here
                self.completed.push(envelope.ingested_at);
            }
        }
        self.object_run = run;
        self.object_run.clear();
    }

    /// Advances the fault clock for one routed record and opens the window
    /// this worker's fault schedule names for its tick. Returns true when
    /// the open window closes after this record: its last tick has arrived.
    fn fault_tick(&mut self) -> bool {
        let Some(sup) = self.supervision.as_mut() else {
            return false;
        };
        if sup.faults.is_inert() && sup.window.is_none() {
            return false;
        }
        sup.records_seen += 1;
        let tick = sup.records_seen;
        if sup.window.is_none() {
            if sup.faults.crash_at == Some(tick) {
                // Fire the crash: the in-memory index dies here, and its
                // history leaves the log for the respawn. Objects already
                // admitted into the batched run but not yet matched die
                // unprocessed with it; they arrived before every parked
                // record, so they lead the park list.
                sup.faults.crash_at = None;
                sup.window = Some(FaultWindow {
                    until: tick.saturating_add(sup.faults.recovery_lag.max(1)),
                    restore: Some(std::mem::take(&mut sup.history)),
                });
                let unmatched = std::mem::take(&mut self.object_run);
                self.metrics
                    .faults
                    .replayed_records
                    .fetch_add(unmatched.len() as u64, Ordering::Relaxed);
                self.parked.splice(0..0, unmatched);
                self.index.clear();
                self.metrics
                    .faults
                    .worker_crashes
                    .fetch_add(1, Ordering::Relaxed);
            } else if let Some((_, duration)) = sup.faults.wedge.filter(|&(at, _)| at == tick) {
                sup.faults.wedge = None;
                sup.window = Some(FaultWindow {
                    until: tick.saturating_add(duration.max(1)),
                    restore: None,
                });
            } else {
                return false;
            }
        }
        sup.window
            .as_ref()
            .is_some_and(|w| tick.saturating_add(1) >= w.until)
    }

    /// Closes an open fault window (also called early at any control
    /// message and at drain, so parked records are never lost): a crashed
    /// worker first restores its index, then the park list replays unless a
    /// hand-off still holds it.
    fn close_fault_window(&mut self) {
        let Some(window) = self.supervision.as_mut().and_then(|s| s.window.take()) else {
            return;
        };
        if let Some(history) = window.restore {
            self.respawn(history);
        }
        self.release();
    }

    /// Restores a crashed worker's index: replays the changes the dead
    /// index applied, in the order it applied them, onto the emptied index.
    /// Every record the dead index saw was applied or parked, and every
    /// control message it handled came before the crash, so this is exactly
    /// the state it held, whatever the routing table says now.
    fn respawn(&mut self, history: Vec<IndexChange>) {
        let restored = history.len() as u64;
        for change in history {
            match change {
                IndexChange::Insert(q) => self.index.insert(q),
                IndexChange::Delete(id) => {
                    self.index.delete_by_id(id);
                }
                IndexChange::Extract(cell) => {
                    self.index.extract_cell(cell);
                }
            }
        }
        self.metrics
            .faults
            .worker_respawns
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .faults
            .restored_updates
            .fetch_add(restored, Ordering::Relaxed);
    }

    /// Applies the shed-oldest overload policy to one dequeued `Records`
    /// message: while the mailbox backlog exceeds the bound, the dequeued
    /// (oldest) message's objects are dropped and counted. Subscription
    /// updates are never shed — dropping one would silently diverge the
    /// worker's query population from the subscribers' view.
    fn shed_overload(&mut self, records: Batch<StreamRecord>) -> Option<Batch<StreamRecord>> {
        let Some((depth, mailbox)) = &self.overload else {
            return Some(records);
        };
        if depth.get() <= *mailbox {
            return Some(records);
        }
        let mut kept = Batch::new();
        let mut shed = 0u64;
        for envelope in records {
            if envelope.payload.is_object() {
                shed += 1;
            } else {
                kept.push(envelope);
            }
        }
        if shed > 0 {
            self.metrics
                .faults
                .shed_records
                .fetch_add(shed, Ordering::Relaxed);
            // shed tuples finish (by being dropped) here: they count toward
            // the service rate but record no latency
            self.metrics.throughput.record(shed);
        }
        (!kept.is_empty()).then_some(kept)
    }

    /// Admits or parks each routed record of one `Records` message, in
    /// order, advancing the fault clock once per record.
    fn handle_records(&mut self, records: Batch<StreamRecord>) {
        for envelope in records {
            let window_closes = self.fault_tick();
            if self.parking() {
                if let Some(window) = self.supervision.as_ref().and_then(|s| s.window.as_ref()) {
                    let faults = &self.metrics.faults;
                    faults.replayed_records.fetch_add(1, Ordering::Relaxed);
                    if window.restore.is_none() {
                        faults.wedge_parks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.parked.push(envelope);
            } else {
                self.admit(envelope);
            }
            if window_closes {
                self.close_fault_window();
            }
        }
        self.flush_object_run();
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "migration timing metrics only; match results never depend on the clock"
    )]
    fn handle_migrate_out(&mut self, cell: CellId, terms: Option<Vec<TermId>>, to: WorkerId) {
        let start = Instant::now();
        let queries = match &terms {
            // whole-cell hand-off: every object of the cell now routes to
            // the destination, so the queries truly move
            None => {
                self.log_change(|| IndexChange::Extract(cell));
                self.index.extract_cell(cell)
            }
            // text split: only the given terms' objects re-route; queries
            // touching them are *replicated* (a query whose representative
            // terms straddle both groups must keep matching on both sides —
            // the merger deduplicates)
            Some(terms) => self.index.replicate_cell_where(cell, |q| {
                q.keywords.all_terms().iter().any(|t| terms.contains(t))
            }),
        };
        if !queries.is_empty() {
            let bytes: usize = queries.iter().map(|q| q.memory_usage()).sum();
            self.metrics
                .migration
                .bytes_moved
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.metrics.migration.moves.fetch_add(1, Ordering::Relaxed);
        }
        // The MigrateIn must go out even when no query moved: the controller
        // armed a CellPending barrier at the destination and this message is
        // what releases it.
        if let Some(peer) = self.peers.get(to.index()) {
            let _ = peer.send(WorkerMessage::MigrateIn { cell, queries });
        }
        self.metrics
            .migration
            .migration_time_us
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "migration timing metrics only; match results never depend on the clock"
    )]
    fn handle_migrate_in(&mut self, queries: Vec<StsQuery>) {
        let start = Instant::now();
        for q in queries {
            self.log_change(|| IndexChange::Insert(q.clone()));
            self.index.insert(q);
        }
        self.metrics
            .migration
            .migration_time_us
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        // the last MigrateIn owed releases the park list
        self.pending_handoffs = self.pending_handoffs.saturating_sub(1);
        if self.pending_handoffs == 0 {
            self.release();
            self.stopped |= self.shutdown_requested;
        }
    }

    fn stats_report(&mut self) -> WorkerStatsReport {
        let mut cells: Vec<CellLoadInfo> = self
            .index
            .cell_loads()
            .into_iter()
            .map(|c| CellLoadInfo {
                cell: c.cell,
                objects: c.objects,
                queries: c.queries as u64,
                size: c.bytes as u64,
                // the controller reads this from the routing table
                text_split: false,
                term_loads: Vec::new(),
            })
            .collect();
        // both stream the cells in row-major order, and a cell with a term
        // stat stores a query, so it has a load entry
        let mut at = 0;
        self.index.for_each_cell_term_stat(|cell, t| {
            while cells[at].cell != cell {
                at += 1;
            }
            let c = &mut cells[at];
            c.term_loads.push(TermLoad {
                term: t.term,
                queries: t.queries,
                objects: t.object_hits,
                size: c
                    .size
                    .saturating_mul(t.queries)
                    .checked_div(c.queries)
                    .unwrap_or(0),
            });
        });
        let report = WorkerStatsReport {
            worker: self.id,
            load: self.period_load,
            cells,
            indexed_queries: self.index.num_queries(),
            memory_bytes: self.index.memory_usage(),
        };
        // cumulative accounting, then reset the period
        self.metrics
            .add_worker_load(self.id.index(), &self.period_load);
        self.period_load = WorkerLoad::default();
        self.index.reset_load_counters();
        report
    }

    /// Handles one message of a run. Matches stay buffered until the run's
    /// end (or a full merger batch).
    fn handle(&mut self, message: WorkerMessage) {
        if !matches!(message, WorkerMessage::Records(_)) {
            // Any control message ends an open fault window first, as a
            // respawned worker would handle its inbox: a `MigrateCell`
            // extracts from the restored index, a `MigrateIn` lands after
            // the restore, a checkpoint captures a live index, and parked
            // records replay before a shutdown.
            self.close_fault_window();
        }
        match message {
            WorkerMessage::Records(records) => {
                if let Some(records) = self.shed_overload(records) {
                    self.handle_records(records);
                }
            }
            WorkerMessage::MigrateCell { cell, terms, to } => {
                self.handle_migrate_out(cell, terms, to)
            }
            WorkerMessage::CellPending { .. } => self.pending_handoffs += 1,
            WorkerMessage::MigrateIn { queries, .. } => self.handle_migrate_in(queries),
            WorkerMessage::CollectStats { reply } => {
                let _ = reply.send(self.stats_report());
            }
            WorkerMessage::Checkpoint { reply } => {
                let _ = reply.send(WorkerCheckpoint {
                    worker: self.id,
                    index_bytes: self.index.snapshot_bytes(),
                });
            }
            WorkerMessage::Shutdown => {
                // Hand-offs still owed to this worker will complete (the
                // source processes its MigrateCell before its own Shutdown),
                // so defer termination until the parked records replay.
                self.stopped = self.pending_handoffs == 0;
                self.shutdown_requested = true;
            }
        }
    }

    /// Runs the worker loop on the current thread until a
    /// [`WorkerMessage::Shutdown`] takes effect or every sender disconnects.
    /// Returns the worker for inspection.
    pub fn run(self, input: Receiver<WorkerMessage>) -> Self {
        ps2stream_stream::run_operator(self, input, Emitter::sink())
    }
}

impl Operator for Worker {
    type In = WorkerMessage;
    type Out = ();

    fn process(&mut self, message: WorkerMessage, emitter: &Emitter<()>) {
        self.process_run(std::iter::once(message), emitter);
    }

    /// Handles a run of messages in order and flushes the partial match
    /// batches once, at its end: a run of small `Records` messages costs
    /// each merger one hand-off.
    fn process_run<I>(&mut self, run: I, _emitter: &Emitter<()>)
    where
        I: Iterator<Item = WorkerMessage>,
    {
        for message in run {
            self.handle(message);
            if self.stopped {
                break;
            }
        }
        self.flush_matches();
        self.metrics.record_completed(&mut self.completed);
    }

    fn wants_stop(&self) -> bool {
        self.stopped
    }

    fn finish(&mut self, _emitter: &Emitter<()>) {
        // an input drain (every upstream sender gone) can also end the
        // worker: replay the park list first unless a hand-off holds it
        self.close_fault_window();
        self.flush_object_run();
        self.flush_matches();
        self.metrics.record_completed(&mut self.completed);
        // final accounting
        self.metrics
            .add_worker_load(self.id.index(), &self.period_load);
        self.period_load = WorkerLoad::default();
        self.metrics
            .set_worker_memory(self.id.index(), self.index.memory_usage());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::{Point, Rect};
    use ps2stream_index::Gi2Config;
    use ps2stream_model::{ObjectId, SpatioTextualObject, SubscriberId};
    use ps2stream_partition::RoutingTable;
    use ps2stream_stream::{bounded, unbounded, Batch, Envelope};
    use ps2stream_text::BooleanExpr;
    use std::collections::{HashMap, HashSet};

    fn gi2() -> Gi2Index {
        Gi2Index::new(
            Gi2Config::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0)).with_granularity_exp(3),
        )
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

    #[test]
    fn worker_indexes_matches_and_reports() {
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(16);
        let (stats_tx, stats_rx) = unbounded::<WorkerStatsReport>();
        let worker = Worker::new(
            WorkerId(0),
            gi2(),
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        );

        let q = query(1, 7, Rect::from_coords(0.0, 0.0, 8.0, 8.0));
        // one batch carrying the insert, a matching object and a
        // non-matching object
        let mut batch = Batch::new();
        batch.push(Envelope::now(
            0,
            StreamRecord::Update(QueryUpdate::Insert(q.clone())),
        ));
        batch.push(Envelope::now(
            1,
            StreamRecord::Object(object(10, 7, 2.0, 2.0)),
        ));
        batch.push(Envelope::now(
            2,
            StreamRecord::Object(object(11, 8, 2.0, 2.0)),
        ));
        worker_tx.send(WorkerMessage::Records(batch)).unwrap();
        worker_tx
            .send(WorkerMessage::CollectStats { reply: stats_tx })
            .unwrap();
        // delete, then shut down
        worker_tx
            .send(WorkerMessage::Records(Batch::of_one(Envelope::now(
                3,
                StreamRecord::Update(QueryUpdate::Delete(q)),
            ))))
            .unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();

        let worker = worker.run(worker_rx);
        assert_eq!(worker.index().num_queries(), 0);

        // one match batch with one object forwarded to the merger
        let MergerMessage::Matches(matches) = merger_rx.try_recv().unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches.records()[0].payload.len(), 1);
        assert_eq!(matches.records()[0].payload[0].query_id, QueryId(1));
        assert!(merger_rx.try_recv().is_err());

        // the stats report reflects the period before the delete
        let report = stats_rx.try_recv().unwrap();
        assert_eq!(report.load.objects, 2);
        assert_eq!(report.load.insertions, 1);
        assert_eq!(report.load.deletions, 0);
        assert_eq!(report.indexed_queries, 1);
        assert!(!report.cells.is_empty());
        assert!(report.memory_bytes > 0);

        // cumulative metrics include the post-report delete
        let loads = metrics.worker_loads.lock();
        assert_eq!(loads[0].deletions, 1);
        assert_eq!(loads[0].objects, 2);
    }

    /// `k` small `Records` messages: two queries inserted up front, one
    /// deleted halfway, and objects that match one, both or neither.
    fn small_records(k: u64) -> Vec<WorkerMessage> {
        let region = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        (0..k)
            .map(|m| {
                let mut batch = Batch::new();
                let seq = 10 * m;
                if m == 0 {
                    for (id, term) in [(1, 7), (2, 8)] {
                        batch.push(Envelope::now(
                            seq + id,
                            StreamRecord::Update(QueryUpdate::Insert(query(id, term, region))),
                        ));
                    }
                }
                if m == k / 2 {
                    batch.push(Envelope::now(
                        seq + 3,
                        StreamRecord::Update(QueryUpdate::Delete(query(2, 8, region))),
                    ));
                }
                for i in 4..(4 + m % 4) {
                    // matches both queries, query 2 only, neither
                    let term = [7, 8, 9][(i - 4) as usize];
                    let mut terms = vec![TermId(term)];
                    if term == 7 {
                        terms.push(TermId(8));
                    }
                    batch.push(Envelope::now(
                        seq + i,
                        StreamRecord::Object(SpatioTextualObject::new(
                            ObjectId(seq + i),
                            terms,
                            Point::new(2.0, 2.0),
                        )),
                    ));
                }
                WorkerMessage::Records(batch)
            })
            .collect()
    }

    /// `(object sequence, matched query ids)` in the order the merger
    /// receives them, and the size of every merger message, for `messages`
    /// handled as one run or one `process` call each.
    fn match_stream(
        messages: Vec<WorkerMessage>,
        as_run: bool,
    ) -> (Vec<(u64, Vec<u64>)>, Vec<usize>) {
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(1024);
        let mut worker = Worker::new(
            WorkerId(0),
            gi2(),
            Vec::new(),
            vec![merger_tx],
            SystemMetrics::new(1),
            16,
        );
        let sink = Emitter::sink();
        if as_run {
            worker.process_run(messages.into_iter(), &sink);
        } else {
            for message in messages {
                worker.process(message, &sink);
            }
        }
        let mut stream = Vec::new();
        let mut sizes = Vec::new();
        while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
            sizes.push(batch.len());
            for record in batch.records() {
                let ids = record.payload.iter().map(|m| m.query_id.0).collect();
                stream.push((record.sequence, ids));
            }
        }
        (stream, sizes)
    }

    #[test]
    fn a_run_matches_like_single_messages_and_flushes_once() {
        for k in [2, 7, 32] {
            let (singles, single_sizes) = match_stream(small_records(k), false);
            let (run, run_sizes) = match_stream(small_records(k), true);
            assert!(!run.is_empty(), "run of {k} matched nothing");
            assert_eq!(run, singles, "run of {k}");
            // one or two matched objects per message: singly, nearly every
            // message sent a partial batch; a run sends full batches and
            // one remainder
            let partial = run_sizes.iter().filter(|&&n| n < 16).count();
            assert!(partial <= 1, "run of {k}: {partial} partial batches");
            if k == 32 {
                assert!(run_sizes.len() * 4 <= single_sizes.len());
            }
        }
    }

    #[test]
    fn a_run_stops_pulling_at_shutdown() {
        let (merger_tx, _merger_rx) = bounded::<MergerMessage>(16);
        let mut worker = Worker::new(
            WorkerId(0),
            gi2(),
            Vec::new(),
            vec![merger_tx],
            SystemMetrics::new(1),
            16,
        );
        let mut messages = small_records(3).into_iter();
        worker.process_run(
            std::iter::once(WorkerMessage::Shutdown).chain(messages.by_ref()),
            &Emitter::sink(),
        );
        assert!(worker.wants_stop());
        assert_eq!(messages.len(), 3, "nothing after the Shutdown was pulled");
    }

    #[test]
    fn result_budget_flush_neither_drops_nor_duplicates() {
        // batch_size 16 → result_budget = (16 * 4).max(64) = 64. Thirty
        // queries match every object, so the third object pushes the
        // buffered result count to 90 ≥ 64 and trips the early flush at
        // worker.rs's push_matches budget branch; the remaining two objects
        // leave through the end-of-batch flush.
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(16);
        let worker = Worker::new(
            WorkerId(0),
            gi2(),
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        );
        assert_eq!(worker.result_budget, 64);

        let num_queries = 30u64;
        let num_objects = 5u64;
        let mut batch = Batch::new();
        for id in 1..=num_queries {
            batch.push(Envelope::now(
                id,
                StreamRecord::Update(QueryUpdate::Insert(query(
                    id,
                    7,
                    Rect::from_coords(0.0, 0.0, 8.0, 8.0),
                ))),
            ));
        }
        for id in 0..num_objects {
            batch.push(Envelope::now(
                num_queries + id,
                StreamRecord::Object(object(100 + id, 7, 2.0, 2.0)),
            ));
        }
        worker_tx.send(WorkerMessage::Records(batch)).unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();
        worker.run(worker_rx);

        // drain every merger message; each object must arrive exactly once
        // with its complete match set, regardless of which flush emitted it
        let mut messages = 0usize;
        let mut delivered: HashMap<u64, Vec<QueryId>> = HashMap::new();
        while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
            messages += 1;
            for record in batch.records() {
                // derived match envelopes keep the object's sequence number
                let previous = delivered.insert(
                    record.sequence,
                    record.payload.iter().map(|m| m.query_id).collect(),
                );
                assert!(
                    previous.is_none(),
                    "object (sequence {}) delivered twice across the flush boundary",
                    record.sequence
                );
            }
        }
        assert!(
            messages >= 2,
            "the budget flush must split the batch into multiple messages"
        );
        assert_eq!(delivered.len(), num_objects as usize, "no object dropped");
        for (sequence, mut query_ids) in delivered {
            assert!((num_queries..num_queries + num_objects).contains(&sequence));
            query_ids.sort_unstable();
            let expected: Vec<QueryId> = (1..=num_queries).map(QueryId).collect();
            assert_eq!(
                query_ids, expected,
                "object (sequence {sequence}) lost or gained matches across the flush"
            );
        }
    }

    /// A 1-worker routing table over the same bounds as [`gi2`].
    fn routing_one_worker() -> RoutingTable {
        let grid = ps2stream_geo::UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 8, 8);
        let cells = vec![ps2stream_partition::CellRouting::Single(WorkerId(0)); grid.num_cells()];
        RoutingTable::new(
            grid,
            cells,
            1,
            Arc::new(ps2stream_text::TermStats::new()),
            "test",
        )
    }

    #[test]
    fn crash_recovery_replays_parked_records_without_loss() {
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(64);
        let faults = WorkerFaults {
            crash_at: Some(3),
            wedge: None,
            recovery_lag: 2,
        };
        let worker = Worker::new(
            WorkerId(0),
            gi2(),
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        )
        .with_faults(faults);

        let q = query(1, 7, Rect::from_coords(0.0, 0.0, 8.0, 8.0));
        let mut batch = Batch::new();
        batch.push(Envelope::now(
            1,
            StreamRecord::Update(QueryUpdate::Insert(q)),
        ));
        // ticks 2..=6; the crash fires at tick 3, destroying the index while
        // the object of tick 2 still sits unmatched in the batched run
        for seq in 2..=6u64 {
            batch.push(Envelope::now(
                seq,
                StreamRecord::Object(object(seq, 7, 2.0, 2.0)),
            ));
        }
        worker_tx.send(WorkerMessage::Records(batch)).unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();
        let worker = worker.run(worker_rx);
        assert_eq!(
            worker.index().num_queries(),
            1,
            "the respawned index holds the restored query"
        );

        // every object matched exactly once, crash or not
        let mut sequences = Vec::new();
        while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
            for record in batch.records() {
                assert_eq!(record.payload.len(), 1);
                sequences.push(record.sequence);
            }
        }
        sequences.sort_unstable();
        assert_eq!(
            sequences,
            vec![2, 3, 4, 5, 6],
            "no object lost or duplicated across the crash"
        );
        assert_eq!(metrics.faults.worker_crashes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.faults.worker_respawns.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.faults.restored_updates.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.faults.replayed_records.load(Ordering::Relaxed), 3);
    }

    /// Routes three updates through a one-worker table, as the dispatcher
    /// does (insert q1, insert q2, delete q2), then five objects,
    /// through one worker with `crash_at`; deletes q1 once the worker is
    /// done. Returns `H2` as every cell's registered terms.
    fn h2_after_a_run(crash_at: Option<u64>) -> Vec<HashSet<TermId>> {
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, _merger_rx) = bounded::<MergerMessage>(64);
        let routing = routing_one_worker();
        let faults = WorkerFaults {
            crash_at,
            wedge: None,
            recovery_lag: 2,
        };
        let worker = Worker::new(
            WorkerId(0),
            gi2(),
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        )
        .with_faults(faults);
        let region = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let (q1, q2) = (query(1, 7, region), query(2, 8, region));
        let updates = [
            QueryUpdate::Insert(q1.clone()),
            QueryUpdate::Insert(q2.clone()),
            QueryUpdate::Delete(q2),
        ];
        let mut batch = Batch::new();
        for (seq, update) in (1..).zip(updates) {
            match &update {
                QueryUpdate::Insert(q) => routing.route_insert(q),
                QueryUpdate::Delete(q) => routing.route_delete(q),
            };
            batch.push(Envelope::now(seq, StreamRecord::Update(update)));
        }
        for seq in 4..=8u64 {
            batch.push(Envelope::now(
                seq,
                StreamRecord::Object(object(seq, 7, 2.0, 2.0)),
            ));
        }
        worker_tx.send(WorkerMessage::Records(batch)).unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();
        let worker = worker.run(worker_rx);
        assert_eq!(worker.index().num_queries(), 1);
        let expected_respawns = u64::from(crash_at.is_some());
        assert_eq!(
            metrics.faults.worker_respawns.load(Ordering::Relaxed),
            expected_respawns
        );
        routing.route_delete(&q1);
        routing
            .grid()
            .all_cells()
            .map(|cell| routing.cell_query_terms(cell))
            .collect()
    }

    #[test]
    fn a_respawn_leaves_h2_as_the_crash_free_run_does() {
        // re-registering the replayed inserts would count q1 twice, so its
        // delete would leave it registered, and would bring back q2
        let crash_free = h2_after_a_run(None);
        assert!(crash_free.iter().all(HashSet::is_empty));
        assert_eq!(h2_after_a_run(Some(5)), crash_free);
    }

    #[test]
    fn wedge_window_stalls_without_state_loss() {
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(64);
        let faults = WorkerFaults {
            crash_at: None,
            wedge: Some((2, 2)),
            recovery_lag: 0,
        };
        let worker = Worker::new(
            WorkerId(0),
            gi2(),
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        )
        .with_faults(faults);

        let mut batch = Batch::new();
        batch.push(Envelope::now(
            1,
            StreamRecord::Update(QueryUpdate::Insert(query(
                1,
                7,
                Rect::from_coords(0.0, 0.0, 8.0, 8.0),
            ))),
        ));
        for seq in 2..=5u64 {
            batch.push(Envelope::now(
                seq,
                StreamRecord::Object(object(seq, 7, 2.0, 2.0)),
            ));
        }
        worker_tx.send(WorkerMessage::Records(batch)).unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();
        worker.run(worker_rx);

        let mut sequences = Vec::new();
        while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
            for record in batch.records() {
                sequences.push(record.sequence);
            }
        }
        sequences.sort_unstable();
        assert_eq!(
            sequences,
            vec![2, 3, 4, 5],
            "the wedge delays but never drops"
        );
        assert_eq!(metrics.faults.wedge_parks.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.faults.worker_crashes.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.faults.worker_respawns.load(Ordering::Relaxed), 0);
    }

    /// Runs one input batch `obj1 obj2 obj3 <update> obj5` (every object
    /// matching `q`) through a worker whose wedge window opens at `obj3` and
    /// closes at the update, i.e. inside the batch, and returns the
    /// sequence numbers of the objects delivered with a match.
    fn wedge_inside_a_batch(index: Gi2Index, update: fn(StsQuery) -> QueryUpdate) -> Vec<u64> {
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(64);
        let faults = WorkerFaults {
            crash_at: None,
            wedge: Some((3, 2)),
            recovery_lag: 0,
        };
        let worker = Worker::new(
            WorkerId(0),
            index,
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        )
        .with_faults(faults);

        let mut batch = Batch::new();
        for seq in 1..=5u64 {
            batch.push(Envelope::now(
                seq,
                if seq == 4 {
                    StreamRecord::Update(update(wedge_query()))
                } else {
                    StreamRecord::Object(object(seq, 7, 2.0, 2.0))
                },
            ));
        }
        worker_tx.send(WorkerMessage::Records(batch)).unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();
        worker.run(worker_rx);
        assert_eq!(metrics.faults.wedge_parks.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.faults.replayed_records.load(Ordering::Relaxed), 2);

        let mut sequences = Vec::new();
        while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
            for record in batch.records() {
                assert_eq!(record.payload.len(), 1);
                sequences.push(record.sequence);
            }
        }
        sequences.sort_unstable();
        sequences
    }

    fn wedge_query() -> StsQuery {
        query(1, 7, Rect::from_coords(0.0, 0.0, 8.0, 8.0))
    }

    #[test]
    fn wedge_closing_inside_a_batch_keeps_update_order() {
        // The parked insert replays while obj1 and obj2 still wait in the
        // object run: they arrived before it and must not see the query.
        let delivered = wedge_inside_a_batch(gi2(), QueryUpdate::Insert);
        assert_eq!(
            delivered,
            vec![5],
            "only the object after the insert matches"
        );
    }

    #[test]
    fn wedge_closing_inside_a_batch_keeps_delete_order() {
        // Mirrored: every object that arrived before the parked delete —
        // waiting in the run or parked with it — must still match.
        let mut index = gi2();
        index.insert(wedge_query());
        let delivered = wedge_inside_a_batch(index, QueryUpdate::Delete);
        assert_eq!(delivered, vec![1, 2, 3], "the delete only hides obj5");
    }

    #[test]
    fn overload_sheds_objects_but_never_subscription_updates() {
        let metrics = SystemMetrics::new(1);
        let (worker_tx, worker_rx) = unbounded::<WorkerMessage>();
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(16);
        // the backlog gauge reads the worker's own input channel; bound 0
        // sheds whenever anything else is still waiting
        let depth = worker_rx.depth_handle();
        let worker = Worker::new(
            WorkerId(0),
            gi2(),
            vec![worker_tx.clone()],
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        )
        .with_overload(depth, 0);

        // everything queued before the worker runs: each Records message is
        // dequeued with a non-empty backlog behind it, so its objects shed —
        // but the subscription insert must survive
        let mut first = Batch::new();
        first.push(Envelope::now(
            1,
            StreamRecord::Update(QueryUpdate::Insert(query(
                1,
                7,
                Rect::from_coords(0.0, 0.0, 8.0, 8.0),
            ))),
        ));
        first.push(Envelope::now(
            2,
            StreamRecord::Object(object(2, 7, 2.0, 2.0)),
        ));
        worker_tx.send(WorkerMessage::Records(first)).unwrap();
        worker_tx
            .send(WorkerMessage::Records(Batch::of_one(Envelope::now(
                3,
                StreamRecord::Object(object(3, 7, 2.0, 2.0)),
            ))))
            .unwrap();
        worker_tx.send(WorkerMessage::Shutdown).unwrap();
        let worker = worker.run(worker_rx);

        assert_eq!(
            worker.index().num_queries(),
            1,
            "subscription updates are never shed"
        );
        assert!(
            merger_rx.try_recv().is_err(),
            "both objects were shed before matching"
        );
        assert_eq!(metrics.faults.shed_records.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn migration_between_workers_moves_queries() {
        let metrics = SystemMetrics::new(2);
        let (tx_a, rx_a) = unbounded::<WorkerMessage>();
        let (tx_b, rx_b) = unbounded::<WorkerMessage>();
        let (merger_tx, _merger_rx) = bounded::<MergerMessage>(16);
        let peers = vec![tx_a.clone(), tx_b.clone()];
        let worker_a = Worker::new(
            WorkerId(0),
            gi2(),
            peers.clone(),
            vec![merger_tx.clone()],
            Arc::clone(&metrics),
            16,
        );
        let worker_b = Worker::new(
            WorkerId(1),
            gi2(),
            peers,
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        );

        // index a query confined to one cell on worker A
        let q = query(1, 7, Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        tx_a.send(WorkerMessage::Records(Batch::of_one(Envelope::now(
            0,
            StreamRecord::Update(QueryUpdate::Insert(q)),
        ))))
        .unwrap();
        // migrate the cell containing (1,1) to worker B
        let cell = worker_a
            .index()
            .grid()
            .cell_of(&Point::new(1.0, 1.0))
            .unwrap();
        tx_a.send(WorkerMessage::MigrateCell {
            cell,
            terms: None,
            to: WorkerId(1),
        })
        .unwrap();
        tx_a.send(WorkerMessage::Shutdown).unwrap();
        let a = worker_a.run(rx_a);
        assert_eq!(a.index().num_queries(), 0);
        drop(tx_a);

        // worker B receives the MigrateIn and indexes the query
        tx_b.send(WorkerMessage::Shutdown).unwrap();
        let b = worker_b.run(rx_b);
        assert_eq!(b.index().num_queries(), 1);
        assert!(metrics.migration.bytes_moved.load(Ordering::Relaxed) > 0);
        assert_eq!(metrics.migration.moves.load(Ordering::Relaxed), 1);
    }

    /// Two workers over [`gi2`]'s grid, with the routing table a dispatcher
    /// would use: cell (0, 0) is worker 0's and every other cell worker 1's.
    /// Records are routed through the table one at a time, and the
    /// controller's hand-off messages are sent by hand, in the order
    /// `AdjustmentController::apply_plan` sends them; each worker handles
    /// its inbox only when told to, under its own fault schedule.
    struct Handoff {
        table: RoutingTable,
        peers: Vec<Sender<WorkerMessage>>,
        inboxes: Vec<Receiver<WorkerMessage>>,
        workers: Vec<Worker>,
        merger: Receiver<MergerMessage>,
        sequence: u64,
    }

    /// Cells (0, 0) and (1, 0) of [`gi2`]'s grid.
    const C1: CellId = CellId::new(0, 0);
    const C2: CellId = CellId::new(1, 0);

    impl Handoff {
        fn new(faults: [WorkerFaults; 2]) -> Self {
            let grid =
                ps2stream_geo::UniformGrid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 8, 8);
            let cells = grid
                .all_cells()
                .map(|c| ps2stream_partition::CellRouting::Single(WorkerId(u32::from(c != C1))))
                .collect();
            let table = RoutingTable::new(
                grid,
                cells,
                2,
                Arc::new(ps2stream_text::TermStats::new()),
                "handoff",
            );
            let (peers, inboxes): (Vec<_>, Vec<_>) = (0..2).map(|_| unbounded()).unzip();
            let (merger_tx, merger) = unbounded::<MergerMessage>();
            let metrics = SystemMetrics::new(2);
            let workers = (0..2)
                .zip(faults)
                .map(|(w, faults)| {
                    Worker::new(
                        WorkerId(w),
                        gi2(),
                        peers.clone(),
                        vec![merger_tx.clone()],
                        Arc::clone(&metrics),
                        16,
                    )
                    .with_faults(faults)
                })
                .collect();
            Self {
                table,
                peers,
                inboxes,
                workers,
                merger,
                sequence: 0,
            }
        }

        /// Routes one record the way the dispatcher does and enqueues it at
        /// every destination.
        fn route(&mut self, record: StreamRecord) {
            let targets = match &record {
                StreamRecord::Object(o) => self.table.route_object(o),
                StreamRecord::Update(QueryUpdate::Insert(q)) => self.table.route_insert(q),
                StreamRecord::Update(QueryUpdate::Delete(q)) => self.table.route_delete(q),
            };
            self.sequence += 1;
            for w in targets {
                let envelope = Envelope::now(self.sequence, record.clone());
                self.peers[w.index()]
                    .send(WorkerMessage::Records(Batch::of_one(envelope)))
                    .unwrap();
            }
        }

        /// Starts a whole-cell move: the table changes and the destination's
        /// barrier is armed (under the routing write lock, in the system),
        /// then the source is told to hand the cell over.
        fn start_move(&mut self, cell: CellId, from: u32, to: u32) {
            self.peers[to as usize]
                .send(WorkerMessage::CellPending { cell })
                .unwrap();
            self.table.reassign_cell(cell, WorkerId(to));
            self.peers[from as usize]
                .send(WorkerMessage::MigrateCell {
                    cell,
                    terms: None,
                    to: WorkerId(to),
                })
                .unwrap();
        }

        /// Worker `w` handles everything waiting in its inbox; false if
        /// nothing was waiting.
        fn pump(&mut self, w: usize) -> bool {
            let mut handled = false;
            while let Ok(message) = self.inboxes[w].try_recv() {
                self.workers[w].process(message, &Emitter::sink());
                handled = true;
            }
            handled
        }

        /// Both workers handle their inboxes until both are empty.
        fn settle(&mut self) {
            while self.pump(0) | self.pump(1) {}
        }

        /// The `(query, object)` pairs delivered since the last call.
        fn delivered(&self) -> Vec<(u64, u64)> {
            let mut pairs = Vec::new();
            while let Ok(MergerMessage::Matches(batch)) = self.merger.try_recv() {
                for record in batch.records() {
                    pairs.extend(record.payload.iter().map(|m| (m.query_id.0, m.object_id.0)));
                }
            }
            pairs.sort_unstable();
            pairs
        }
    }

    fn insert(q: &StsQuery) -> StreamRecord {
        StreamRecord::Update(QueryUpdate::Insert(q.clone()))
    }

    fn delete(q: &StsQuery) -> StreamRecord {
        StreamRecord::Update(QueryUpdate::Delete(q.clone()))
    }

    fn at(id: u64, x: f64, y: f64) -> StreamRecord {
        StreamRecord::Object(object(id, 7, x, y))
    }

    /// A crash at the worker's `tick`-th record, respawning 3 records later.
    fn crash_at(tick: u64) -> WorkerFaults {
        WorkerFaults {
            crash_at: Some(tick),
            wedge: None,
            recovery_lag: 3,
        }
    }

    #[test]
    fn a_crashed_migration_source_hands_over_what_its_dead_index_held() {
        let mut h = Handoff::new([crash_at(2), WorkerFaults::default()]);
        let q = query(1, 7, Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        h.route(insert(&q));
        // worker 0's 2nd record: the crash fires and the object parks
        h.route(at(100, 1.0, 1.0));
        h.settle();
        // C1 moves inside the window: the MigrateCell must extract q from
        // the restored index, after the parked object matched it there
        h.start_move(C1, 0, 1);
        h.settle();
        h.route(at(101, 1.0, 1.0));
        h.settle();
        assert_eq!(h.delivered(), vec![(1, 100), (1, 101)]);
    }

    #[test]
    fn a_crashed_migration_destination_restores_before_the_cell_lands() {
        let mut h = Handoff::new([WorkerFaults::default(), crash_at(2)]);
        let q = query(1, 7, Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        h.route(insert(&q));
        h.settle();
        // C1 visits worker 1 and leaves again, so worker 1's history ends
        // with the extract of C1
        h.start_move(C1, 0, 1);
        h.settle();
        h.start_move(C1, 1, 0);
        h.settle();
        // C1 comes back; worker 1 crashes at its 2nd record while the
        // hand-off is pending
        h.start_move(C1, 0, 1);
        h.route(at(100, 1.0, 1.0));
        h.route(at(101, 1.0, 1.0));
        h.pump(1);
        h.pump(0);
        // the MigrateIn carrying q ends the window: the restore replays
        // q's insert and C1's extract first, and q lands after them
        h.pump(1);
        h.route(at(102, 1.0, 1.0));
        h.settle();
        assert_eq!(h.delivered(), vec![(1, 100), (1, 101), (1, 102)]);
        assert!(h.workers[1].index().contains_query(QueryId(1)));
    }

    #[test]
    fn a_respawn_restores_an_insert_that_overtook_a_parked_object() {
        // Behind a slower dispatcher, the object ingested at sequence 3
        // reaches the worker after the insert ingested at sequence 5, and
        // the crash fires at the object.
        let metrics = SystemMetrics::new(1);
        let (merger_tx, merger_rx) = bounded::<MergerMessage>(64);
        let mut worker = Worker::new(
            WorkerId(0),
            gi2(),
            Vec::new(),
            vec![merger_tx],
            Arc::clone(&metrics),
            16,
        )
        .with_faults(WorkerFaults {
            crash_at: Some(2),
            wedge: None,
            recovery_lag: 2,
        });
        let mut batch = Batch::of_one(Envelope::now(5, insert(&wedge_query())));
        for seq in [3, 6, 7, 8] {
            batch.push(Envelope::now(seq, at(seq, 2.0, 2.0)));
        }
        worker.process(WorkerMessage::Records(batch), &Emitter::sink());
        assert_eq!(worker.index().num_queries(), 1, "the respawn lost q");
        let mut sequences = Vec::new();
        while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
            sequences.extend(batch.records().iter().map(|r| r.sequence));
        }
        sequences.sort_unstable();
        assert_eq!(sequences, vec![3, 6, 7, 8]);
        assert_eq!(metrics.faults.worker_respawns.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_delete_reaches_the_stale_copy_a_later_move_makes_reachable() {
        let mut h = Handoff::new(Default::default());
        // q spans C1 (worker 0) and C2 (worker 1), so both index it
        let q = query(1, 7, Rect::from_coords(1.0, 0.5, 3.0, 1.5));
        h.route(insert(&q));
        h.settle();
        // C1 moves to worker 1; worker 0 keeps q for C2, which it does not
        // own
        h.start_move(C1, 0, 1);
        h.settle();
        h.route(delete(&q));
        h.settle();
        // C2 moves back to worker 0, whose copy of q now sees C2's objects
        h.start_move(C2, 1, 0);
        h.settle();
        h.route(StreamRecord::Object(object(100, 7, 3.0, 1.0)));
        h.settle();
        assert_eq!(h.delivered(), vec![], "the deleted query matched");
    }

    #[test]
    fn a_delete_ahead_of_the_migrated_copy_still_wins() {
        let mut h = Handoff::new(Default::default());
        let q = query(1, 7, Rect::from_coords(0.5, 0.5, 1.5, 1.5));
        h.route(insert(&q));
        h.settle();
        h.start_move(C1, 0, 1);
        h.route(delete(&q));
        // the destination sees the delete after CellPending but before the
        // MigrateIn that carries q
        h.pump(1);
        h.pump(0);
        h.settle();
        h.route(StreamRecord::Object(object(100, 7, 1.0, 1.0)));
        h.settle();
        assert_eq!(
            h.delivered(),
            vec![],
            "the migrated copy outlived the delete"
        );
    }

    #[test]
    fn an_object_parked_before_a_delete_still_matches_the_query() {
        let mut h = Handoff::new(Default::default());
        // q spans C1 (worker 0) and C2 (worker 1)
        let q = query(1, 7, Rect::from_coords(1.0, 0.5, 3.0, 1.5));
        h.route(insert(&q));
        h.settle();
        h.start_move(C1, 0, 1);
        // worker 1 sees, in order: an object of the pending cell, the
        // delete, and an object of a cell it already owns
        h.route(StreamRecord::Object(object(100, 7, 1.0, 1.0)));
        h.route(delete(&q));
        h.route(StreamRecord::Object(object(101, 7, 3.0, 1.0)));
        h.pump(1);
        h.settle();
        assert_eq!(
            h.delivered(),
            vec![(1, 100)],
            "the object ahead of the delete matches, the one after it does not"
        );
    }
}
