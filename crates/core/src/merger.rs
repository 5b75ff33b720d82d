//! The merger executor.
//!
//! Workers may produce the same (query, object) match more than once. Almost
//! all such duplicates come from over-posting: a worker posts a query under
//! its posting terms in every cell its region overlaps, not only in the
//! (cell, term) pairs the routing table sends to it, so an object in a
//! text-partitioned cell whose terms route to two workers reaches both, and
//! both find the query. A prototype that posted only the routed pairs cut
//! the duplicates of a `match-heavy` benchmark round from about 139 000 to
//! 348. The rest come from queries whose posting terms route to different
//! workers in one cell, and from the replicas a text-split cell migration
//! makes. The merger removes the duplicates and delivers the remaining
//! results to the subscribers (Section III-B).
//!
//! Deduplication state is bounded: only the most recent `capacity` objects
//! keep a per-object set of delivered queries. Eviction is
//! **insert-order-safe for in-flight objects**: once an object has been
//! evicted, a late match batch for it is *not* allowed to re-create its
//! entry — re-registering would forget which queries were already delivered
//! and double-deliver them, making the deliver-count metrics disagree with
//! the subscriber channel.
//!
//! The guard against such resurrection is a **sequence watermark** rather
//! than a set of evicted object ids (which would grow with the total number
//! of objects over a run): every match envelope carries its object's ingest
//! sequence number, and evicting an object raises the watermark to that
//! object's sequence. A match batch for an *untracked* object at or below
//! the watermark is necessarily late traffic from the evicted era and is
//! suppressed as a duplicate — possibly over-suppressing a genuinely new
//! match whose first batch arrived very late, the deliberate trade-off of a
//! bounded dedup window (size the window with the `capacity` knob).

use crate::messages::MergerMessage;
use crate::metrics::SystemMetrics;
use ps2stream_model::{MatchResult, ObjectId, QueryId};
use ps2stream_stream::{Batch, Emitter, Operator, QueueDepth, Sender};
use ps2stream_text::{IdMap, IdSet};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A merger executor.
pub struct Merger {
    metrics: Arc<SystemMetrics>,
    /// Optional delivery channel towards the subscribers (tests and examples
    /// consume matches from here).
    delivery: Option<Sender<MatchResult>>,
    /// The current run's new matches, handed to `delivery` as one burst at
    /// the end of the run (recycled).
    deliveries: Vec<MatchResult>,
    /// Ingest instants of the current run's objects, recorded as completed
    /// once at the end of the run (recycled).
    completed: Vec<Instant>,
    /// Recently seen (object → matched queries) used for deduplication.
    seen: IdMap<ObjectId, IdSet<QueryId>>,
    /// FIFO of `(object, ingest sequence)` for bounded-memory eviction.
    order: VecDeque<(ObjectId, u64)>,
    /// Highest ingest sequence among evicted objects: late matches at or
    /// below it must not re-register. `None` until the first eviction, so
    /// the scheme is inert while the window has room.
    evicted_watermark: Option<u64>,
    /// Maximum number of objects tracked for deduplication.
    capacity: usize,
    /// Overload protection: `(input backlog gauge, mailbox bound)`. When the
    /// backlog exceeds the bound, whole match batches are shed (see
    /// [`OverloadPolicy::ShedOldest`](crate::config::OverloadPolicy)).
    shed: Option<(QueueDepth, usize)>,
}

impl Merger {
    /// Creates a merger tracking up to `capacity` recent objects for
    /// deduplication.
    pub fn new(
        metrics: Arc<SystemMetrics>,
        delivery: Option<Sender<MatchResult>>,
        capacity: usize,
    ) -> Self {
        Self {
            metrics,
            delivery,
            deliveries: Vec::new(),
            completed: Vec::new(),
            seen: IdMap::default(),
            order: VecDeque::new(),
            evicted_watermark: None,
            capacity: capacity.max(1),
            shed: None,
        }
    }

    /// Arms overload protection: when `depth` (this merger's input backlog)
    /// exceeds `mailbox`, incoming match batches are shed instead of merged.
    /// Shedding raises the eviction watermark over the shed batch so a
    /// retransmitted or duplicated copy of a shed match can never be
    /// delivered later as if it were new (dedup stays sound around the gap).
    pub fn with_overload(mut self, depth: QueueDepth, mailbox: usize) -> Self {
        self.shed = Some((depth, mailbox));
        self
    }

    /// The dedup entry of an object (whose matches arrived with ingest
    /// sequence `sequence`), or `None` when the object falls behind the
    /// eviction watermark (late arrivals must not resurrect evicted state).
    fn note_object(&mut self, object: ObjectId, sequence: u64) -> Option<&mut IdSet<QueryId>> {
        if !self.seen.contains_key(&object) {
            if self
                .evicted_watermark
                .is_some_and(|watermark| sequence <= watermark)
            {
                return None;
            }
            if self.order.len() >= self.capacity {
                if let Some((old, old_sequence)) = self.order.pop_front() {
                    self.seen.remove(&old);
                    self.evicted_watermark = Some(
                        self.evicted_watermark
                            .map_or(old_sequence, |w| w.max(old_sequence)),
                    );
                }
            }
            self.order.push_back((object, sequence));
            self.seen.insert(object, IdSet::default());
        }
        self.seen.get_mut(&object)
    }

    /// Applies the overload policy to one dequeued batch: while the backlog
    /// behind it exceeds the bound, the whole batch is shed (and counted)
    /// instead of merged. Returns whether it was shed.
    fn shed_overload(&mut self, batch: &Batch<Vec<MatchResult>>) -> bool {
        let Some((depth, mailbox)) = &self.shed else {
            return false;
        };
        if depth.get() <= *mailbox {
            return false;
        }
        // Raising the watermark to the batch's highest sequence keeps dedup
        // sound — any copy of a shed match arriving later for an untracked
        // object is suppressed as late traffic instead of delivered anew.
        let mut shed = 0u64;
        let mut high = self.evicted_watermark;
        for envelope in batch.records() {
            shed += envelope.payload.len() as u64;
            high = Some(high.map_or(envelope.sequence, |w| w.max(envelope.sequence)));
        }
        self.evicted_watermark = high;
        self.metrics
            .faults
            .shed_matches
            .fetch_add(shed, Ordering::Relaxed);
        // shed objects still count as serviced for the throughput rate
        self.metrics.throughput.record(batch.len() as u64);
        true
    }

    /// Number of objects currently tracked for deduplication (the eviction
    /// guard itself is a single watermark, so this *is* the dedup footprint).
    pub fn tracked_objects(&self) -> usize {
        self.seen.len()
    }
}

impl Operator for Merger {
    type In = MergerMessage;
    type Out = ();

    fn process(&mut self, input: MergerMessage, emitter: &Emitter<()>) {
        self.process_run(std::iter::once(input), emitter);
    }

    fn process_run<I>(&mut self, run: I, _emitter: &Emitter<()>)
    where
        I: Iterator<Item = MergerMessage>,
    {
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        let collect = self.delivery.is_some();
        for MergerMessage::Matches(batch) in run {
            if self.shed_overload(&batch) {
                continue;
            }
            for envelope in batch {
                let sequence = envelope.sequence;
                for m in &envelope.payload {
                    match self.note_object(m.object_id, sequence) {
                        Some(per_object) => {
                            if per_object.insert(m.query_id) {
                                delivered += 1;
                                if collect {
                                    self.deliveries.push(*m);
                                }
                            } else {
                                duplicates += 1;
                            }
                        }
                        // evicted object: suppress rather than double-deliver
                        None => duplicates += 1,
                    }
                }
                self.completed.push(envelope.ingested_at);
            }
        }
        // One hand-off per run: a subscriber parks whenever it drains the
        // channel, so every separate send could cost it a wake-up.
        if let Some(tx) = &self.delivery {
            let _ = tx.send_all(self.deliveries.drain(..));
        }
        self.metrics
            .matches_delivered
            .fetch_add(delivered, Ordering::Relaxed);
        self.metrics
            .duplicates_removed
            .fetch_add(duplicates, Ordering::Relaxed);
        self.metrics.record_completed(&mut self.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_model::SubscriberId;
    use ps2stream_stream::{bounded, unbounded, Batch, Envelope};
    use std::collections::HashSet;

    fn matches(object: u64, queries: &[u64]) -> MergerMessage {
        MergerMessage::Matches(Batch::of_one(Envelope::now(
            object,
            queries
                .iter()
                .map(|q| MatchResult::new(QueryId(*q), SubscriberId(*q), ObjectId(object)))
                .collect(),
        )))
    }

    #[test]
    fn merger_deduplicates_and_delivers() {
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = unbounded::<MatchResult>();
        let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), 100);
        let emitter = Emitter::sink();
        merger.process(matches(1, &[10, 11]), &emitter);
        // the same (object, query) pair arriving from another worker is a duplicate
        merger.process(matches(1, &[10, 12]), &emitter);
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.duplicates_removed.load(Ordering::Relaxed), 1);
        let delivered: Vec<MatchResult> = rx.try_iter().collect();
        assert_eq!(delivered.len(), 3);
    }

    #[test]
    fn batched_matches_are_processed_per_object() {
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = unbounded::<MatchResult>();
        let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), 100);
        let mut batch = Batch::new();
        for object in 0..3u64 {
            batch.push(Envelope::now(
                object,
                vec![MatchResult::new(
                    QueryId(7),
                    SubscriberId(7),
                    ObjectId(object),
                )],
            ));
        }
        merger.process(MergerMessage::Matches(batch), &Emitter::sink());
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.throughput.count(), 3);
        assert_eq!(metrics.latency.count(), 3);
        assert_eq!(rx.try_iter().count(), 3);
    }

    #[test]
    fn a_full_delivery_channel_gets_each_match_once_in_arrival_order() {
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = bounded::<MatchResult>(1);
        let subscriber = std::thread::spawn(move || {
            rx.iter()
                .map(|m| (m.object_id.value(), m.query_id.value()))
                .collect::<Vec<_>>()
        });
        let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), 100);
        let emitter = Emitter::sink();
        // what per-match sends delivered: first copies, in arrival order
        let mut expected = Vec::new();
        let mut seen = HashSet::new();
        for round in 0..20u64 {
            let mut batch = Batch::new();
            // objects overlap the previous rounds', and the first object of
            // the batch comes twice (a replica's copy)
            for object in [round, round, round + 1, round + 2] {
                let queries: Vec<u64> = (0..5).map(|q| (object * 7 + q) % 11).collect();
                for &q in &queries {
                    if seen.insert((object, q)) {
                        expected.push((object, q));
                    }
                }
                batch.push(Envelope::now(
                    object,
                    queries
                        .iter()
                        .map(|&q| MatchResult::new(QueryId(q), SubscriberId(q), ObjectId(object)))
                        .collect(),
                ));
            }
            merger.process(MergerMessage::Matches(batch), &emitter);
        }
        drop(merger);
        let received = subscriber.join().expect("the subscriber thread panicked");
        assert_eq!(received, expected);
        assert_eq!(
            metrics.matches_delivered.load(Ordering::Relaxed),
            expected.len() as u64
        );
    }

    #[test]
    fn a_run_delivers_like_single_messages() {
        // overlapping objects and replica copies, at a capacity that evicts
        let messages = || {
            (0..40u64).map(|i| {
                let object = i / 2 + (i % 3);
                matches(object, &[object % 5, (object * 3) % 7, i % 4])
            })
        };
        let deliver = |as_run: bool| {
            let metrics = SystemMetrics::new(1);
            let (tx, rx) = unbounded::<MatchResult>();
            let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), 8);
            if as_run {
                merger.process_run(messages(), &Emitter::sink());
            } else {
                for message in messages() {
                    merger.process(message, &Emitter::sink());
                }
            }
            let delivered: Vec<(u64, u64)> = rx
                .try_iter()
                .map(|m| (m.object_id.value(), m.query_id.value()))
                .collect();
            (
                delivered,
                metrics.matches_delivered.load(Ordering::Relaxed),
                metrics.duplicates_removed.load(Ordering::Relaxed),
                metrics.throughput.count(),
            )
        };
        let singles = deliver(false);
        assert!(singles.2 > 0, "the stream must contain duplicates");
        assert_eq!(deliver(true), singles);
    }

    #[test]
    fn merger_without_delivery_channel_still_counts() {
        let metrics = SystemMetrics::new(1);
        let mut merger = Merger::new(Arc::clone(&metrics), None, 100);
        merger.process(matches(5, &[1]), &Emitter::sink());
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eviction_bounds_memory_but_keeps_recent_objects_deduplicated() {
        let metrics = SystemMetrics::new(1);
        let mut merger = Merger::new(Arc::clone(&metrics), None, 2);
        let emitter = Emitter::sink();
        merger.process(matches(1, &[1]), &emitter);
        merger.process(matches(2, &[1]), &emitter);
        merger.process(matches(3, &[1]), &emitter); // evicts object 1
        assert!(merger.seen.len() <= 2);
        // object 3 is still tracked: a duplicate is suppressed
        merger.process(matches(3, &[1]), &emitter);
        assert_eq!(metrics.duplicates_removed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn late_matches_for_evicted_objects_never_double_deliver() {
        // Regression test: at capacity 1, a match batch for an object
        // arriving after that object was evicted used to re-create its dedup
        // entry and re-deliver pairs that had already gone out, so the
        // metrics and the subscriber channel disagreed.
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = unbounded::<MatchResult>();
        let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), 1);
        let emitter = Emitter::sink();
        merger.process(matches(1, &[10]), &emitter); // delivered
        merger.process(matches(2, &[10]), &emitter); // delivered; evicts object 1
        merger.process(matches(1, &[10]), &emitter); // late duplicate for evicted object
        merger.process(matches(1, &[11]), &emitter); // late *new* match: suppressed too
        let delivered: Vec<MatchResult> = rx.try_iter().collect();
        assert_eq!(delivered.len(), 2, "no pair may be delivered twice");
        assert_eq!(
            metrics.matches_delivered.load(Ordering::Relaxed),
            delivered.len() as u64,
            "deliver-count metric must agree with the subscriber channel"
        );
        assert_eq!(metrics.duplicates_removed.load(Ordering::Relaxed), 2);
        // the dedup window itself stays bounded
        assert!(merger.seen.len() <= 1);
    }

    #[test]
    fn eviction_guard_memory_stays_bounded_over_a_long_run() {
        // ROADMAP item: the old resurrection guard was a HashSet holding
        // every evicted object id, growing with the run. The watermark
        // replacement must keep the *whole* dedup state bounded by
        // `capacity` while still never double-delivering across eviction.
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = unbounded::<MatchResult>();
        let capacity = 4;
        let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), capacity);
        let emitter = Emitter::sink();
        let total_objects = 1_000u64;
        for object in 1..=total_objects {
            // every batch duplicated: the second copy must always be
            // suppressed, whether the entry is live or evicted
            merger.process(matches(object, &[7]), &emitter);
            merger.process(matches(object, &[7]), &emitter);
            // sporadic very late traffic for long-evicted objects
            if object % 97 == 0 {
                merger.process(matches(object / 2, &[7]), &emitter);
            }
            assert!(
                merger.tracked_objects() <= capacity,
                "dedup entries bounded"
            );
            assert!(merger.order.len() <= capacity, "eviction FIFO bounded");
        }
        let delivered: Vec<MatchResult> = rx.try_iter().collect();
        let mut unique: HashSet<(QueryId, ObjectId)> = HashSet::new();
        for m in &delivered {
            assert!(
                unique.insert((m.query_id, m.object_id)),
                "pair {m:?} delivered twice across eviction"
            );
        }
        // every object's first batch arrived in sequence order, so nothing
        // was suppressed by the watermark spuriously
        assert_eq!(delivered.len() as u64, total_objects);
        assert_eq!(
            metrics.matches_delivered.load(Ordering::Relaxed),
            total_objects
        );
    }

    #[test]
    fn overload_shed_raises_the_watermark_and_keeps_dedup_sound() {
        let metrics = SystemMetrics::new(1);
        let (tx, rx) = unbounded::<MatchResult>();
        let (match_tx, match_rx) = unbounded::<MergerMessage>();
        let depth = match_rx.depth_handle();
        let mut merger = Merger::new(Arc::clone(&metrics), Some(tx), 100).with_overload(depth, 0);
        let emitter = Emitter::sink();
        // a message waits behind the one being processed → backlog 1 > 0 → shed
        match_tx.send(matches(99, &[1])).unwrap();
        merger.process(matches(1, &[10]), &emitter);
        assert_eq!(metrics.faults.shed_matches.load(Ordering::Relaxed), 1);
        assert!(rx.try_recv().is_err(), "the shed match was not delivered");
        // the backlog drains → merging resumes
        let backlog = match_rx.recv().unwrap();
        merger.process(backlog, &emitter);
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 1);
        // a retransmitted copy of the shed match falls behind the raised
        // watermark: suppressed as late traffic, never delivered as new
        merger.process(matches(1, &[10]), &emitter);
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.duplicates_removed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_disconnect_mid_stream_neither_hangs_nor_double_delivers() {
        // Two workers feed the same merger input channel; one dies (drops
        // its sender) mid-stream. The merger's run loop must terminate once
        // the survivor also finishes — not hang — and matches the dead
        // worker already reported must still be deduplicated.
        let metrics = SystemMetrics::new(1);
        let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
        let (tx_a, rx) = unbounded::<MergerMessage>();
        let tx_b = tx_a.clone();
        let thread_metrics = Arc::clone(&metrics);
        let handle = std::thread::spawn(move || {
            let mut merger = Merger::new(thread_metrics, Some(delivery_tx), 100);
            let emitter = Emitter::sink();
            for message in rx.iter() {
                merger.process(message, &emitter);
            }
        });
        // worker A delivers two matches, then disconnects mid-stream
        tx_a.send(matches(1, &[10, 11])).unwrap();
        drop(tx_a);
        // worker B (replicated queries) re-reports one of A's matches and
        // adds a new one, then finishes normally
        tx_b.send(matches(1, &[10])).unwrap();
        tx_b.send(matches(2, &[10])).unwrap();
        drop(tx_b);
        handle.join().expect("the merger run loop must terminate");
        let delivered: Vec<MatchResult> = delivery_rx.try_iter().collect();
        let mut unique: HashSet<(QueryId, ObjectId)> = HashSet::new();
        for m in &delivered {
            assert!(
                unique.insert((m.query_id, m.object_id)),
                "pair {m:?} delivered twice across the disconnect"
            );
        }
        assert_eq!(delivered.len(), 3);
        assert_eq!(metrics.duplicates_removed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn watermark_suppresses_only_late_sequences() {
        // An out-of-order *new* object above the watermark must still be
        // admitted after evictions; one at/below it is treated as late.
        let metrics = SystemMetrics::new(1);
        let mut merger = Merger::new(Arc::clone(&metrics), None, 1);
        let emitter = Emitter::sink();
        merger.process(matches(10, &[1]), &emitter); // seq 10, delivered
        merger.process(matches(20, &[1]), &emitter); // evicts seq 10 → watermark 10
        merger.process(matches(15, &[1]), &emitter); // seq 15 > 10: admitted
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 3);
        // seq 5 ≤ watermark (now ≥ 10): suppressed as late traffic
        merger.process(matches(5, &[1]), &emitter);
        assert_eq!(metrics.matches_delivered.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.duplicates_removed.load(Ordering::Relaxed), 1);
    }
}
