//! Integration tests of the batched dataflow: a multi-dispatcher deployment
//! with batching on must deliver exactly the brute-force match set, and the
//! batched pipeline must be observationally equivalent to the unbatched
//! (batch size 1) pipeline on arbitrary interleaved streams.

use ps2stream::prelude::*;
use ps2stream_stream::unbounded;
use std::collections::HashSet;
use std::sync::Arc;

mod sim_support;
use sim_support::{inserts_then_objects, owed};

#[test]
fn four_dispatchers_with_batching_deliver_exact_matches() {
    let sample =
        ps2stream_workload::build_sample(DatasetSpec::tiny(), QueryClass::Q1, 800, 160, 29);
    let expected = owed(&inserts_then_objects(&sample));
    assert!(!expected.is_empty(), "workload must produce matches");

    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let mut system = Ps2StreamBuilder::new(
        SystemConfig {
            num_dispatchers: 4,
            num_workers: 4,
            num_mergers: 2,
            ..SystemConfig::default()
        }
        .with_batch_size(8),
    )
    .with_partitioner(Box::new(HybridPartitioner::default()))
    .with_calibration_sample(sample.clone())
    .with_delivery(delivery_tx)
    .start();

    // phase 1: register every query, then wait until all four dispatchers
    // and the workers have fully applied them (insert-before-object
    // ordering is otherwise not guaranteed across dispatchers)
    for q in sample.insertions() {
        system.send(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
    }
    assert!(system.settle(), "pipeline did not quiesce within 30s");

    // phase 2: stream the objects
    for o in sample.objects() {
        system.send(StreamRecord::Object(o.clone()));
    }
    let report = system.finish();

    let delivered: HashSet<(QueryId, ObjectId)> = delivery_rx
        .try_iter()
        .map(|m| (m.query_id, m.object_id))
        .collect();
    assert_eq!(
        delivered, expected,
        "4 batched dispatchers must still deliver the exact brute-force match set"
    );
    assert_eq!(report.matches_delivered as usize, expected.len());
    assert_eq!(report.records_in, 960);
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;
    use ps2stream_geo::Point;
    use ps2stream_text::{BooleanExpr, TermId};

    #[derive(Debug, Clone)]
    struct GenQuery {
        terms: Vec<u32>,
        cx: f64,
        cy: f64,
        side: f64,
        /// Fraction of the stream after which the query is deleted again
        /// (None = stays live).
        delete_after: Option<u8>,
    }

    #[derive(Debug, Clone)]
    struct GenObject {
        terms: Vec<u32>,
        x: f64,
        y: f64,
    }

    fn arb_query() -> impl Strategy<Value = GenQuery> {
        (
            proptest::collection::vec(0u32..20, 1..3),
            0.0f64..64.0,
            0.0f64..64.0,
            1.0f64..40.0,
            proptest::bool::ANY,
            0u8..200,
        )
            .prop_map(|(terms, cx, cy, side, delete, at)| GenQuery {
                terms,
                cx,
                cy,
                side,
                delete_after: delete.then_some(at),
            })
    }

    fn arb_object() -> impl Strategy<Value = GenObject> {
        (
            proptest::collection::vec(0u32..20, 0..6),
            0.0f64..64.0,
            0.0f64..64.0,
        )
            .prop_map(|(terms, x, y)| GenObject { terms, x, y })
    }

    /// Builds the interleaved stream: queries inserted at their position,
    /// objects in between, deletions appended where requested.
    fn build_stream(queries: &[GenQuery], objects: &[GenObject]) -> Vec<StreamRecord> {
        let mut records: Vec<StreamRecord> = Vec::new();
        for (i, gq) in queries.iter().enumerate() {
            let q = StsQuery::new(
                QueryId(i as u64),
                SubscriberId(i as u64),
                BooleanExpr::or_of(gq.terms.iter().map(|t| TermId(*t))),
                ps2stream_geo::Rect::square(Point::new(gq.cx, gq.cy), gq.side),
            );
            records.push(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
            if let Some(at) = gq.delete_after {
                // deletions interleave pseudo-randomly via the position hint
                let pos = (at as usize).min(records.len());
                records.insert(pos, StreamRecord::Update(QueryUpdate::Delete(q)));
            }
        }
        for (i, go) in objects.iter().enumerate() {
            let o = SpatioTextualObject::new(
                ObjectId(i as u64),
                go.terms.iter().map(|t| TermId(*t)).collect(),
                Point::new(go.x, go.y),
            );
            // spread the objects through the update stream
            let pos = (i * 7) % (records.len() + 1);
            records.insert(pos, StreamRecord::Object(o));
        }
        records
    }

    /// Runs a single-dispatcher deployment (deterministic processing order)
    /// at the given batch size and returns the deduplicated delivered set.
    fn run_pipeline(records: &[StreamRecord], batch: usize) -> HashSet<(QueryId, ObjectId)> {
        let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
        let routing = RoutingTable::single_worker(
            ps2stream_geo::Rect::from_coords(0.0, 0.0, 64.0, 64.0),
            4,
            Arc::new(ps2stream_text::TermStats::new()),
        );
        let mut system = Ps2StreamBuilder::new(
            SystemConfig {
                num_dispatchers: 1,
                num_workers: 1,
                num_mergers: 1,
                ..SystemConfig::default()
            }
            .with_batch_size(batch),
        )
        .with_routing_table(routing)
        .with_delivery(delivery_tx)
        .start();
        for r in records {
            system.send(r.clone());
        }
        let _ = system.finish();
        delivery_rx
            .try_iter()
            .map(|m| (m.query_id, m.object_id))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The batched pipeline delivers exactly the same deduplicated match
        /// set as the unbatched (batch size 1) pipeline on any interleaved
        /// stream of insertions, deletions and objects: the set the
        /// reference model owes it.
        #[test]
        fn batched_and_unbatched_pipelines_are_equivalent(
            queries in proptest::collection::vec(arb_query(), 1..25),
            objects in proptest::collection::vec(arb_object(), 0..30),
        ) {
            let records = build_stream(&queries, &objects);
            let unbatched = run_pipeline(&records, 1);
            let batched = run_pipeline(&records, 32);
            prop_assert_eq!(&unbatched, &batched);
            prop_assert_eq!(&batched, &owed(&records));
        }
    }
}
