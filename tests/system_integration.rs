//! End-to-end integration tests: a full PS2Stream deployment (dispatchers,
//! workers, mergers) must deliver exactly the matches a brute-force evaluation
//! of the STS queries produces, for every partitioning strategy.

use ps2stream::prelude::*;
use ps2stream_partition::all_partitioners;
use ps2stream_stream::{bounded, unbounded};
use std::collections::HashSet;

mod sim_support;
use sim_support::{inserts_then_objects, owed};

/// Runs one deployment over the sample and returns the delivered
/// (query, object) pairs together with the run report.
fn run_system(
    partitioner: Box<dyn Partitioner>,
    sample: &WorkloadSample,
    workers: usize,
) -> (HashSet<(QueryId, ObjectId)>, RunReport) {
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    // a single dispatcher keeps insert-before-object ordering deterministic
    let mut system = Ps2StreamBuilder::new(SystemConfig {
        num_dispatchers: 1,
        num_workers: workers,
        num_mergers: 2,
        ..SystemConfig::default()
    })
    .with_partitioner(partitioner)
    .with_calibration_sample(sample.clone())
    .with_delivery(delivery_tx)
    .start();
    for q in sample.insertions() {
        system.send(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
    }
    for o in sample.objects() {
        system.send(StreamRecord::Object(o.clone()));
    }
    let report = system.finish();
    let delivered: HashSet<(QueryId, ObjectId)> = delivery_rx
        .try_iter()
        .map(|m| (m.query_id, m.object_id))
        .collect();
    (delivered, report)
}

#[test]
fn every_partitioning_strategy_delivers_exactly_the_correct_matches() {
    let sample = ps2stream_workload::build_sample(DatasetSpec::tiny(), QueryClass::Q1, 600, 120, 7);
    let expected = owed(&inserts_then_objects(&sample));
    assert!(
        !expected.is_empty(),
        "the test workload should produce matches"
    );
    for partitioner in all_partitioners() {
        let name = partitioner.name();
        let (delivered, report) = run_system(partitioner, &sample, 4);
        assert_eq!(
            delivered, expected,
            "{name}: delivered matches differ from the brute-force result"
        );
        assert_eq!(report.matches_delivered as usize, expected.len(), "{name}");
        assert_eq!(report.records_in, 720, "{name}");
    }
}

#[test]
fn q2_workload_with_or_queries_is_also_exact() {
    let sample =
        ps2stream_workload::build_sample(DatasetSpec::tweets_uk(), QueryClass::Q2, 800, 150, 11);
    let expected = owed(&inserts_then_objects(&sample));
    let (delivered, report) = run_system(Box::new(HybridPartitioner::default()), &sample, 6);
    assert_eq!(delivered, expected);
    assert!(report.duplicates_removed < report.matches_delivered.max(1) * 3);
}

#[test]
fn a_full_delivery_channel_loses_and_repeats_nothing() {
    // A 4-slot sink drained by its own thread: the mergers' delivery bursts
    // outgrow it and park on the full channel mid-burst.
    let sample =
        ps2stream_workload::build_sample(DatasetSpec::tweets_uk(), QueryClass::Q2, 800, 150, 11);
    let expected = owed(&inserts_then_objects(&sample));
    let (delivery_tx, delivery_rx) = bounded::<MatchResult>(4);
    let subscriber = std::thread::spawn(move || {
        delivery_rx
            .iter()
            .map(|m| (m.query_id, m.object_id))
            .collect::<Vec<_>>()
    });
    let mut system = Ps2StreamBuilder::new(SystemConfig {
        num_dispatchers: 1,
        num_workers: 4,
        num_mergers: 2,
        ..SystemConfig::default()
    })
    .with_partitioner(Box::new(HybridPartitioner::default()))
    .with_calibration_sample(sample.clone())
    .with_delivery(delivery_tx)
    .start();
    for q in sample.insertions() {
        system.send(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
    }
    for o in sample.objects() {
        system.send(StreamRecord::Object(o.clone()));
    }
    let report = system.finish();
    let received = subscriber.join().expect("the subscriber thread panicked");
    let delivered: HashSet<(QueryId, ObjectId)> = received.iter().copied().collect();
    assert_eq!(
        delivered.len(),
        received.len(),
        "a pair was delivered twice"
    );
    assert_eq!(delivered, expected);
    assert_eq!(report.matches_delivered as usize, received.len());
}

#[test]
fn deletions_stop_deliveries_cluster_wide() {
    // register queries, delete half of them, then stream objects: only the
    // surviving queries may produce matches
    let sample =
        ps2stream_workload::build_sample(DatasetSpec::tiny(), QueryClass::Q1, 500, 100, 13);
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let mut system = Ps2StreamBuilder::new(SystemConfig {
        num_dispatchers: 1,
        num_workers: 4,
        num_mergers: 1,
        ..SystemConfig::default()
    })
    .with_partitioner(Box::new(HybridPartitioner::default()))
    .with_calibration_sample(sample.clone())
    .with_delivery(delivery_tx)
    .start();
    let deleted: Vec<&StsQuery> = sample.insertions().iter().step_by(2).collect();
    let inserts = sample.insertions().iter().cloned().map(QueryUpdate::Insert);
    let deletes = deleted.iter().map(|q| QueryUpdate::Delete((*q).clone()));
    let records: Vec<StreamRecord> = inserts
        .chain(deletes)
        .map(StreamRecord::Update)
        .chain(sample.objects().iter().cloned().map(StreamRecord::Object))
        .collect();
    for record in &records {
        system.send(record.clone());
    }
    let report = system.finish();
    let delivered: HashSet<(QueryId, ObjectId)> = delivery_rx
        .try_iter()
        .map(|m| (m.query_id, m.object_id))
        .collect();
    assert_eq!(delivered, owed(&records));
    let deleted_ids: HashSet<QueryId> = deleted.iter().map(|q| q.id).collect();
    assert!(delivered.iter().all(|(q, _)| !deleted_ids.contains(q)));
    assert!(report.records_in > 0);
}

#[test]
fn scaling_the_worker_count_does_not_change_the_results() {
    let sample =
        ps2stream_workload::build_sample(DatasetSpec::tweets_us(), QueryClass::Q3, 700, 120, 17);
    let expected = owed(&inserts_then_objects(&sample));
    for workers in [1usize, 2, 8, 16] {
        let (delivered, _) = run_system(Box::new(HybridPartitioner::default()), &sample, workers);
        assert_eq!(delivered, expected, "workers = {workers}");
    }
}
