//! Integration tests of the dynamic load adjustment running inside a live
//! deployment: migrations must actually move query state between workers,
//! improve the balance of a skewed workload, and never corrupt the delivered
//! results — the `CellPending` hand-off is lossless and the merger removes
//! replicas, so a run with migrations delivers exactly the brute-force set.
//! The controller runs on dispatcher 0's batch clock, so these tests hold on
//! every backend (`PS2_RUNTIME=threads|coop|sim`).

use ps2stream::prelude::*;
use ps2stream_stream::unbounded;
use std::collections::HashSet;
use std::sync::Mutex;

mod sim_support;
use sim_support::{inserts_then_objects, owed, skewed_sample};

/// On the concurrent backends a stats round completes only once the hot
/// worker has drained the records routed before the request. Two pipelines
/// side by side on a small machine starve each other's workers until a round
/// can outlast the whole stream, so the tests run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn adjustment_migrates_cells_and_keeps_results_correct() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sample = skewed_sample(4_000, 200, 31);
    let once = owed(&inserts_then_objects(&sample));
    assert!(!once.is_empty());
    // the objects stream in five passes under fresh ids, so the controller
    // migrates while traffic is flowing
    let passes = 5u64;
    let pass_id = |o: ObjectId, pass: u64| ObjectId(o.value() + pass * 1_000_000);
    let expected: HashSet<(QueryId, ObjectId)> = (0..passes)
        .flat_map(|pass| once.iter().map(move |&(q, o)| (q, pass_id(o, pass))))
        .collect();

    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let config = SystemConfig {
        num_dispatchers: 1,
        num_workers: 4,
        num_mergers: 1,
        ..SystemConfig::default()
    }
    .with_adjustment(AdjustmentConfig {
        selector: SelectorKind::Greedy,
        sigma: 1.2,
        // the first request lands just past the 13 batches of inserts, so
        // its window already holds hot-spot objects
        period_batches: 16,
        ..AdjustmentConfig::default()
    });
    // a grid partitioner calibrated on a uniform sample concentrates the
    // hot spot's load on few workers, forcing the controller to migrate
    let calibration =
        ps2stream_workload::build_sample(DatasetSpec::tweets_us(), QueryClass::Q1, 4_000, 800, 43);
    let mut system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(GridPartitioner::default()))
        .with_calibration_sample(calibration)
        .with_delivery(delivery_tx)
        .start();

    for q in sample.insertions() {
        system.send(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
    }
    for pass in 0..passes {
        for o in sample.objects() {
            let mut o = o.clone();
            o.id = pass_id(o.id, pass);
            system.send(StreamRecord::Object(o));
        }
    }
    let report = system.finish();
    assert!(
        report.migration_moves > 0,
        "the skewed workload must make the controller migrate a cell"
    );

    let mut delivered: HashSet<(QueryId, ObjectId)> = HashSet::new();
    for m in delivery_rx.try_iter() {
        assert!(
            delivered.insert((m.query_id, m.object_id)),
            "match {m:?} delivered twice"
        );
    }
    assert_eq!(
        delivered, expected,
        "migration lost or invented matches relative to brute force"
    );
}

#[test]
fn adjustment_reduces_imbalance_on_a_skewed_workload() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The partitioner is calibrated on a *uniform* sample, but the live
    // stream concentrates on a small hot spot (the data distribution has
    // drifted): the kd-tree routing sends nearly everything to one worker
    // until the adjustment controller migrates cells away from it.
    let calibration =
        ps2stream_workload::build_sample(DatasetSpec::tweets_us(), QueryClass::Q1, 4_000, 800, 43);
    let hot = skewed_sample(3_000, 200, 41);

    let config = SystemConfig {
        num_dispatchers: 2,
        num_workers: 4,
        num_mergers: 1,
        ..SystemConfig::default()
    }
    .with_adjustment(AdjustmentConfig {
        selector: SelectorKind::Greedy,
        sigma: 1.2,
        // dispatcher 0 routes about half the batches: request early enough
        // that the first window already holds hot-spot objects
        period_batches: 8,
        ..AdjustmentConfig::default()
    });
    let mut system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(KdTreePartitioner::default()))
        .with_calibration_sample(calibration)
        .start();
    for q in hot.insertions() {
        system.send(StreamRecord::Update(QueryUpdate::Insert(q.clone())));
    }
    // stream many passes of the hot-spot objects
    for pass in 0..12u64 {
        for o in hot.objects() {
            let mut o = o.clone();
            o.id = ObjectId(o.id.value() + pass * 1_000_000);
            system.send(StreamRecord::Object(o));
        }
    }
    let with_adjust = system.finish();
    // the adjustment must have done something observable
    assert!(
        with_adjust.migration_moves > 0,
        "expected at least one cell migration on the skewed workload"
    );
    assert!(with_adjust.migration_bytes > 0);
    // and the busiest/least-busy spread over workers that actually received
    // load must be sane (not everything on one worker)
    let busy = with_adjust
        .worker_loads
        .iter()
        .filter(|w| w.objects > 0)
        .count();
    assert!(
        busy >= 2,
        "all objects still on a single worker after adjustment"
    );
}
