//! Seed-sweep migration test.
//!
//! Runs the skewed `adjustment_integration` scenario under the deterministic
//! scheduler for 20 different interleaving seeds, on two streams: every
//! query inserted up front, and a churn stream whose subscription inserts
//! and deletes arrive among the objects while cells move. Under every
//! explored interleaving the cell hand-off must be **lossless and
//! duplicate-free**: the `CellPending` barrier (armed by the controller
//! under the routing-table write lock) parks every record that reaches the
//! new owner before the migrated queries, deletions reach every worker, and
//! the merger deduplicates the replicas — so the delivered set equals the
//! reference model exactly and no pair is ever delivered twice. Before the
//! barrier existed the first stream failed statistically; the simulator
//! turns it into a hard assertion over many schedules.
//!
//! The same sweep runs again with every worker crashing mid-stream, so
//! respawns meet hand-offs on both sides: a respawn replays the changes its
//! own index applied, and a migration message first ends the crash window,
//! so the sweep must stay exact.

use ps2stream::prelude::*;
use ps2stream_stream::{unbounded, FaultPlan, FaultSpec, RuntimeBackend};
use std::collections::HashSet;

mod sim_support;
use sim_support::{inserts_then_objects, owed, skewed_sample};

/// Half the queries inserted up front. Among the objects, the other half is
/// inserted one before every 5th object, and a rotating live query is
/// deleted before every 7th.
fn churn_stream(sample: &WorkloadSample) -> Vec<StreamRecord> {
    let insert = |q: &StsQuery| StreamRecord::Update(QueryUpdate::Insert(q.clone()));
    let (up_front, later) = sample.insertions().split_at(sample.insertions().len() / 2);
    let mut later = later.iter();
    let mut live: Vec<&StsQuery> = up_front.iter().collect();
    let mut records: Vec<StreamRecord> = up_front.iter().map(insert).collect();
    for (i, o) in sample.objects().iter().enumerate() {
        if i % 5 == 0 {
            if let Some(q) = later.next() {
                records.push(insert(q));
                live.push(q);
            }
        }
        if i % 7 == 0 && !live.is_empty() {
            let victim = live.remove((i / 7) % live.len());
            records.push(StreamRecord::Update(QueryUpdate::Delete(victim.clone())));
        }
        records.push(StreamRecord::Object(o.clone()));
    }
    records
}

const WORKERS: usize = 4;

/// Feeds `records` through a 4-worker grid deployment on the deterministic
/// scheduler under `faults` and returns the delivered pairs, the migration
/// moves and the worker crashes.
fn run(
    sample: &WorkloadSample,
    records: &[StreamRecord],
    seed: u64,
    faults: FaultPlan,
) -> (Vec<(QueryId, ObjectId)>, u64, u64) {
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let config = SystemConfig {
        num_dispatchers: 1,
        num_workers: WORKERS,
        num_mergers: 1,
        ..SystemConfig::default()
    }
    .with_adjustment(AdjustmentConfig {
        selector: SelectorKind::Greedy,
        sigma: 1.2,
        period_batches: 8,
        ..AdjustmentConfig::default()
    })
    .with_runtime(RuntimeBackend::deterministic(seed))
    .with_faults(Some(faults));
    let mut system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(GridPartitioner::default()))
        .with_calibration_sample(sample.clone())
        .with_delivery(delivery_tx)
        .start();
    for record in records {
        system.send(record.clone());
    }
    let report = system.finish();
    let delivered = delivery_rx
        .try_iter()
        .map(|m| (m.query_id, m.object_id))
        .collect();
    (
        delivered,
        report.migration_moves,
        report.faults.worker_crashes,
    )
}

/// Runs both streams for interleaving seeds 0..20, each under the fault
/// plan `faults(seed)`, and checks every run against the reference model.
/// Returns the crashes fired over the sweep.
fn sweep(faults: impl Fn(u64) -> FaultPlan) -> u64 {
    let sample = skewed_sample(1_200, 220, 31);
    let streams = [
        ("inserts up front", inserts_then_objects(&sample)),
        ("churn", churn_stream(&sample)),
    ];
    let mut total_crashes = 0u64;
    for (name, records) in &streams {
        let expected = owed(records);
        assert!(!expected.is_empty(), "{name}: vacuous oracle");
        let mut total_moves = 0u64;
        for seed in 0..20u64 {
            let (delivered, moves, crashes) = run(&sample, records, seed, faults(seed));
            total_moves += moves;
            total_crashes += crashes;
            let mut unique: HashSet<(QueryId, ObjectId)> = HashSet::new();
            for pair in &delivered {
                assert!(
                    unique.insert(*pair),
                    "{name}, seed {seed}: match {pair:?} delivered twice during hand-off"
                );
            }
            assert_eq!(
                unique, expected,
                "{name}, seed {seed}: delivered set diverges from the reference \
                 model (lost or spurious matches during cell hand-off)"
            );
        }
        assert!(
            total_moves > 0,
            "{name}: the sweep never migrated a cell — the scenario is not \
             exercising hand-offs at all"
        );
    }
    total_crashes
}

#[test]
fn no_interleaving_loses_or_duplicates_matches_during_handoff() {
    assert_eq!(sweep(|_| FaultPlan::default()), 0);
}

#[test]
fn no_interleaving_loses_matches_when_workers_crash_during_handoff() {
    // every worker crashes at tick 40 + 17·seed, early for some seeds and
    // among the hand-offs for others
    let crashes = sweep(|seed| FaultPlan {
        seed,
        specs: (0..WORKERS)
            .map(|index| FaultSpec::Crash {
                index,
                tick: 40 + 17 * seed,
            })
            .collect(),
    });
    assert!(crashes > 0, "no scheduled crash fired");
}
