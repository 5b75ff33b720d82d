//! Seed-sweep migration test.
//!
//! Runs the skewed `adjustment_integration` scenario under the deterministic
//! scheduler for 20 different interleaving seeds. Under every explored
//! interleaving the cell hand-off must be **lossless and duplicate-free**:
//! the `CellPending` barrier (armed by the controller under the
//! routing-table write lock) parks objects that reach the new owner before
//! the migrated queries, and the merger deduplicates the replicas — so the
//! delivered set equals the brute-force match set exactly and no pair is
//! ever delivered twice. Before the barrier existed this property failed
//! statistically; the simulator turns it into a hard assertion over many
//! schedules.

use ps2stream::prelude::*;
use ps2stream_stream::{unbounded, RuntimeBackend};
use std::collections::HashSet;

mod sim_support;
use sim_support::{brute_force, skewed_sample};

#[test]
fn no_interleaving_loses_or_duplicates_matches_during_handoff() {
    let sample = skewed_sample(1_200, 220, 31);
    let expected = brute_force(&sample);
    assert!(!expected.is_empty());

    let mut total_moves = 0u64;
    for seed in 0..20u64 {
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
            period_batches: 8,
            ..AdjustmentConfig::default()
        })
        .with_runtime(RuntimeBackend::deterministic(seed));
        let mut system = Ps2StreamBuilder::new(config)
            .with_partitioner(Box::new(GridPartitioner::default()))
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
        total_moves += report.migration_moves;

        let delivered: Vec<(QueryId, ObjectId)> = delivery_rx
            .try_iter()
            .map(|m| (m.query_id, m.object_id))
            .collect();
        let mut unique: HashSet<(QueryId, ObjectId)> = HashSet::new();
        for pair in &delivered {
            assert!(
                unique.insert(*pair),
                "seed {seed}: match {pair:?} delivered twice during hand-off"
            );
        }
        assert_eq!(
            unique, expected,
            "seed {seed}: delivered set diverges from brute force (lost or \
             spurious matches during cell hand-off)"
        );
    }
    assert!(
        total_moves > 0,
        "the sweep never migrated a cell — the scenario is not exercising \
         hand-offs at all"
    );
}
