//! Deterministic simulation tests of the full pipeline.
//!
//! The cooperative runtime's seeded single-threaded mode makes an entire
//! end-to-end run — ingest, query registration, matching, dynamic load
//! adjustment with mid-flight cell migrations — a pure function of
//! (workload, seed). These tests pin the three guarantees that makes
//! valuable:
//!
//! 1. **Replay**: the same seed produces a byte-identical delivered-match
//!    log, run after run, in the same process (hash-map iteration or clock
//!    effects must never leak into results).
//! 2. **Interleaving-independence**: different seeds explore different
//!    operator interleavings but must converge on the identical delivered
//!    *set* — exactly the brute-force match set, since the hand-off barrier
//!    makes migrations lossless.
//! 3. **Backend-independence**: the cooperative pool and the OS-thread
//!    substrate agree on the delivered set for the same workload.

use ps2stream::prelude::*;
use ps2stream_stream::{unbounded, RuntimeBackend};
use std::collections::HashSet;

mod sim_support;
use sim_support::{inserts_then_objects, owed, skewed_sample};

/// Runs the skewed migration scenario on the given backend and returns the
/// delivered-match log (in delivery order) plus the run report.
fn run_skewed(
    sample: &WorkloadSample,
    backend: RuntimeBackend,
) -> (Vec<(QueryId, ObjectId)>, RunReport) {
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let config = SystemConfig {
        num_dispatchers: 1,
        num_workers: 4,
        num_mergers: 2,
        ..SystemConfig::default()
    }
    .with_adjustment(AdjustmentConfig {
        selector: SelectorKind::Greedy,
        sigma: 1.2,
        period_batches: 8,
        ..AdjustmentConfig::default()
    })
    .with_runtime(backend);
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
    let log: Vec<(QueryId, ObjectId)> = delivery_rx
        .try_iter()
        .map(|m| (m.query_id, m.object_id))
        .collect();
    (log, report)
}

#[test]
fn same_seed_replays_a_byte_identical_match_log() {
    let sample = skewed_sample(1_500, 250, 17);
    let (first, report) = run_skewed(&sample, RuntimeBackend::deterministic(42));
    assert!(
        report.migration_moves > 0,
        "the scenario must exercise at least one mid-flight migration"
    );
    assert!(!first.is_empty());
    for repeat in 0..2 {
        let (log, report) = run_skewed(&sample, RuntimeBackend::deterministic(42));
        assert!(report.migration_moves > 0);
        assert_eq!(
            first,
            log,
            "run {} with the same seed diverged from the first run",
            repeat + 2
        );
    }
}

#[test]
fn different_interleaving_seeds_agree_on_the_delivered_set() {
    let sample = skewed_sample(1_200, 200, 23);
    let expected = owed(&inserts_then_objects(&sample));
    assert!(!expected.is_empty());
    let mut logs = Vec::new();
    for seed in [1u64, 7, 99, 1234, 0xDEAD_BEEF] {
        let (log, _) = run_skewed(&sample, RuntimeBackend::deterministic(seed));
        let set: HashSet<(QueryId, ObjectId)> = log.iter().copied().collect();
        assert_eq!(
            set, expected,
            "seed {seed} lost or invented matches relative to brute force"
        );
        logs.push(log);
    }
    // different seeds genuinely explore different interleavings: at least
    // one pair of logs should differ in delivery order
    assert!(
        logs.windows(2).any(|w| w[0] != w[1]),
        "all seeds produced the identical delivery order — the scheduler is \
         not actually varying the interleaving"
    );
}

/// The cooperative pool backend and the OS-thread backend must agree on the
/// delivered-match set for the same fig07-style workload (interleaved
/// inserts, deletes and objects, single dispatcher for a deterministic
/// routing order).
#[test]
fn coop_backend_matches_thread_backend_on_a_fig07_workload() {
    let spec = DatasetSpec::tweets_us();
    let sample = ps2stream_workload::build_sample(spec.clone(), QueryClass::Q1, 2_000, 400, 42);
    let mut corpus = CorpusGenerator::new(spec.clone(), 49);
    let corpus_sample = corpus.generate(2_000);
    let generator = QueryGenerator::from_corpus(
        &corpus,
        &corpus_sample,
        QueryGeneratorConfig::new(QueryClass::Q1),
        55,
    );
    let mut driver = WorkloadDriver::new(DriverConfig::with_mu(800), corpus, generator, 65);
    let mut records = driver.warm_up(800);
    records.extend((&mut driver).take(4_000));
    let run = |backend: RuntimeBackend| -> HashSet<(QueryId, ObjectId)> {
        let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
        let mut system = Ps2StreamBuilder::new(
            SystemConfig {
                num_dispatchers: 1,
                num_workers: 4,
                num_mergers: 2,
                ..SystemConfig::default()
            }
            .with_runtime(backend),
        )
        .with_partitioner(Box::new(HybridPartitioner::default()))
        .with_calibration_sample(sample.clone())
        .with_delivery(delivery_tx)
        .start();
        for r in &records {
            system.send(r.clone());
        }
        let _ = system.finish();
        delivery_rx
            .try_iter()
            .map(|m| (m.query_id, m.object_id))
            .collect()
    };
    let threads = run(RuntimeBackend::Threads);
    let coop = run(RuntimeBackend::coop());
    assert!(!threads.is_empty(), "workload must produce matches");
    assert_eq!(
        threads, coop,
        "cooperative and thread backends disagree on the delivered set"
    );
}
