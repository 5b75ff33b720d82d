//! Chaos suite: deterministic fault injection over the full pipeline.
//!
//! Every fault the `PS2_FAULTS` grammar can schedule is loss-masking by
//! design — a crashed worker respawns by replaying the changes its own index
//! applied before the crash, then its parked records, a wedged worker replays its stall window, a
//! dropped channel message is retransmitted a few sends later. The delivered
//! match **set** of a faulted run must therefore equal the fault-free run's;
//! only ordering and latency may change. This suite pins that contract:
//!
//! * on the deterministic simulator, for 5 workload seeds × {crash, wedge,
//!   drop} plans, the canonicalised delivered set equals the fault-free
//!   run's, the fault counters prove the faults actually fired, and the same
//!   (seed, plan) pair replays a byte-identical delivery log;
//! * on the OS-thread backend the same plans must deliver exactly the
//!   brute-force oracle set (order is scheduling-dependent there);
//! * overload shedding (`OverloadPolicy::ShedOldest`) may drop work but must
//!   never deliver a (query, object) pair twice or invent one;
//! * a worker crash must not disturb the durable subscription store: the
//!   state recoverable from disk after a faulted run equals the subscribed
//!   set.

use ps2stream::prelude::*;
use ps2stream_stream::{unbounded, FaultPlan, RuntimeBackend};
use std::collections::HashSet;
use std::path::PathBuf;

mod sim_support;
use sim_support::{inserts_then_objects, owed};

const SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// A uniform workload over the tiny bounds: with two workers and a grid
/// partitioning, both see enough records for every scheduled tick to fire.
fn uniform_sample(seed: u64) -> WorkloadSample {
    ps2stream_workload::build_sample(DatasetSpec::tiny(), QueryClass::Q1, 800, 160, seed)
}

/// The three plan families the suite sweeps. The drop plan seeds its shim
/// from the workload seed so every (seed, plan) pair is a distinct schedule.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "crash",
            FaultPlan::parse("crash:worker:0@tick=40;crash:worker:1@tick=120").unwrap(),
        ),
        (
            "wedge",
            FaultPlan::parse("wedge:worker:0@tick=100:for=50").unwrap(),
        ),
        (
            "drop",
            FaultPlan::parse(&format!("seed={seed};drop:worker->merger:p=0.3:k=3")).unwrap(),
        ),
    ]
}

/// Runs the workload (inserts, then objects) on a 1-dispatcher / 2-worker /
/// 1-merger topology and returns the delivery log plus the report.
fn run_with(
    sample: &WorkloadSample,
    backend: RuntimeBackend,
    faults: Option<FaultPlan>,
    overload: OverloadPolicy,
    durability: Option<StoreConfig>,
) -> (Vec<(QueryId, ObjectId)>, RunReport) {
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let mut config = SystemConfig {
        num_dispatchers: 1,
        num_workers: 2,
        num_mergers: 1,
        ..SystemConfig::default()
    }
    .with_runtime(backend)
    .with_faults(faults)
    .with_overload(overload);
    if let Some(store) = durability {
        config = config.with_durability(store);
    }
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

fn as_set(log: &[(QueryId, ObjectId)]) -> HashSet<(QueryId, ObjectId)> {
    log.iter().copied().collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps2chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The core contract, on the simulator: for every seed and every plan
/// family, the faulted run delivers exactly the fault-free set, and the
/// fault counters prove the schedule actually executed.
#[test]
fn faulted_sim_runs_deliver_the_fault_free_set() {
    for seed in SEEDS {
        let sample = uniform_sample(seed);
        let backend = RuntimeBackend::deterministic(seed);
        let (clean_log, clean_report) =
            run_with(&sample, backend, None, OverloadPolicy::Block, None);
        let clean = as_set(&clean_log);
        assert_eq!(
            clean,
            owed(&inserts_then_objects(&sample)),
            "seed {seed}: the fault-free run must match the oracle"
        );
        assert_eq!(clean_report.faults, FaultReport::default());

        for (name, plan) in fault_plans(seed) {
            let (log, report) = run_with(
                &sample,
                RuntimeBackend::deterministic(seed),
                Some(plan),
                OverloadPolicy::Block,
                None,
            );
            assert_eq!(
                as_set(&log),
                clean,
                "seed {seed}, plan {name}: a loss-masking fault changed the delivered set"
            );
            match name {
                "crash" => {
                    assert_eq!(report.faults.worker_crashes, 2, "seed {seed}");
                    assert_eq!(report.faults.worker_respawns, 2, "seed {seed}");
                    assert!(report.faults.replayed_records > 0, "seed {seed}");
                    assert!(report.faults.restored_updates > 0, "seed {seed}");
                }
                "wedge" => {
                    assert!(report.faults.wedge_parks > 0, "seed {seed}");
                    assert_eq!(report.faults.worker_crashes, 0, "seed {seed}");
                }
                "drop" => {
                    assert!(report.faults.diverted_sends > 0, "seed {seed}");
                }
                other => unreachable!("unknown plan family {other}"),
            }
        }
    }
}

/// The same (workload seed, scheduler seed, fault plan) triple must replay a
/// byte-identical delivery log — faults are part of the deterministic state
/// machine, not noise on top of it.
#[test]
fn faulted_sim_runs_replay_byte_identically() {
    let sample = uniform_sample(23);
    for (name, plan) in fault_plans(23) {
        let run = || {
            run_with(
                &sample,
                RuntimeBackend::deterministic(23),
                Some(plan.clone()),
                OverloadPolicy::Block,
                None,
            )
            .0
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(
            first,
            run(),
            "plan {name}: the same seed diverged across runs"
        );
    }
}

/// On the OS-thread backend the tick clocks are best-effort (they count each
/// worker's admitted records, which is scheduling-independent here: one
/// dispatcher, a static routing table), so the same plans must still deliver
/// exactly the oracle set.
#[test]
fn faulted_thread_runs_deliver_the_brute_force_set() {
    for seed in [11u64, 53] {
        let sample = uniform_sample(seed);
        let expected = owed(&inserts_then_objects(&sample));
        for (name, plan) in fault_plans(seed) {
            let (log, report) = run_with(
                &sample,
                RuntimeBackend::Threads,
                Some(plan),
                OverloadPolicy::Block,
                None,
            );
            assert_eq!(
                as_set(&log),
                expected,
                "seed {seed}, plan {name}: threads run lost or invented matches"
            );
            assert_eq!(
                log.len(),
                expected.len(),
                "seed {seed}, plan {name}: a pair was delivered twice"
            );
            if name == "crash" {
                assert!(report.faults.worker_crashes > 0, "seed {seed}");
                assert_eq!(
                    report.faults.worker_crashes, report.faults.worker_respawns,
                    "every crash must be answered by a respawn"
                );
            }
        }
    }
}

/// Overload shedding drops work by contract — but it must never deliver a
/// (query, object) pair twice (the merger's watermark rule) nor invent one,
/// and subscription updates must never be shed.
#[test]
fn overload_shedding_degrades_without_duplicating_or_inventing() {
    let sample = uniform_sample(37);
    let oracle = owed(&inserts_then_objects(&sample));

    // worker-side shedding: objects dropped before matching
    let (log, report) = run_with(
        &sample,
        RuntimeBackend::deterministic(37),
        None,
        OverloadPolicy::ShedOldest {
            worker_mailbox: 2,
            merger_mailbox: 1_000_000,
        },
        None,
    );
    assert!(
        report.faults.shed_records > 0,
        "the worker mailbox must trip"
    );
    let mut seen = HashSet::new();
    for pair in &log {
        assert!(seen.insert(*pair), "pair {pair:?} delivered twice");
        assert!(oracle.contains(pair), "pair {pair:?} was invented");
    }

    // merger-side shedding: match batches dropped past the watermark
    let (log, report) = run_with(
        &sample,
        RuntimeBackend::deterministic(37),
        None,
        OverloadPolicy::ShedOldest {
            worker_mailbox: 1_000_000,
            merger_mailbox: 0,
        },
        None,
    );
    assert!(
        report.faults.shed_matches > 0,
        "the merger mailbox must trip"
    );
    let mut seen = HashSet::new();
    for pair in &log {
        assert!(seen.insert(*pair), "pair {pair:?} delivered twice");
        assert!(oracle.contains(pair), "pair {pair:?} was invented");
    }
}

/// A worker crash is an in-memory fault: the durable subscription store must
/// come through it untouched. After a faulted durable run, the state
/// recoverable from disk (read-only peek) is exactly the subscribed set.
#[test]
fn worker_crashes_leave_the_durable_store_consistent() {
    let sample = uniform_sample(41);
    let dir = fresh_dir("crash-durable");
    let plan = FaultPlan::parse("crash:worker:0@tick=40;crash:worker:1@tick=120").unwrap();
    let (log, report) = run_with(
        &sample,
        RuntimeBackend::deterministic(41),
        Some(plan),
        OverloadPolicy::Block,
        Some(StoreConfig::new(&dir)),
    );
    assert_eq!(report.faults.worker_crashes, 2);
    assert_eq!(as_set(&log), owed(&inserts_then_objects(&sample)));
    assert_eq!(report.faults.persist_errors, 0);

    let recovered = PersistentStore::peek(&StoreConfig::new(&dir)).unwrap();
    let live: HashSet<u64> = recovered.live_queries().keys().copied().collect();
    let subscribed: HashSet<u64> = sample.insertions().iter().map(|q| q.id.0).collect();
    assert_eq!(
        live, subscribed,
        "the recoverable subscription set diverged across worker crashes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
