//! Kill-and-recover crash-injection tests of the durable subscription store.
//!
//! The durability layer logs every query insert/delete before it travels, so
//! killing the process at an arbitrary point of the subscription churn phase
//! and restarting from disk must reconstruct exactly the subscription set a
//! never-killed deployment would hold. On the deterministic simulation
//! backend the kill is a pure function of (workload, seed, crash-tick): these
//! tests crash at 4 seeded ticks for each of 5 seeds (20 crash points) and
//! require the recovered run's delivered-match log to be **byte-identical**
//! to the unkilled run's — the churn phase delivers nothing, so "from the
//! crash point onward" is the entire log — and the recovered per-worker GI²
//! indexes to serialize identically to freshly routed ones.
//!
//! The suite also runs on whatever backend `PS2_RUNTIME` selects (CI runs it
//! under `sim` and `threads`): on a concurrent backend delivery *order* is
//! scheduling-dependent, so those assertions weaken to set equality against
//! the `sim_support` reference model.

use ps2stream::prelude::*;
use ps2stream_stream::{unbounded, RuntimeBackend};
use std::collections::HashSet;
use std::path::PathBuf;

mod sim_support;
use sim_support::{owed, skewed_sample};

/// Five workload seeds, four seeded crash ticks each = the 20 crash points.
const SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// A deterministic churn phase: every query is inserted, and a third of them
/// are deleted again at seeded positions (each victim at most once). The
/// stream a run must survive is `updates ++ objects`.
fn churn_updates(sample: &WorkloadSample, seed: u64) -> Vec<QueryUpdate> {
    let queries = sample.insertions();
    let mut updates = Vec::new();
    let mut deleted = HashSet::new();
    for (i, q) in queries.iter().enumerate() {
        updates.push(QueryUpdate::Insert(q.clone()));
        if i % 3 == 2 {
            // delete an already-inserted query, chosen by a seeded stride
            let victim = &queries[(i * 7 + seed as usize) % (i + 1)];
            if deleted.insert(victim.id) {
                updates.push(QueryUpdate::Delete(victim.clone()));
            }
        }
    }
    updates
}

/// The query ids still subscribed after the whole churn phase.
fn live_ids(updates: &[QueryUpdate]) -> HashSet<QueryId> {
    let mut live = HashSet::new();
    for u in updates {
        match u {
            QueryUpdate::Insert(q) => {
                live.insert(q.id);
            }
            QueryUpdate::Delete(q) => {
                live.remove(&q.id);
            }
        }
    }
    live
}

/// Ground truth: what the stream `updates ++ objects` owes.
fn expected_matches(
    sample: &WorkloadSample,
    updates: &[QueryUpdate],
) -> HashSet<(QueryId, ObjectId)> {
    let updates = updates.iter().cloned().map(StreamRecord::Update);
    let objects = sample.objects().iter().cloned().map(StreamRecord::Object);
    owed(&updates.chain(objects).collect::<Vec<_>>())
}

/// Crash ticks inside the churn phase, seeded and strictly increasing.
fn crash_ticks(seed: u64, num_updates: usize) -> [usize; 4] {
    let base = 20 + (seed as usize % 7);
    let step = (num_updates - base - 1) / 4;
    [base, base + step, base + 2 * step, base + 3 * step]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps2rec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config(backend: Option<&RuntimeBackend>) -> SystemConfig {
    // one dispatcher/worker/merger: delivery order is then deterministic on
    // the sim backend and the churn routing order is fixed everywhere
    let config = SystemConfig {
        num_dispatchers: 1,
        num_workers: 1,
        num_mergers: 1,
        ..SystemConfig::default()
    };
    match backend {
        Some(b) => config.with_runtime(b.clone()),
        None => config,
    }
}

struct RunOutput {
    log: Vec<MatchResult>,
    report: RunReport,
    checkpoints: Vec<WorkerCheckpoint>,
}

fn start(
    sample: &WorkloadSample,
    config: SystemConfig,
    durable: Option<StoreConfig>,
) -> (RunningSystem, ps2stream_stream::Receiver<MatchResult>) {
    let config = match durable {
        Some(store) => config.with_durability(store),
        None => config,
    };
    let (delivery_tx, delivery_rx) = unbounded::<MatchResult>();
    let system = Ps2StreamBuilder::new(config)
        .with_partitioner(Box::new(GridPartitioner::default()))
        .with_calibration_sample(sample.clone())
        .with_delivery(delivery_tx)
        .start();
    (system, delivery_rx)
}

/// Runs the full stream uninterrupted and collects the delivered log.
fn unkilled_run(
    sample: &WorkloadSample,
    updates: &[QueryUpdate],
    config: SystemConfig,
    durable: Option<StoreConfig>,
) -> RunOutput {
    let (mut system, delivery_rx) = start(sample, config, durable);
    for u in updates {
        system.send(StreamRecord::Update(u.clone()));
    }
    for o in sample.objects() {
        system.send(StreamRecord::Object(o.clone()));
    }
    let (report, checkpoints) = system.finish_with_checkpoints();
    RunOutput {
        log: delivery_rx.try_iter().collect(),
        report,
        checkpoints,
    }
}

/// Feeds the churn up to `crash_at`, kills the process image, restarts from
/// the durability directory and feeds the rest of the stream.
fn kill_and_recover(
    sample: &WorkloadSample,
    updates: &[QueryUpdate],
    config: SystemConfig,
    store: StoreConfig,
    crash_at: usize,
) -> RunOutput {
    let (mut doomed, _doomed_rx) = start(sample, config.clone(), Some(store.clone()));
    for u in &updates[..crash_at] {
        doomed.send(StreamRecord::Update(u.clone()));
    }
    let lost = doomed.crash();
    assert_eq!(lost, 0, "FsyncPolicy::Always must never buffer log bytes");

    let (mut system, delivery_rx) = start(sample, config, Some(store));
    for u in &updates[crash_at..] {
        system.send(StreamRecord::Update(u.clone()));
    }
    for o in sample.objects() {
        system.send(StreamRecord::Object(o.clone()));
    }
    let (report, checkpoints) = system.finish_with_checkpoints();
    RunOutput {
        log: delivery_rx.try_iter().collect(),
        report,
        checkpoints,
    }
}

/// Pure-log store: replay preserves the exact pre-crash update sequence, so
/// the recovered run's record stream — and, on the sim backend, its
/// delivered log — is byte-for-byte the unkilled run's.
fn pure_log_store(dir: &PathBuf) -> StoreConfig {
    StoreConfig::new(dir)
        .with_fsync(FsyncPolicy::Always)
        .with_snapshot_every(None)
}

#[test]
fn sim_kill_and_recover_is_byte_identical_to_the_unkilled_run() {
    for seed in SEEDS {
        let sample = skewed_sample(400, 120, seed);
        let updates = churn_updates(&sample, seed);
        let expected = expected_matches(&sample, &updates);
        assert!(!expected.is_empty(), "seed {seed}: vacuous oracle");
        let backend = Some(RuntimeBackend::deterministic(seed));
        let baseline = unkilled_run(&sample, &updates, base_config(backend.as_ref()), None);
        assert_eq!(
            baseline
                .log
                .iter()
                .copied()
                .map(|m| (m.query_id, m.object_id))
                .collect::<HashSet<_>>(),
            expected,
            "seed {seed}: the unkilled run must already match the reference model"
        );
        for crash_at in crash_ticks(seed, updates.len()) {
            let dir = fresh_dir(&format!("byteid-{seed}-{crash_at}"));
            let recovered = kill_and_recover(
                &sample,
                &updates,
                base_config(backend.as_ref()),
                pure_log_store(&dir),
                crash_at,
            );
            assert_eq!(
                recovered.log, baseline.log,
                "seed {seed} crash@{crash_at}: delivered log diverged after recovery"
            );
            assert_eq!(
                recovered.checkpoints.len(),
                baseline.checkpoints.len(),
                "seed {seed} crash@{crash_at}: worker count changed"
            );
            for (r, b) in recovered.checkpoints.iter().zip(&baseline.checkpoints) {
                assert_eq!(r.worker, b.worker);
                assert_eq!(
                    r.index_bytes, b.index_bytes,
                    "seed {seed} crash@{crash_at}: recovered index of worker {:?} \
                     differs from the freshly routed one",
                    r.worker
                );
            }
            let persistence = recovered
                .report
                .persistence
                .as_ref()
                .expect("durable run must report persistence stats");
            assert_eq!(
                persistence.recovered_ops, crash_at as u64,
                "seed {seed} crash@{crash_at}: pure-log recovery must replay \
                 exactly the pre-crash ops"
            );
            assert_eq!(persistence.truncated_bytes, 0);
            assert_eq!(recovered.report.records_in, baseline.report.records_in);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The same kill-and-recover flow on whatever backend `PS2_RUNTIME` selects
/// (CI: `sim` and `threads`). Delivery order is scheduling-dependent on a
/// concurrent backend, so the guarantees checked are the delivered *set*
/// (against the reference model) and the canonical index serialization.
#[test]
fn session_backend_recovery_preserves_the_match_set() {
    let seed = 29;
    let sample = skewed_sample(400, 120, seed);
    let updates = churn_updates(&sample, seed);
    let expected = expected_matches(&sample, &updates);
    assert!(!expected.is_empty());
    let baseline = unkilled_run(&sample, &updates, base_config(None), None);
    for crash_at in [25usize, updates.len() / 2] {
        let dir = fresh_dir(&format!("env-{crash_at}"));
        let recovered = kill_and_recover(
            &sample,
            &updates,
            base_config(None),
            pure_log_store(&dir),
            crash_at,
        );
        let delivered: HashSet<(QueryId, ObjectId)> = recovered
            .log
            .iter()
            .map(|m| (m.query_id, m.object_id))
            .collect();
        assert_eq!(
            delivered, expected,
            "crash@{crash_at}: recovery lost or invented matches"
        );
        for (r, b) in recovered.checkpoints.iter().zip(&baseline.checkpoints) {
            assert_eq!((r.worker, &r.index_bytes), (b.worker, &b.index_bytes));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot taken while a `CellPending` hand-off barrier is armed — the
/// migrated cell's queries are in flight between two workers — must neither
/// lose nor duplicate those queries. The store's snapshot source is its own
/// live map on the ingest side of the topology, so the in-flight window is
/// invisible to it by construction; this test pins that property by driving
/// two workers directly through the barrier protocol.
#[test]
fn snapshot_during_cell_handoff_neither_loses_nor_duplicates() {
    use ps2stream::messages::{MergerMessage, WorkerMessage};
    use ps2stream::worker::Worker;
    use ps2stream::SystemMetrics;
    use ps2stream_geo::{CellId, Point, Rect};
    use ps2stream_index::{Gi2Config, Gi2Index};
    use ps2stream_model::SpatioTextualObject;
    use ps2stream_stream::{Batch, Envelope};
    use ps2stream_text::{BooleanExpr, TermId};

    let bounds = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
    let gi2 = || Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(3));
    let cell_rect = |x: f64, y: f64| Rect::from_coords(x + 0.25, y + 0.25, x + 1.5, y + 1.5);
    // three queries in the migrating cell (0,0), two in a staying cell
    let moving: Vec<StsQuery> = (1..=3)
        .map(|id| {
            StsQuery::new(
                QueryId(id),
                SubscriberId(id),
                BooleanExpr::single(TermId(7)),
                cell_rect(0.0, 0.0),
            )
        })
        .collect();
    let staying: Vec<StsQuery> = (4..=5)
        .map(|id| {
            StsQuery::new(
                QueryId(id),
                SubscriberId(id),
                BooleanExpr::single(TermId(9)),
                cell_rect(8.0, 8.0),
            )
        })
        .collect();
    let cell = CellId::new(0, 0);

    // the ingest-side durable mirror of the subscription set
    let dir = fresh_dir("handoff");
    let (mut store, _) = PersistentStore::open(pure_log_store(&dir)).unwrap();
    for q in moving.iter().chain(&staying) {
        store.log_update(&QueryUpdate::Insert(q.clone())).unwrap();
    }

    let metrics = SystemMetrics::new(2);
    let (a_tx, a_rx) = ps2stream_stream::unbounded::<WorkerMessage>();
    let (b_tx, b_rx) = ps2stream_stream::unbounded::<WorkerMessage>();
    let (merger_tx, merger_rx) = ps2stream_stream::unbounded::<MergerMessage>();
    let peers = vec![a_tx.clone(), b_tx.clone()];
    let mut index_a = gi2();
    for q in moving.iter().chain(&staying) {
        index_a.insert(q.clone());
    }
    let worker_a = Worker::new(
        WorkerId(0),
        index_a,
        peers.clone(),
        vec![merger_tx.clone()],
        std::sync::Arc::clone(&metrics),
        16,
    );
    let worker_b = Worker::new(
        WorkerId(1),
        gi2(),
        peers,
        vec![merger_tx],
        std::sync::Arc::clone(&metrics),
        16,
    );

    // the controller arms the barrier at the destination, then tells the
    // source to hand the cell over
    b_tx.send(WorkerMessage::CellPending { cell }).unwrap();
    // an object of the in-flight cell reaches B while the barrier is armed:
    // it must park, not match against an empty index
    let obj = SpatioTextualObject::new(ObjectId(100), vec![TermId(7)], Point::new(1.0, 1.0));
    b_tx.send(WorkerMessage::Records(Batch::of_one(Envelope::now(
        0,
        StreamRecord::Object(obj),
    ))))
    .unwrap();
    a_tx.send(WorkerMessage::MigrateCell {
        cell,
        terms: None,
        to: WorkerId(1),
    })
    .unwrap();
    a_tx.send(WorkerMessage::Shutdown).unwrap();
    // A extracts the cell and emits MigrateIn into B's queue; the hand-off
    // is now in flight
    let worker_a = worker_a.run(a_rx);

    // snapshot mid-barrier, then recover from disk: the in-flight queries
    // must be present exactly once
    store.snapshot_now().unwrap();
    drop(store);
    let (reopened, recovered_state) = PersistentStore::open(pure_log_store(&dir)).unwrap();
    assert_eq!(recovered_state.truncated_bytes, 0);
    let recovered_ids: Vec<u64> = reopened.live_queries().map(|q| q.id.0).collect();
    assert_eq!(
        recovered_ids,
        vec![1, 2, 3, 4, 5],
        "mid-hand-off snapshot lost or duplicated subscriptions"
    );
    drop(reopened);

    // B releases the barrier (MigrateIn is already queued behind the parked
    // object), replays the parked object and drains
    b_tx.send(WorkerMessage::Shutdown).unwrap();
    let worker_b = worker_b.run(b_rx);

    // the migrated queries live on exactly one side
    let decode = |w: &Worker| {
        ps2stream_index::decode_snapshot(&w.index().snapshot_bytes())
            .unwrap()
            .queries
            .iter()
            .map(|q| q.id.0)
            .collect::<Vec<u64>>()
    };
    assert_eq!(decode(&worker_a), vec![4, 5]);
    assert_eq!(decode(&worker_b), vec![1, 2, 3]);
    // and the parked object matched the migrated queries exactly once each
    let mut delivered: Vec<(u64, u64)> = Vec::new();
    while let Ok(MergerMessage::Matches(batch)) = merger_rx.try_recv() {
        for env in batch.records() {
            for m in &env.payload {
                delivered.push((m.query_id.0, m.object_id.0));
            }
        }
    }
    delivered.sort_unstable();
    assert_eq!(
        delivered,
        vec![(1, 100), (2, 100), (3, 100)],
        "the parked object must match each in-flight query exactly once"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash–recover with periodic snapshots + log compaction enabled: replay
/// starts from the newest snapshot instead of op one, the final match set is
/// unchanged, and a store reopened after the clean shutdown holds exactly
/// the surviving subscription set.
#[test]
fn snapshotting_recovery_preserves_the_match_set_and_live_set() {
    let seed = 47;
    let sample = skewed_sample(400, 120, seed);
    let updates = churn_updates(&sample, seed);
    let expected = expected_matches(&sample, &updates);
    let backend = Some(RuntimeBackend::deterministic(seed));
    let baseline = unkilled_run(&sample, &updates, base_config(backend.as_ref()), None);
    let crash_at = (2 * updates.len()) / 3;
    let dir = fresh_dir("snap");
    let store = StoreConfig::new(&dir)
        .with_fsync(FsyncPolicy::Always)
        .with_snapshot_every(Some(24));
    let recovered = kill_and_recover(
        &sample,
        &updates,
        base_config(backend.as_ref()),
        store,
        crash_at,
    );
    let delivered: HashSet<(QueryId, ObjectId)> = recovered
        .log
        .iter()
        .map(|m| (m.query_id, m.object_id))
        .collect();
    assert_eq!(delivered, expected);
    // Compacted replay skips queries that were inserted *and* deleted before
    // the snapshot watermark, so the recovered dispatcher registry is a
    // pruned subset of the unkilled run's and discards a few more dead
    // objects. The recovered *subscription state* — grid geometry and live
    // query set — must still be identical.
    for (r, b) in recovered.checkpoints.iter().zip(&baseline.checkpoints) {
        assert_eq!(r.worker, b.worker);
        let rd = ps2stream_index::decode_snapshot(&r.index_bytes).unwrap();
        let bd = ps2stream_index::decode_snapshot(&b.index_bytes).unwrap();
        assert_eq!(rd.config, bd.config);
        assert_eq!(
            rd.queries, bd.queries,
            "worker {:?}: recovered live queries differ from the unkilled run",
            r.worker
        );
    }
    let persistence = recovered.report.persistence.as_ref().unwrap();
    assert!(
        persistence.recovered_ops > 0 && persistence.recovered_ops <= crash_at as u64,
        "snapshot compaction must shrink (never grow) the replay sequence"
    );
    // a store reopened after the clean shutdown holds exactly the live set
    let (reopened, recovered_state) =
        PersistentStore::open(StoreConfig::new(&dir).with_fsync(FsyncPolicy::Always))
            .expect("reopen after clean shutdown");
    assert_eq!(
        recovered_state.truncated_bytes, 0,
        "clean shutdown left no torn tail"
    );
    let final_live: HashSet<QueryId> = reopened.live_queries().map(|q| q.id).collect();
    assert_eq!(final_live, live_ids(&updates));
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
