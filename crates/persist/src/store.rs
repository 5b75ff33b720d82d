//! [`PersistentStore`] — the durable face of the subscription set.
//!
//! The store sits on the ingest path: every accepted `QueryUpdate` is
//! assigned a global monotonic sequence number, appended to the operation
//! log, and mirrored into an in-memory live map keyed by query id. The live
//! map is what makes snapshots and log compaction self-contained: both are
//! written from it, without stopping or consulting the workers.
//!
//! # Recovery invariant
//!
//! Let `W` be the watermark of the newest valid snapshot (0 when none) and
//! `P` the longest valid prefix of the operation log. Recovered state =
//! snapshot state + every op in `P` with `seq > W`, applied in log order.
//! Anything after `P` (a torn or corrupt tail) is truncated, not an error.
//! Compaction preserves the invariant by writing the snapshot *first* and
//! only then rewriting the log: a crash between the two steps leaves
//! redundant ops with `seq <= W`, which replay skips.

use crate::frame::{FrameWriter, FsyncPolicy};
use crate::oplog::{load_log, LoggedOp, OpLog};
use crate::snapshot::{load_latest_snapshot, write_snapshot, SnapshotData};
use ps2stream_model::wire;
use ps2stream_model::{QueryUpdate, StsQuery};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Name of the operation log file inside the durability directory.
pub const LOG_FILE: &str = "oplog.psl";

/// How the store behaves; embedded in the system configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the log and snapshots (created if missing).
    pub dir: PathBuf,
    /// Fsync policy of the operation log (snapshots always sync).
    pub fsync: FsyncPolicy,
    /// Write a snapshot and compact the log every this many logged ops.
    /// `None` keeps a pure, ever-growing log (used by the byte-identical
    /// recovery tests, where replay must reproduce the exact ingest
    /// sequence).
    pub snapshot_every_ops: Option<u64>,
}

impl StoreConfig {
    /// Defaults for `dir`: `PS2_FSYNC` (or every-64), snapshot every 4096
    /// ops.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::from_env().unwrap_or_default(),
            snapshot_every_ops: Some(4096),
        }
    }

    /// Overrides the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Overrides (or disables) the snapshot interval.
    pub fn with_snapshot_every(mut self, every: Option<u64>) -> Self {
        self.snapshot_every_ops = every;
        self
    }
}

/// What [`PersistentStore::open`] found on disk.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// The snapshot recovery started from, when one existed.
    pub snapshot: Option<SnapshotData>,
    /// Log ops past the snapshot watermark, in log order.
    pub tail: Vec<LoggedOp>,
    /// Bytes of torn/corrupt log tail that were truncated away.
    pub truncated_bytes: u64,
}

impl RecoveredState {
    /// True when nothing durable was found.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.tail.is_empty()
    }

    /// True when a torn or corrupt log tail was truncated during recovery.
    pub fn has_damage(&self) -> bool {
        self.truncated_bytes > 0
    }

    /// Number of individual operations to replay.
    pub fn num_ops(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |s| s.queries.len()) + self.tail.len()
    }

    /// The update sequence to replay through the normal dispatch path:
    /// snapshot queries as inserts (ascending id), then the log tail
    /// verbatim.
    pub fn replay_updates(&self) -> impl Iterator<Item = QueryUpdate> + '_ {
        self.snapshot
            .iter()
            .flat_map(|s| s.queries.iter().cloned().map(QueryUpdate::Insert))
            .chain(self.tail.iter().map(|op| op.update.clone()))
    }

    /// The live query set implied by the recovered state (snapshot + tail).
    pub fn live_queries(&self) -> BTreeMap<u64, StsQuery> {
        let mut live = BTreeMap::new();
        if let Some(s) = &self.snapshot {
            for q in &s.queries {
                live.insert(q.id.0, q.clone());
            }
        }
        for op in &self.tail {
            match &op.update {
                QueryUpdate::Insert(q) => {
                    live.insert(q.id.0, q.clone());
                }
                QueryUpdate::Delete(q) => {
                    live.remove(&q.id.0);
                }
            }
        }
        live
    }
}

/// The durable subscription store. See the module docs for the recovery
/// invariant.
pub struct PersistentStore {
    config: StoreConfig,
    log: OpLog,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Ops logged since the last snapshot (drives the snapshot cadence).
    ops_since_snapshot: u64,
    /// Live queries by raw id — the compaction and snapshot source.
    live: BTreeMap<u64, StsQuery>,
    /// Size of the most recent snapshot file, bytes.
    last_snapshot_bytes: u64,
    /// Snapshots written by this store instance.
    snapshots_written: u64,
    /// Ops appended by this store instance.
    ops_logged: u64,
}

impl PersistentStore {
    /// Opens (or initialises) the durability directory, returning the store
    /// positioned after the recovered state, plus what was recovered.
    pub fn open(config: StoreConfig) -> std::io::Result<(Self, RecoveredState)> {
        std::fs::create_dir_all(&config.dir)?;
        let log_path = config.dir.join(LOG_FILE);
        let snapshot = load_latest_snapshot(&config.dir);
        let watermark = snapshot.as_ref().map_or(0, |s| s.watermark);
        let loaded = load_log(&log_path)?;
        let truncated_bytes = loaded.total_bytes - loaded.valid_bytes;
        let tail: Vec<LoggedOp> = loaded
            .ops
            .iter()
            .filter(|op| op.seq > watermark)
            .cloned()
            .collect();
        let next_seq = loaded
            .ops
            .last()
            .map(|op| op.seq)
            .unwrap_or(0)
            .max(watermark)
            + 1;
        let log = OpLog::open_after_recovery(&log_path, config.fsync, &loaded)?;
        let recovered = RecoveredState {
            snapshot,
            tail,
            truncated_bytes,
        };
        let live = recovered.live_queries();
        Ok((
            Self {
                config,
                log,
                next_seq,
                ops_since_snapshot: 0,
                live,
                last_snapshot_bytes: 0,
                snapshots_written: 0,
                ops_logged: 0,
            },
            recovered,
        ))
    }

    /// Recovers the durable state **read-only**: loads the latest snapshot
    /// and the valid log prefix without opening the log for writing or
    /// truncating torn tails. Chaos and audit tooling uses this to inspect
    /// what a (possibly crashed) run left behind without mutating it —
    /// [`RecoveredState::live_queries`] then gives the implied live set.
    pub fn peek(config: &StoreConfig) -> std::io::Result<RecoveredState> {
        let log_path = config.dir.join(LOG_FILE);
        let snapshot = load_latest_snapshot(&config.dir);
        let watermark = snapshot.as_ref().map_or(0, |s| s.watermark);
        let loaded = load_log(&log_path)?;
        let truncated_bytes = loaded.total_bytes - loaded.valid_bytes;
        let tail: Vec<LoggedOp> = loaded
            .ops
            .iter()
            .filter(|op| op.seq > watermark)
            .cloned()
            .collect();
        Ok(RecoveredState {
            snapshot,
            tail,
            truncated_bytes,
        })
    }

    /// Logs one update and applies it to the live map. Returns `true` when
    /// the snapshot interval has elapsed — the caller should then invoke
    /// [`PersistentStore::snapshot_now`].
    pub fn log_update(&mut self, update: &QueryUpdate) -> std::io::Result<bool> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log.append(seq, update)?;
        self.ops_logged += 1;
        self.ops_since_snapshot += 1;
        match update {
            QueryUpdate::Insert(q) => {
                self.live.insert(q.id.0, q.clone());
            }
            QueryUpdate::Delete(q) => {
                self.live.remove(&q.id.0);
            }
        }
        Ok(self
            .config
            .snapshot_every_ops
            .is_some_and(|every| self.ops_since_snapshot >= every))
    }

    /// Writes a snapshot of the live state at the current watermark, then
    /// compacts the log (rewrites it from the live map).
    pub fn snapshot_now(&mut self) -> std::io::Result<()> {
        let watermark = self.next_seq - 1;
        let data = SnapshotData {
            watermark,
            queries: self.live.values().cloned().collect(),
        };
        let path = write_snapshot(&self.config.dir, &data)?;
        self.last_snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        self.snapshots_written += 1;
        self.ops_since_snapshot = 0;
        self.compact_log(watermark)
    }

    /// Rewrites the operation log from the live map: one insert per live
    /// query, all at the snapshot watermark (replay after a snapshot skips
    /// them; replay *without* a snapshot — every snapshot corrupt — still
    /// rebuilds the full live set from the log alone).
    fn compact_log(&mut self, watermark: u64) -> std::io::Result<()> {
        let log_path = self.config.dir.join(LOG_FILE);
        let rewrite_path = log_path.with_extension("rewrite");
        let mut scratch = Vec::new();
        {
            let mut w = FrameWriter::create(&rewrite_path, FsyncPolicy::Always)?;
            for q in self.live.values() {
                scratch.clear();
                scratch.extend_from_slice(&watermark.to_le_bytes());
                wire::encode_update(&mut scratch, &QueryUpdate::Insert(q.clone()));
                w.append(&scratch)?;
            }
            w.sync()?;
        }
        // Flush the old handle before the swap so its buffered tail cannot
        // be written into the *new* file through a stale descriptor.
        self.log.flush()?;
        std::fs::rename(&rewrite_path, &log_path)?;
        if let Ok(d) = std::fs::File::open(&self.config.dir) {
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: the rename replacing the log must be on disk before appends continue, or a machine crash could leave a log missing both the compacted prefix and the new tail"
            )]
            let _ = d.sync_all();
        }
        let rewritten = load_log(&log_path)?;
        self.log = OpLog::open_after_recovery(&log_path, self.config.fsync, &rewritten)?;
        Ok(())
    }

    /// Hands buffered log records to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.log.flush()
    }

    /// Flushes and fsyncs the log.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }

    /// Simulates a process kill: buffered log records are lost, everything
    /// handed to the OS survives. Returns the lost byte count.
    pub fn crash(self) -> usize {
        self.log.crash()
    }

    /// Live queries in ascending-id order.
    pub fn live_queries(&self) -> impl Iterator<Item = &StsQuery> {
        self.live.values()
    }

    /// Number of live queries.
    pub fn num_live(&self) -> usize {
        self.live.len()
    }

    /// Durable log bytes handed to the OS by this instance.
    pub fn log_bytes(&self) -> u64 {
        self.log.durable_bytes()
    }

    /// Size of the most recent snapshot file written by this instance.
    pub fn snapshot_bytes(&self) -> u64 {
        self.last_snapshot_bytes
    }

    /// Snapshots written by this instance.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// Ops appended by this instance.
    pub fn ops_logged(&self) -> u64 {
        self.ops_logged
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Rect;
    use ps2stream_model::{QueryId, SubscriberId};
    use ps2stream_text::{BooleanExpr, TermId};

    fn q(id: u64) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::and_of([TermId(id as u32 % 7)]),
            Rect::from_coords(0.0, 0.0, 4.0, 4.0),
        )
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ps2store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> StoreConfig {
        StoreConfig::new(dir)
            .with_fsync(FsyncPolicy::Always)
            .with_snapshot_every(None)
    }

    #[test]
    fn fresh_store_recovers_nothing() {
        let dir = tmp_dir("fresh");
        let (store, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(store.num_live(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_only_recovery_replays_everything() {
        let dir = tmp_dir("logonly");
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            store.log_update(&QueryUpdate::Insert(q(1))).unwrap();
            store.log_update(&QueryUpdate::Insert(q(2))).unwrap();
            store.log_update(&QueryUpdate::Delete(q(1))).unwrap();
            store.log_update(&QueryUpdate::Insert(q(3))).unwrap();
        }
        let (store, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.tail.len(), 4);
        let updates: Vec<QueryUpdate> = recovered.replay_updates().collect();
        assert_eq!(updates.len(), 4);
        assert_eq!(
            store.live_queries().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![2, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let dir = tmp_dir("snaptail");
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            for i in 1..=5 {
                store.log_update(&QueryUpdate::Insert(q(i))).unwrap();
            }
            store.log_update(&QueryUpdate::Delete(q(2))).unwrap();
            store.snapshot_now().unwrap();
            // tail past the watermark
            store.log_update(&QueryUpdate::Insert(q(9))).unwrap();
            store.log_update(&QueryUpdate::Delete(q(4))).unwrap();
        }
        let (store, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        let snap = recovered.snapshot.as_ref().expect("snapshot found");
        assert_eq!(
            snap.queries.iter().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![1, 3, 4, 5]
        );
        assert_eq!(recovered.tail.len(), 2, "only ops past the watermark");
        assert_eq!(
            store.live_queries().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![1, 3, 5, 9]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_without_snapshot_uses_the_compacted_log() {
        let dir = tmp_dir("compacted");
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            for i in 1..=4 {
                store.log_update(&QueryUpdate::Insert(q(i))).unwrap();
            }
            store.log_update(&QueryUpdate::Delete(q(2))).unwrap();
            store.snapshot_now().unwrap();
            store.log_update(&QueryUpdate::Insert(q(8))).unwrap();
        }
        // destroy every snapshot: the rewritten log alone must suffice
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            if entry.path().extension().is_some_and(|e| e == "snap") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        let (store, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(
            store.live_queries().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![1, 3, 4, 8]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_old_layout_snapshot_is_skipped_for_the_log() {
        // A `PS2SNAP2` snapshot carried the term registry between the
        // watermark and the queries. Recovery must skip it, never parse it
        // as the current layout, and rebuild the live set from the log.
        let dir = tmp_dir("oldsnap");
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            for i in 1..=3 {
                store.log_update(&QueryUpdate::Insert(q(i))).unwrap();
            }
            store.log_update(&QueryUpdate::Delete(q(2))).unwrap();
        }
        let mut old = b"PS2SNAP2".to_vec();
        wire::put_u64(&mut old, 4); // watermark: covers the whole log
        wire::put_u32(&mut old, 1); // registry: one cell, one term
        wire::put_u32(&mut old, 0);
        wire::put_u32(&mut old, 1);
        wire::put_u32(&mut old, 7);
        wire::put_u32(&mut old, 1); // live queries
        wire::encode_query(&mut old, &q(7));
        let path = crate::snapshot::snapshot_path(&dir, 4);
        let mut w = FrameWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(&old).unwrap();
        w.sync().unwrap();
        drop(w);
        let (store, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        assert!(recovered.snapshot.is_none(), "the old layout is skipped");
        assert_eq!(recovered.tail.len(), 4, "the whole log replays");
        assert_eq!(
            store.live_queries().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![1, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_interval_triggers() {
        let dir = tmp_dir("interval");
        let config = StoreConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_snapshot_every(Some(3));
        let (mut store, _) = PersistentStore::open(config).unwrap();
        assert!(!store.log_update(&QueryUpdate::Insert(q(1))).unwrap());
        assert!(!store.log_update(&QueryUpdate::Insert(q(2))).unwrap());
        assert!(store.log_update(&QueryUpdate::Insert(q(3))).unwrap());
        store.snapshot_now().unwrap();
        assert_eq!(store.snapshots_written(), 1);
        assert!(store.snapshot_bytes() > 0);
        assert!(!store.log_update(&QueryUpdate::Insert(q(4))).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_with_always_policy_loses_nothing() {
        let dir = tmp_dir("crash");
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            for i in 1..=6 {
                store.log_update(&QueryUpdate::Insert(q(i))).unwrap();
            }
            assert_eq!(store.crash(), 0);
        }
        let (store, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        assert_eq!(recovered.tail.len(), 6);
        assert_eq!(store.num_live(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_with_buffered_policy_loses_a_clean_suffix() {
        let dir = tmp_dir("crashbuf");
        let config = StoreConfig::new(&dir)
            .with_fsync(FsyncPolicy::EveryN(4))
            .with_snapshot_every(None);
        {
            let (mut store, _) = PersistentStore::open(config.clone()).unwrap();
            for i in 1..=10 {
                store.log_update(&QueryUpdate::Insert(q(i))).unwrap();
            }
            assert!(store.crash() > 0);
        }
        let (_, recovered) = PersistentStore::open(config).unwrap();
        // records 1..=8 reached the OS before the kill; the loss is a clean
        // suffix, never a hole
        assert_eq!(recovered.tail.len(), 8);
        for (i, op) in recovered.tail.iter().enumerate() {
            assert_eq!(op.update.query_id().0, i as u64 + 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_numbers_continue_across_restart() {
        let dir = tmp_dir("seq");
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            store.log_update(&QueryUpdate::Insert(q(1))).unwrap();
            store.log_update(&QueryUpdate::Insert(q(2))).unwrap();
        }
        {
            let (mut store, _) = PersistentStore::open(cfg(&dir)).unwrap();
            store.log_update(&QueryUpdate::Insert(q(3))).unwrap();
        }
        let (_, recovered) = PersistentStore::open(cfg(&dir)).unwrap();
        let seqs: Vec<u64> = recovered.tail.iter().map(|op| op.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "monotonic across restarts");
        std::fs::remove_dir_all(&dir).ok();
    }
}
