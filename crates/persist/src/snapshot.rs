//! Atomic snapshots of the durable subscription state.
//!
//! A snapshot captures, at operation watermark `W`, the live query set in
//! canonical ascending-id order. Routing state is not persisted: the term
//! statistics are the routing table's, frozen at calibration, and replaying
//! the recovered inserts through the table re-registers every `H2` term.
//! Recovery loads the newest *valid* snapshot and replays only log records
//! with `seq > W`; a snapshot of an older layout fails its magic check and
//! is skipped like a torn one.
//!
//! # Atomicity
//!
//! The file is written to `snapshot-<W>.tmp` as a single CRC-framed record
//! (through [`FrameWriter`], like every other durable byte), fsynced, then
//! renamed to `snapshot-<W>.snap`, and the directory is fsynced. A crash at
//! any point leaves either no `.snap` or a complete one; a torn `.tmp` is
//! ignored by recovery and deleted on the next successful write.

use crate::frame::{FrameScanner, FrameWriter, FsyncPolicy};
use ps2stream_model::wire::{self, WireError, WireReader};
use ps2stream_model::StsQuery;
use std::path::{Path, PathBuf};

/// Leading payload magic (version-bearing).
const MAGIC: &[u8; 8] = b"PS2SNAP3";

/// Everything a snapshot captures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotData {
    /// Operation watermark: every logged op with `seq <= watermark` is
    /// reflected in this snapshot; replay skips them.
    pub watermark: u64,
    /// Live queries in ascending-id order.
    pub queries: Vec<StsQuery>,
}

impl SnapshotData {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        wire::put_u64(&mut out, self.watermark);
        wire::put_u32(&mut out, self.queries.len() as u32);
        for q in &self.queries {
            wire::encode_query(&mut out, q);
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() < MAGIC.len() || &payload[..MAGIC.len()] != MAGIC {
            return Err(WireError::BadTag(*payload.first().unwrap_or(&0)));
        }
        let mut r = WireReader::new(&payload[MAGIC.len()..]);
        let watermark = r.u64()?;
        let nqueries = r.count()?;
        let mut queries = Vec::with_capacity(nqueries as usize);
        for _ in 0..nqueries {
            queries.push(wire::decode_query(&mut r)?);
        }
        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(Self { watermark, queries })
    }
}

/// The `.snap` path for watermark `w` in `dir`.
pub fn snapshot_path(dir: &Path, w: u64) -> PathBuf {
    dir.join(format!("snapshot-{w:020}.snap"))
}

/// Writes `data` atomically into `dir`, returning the final path. Older
/// snapshots and stale `.tmp` files are removed afterwards (the new snapshot
/// supersedes them).
pub fn write_snapshot(dir: &Path, data: &SnapshotData) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = snapshot_path(dir, data.watermark);
    let tmp_path = final_path.with_extension("tmp");
    {
        // A snapshot is durable-or-absent, never partial: sync before the
        // rename publishes it.
        let mut w = FrameWriter::create(&tmp_path, FsyncPolicy::Always)?;
        w.append(&data.encode())?;
        w.sync()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        #[expect(
            clippy::disallowed_methods,
            reason = "DURABILITY: the rename itself must reach the disk — without the directory fsync a machine crash can forget the publish and leave only the older snapshot visible"
        )]
        let _ = d.sync_all();
    }
    prune_superseded(dir, data.watermark);
    Ok(final_path)
}

/// Deletes snapshots older than `keep_watermark` and any leftover `.tmp`.
fn prune_superseded(dir: &Path, keep_watermark: u64) {
    for (w, path) in list_snapshots(dir) {
        if w < keep_watermark {
            let _ = std::fs::remove_file(path);
        }
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

/// `(watermark, path)` of every `.snap` file in `dir`, ascending.
fn list_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(w) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".snap"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            out.push((w, path));
        }
    }
    out.sort_by_key(|(w, _)| *w);
    out
}

/// Loads the newest snapshot in `dir` that validates (magic, CRC, complete
/// decode). Corrupt or torn candidates are skipped, newest-first, so a bad
/// latest snapshot falls back to its predecessor rather than failing
/// recovery.
pub fn load_latest_snapshot(dir: &Path) -> Option<SnapshotData> {
    for (_, path) in list_snapshots(dir).into_iter().rev() {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let mut scanner = FrameScanner::new(&bytes);
        let Some(payload) = scanner.next() else {
            continue;
        };
        if let Ok(data) = SnapshotData::decode(payload) {
            return Some(data);
        }
    }
    None
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
            SubscriberId(id * 2),
            BooleanExpr::and_of([TermId(id as u32), TermId(id as u32 + 1)]),
            Rect::from_coords(0.0, 0.0, 2.0, 2.0),
        )
    }

    fn sample(watermark: u64) -> SnapshotData {
        SnapshotData {
            watermark,
            queries: vec![q(1), q(2), q(3)],
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ps2snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let data = sample(42);
        write_snapshot(&dir, &data).unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap();
        assert_eq!(loaded, data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_snapshot_wins_and_old_ones_are_pruned() {
        let dir = tmp_dir("newest");
        write_snapshot(&dir, &sample(10)).unwrap();
        write_snapshot(&dir, &sample(20)).unwrap();
        assert_eq!(load_latest_snapshot(&dir).unwrap().watermark, 20);
        assert_eq!(list_snapshots(&dir).len(), 1, "old snapshot not pruned");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_latest_falls_back_to_predecessor() {
        let dir = tmp_dir("fallback");
        write_snapshot(&dir, &sample(10)).unwrap();
        // forge a newer, torn snapshot (bypassing write_snapshot's pruning)
        std::fs::write(snapshot_path(&dir, 99), b"PS2SNAP3 torn garbage").unwrap();
        assert_eq!(load_latest_snapshot(&dir).unwrap().watermark, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_no_snapshot() {
        let dir = tmp_dir("missing");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_latest_snapshot(&dir).is_none());
    }
}
