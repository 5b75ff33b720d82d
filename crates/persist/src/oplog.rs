//! The append-only operation log of query inserts and deletes.
//!
//! Each record is one frame (see [`crate::frame`]) whose payload is
//! `[seq: u64 LE][QueryUpdate wire bytes]` — `seq` is the global, monotonic
//! operation number assigned by the store. Loading scans the longest valid
//! frame prefix and additionally stops at the first payload that fails wire
//! decoding, so a damaged log always yields a clean prefix instead of an
//! error or a panic.

use crate::frame::{FrameScanner, FrameWriter, FsyncPolicy};
use ps2stream_model::wire;
use ps2stream_model::QueryUpdate;
use std::path::{Path, PathBuf};

/// One recovered log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedOp {
    /// Global operation number (monotonic across snapshots/compactions).
    pub seq: u64,
    /// The logged update.
    pub update: QueryUpdate,
}

/// The result of scanning a log file.
#[derive(Debug, Default)]
pub struct LoadedLog {
    /// Decoded operations of the longest valid prefix, in log order.
    pub ops: Vec<LoggedOp>,
    /// Bytes of that prefix (the truncation point for a torn tail).
    pub valid_bytes: u64,
    /// Total bytes found in the file.
    pub total_bytes: u64,
}

impl LoadedLog {
    /// True when the file carried bytes past the last valid record.
    pub fn has_torn_tail(&self) -> bool {
        self.valid_bytes < self.total_bytes
    }
}

/// Scans `path`, returning the decoded longest-valid-prefix. A missing file
/// is an empty log.
pub fn load_log(path: &Path) -> std::io::Result<LoadedLog> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadedLog::default()),
        Err(e) => return Err(e),
    };
    Ok(scan_log_bytes(&bytes))
}

/// Scans in-memory log bytes (the pure core of [`load_log`], used directly
/// by the robustness proptest).
pub fn scan_log_bytes(bytes: &[u8]) -> LoadedLog {
    let mut scanner = FrameScanner::new(bytes);
    let mut ops = Vec::new();
    let mut valid_bytes = 0u64;
    while let Some(payload) = scanner.next_payload() {
        if payload.len() < 8 {
            break; // framed but not even a seq: treat as end of prefix
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        match wire::decode_update_exact(&payload[8..]) {
            Ok(update) => ops.push(LoggedOp { seq, update }),
            Err(_) => break, // CRC-valid but undecodable: stop, never panic
        }
        valid_bytes = scanner.valid_len() as u64;
    }
    LoadedLog {
        ops,
        valid_bytes,
        total_bytes: bytes.len() as u64,
    }
}

/// The writable log handle.
pub struct OpLog {
    writer: FrameWriter,
    path: PathBuf,
    scratch: Vec<u8>,
}

impl OpLog {
    /// Creates a fresh (truncated) log at `path`.
    pub fn create(path: &Path, policy: FsyncPolicy) -> std::io::Result<Self> {
        Ok(Self {
            writer: FrameWriter::create(path, policy)?,
            path: path.to_path_buf(),
            scratch: Vec::new(),
        })
    }

    /// Opens `path` for appending after a recovery scan: the torn tail (if
    /// any) is truncated away first so new records extend the valid prefix.
    pub fn open_after_recovery(
        path: &Path,
        policy: FsyncPolicy,
        loaded: &LoadedLog,
    ) -> std::io::Result<Self> {
        if loaded.has_torn_tail() {
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(loaded.valid_bytes)?;
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: the truncation must hit the disk before new appends extend the file, or a machine crash could resurrect the torn tail in the middle of fresh records"
            )]
            file.sync_all()?;
        }
        Ok(Self {
            writer: FrameWriter::append_to(path, policy, loaded.valid_bytes)?,
            path: path.to_path_buf(),
            scratch: Vec::new(),
        })
    }

    /// Appends one operation under `seq`.
    pub fn append(&mut self, seq: u64, update: &QueryUpdate) -> std::io::Result<()> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&seq.to_le_bytes());
        wire::encode_update(&mut self.scratch, update);
        self.writer.append(&self.scratch)
    }

    /// Hands buffered records to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.writer.sync()
    }

    /// Simulates a process kill (drops the userland buffer). Returns the
    /// lost byte count.
    pub fn crash(self) -> usize {
        self.writer.crash()
    }

    /// Bytes of log handed to the OS.
    pub fn durable_bytes(&self) -> u64 {
        self.writer.durable_bytes()
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_geo::Rect;
    use ps2stream_model::{QueryId, StsQuery, SubscriberId};
    use ps2stream_text::{BooleanExpr, TermId};

    fn q(id: u64) -> StsQuery {
        StsQuery::new(
            QueryId(id),
            SubscriberId(id),
            BooleanExpr::and_of([TermId(id as u32 % 13)]),
            Rect::from_coords(0.0, 0.0, 4.0, 4.0),
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ps2oplog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn log_roundtrips_and_reopens() {
        let path = tmp("roundtrip.log");
        let mut log = OpLog::create(&path, FsyncPolicy::Always).unwrap();
        log.append(1, &QueryUpdate::Insert(q(10))).unwrap();
        log.append(2, &QueryUpdate::Delete(q(10))).unwrap();
        log.append(3, &QueryUpdate::Insert(q(11))).unwrap();
        drop(log);

        let loaded = load_log(&path).unwrap();
        assert_eq!(loaded.ops.len(), 3);
        assert!(!loaded.has_torn_tail());
        assert_eq!(loaded.ops[0].seq, 1);
        assert_eq!(loaded.ops[2].update, QueryUpdate::Insert(q(11)));

        // appending after recovery extends the prefix
        let mut log = OpLog::open_after_recovery(&path, FsyncPolicy::Always, &loaded).unwrap();
        log.append(4, &QueryUpdate::Delete(q(11))).unwrap();
        drop(log);
        let loaded = load_log(&path).unwrap();
        assert_eq!(loaded.ops.len(), 4);
        assert_eq!(loaded.ops[3].seq, 4);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let path = tmp("torn.log");
        let mut log = OpLog::create(&path, FsyncPolicy::Always).unwrap();
        log.append(1, &QueryUpdate::Insert(q(1))).unwrap();
        log.append(2, &QueryUpdate::Insert(q(2))).unwrap();
        drop(log);
        // tear the final record
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let loaded = load_log(&path).unwrap();
        assert_eq!(loaded.ops.len(), 1);
        assert!(loaded.has_torn_tail());

        let mut log = OpLog::open_after_recovery(&path, FsyncPolicy::Always, &loaded).unwrap();
        log.append(2, &QueryUpdate::Insert(q(3))).unwrap();
        drop(log);
        let reloaded = load_log(&path).unwrap();
        assert_eq!(reloaded.ops.len(), 2);
        assert!(!reloaded.has_torn_tail());
        assert_eq!(reloaded.ops[1].update, QueryUpdate::Insert(q(3)));
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let loaded = load_log(&tmp("does-not-exist.log")).unwrap();
        assert!(loaded.ops.is_empty());
        assert_eq!(loaded.total_bytes, 0);
    }
}
