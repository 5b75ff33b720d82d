//! Durable subscriptions for PS2Stream: operation log, snapshots, recovery.
//!
//! The paper assumes millions of standing queries served continuously; this
//! crate makes the subscription set survive a process restart. Three layers:
//!
//! * [`frame`] — length-prefixed, CRC-checked record framing with an explicit
//!   [`FsyncPolicy`] (`PS2_FSYNC`). Every durable byte of the workspace goes
//!   through it (enforced by the `write_all` ban in this crate's
//!   `clippy.toml`).
//! * [`oplog`] — the append-only insert/delete log; loading yields the
//!   longest valid prefix and truncates torn tails instead of failing.
//! * [`snapshot`] + [`store`] — atomic snapshot-then-rename checkpoints of
//!   the live query set, plus log compaction rewriting the log from the
//!   live map.
//!
//! See `docs/PERSISTENCE.md` for the file formats and recovery semantics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod crc;
pub mod frame;
pub mod oplog;
pub mod snapshot;
pub mod store;

pub use frame::{FrameScanner, FrameWriter, FsyncPolicy};
pub use oplog::{load_log, scan_log_bytes, LoadedLog, LoggedOp, OpLog};
pub use snapshot::{load_latest_snapshot, write_snapshot, SnapshotData};
pub use store::{PersistentStore, RecoveredState, StoreConfig, LOG_FILE};
