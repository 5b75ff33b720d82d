//! Length-prefixed, CRC-checked record framing — the single choke point
//! through which every byte of durable state is written.
//!
//! A frame is `[len: u32 LE][crc: u32 LE][payload: len bytes]`, where `crc`
//! is the CRC-32/IEEE of the payload. Appends go through [`FrameWriter`],
//! which owns a userland buffer and an explicit [`FsyncPolicy`]; scans go
//! through [`FrameScanner`], which yields payloads up to — and never past —
//! the first torn or corrupt frame. This crate's `clippy.toml` pins the rest
//! of the crate to both halves: `write_all` is disallowed outside
//! [`FrameWriter::flush`], so persist code cannot hand raw unframed bytes to
//! a file.
//!
//! # Crash model
//!
//! [`FrameWriter::crash`] models a process kill: the userland buffer is
//! discarded, everything previously handed to the OS survives. The fsync
//! policy controls the second level — what survives a *machine* crash — and
//! only widens, never narrows, what a process kill loses:
//!
//! * [`FsyncPolicy::Always`] — every append is written through and fsynced;
//!   a kill loses nothing.
//! * [`FsyncPolicy::EveryN`]`(n)` — appends buffer in userland and are
//!   written + fsynced every `n`-th append; a kill loses at most `n-1`
//!   trailing records.
//! * [`FsyncPolicy::Never`] — appends buffer until the buffer exceeds
//!   [`FLUSH_THRESHOLD`]; the OS decides when pages reach the disk.

use crate::crc::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Bytes of `[len][crc]` preceding every payload.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a frame may carry. A length field beyond this is treated
/// as corruption, bounding what a torn header can make recovery allocate.
pub const MAX_FRAME: usize = 64 << 20;

/// Userland buffer size at which [`FsyncPolicy::Never`] writes through.
pub const FLUSH_THRESHOLD: usize = 64 << 10;

/// When appended frames are pushed to the OS and fsynced. Parsed from the
/// `PS2_FSYNC` environment variable: `always` | `every:<n>` | `never`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write through and fsync on every append.
    Always,
    /// Write through and fsync every `n`-th append.
    EveryN(u64),
    /// Never fsync; write through only on buffer pressure or explicit flush.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

impl FsyncPolicy {
    /// Parses `always` | `every:<n>` | `never` (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, String> {
        let v = s.trim().to_ascii_lowercase();
        match v.as_str() {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => {
                if let Some(n) = v.strip_prefix("every:") {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("PS2_FSYNC=every:<n> needs a number, got `{s}`"))?;
                    if n == 0 {
                        return Err("PS2_FSYNC=every:0 is meaningless; use `always`".to_string());
                    }
                    Ok(FsyncPolicy::EveryN(n))
                } else {
                    Err(format!(
                        "unknown PS2_FSYNC value `{s}` (expected always | every:<n> | never)"
                    ))
                }
            }
        }
    }

    /// Reads `PS2_FSYNC` from the environment; `None` when unset.
    ///
    /// # Panics
    /// Panics on a malformed value — a typo must not silently weaken
    /// durability.
    pub fn from_env() -> Option<Self> {
        std::env::var("PS2_FSYNC")
            .ok()
            .map(|v| Self::parse(&v).expect("malformed PS2_FSYNC"))
    }
}

/// Encodes one frame around `payload` into `out`.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends CRC-framed records to a file under an [`FsyncPolicy`].
pub struct FrameWriter {
    file: File,
    /// Frames not yet handed to the OS; discarded by [`FrameWriter::crash`].
    buf: Vec<u8>,
    policy: FsyncPolicy,
    appends_since_sync: u64,
    durable_bytes: u64,
    appended_frames: u64,
}

impl FrameWriter {
    /// Creates (truncates) `path` for framed appends.
    pub fn create(path: &Path, policy: FsyncPolicy) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::over(file, policy, 0))
    }

    /// Opens `path` for framed appends after `existing_bytes` of already
    /// valid content (the caller truncates a torn tail first).
    pub fn append_to(
        path: &Path,
        policy: FsyncPolicy,
        existing_bytes: u64,
    ) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        Ok(Self::over(file, policy, existing_bytes))
    }

    fn over(file: File, policy: FsyncPolicy, existing_bytes: u64) -> Self {
        Self {
            file,
            buf: Vec::new(),
            policy,
            appends_since_sync: 0,
            durable_bytes: existing_bytes,
            appended_frames: 0,
        }
    }

    /// Appends one framed payload, applying the fsync policy.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        assert!(payload.len() <= MAX_FRAME, "payload exceeds MAX_FRAME");
        encode_frame(&mut self.buf, payload);
        self.appended_frames += 1;
        self.appends_since_sync += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.appends_since_sync >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {
                if self.buf.len() >= FLUSH_THRESHOLD {
                    self.flush()?;
                }
            }
        }
        Ok(())
    }

    /// Hands the userland buffer to the OS (no fsync).
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            #[expect(
                clippy::disallowed_methods,
                reason = "FrameWriter::flush is the framed writer's single byte sink; every payload reaching it is already length-prefixed and CRC-framed"
            )]
            self.file.write_all(&self.buf)?;
            self.durable_bytes += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes, then forces the file contents to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "DURABILITY: this is the single fsync point of the framed writer; Always/EveryN route here so an acknowledged append survives a machine crash within the configured window"
        )]
        self.file.sync_all()?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Simulates a process kill: the userland buffer is discarded; bytes
    /// already handed to the OS survive. Returns how many buffered bytes
    /// were lost.
    pub fn crash(mut self) -> usize {
        let lost = self.buf.len();
        self.buf.clear(); // defeat the flush-on-drop below
        lost
    }

    /// Bytes handed to the OS so far (surviving a process kill).
    pub fn durable_bytes(&self) -> u64 {
        self.durable_bytes
    }

    /// Bytes still sitting in the userland buffer (lost by a kill).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Frames appended through this writer.
    pub fn appended_frames(&self) -> u64 {
        self.appended_frames
    }
}

impl Drop for FrameWriter {
    /// Graceful close flushes to the OS (best-effort). [`FrameWriter::crash`]
    /// empties the buffer first precisely so this does nothing.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Iterates the valid frame prefix of a byte slice.
///
/// Yields each payload until the first frame that is torn (header or payload
/// truncated), oversized, or fails its CRC; [`FrameScanner::valid_len`] then
/// reports how many bytes of the slice form the longest valid prefix — the
/// truncation point recovery rewinds the log to.
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// Scans `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes of the longest valid frame prefix seen so far (final after the
    /// iterator returns `None`).
    pub fn valid_len(&self) -> usize {
        self.pos
    }

    /// Yields the next valid payload, or `None` at the first torn/corrupt
    /// frame. Inherent twin of the `Iterator` impl so callers interleaving
    /// [`FrameScanner::valid_len`] reads can loop without holding an
    /// iterator borrow.
    pub fn next_payload(&mut self) -> Option<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        if rest.len() < FRAME_HEADER {
            return None; // torn header (or clean end)
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_FRAME || rest.len() < FRAME_HEADER + len {
            return None; // implausible length or torn payload
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            return None; // bit rot / torn overwrite
        }
        self.pos += FRAME_HEADER + len;
        Some(payload)
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.next_payload()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_all(buf: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let mut scanner = FrameScanner::new(buf);
        let frames: Vec<Vec<u8>> = scanner.by_ref().map(<[u8]>::to_vec).collect();
        (frames, scanner.valid_len())
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("NEVER"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every:8"), Ok(FsyncPolicy::EveryN(8)));
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn frames_roundtrip_through_scanner() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b"alpha");
        encode_frame(&mut buf, b"");
        encode_frame(&mut buf, b"gamma-gamma");
        let (frames, valid) = scan_all(&buf);
        assert_eq!(
            frames,
            vec![b"alpha".to_vec(), vec![], b"gamma-gamma".to_vec()]
        );
        assert_eq!(valid, buf.len());
    }

    #[test]
    fn torn_tail_stops_at_longest_valid_prefix() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b"one");
        let first_end = buf.len();
        encode_frame(&mut buf, b"two");
        // every truncation point inside the second frame keeps exactly one
        for cut in first_end..buf.len() {
            let (frames, valid) = scan_all(&buf[..cut]);
            assert_eq!(frames.len(), 1, "cut at {cut}");
            assert_eq!(valid, first_end, "cut at {cut}");
        }
    }

    #[test]
    fn flipped_byte_stops_the_scan() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, b"one");
        let first_end = buf.len();
        encode_frame(&mut buf, b"two");
        for i in first_end..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let (frames, valid) = scan_all(&bad);
            assert_eq!(frames.len(), 1, "flip at {i}");
            assert_eq!(valid, first_end, "flip at {i}");
        }
    }

    #[test]
    fn oversize_length_field_is_corruption_not_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let (frames, valid) = scan_all(&buf);
        assert!(frames.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn writer_always_policy_loses_nothing_on_crash() {
        let dir = std::env::temp_dir().join(format!("ps2frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("always.log");
        let mut w = FrameWriter::create(&path, FsyncPolicy::Always).unwrap();
        for i in 0..5u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(w.crash(), 0);
        let bytes = std::fs::read(&path).unwrap();
        let (frames, _) = scan_all(&bytes);
        assert_eq!(frames.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_every_n_crash_loses_at_most_the_window() {
        let dir = std::env::temp_dir().join(format!("ps2frame-n-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("every4.log");
        let mut w = FrameWriter::create(&path, FsyncPolicy::EveryN(4)).unwrap();
        for i in 0..10u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        // 10 appends with a sync every 4th: records 0..8 reached the OS,
        // the 2 trailing ones sit in the userland buffer and die here
        assert!(w.crash() > 0);
        let bytes = std::fs::read(&path).unwrap();
        let (frames, _) = scan_all(&bytes);
        assert_eq!(frames.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_drop_flushes_the_tail() {
        let dir = std::env::temp_dir().join(format!("ps2frame-d-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.log");
        {
            let mut w = FrameWriter::create(&path, FsyncPolicy::Never).unwrap();
            for i in 0..10u32 {
                w.append(&i.to_le_bytes()).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let (frames, _) = scan_all(&bytes);
        assert_eq!(frames.len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
