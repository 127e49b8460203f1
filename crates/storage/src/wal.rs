//! The append-only write-ahead log.
//!
//! A WAL file is a sequence of CRC-framed [`StorageOp`] records
//! ([`crate::frame`]). Appending is buffered through a scratch `Vec` (one
//! `write_all` per op, no intermediate allocation per field) and reaches
//! stable storage only at an explicit [`WalWriter::sync`]. The writer counts
//! its appends, bytes and syncs into the [`StorageMetrics`] handles it is
//! given.
//!
//! Replay walks the frames from the front through one bounded buffer,
//! applying each op as it decodes, and stops at the first record that fails
//! its checksum or decodes to garbage: everything before it is the recovered
//! prefix, everything after is a torn tail from an interrupted append (or
//! corruption) and is truncated away before the log is appended to again.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::frame::{frame_with, FrameReader, FRAME_HEADER_LEN};
use crate::metrics::StorageMetrics;
use crate::op::StorageOp;

/// The most queued requests one peer batch drains under
/// [`FsyncPolicy::Always`]: what one covering fsync may span.
pub const MAX_BATCH: usize = 64;

/// Whether acknowledged records are `fsync`ed to stable storage.
///
/// The WAL itself never decides: [`WalWriter::append`] only writes, and the
/// owner of the acknowledgement issues the covering [`WalWriter::sync`].
/// A peer does so under `Always` at each batch boundary and after Rule 1's
/// counter clear at open, and under either policy at its hand-off phases and
/// on `Shutdown`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Group commit: a peer drains what is already queued (up to
    /// [`MAX_BATCH`] requests, waiting for no straggler), applies and
    /// journals it, issues one covering fsync and only then replies. Every
    /// acknowledgement follows the fsync that covers it.
    #[default]
    Always,
    /// No covering fsync at the batch boundary; the OS flushes when it
    /// pleases (process-crash-safe, power-loss-unsafe). A peer serves one
    /// request at a time.
    Never,
}

impl FsyncPolicy {
    /// How many queued requests one batch may drain when this policy fsyncs
    /// at the batch boundary: [`MAX_BATCH`] under `Always`, `None` under
    /// `Never`, whose batches are single requests.
    pub fn batching(self) -> Option<usize> {
        match self {
            FsyncPolicy::Always => Some(MAX_BATCH),
            FsyncPolicy::Never => None,
        }
    }
}

/// Result of replaying one WAL file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// How many ops of the valid prefix were handed to `apply`.
    pub applied: u64,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Whether bytes after the valid prefix had to be discarded (torn final
    /// record or corruption).
    pub torn_tail: bool,
}

/// Replays `path` through one bounded `FrameReader`, handing each op of the
/// valid prefix to `apply` in append order as soon as its frame checks out
/// and decodes. A missing file replays as empty (a fresh peer).
pub fn replay(path: &Path, mut apply: impl FnMut(StorageOp)) -> io::Result<WalReplay> {
    let Some(mut frames) = FrameReader::open(path)? else {
        return Ok(WalReplay::default());
    };
    let mut applied = 0;
    while let Some(payload) = frames.next_frame()? {
        let Some(op) = StorageOp::decode(payload) else {
            // A frame that checksums but does not decode: corruption (or a
            // future op tag). Keep the prefix before it.
            let frame_len = (FRAME_HEADER_LEN + payload.len()) as u64;
            return Ok(WalReplay {
                applied,
                valid_len: frames.valid_len() - frame_len,
                torn_tail: true,
            });
        };
        apply(op);
        applied += 1;
    }
    Ok(WalReplay {
        applied,
        valid_len: frames.valid_len(),
        torn_tail: frames.torn(),
    })
}

/// Fsyncs the directory containing `path`, making its directory entries
/// (creates, renames, truncations) durable on platforms where that matters.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                File::open(parent)?.sync_all()?;
            }
        }
    }
    #[cfg(not(unix))]
    {
        // Directories cannot be opened for syncing on this platform; the
        // metadata flush is left to the OS.
        let _ = path;
    }
    Ok(())
}

/// The appending half of a WAL.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    appends_since_sync: u64,
    metrics: StorageMetrics,
    scratch: Vec<u8>,
}

impl WalWriter {
    fn new(file: File, path: PathBuf, metrics: &StorageMetrics) -> Self {
        WalWriter {
            file,
            path,
            appends_since_sync: 0,
            metrics: metrics.clone(),
            scratch: Vec::new(),
        }
    }

    /// Creates a fresh, empty WAL at `path` (truncating anything there) that
    /// counts into `metrics`.
    pub fn create(path: PathBuf, metrics: &StorageMetrics) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.sync_all()?;
        Ok(WalWriter::new(file, path, metrics))
    }

    /// Opens an existing WAL for appending after a replay: the file is
    /// truncated to `valid_len` first, discarding any torn tail, so the next
    /// append starts at a record boundary.
    ///
    /// The truncation is fsynced (file *and* parent directory) before this
    /// returns: a truncate that only reached the page cache can be undone by
    /// a power loss, resurrecting the discarded tail bytes underneath the
    /// next append and corrupting its framing.
    pub fn open_after_replay(
        path: PathBuf,
        valid_len: u64,
        metrics: &StorageMetrics,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() != valid_len {
            // In append mode every write lands at the (truncated) end of file.
            file.set_len(valid_len)?;
            file.sync_all()?;
            sync_parent_dir(&path)?;
        }
        Ok(WalWriter::new(file, path, metrics))
    }

    /// The file path of this WAL.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Ops appended but not yet covered by a sync.
    pub fn pending_appends(&self) -> u64 {
        self.appends_since_sync
    }

    /// Appends one framed op. The record is framed in place in the reused
    /// scratch buffer (header reserved up front, sealed after encoding) — no
    /// per-append allocation.
    ///
    /// The append is **not** durable when this returns: the caller owns the
    /// batch boundary and calls [`WalWriter::sync`] before acknowledging the
    /// op.
    pub fn append(&mut self, op: &StorageOp) -> io::Result<()> {
        self.scratch.clear();
        frame_with(&mut self.scratch, |out| op.encode(out));
        self.file.write_all(&self.scratch)?;
        self.appends_since_sync += 1;
        self.metrics.ops_appended.inc();
        self.metrics.wal_bytes.add(self.scratch.len() as u64);
        Ok(())
    }

    /// Forces everything appended so far to stable storage. A no-op when no
    /// append happened since the last sync, so issuing a covering sync at a
    /// batch boundary that turned out to be read-only costs nothing.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        self.file.sync_data()?;
        self.metrics.wal_syncs.inc();
        self.appends_since_sync = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_core::Timestamp;
    use rdht_hashing::{HashId, Key};

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("rdht-wal-test-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A fresh writer at `path` and the handles it counts into.
    fn writer(path: &Path) -> (WalWriter, StorageMetrics) {
        let metrics = StorageMetrics::default();
        let wal = WalWriter::create(path.to_path_buf(), &metrics).unwrap();
        (wal, metrics)
    }

    /// Replays `path`, collecting the ops it applies.
    fn replay_all(path: &Path) -> (Vec<StorageOp>, WalReplay) {
        let mut ops = Vec::new();
        let replayed = replay(path, |op| ops.push(op)).unwrap();
        assert_eq!(replayed.applied, ops.len() as u64);
        (ops, replayed)
    }

    fn sample_ops(n: u64) -> Vec<StorageOp> {
        (0..n)
            .map(|i| StorageOp::PutReplica {
                hash: HashId((i % 5) as u32),
                key: Key::new(format!("key-{i}")),
                payload: vec![i as u8; 9],
                stamp: Timestamp(i + 1),
                position: i * 1000,
            })
            .collect()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("round-trip");
        let ops = sample_ops(20);
        {
            let (mut wal, _) = writer(&path);
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        let (replayed_ops, replayed) = replay_all(&path);
        assert_eq!(replayed_ops, ops);
        assert!(!replayed.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_wal_replays_empty() {
        let (ops, replayed) = replay_all(Path::new("/nonexistent/definitely/missing.log"));
        assert!(ops.is_empty());
        assert_eq!(replayed, WalReplay::default());
    }

    #[test]
    fn a_frame_that_checksums_but_does_not_decode_ends_the_prefix() {
        let path = temp_path("undecodable");
        let ops = sample_ops(4);
        let (mut wal, metrics) = writer(&path);
        for op in &ops {
            wal.append(op).unwrap();
        }
        let prefix_len = metrics.wal_bytes.get();
        drop(wal);
        // A well-framed record with an op tag no version ever wrote, then
        // one more good record that must not be reached.
        let mut tail = Vec::new();
        crate::frame::append_frame(&mut tail, &[0xee, 1, 2, 3]);
        frame_with(&mut tail, |out| ops[0].encode(out));
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&tail).unwrap();
        drop(file);

        let (replayed_ops, replayed) = replay_all(&path);
        assert_eq!(replayed_ops, ops);
        assert_eq!(replayed.valid_len, prefix_len);
        assert!(replayed.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_defers_syncs_to_the_batch_boundary() {
        let path = temp_path("group-defer");
        let ops = sample_ops(10);
        let (mut wal, metrics) = writer(&path);
        for op in &ops {
            wal.append(op).unwrap();
        }
        assert_eq!(metrics.wal_syncs.get(), 0, "appends never sync");
        assert_eq!(wal.pending_appends(), 10);
        wal.sync().unwrap();
        assert_eq!(
            metrics.wal_syncs.get(),
            1,
            "one covering sync for the whole batch"
        );
        // A second sync at an empty boundary is free.
        wal.sync().unwrap();
        assert_eq!(metrics.wal_syncs.get(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn always_is_the_default_and_the_only_batching_policy() {
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::Always.batching(), Some(MAX_BATCH));
        assert_eq!(FsyncPolicy::Never.batching(), None);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let path = temp_path("torn");
        let ops = sample_ops(10);
        {
            let (mut wal, _) = writer(&path);
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        // Tear the final record: chop 3 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (replayed_ops, replayed) = replay_all(&path);
        assert_eq!(replayed_ops, ops[..9].to_vec());
        assert!(replayed.torn_tail);

        // Re-open for append: the torn bytes are discarded and a fresh
        // append lands on a record boundary.
        {
            let mut wal = WalWriter::open_after_replay(
                path.clone(),
                replayed.valid_len,
                &StorageMetrics::default(),
            )
            .unwrap();
            wal.append(&StorageOp::ClearCounters).unwrap();
        }
        let (after_ops, after) = replay_all(&path);
        assert_eq!(after_ops.len(), 10);
        assert_eq!(after_ops[9], StorageOp::ClearCounters);
        assert!(!after.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    /// The replay-truncate itself must be durable: reopen over a torn tail,
    /// then crash immediately (writer dropped, nothing appended, no sync
    /// beyond the one `open_after_replay` issues). The tail must stay gone —
    /// before the fix the `set_len` lived only in the page cache and a power
    /// loss could resurrect the discarded bytes under the next append.
    #[test]
    fn reopen_truncation_survives_an_immediate_crash() {
        let path = temp_path("truncate-crash");
        let ops = sample_ops(6);
        {
            let (mut wal, _) = writer(&path);
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 2).unwrap();
        drop(file);

        let (_, replayed) = replay_all(&path);
        assert!(replayed.torn_tail);
        {
            // Crash-at-truncate: the writer opens (truncating + fsyncing the
            // file and its directory) and is dropped without appending.
            let wal = WalWriter::open_after_replay(
                path.clone(),
                replayed.valid_len,
                &StorageMetrics::default(),
            )
            .unwrap();
            drop(wal);
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            replayed.valid_len,
            "the torn tail must be gone from the file itself"
        );
        let (after_ops, after) = replay_all(&path);
        assert_eq!(after_ops, ops[..5].to_vec());
        assert!(!after.torn_tail, "no resurrected tail bytes");

        // A reopen with a clean tail must not pay the truncate-sync path
        // (the length already matches) and must append correctly.
        {
            let mut wal = WalWriter::open_after_replay(
                path.clone(),
                after.valid_len,
                &StorageMetrics::default(),
            )
            .unwrap();
            wal.append(&StorageOp::ClearCounters).unwrap();
        }
        let (_, last) = replay_all(&path);
        assert_eq!(last.applied, 6);
        assert!(!last.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }
}
