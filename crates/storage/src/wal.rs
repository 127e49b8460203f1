//! The append-only write-ahead log.
//!
//! A WAL file is a sequence of CRC-framed [`StorageOp`] records
//! ([`crate::frame`]). Appending is buffered through a scratch `Vec` (one
//! `write_all` per op, no intermediate allocation per field) and flushed to
//! stable storage according to the [`FsyncPolicy`]. The writer counts its
//! appends, bytes and syncs into the [`StorageMetrics`] handles it is given.
//!
//! Replay walks the frames from the front and stops at the first record that
//! fails its checksum or decodes to garbage: everything before it is the
//! recovered prefix, everything after is a torn tail from an interrupted
//! append (or corruption) and is truncated away before the log is appended
//! to again.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::frame::{frame_with, read_frames, FRAME_HEADER_LEN};
use crate::metrics::StorageMetrics;
use crate::op::StorageOp;

/// When appended records are `fsync`ed to stable storage.
///
/// The knob exists so the durability *tax* can be quantified (see the
/// `storage` bench target): `Always` survives power loss at every op,
/// `EveryN` bounds the loss window to `n` ops, `GroupCommit` amortizes one
/// fsync over every op of a batch while still acknowledging each op only
/// after its covering sync, `Never` leaves flushing to the OS page cache
/// (process-crash-safe, power-loss-unsafe).
///
/// # Invariants
///
/// `EveryN(0)` and `GroupCommit { max_batch: 0 }` are degenerate — taken
/// literally they would never trigger a sync, silently downgrading the
/// policy to `Never`. Both are **normalized to `Always`** wherever a policy
/// enters the write path ([`FsyncPolicy::normalized`], applied by
/// [`WalWriter::create`] / [`WalWriter::open_after_replay`]): the zero case
/// reads as "no batching", and the safe meaning of "no batching" is a sync
/// per op, never no sync at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended op.
    #[default]
    Always,
    /// `fsync` after every `n` appended ops (and on explicit `sync`).
    /// `n == 0` is normalized to [`FsyncPolicy::Always`].
    EveryN(u64),
    /// Group commit: individual appends are *not* synced — the caller issues
    /// one covering [`WalWriter::sync`] at each batch boundary and
    /// acknowledges an op only after the sync that covers it. A peer's batch
    /// is what is already queued when it wakes; nothing waits for
    /// stragglers.
    ///
    /// `max_batch` is also a durability bound: should more than `max_batch`
    /// appends accumulate without an explicit sync, the writer forces one.
    /// `max_batch == 0` is normalized to [`FsyncPolicy::Always`].
    GroupCommit {
        /// Most appends one covering sync may span, and most requests one
        /// peer batch drains.
        max_batch: u64,
    },
    /// Never `fsync`; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// A group-commit policy, normalized (`max_batch == 0` becomes
    /// [`FsyncPolicy::Always`]).
    pub fn group_commit(max_batch: u64) -> Self {
        FsyncPolicy::GroupCommit { max_batch }.normalized()
    }

    /// Replaces the degenerate zero-bound variants (`EveryN(0)`,
    /// `GroupCommit { max_batch: 0 }`) with [`FsyncPolicy::Always`] — taken
    /// literally they would never sync, which is a silent `Never`.
    pub fn normalized(self) -> Self {
        match self {
            FsyncPolicy::EveryN(0) | FsyncPolicy::GroupCommit { max_batch: 0 } => {
                FsyncPolicy::Always
            }
            other => other,
        }
    }

    /// `max_batch` when this policy is group commit: the caller should batch
    /// up to that many queued ops and issue one covering sync per batch.
    pub fn batching(self) -> Option<u64> {
        match self.normalized() {
            FsyncPolicy::GroupCommit { max_batch } => Some(max_batch),
            _ => None,
        }
    }
}

/// Result of replaying one WAL file.
#[derive(Clone, Debug, Default)]
pub struct WalReplay {
    /// The decoded ops of the valid prefix, in append order.
    pub ops: Vec<StorageOp>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Whether bytes after the valid prefix had to be discarded (torn final
    /// record or corruption).
    pub torn_tail: bool,
}

/// Replays `path`. A missing file replays as empty (a fresh peer).
pub fn replay(path: &Path) -> io::Result<WalReplay> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut buf)?;
        }
        Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(error) => return Err(error),
    }
    let (payloads, mut valid_len, mut torn) = read_frames(&buf);
    let mut ops = Vec::with_capacity(payloads.len());
    let mut decoded_len = 0;
    for payload in payloads {
        match StorageOp::decode(payload) {
            Some(op) => {
                ops.push(op);
                decoded_len += FRAME_HEADER_LEN + payload.len();
            }
            None => {
                // A frame that checksums but does not decode: corruption (or
                // a future op tag). Keep the prefix before it.
                torn = true;
                valid_len = decoded_len;
                break;
            }
        }
    }
    Ok(WalReplay {
        ops,
        valid_len: valid_len as u64,
        torn_tail: torn,
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
    policy: FsyncPolicy,
    appends_since_sync: u64,
    metrics: StorageMetrics,
    scratch: Vec<u8>,
}

impl WalWriter {
    fn new(file: File, path: PathBuf, policy: FsyncPolicy, metrics: &StorageMetrics) -> Self {
        WalWriter {
            file,
            path,
            policy: policy.normalized(),
            appends_since_sync: 0,
            metrics: metrics.clone(),
            scratch: Vec::new(),
        }
    }

    /// Creates a fresh, empty WAL at `path` (truncating anything there) that
    /// counts into `metrics`.
    pub fn create(
        path: PathBuf,
        policy: FsyncPolicy,
        metrics: &StorageMetrics,
    ) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.sync_all()?;
        Ok(WalWriter::new(file, path, policy, metrics))
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
        policy: FsyncPolicy,
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
        Ok(WalWriter::new(file, path, policy, metrics))
    }

    /// The file path of this WAL.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The (normalized) fsync policy this writer applies.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Ops appended but not yet covered by a sync.
    pub fn pending_appends(&self) -> u64 {
        self.appends_since_sync
    }

    /// Appends one framed op and applies the fsync policy. The record is
    /// framed in place in the reused scratch buffer (header reserved up
    /// front, sealed after encoding) — no per-append allocation.
    ///
    /// Under [`FsyncPolicy::GroupCommit`] the append is **not** durable when
    /// this returns (unless the `max_batch` bound forced a sync): the caller
    /// owns the batch boundary and must call [`WalWriter::sync`] before
    /// acknowledging the op.
    pub fn append(&mut self, op: &StorageOp) -> io::Result<()> {
        self.scratch.clear();
        frame_with(&mut self.scratch, |out| op.encode(out));
        self.file.write_all(&self.scratch)?;
        self.appends_since_sync += 1;
        self.metrics.ops_appended.inc();
        self.metrics.wal_bytes.add(self.scratch.len() as u64);
        let due = match self.policy {
            FsyncPolicy::Always => true,
            // Group commit defers to the caller's covering sync; its bound
            // only backstops a caller that never issues one.
            FsyncPolicy::EveryN(n) | FsyncPolicy::GroupCommit { max_batch: n } => {
                self.appends_since_sync >= n
            }
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()
        } else {
            Ok(())
        }
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
    fn writer(path: &Path, policy: FsyncPolicy) -> (WalWriter, StorageMetrics) {
        let metrics = StorageMetrics::default();
        let wal = WalWriter::create(path.to_path_buf(), policy, &metrics).unwrap();
        (wal, metrics)
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
            let (mut wal, _) = writer(&path, FsyncPolicy::EveryN(4));
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops, ops);
        assert!(!replayed.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_wal_replays_empty() {
        let replayed = replay(Path::new("/nonexistent/definitely/missing.log")).unwrap();
        assert!(replayed.ops.is_empty());
        assert!(!replayed.torn_tail);
    }

    #[test]
    fn a_frame_that_checksums_but_does_not_decode_ends_the_prefix() {
        let path = temp_path("undecodable");
        let ops = sample_ops(4);
        let (mut wal, metrics) = writer(&path, FsyncPolicy::Never);
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

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops, ops);
        assert_eq!(replayed.valid_len, prefix_len);
        assert!(replayed.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_defers_syncs_to_the_batch_boundary() {
        let path = temp_path("group-defer");
        let ops = sample_ops(10);
        let (mut wal, metrics) = writer(&path, FsyncPolicy::group_commit(64));
        for op in &ops {
            wal.append(op).unwrap();
        }
        assert_eq!(
            metrics.wal_syncs.get(),
            0,
            "appends below max_batch never sync"
        );
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
    fn group_commit_max_batch_bound_forces_a_sync() {
        let path = temp_path("group-bound");
        let ops = sample_ops(9);
        let (mut wal, metrics) = writer(&path, FsyncPolicy::group_commit(4));
        for op in &ops {
            wal.append(op).unwrap();
        }
        // 9 appends against a bound of 4: forced syncs at 4 and 8.
        assert_eq!(metrics.wal_syncs.get(), 2);
        assert_eq!(wal.pending_appends(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degenerate_zero_bound_policies_normalize_to_always() {
        assert_eq!(FsyncPolicy::EveryN(0).normalized(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::group_commit(0), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::EveryN(3).normalized(), FsyncPolicy::EveryN(3));
        assert_eq!(FsyncPolicy::Always.batching(), None);
        assert_eq!(FsyncPolicy::group_commit(8).batching(), Some(8));

        // EveryN(0) used to degrade to Never (appends never hit the `>= n`
        // threshold); normalized it syncs every op, like Always.
        let path = temp_path("every0");
        let (mut wal, metrics) = writer(&path, FsyncPolicy::EveryN(0));
        assert_eq!(wal.policy(), FsyncPolicy::Always);
        wal.append(&sample_ops(1)[0]).unwrap();
        assert_eq!(
            metrics.wal_syncs.get(),
            1,
            "EveryN(0) must sync per op, not never"
        );
        assert_eq!(wal.pending_appends(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let path = temp_path("torn");
        let ops = sample_ops(10);
        {
            let (mut wal, _) = writer(&path, FsyncPolicy::Never);
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

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops, ops[..9].to_vec());
        assert!(replayed.torn_tail);

        // Re-open for append: the torn bytes are discarded and a fresh
        // append lands on a record boundary.
        {
            let mut wal = WalWriter::open_after_replay(
                path.clone(),
                FsyncPolicy::Always,
                replayed.valid_len,
                &StorageMetrics::default(),
            )
            .unwrap();
            wal.append(&StorageOp::ClearCounters).unwrap();
        }
        let after = replay(&path).unwrap();
        assert_eq!(after.ops.len(), 10);
        assert_eq!(after.ops[9], StorageOp::ClearCounters);
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
            let (mut wal, _) = writer(&path, FsyncPolicy::Never);
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 2).unwrap();
        drop(file);

        let replayed = replay(&path).unwrap();
        assert!(replayed.torn_tail);
        {
            // Crash-at-truncate: the writer opens (truncating + fsyncing the
            // file and its directory) and is dropped without appending.
            let wal = WalWriter::open_after_replay(
                path.clone(),
                FsyncPolicy::Always,
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
        let after = replay(&path).unwrap();
        assert_eq!(after.ops, ops[..5].to_vec());
        assert!(!after.torn_tail, "no resurrected tail bytes");

        // A reopen with a clean tail must not pay the truncate-sync path
        // (the length already matches) and must append correctly.
        {
            let mut wal = WalWriter::open_after_replay(
                path.clone(),
                FsyncPolicy::Always,
                after.valid_len,
                &StorageMetrics::default(),
            )
            .unwrap();
            wal.append(&StorageOp::ClearCounters).unwrap();
        }
        let last = replay(&path).unwrap();
        assert_eq!(last.ops.len(), 6);
        assert!(!last.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }
}
