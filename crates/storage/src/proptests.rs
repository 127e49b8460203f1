//! WAL robustness properties (the ISSUE 3 satellite):
//!
//! 1. for any random op sequence, `recover()` after a clean close equals the
//!    in-memory state built by applying the same ops;
//! 2. after truncating the log at *any* byte boundary, recovery still
//!    succeeds and yields a prefix of the op sequence.
//!
//! Group-commit properties (the ISSUE 5 satellite):
//!
//! 3. a random op sequence journaled through group-commit batches (any
//!    partition into batches) recovers to exactly the state of the per-op
//!    path;
//! 4. a crash *between* a batch's buffered write and its covering fsync —
//!    modelled as truncation at any byte of the log — loses at most a
//!    suffix of the op sequence: replay yields a valid prefix, never a torn
//!    interior record.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};

use crate::op::StorageOp;
use crate::state::MemoryState;
use crate::wal::{replay, FsyncPolicy, WalWriter};
use crate::{StorageEngine, StorageOptions};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rdht-storage-proptest-{}-{}-{tag}",
        std::process::id(),
        // relaxed: uniqueness needs only RMW atomicity, no ordering.
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Decodes one generated tuple into a `StorageOp`. Keys are drawn from a
/// small pool so removes/overwrites actually hit existing entries.
fn make_op(selector: u8, key_id: u8, hash: u8, a: u64, b: u64) -> StorageOp {
    let key = Key::new(format!("key-{}", key_id % 13));
    let hash = HashId(u32::from(hash % 6));
    match selector % 10 {
        // Puts dominate, as in a real workload.
        0..=4 => StorageOp::PutReplica {
            hash,
            key,
            payload: a.to_le_bytes()[..(b % 9) as usize].to_vec(),
            stamp: Timestamp(a % 1000),
            position: b,
        },
        5 => StorageOp::RemoveReplica { hash, key },
        6 => StorageOp::SetCounter {
            key,
            value: Timestamp(a % 1000),
        },
        7 => StorageOp::RemoveCounter { key },
        8 => StorageOp::TransferRange { start: a, end: b },
        _ => StorageOp::ClearCounters,
    }
}

fn ops_from(raw: &[(u8, u8, u8, u64, u64)]) -> Vec<StorageOp> {
    raw.iter()
        .map(|&(s, k, h, a, b)| make_op(s, k, h, a, b))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: clean close ≡ in-memory apply, through the full engine
    /// (WAL + auto-compaction), for any op sequence.
    #[test]
    fn recover_after_clean_close_equals_in_memory_state(
        raw in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
        snapshot_every in 0u64..40,
    ) {
        let ops = ops_from(&raw);
        let dir = fresh_dir("clean-close");
        let mut expected = MemoryState::new();
        {
            let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
            options.snapshot_every = snapshot_every;
            let mut engine = StorageEngine::open(&dir, options).unwrap();
            for op in &ops {
                expected.apply(op);
                engine.apply(op).unwrap();
            }
            engine.sync().unwrap();
        }
        let recovered = StorageEngine::recover_state(&dir).unwrap();
        prop_assert_eq!(&recovered.replicas, &expected.replicas);
        prop_assert_eq!(&recovered.counters, &expected.counters);
        // The cases do cross compactions: a first-generation log cannot be
        // shorter than the state it built, so the floor alone decides.
        let floor_reached = snapshot_every > 0 && ops.len() as u64 >= snapshot_every;
        prop_assert_eq!(recovered.generation > 0, floor_reached);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Property 2: truncating the WAL at any byte boundary still recovers,
    /// and yields exactly a prefix of the op sequence.
    #[test]
    fn truncated_wal_recovers_a_prefix(
        raw in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 1..40),
        cut_seed in any::<u64>(),
    ) {
        let ops = ops_from(&raw);
        let dir = fresh_dir("truncate");
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("wal-0000000000000000.log");
        {
            let mut wal = WalWriter::create(wal_path.clone(), FsyncPolicy::Never).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        let full_len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = cut_seed % (full_len + 1);
        {
            let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
            file.set_len(cut).unwrap();
        }

        // Raw replay yields a prefix…
        let replayed = replay(&wal_path).unwrap();
        prop_assert!(replayed.ops.len() <= ops.len());
        prop_assert_eq!(&replayed.ops[..], &ops[..replayed.ops.len()]);
        prop_assert!(replayed.valid_len <= cut);
        prop_assert_eq!(replayed.torn_tail, replayed.valid_len != cut);

        // …and full recovery applies exactly that prefix.
        let mut expected = MemoryState::new();
        for op in &ops[..replayed.ops.len()] {
            expected.apply(op);
        }
        let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
        prop_assert_eq!(&replicas, &expected.replicas);
        prop_assert_eq!(&counters, &expected.counters);

        // The engine reopens over the truncated log and keeps working.
        let mut engine = StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
        engine.apply(&StorageOp::ClearCounters).unwrap();
        engine.sync().unwrap();
        let recovered = StorageEngine::recover_state(&dir).unwrap();
        prop_assert_eq!(recovered.wal_ops, replayed.ops.len() as u64 + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Property 3: group-commit batching is invisible to recovery. The same
    /// op sequence journaled per-op and journaled through `apply_batch` under
    /// any random batch partition recovers to identical replica and counter
    /// state (and the batched log replays op-for-op identical).
    #[test]
    fn group_commit_partition_recovers_identically_to_per_op_path(
        raw in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
        cuts in vec(1usize..16, 0..24),
        snapshot_every in 0u64..40,
    ) {
        let ops = ops_from(&raw);
        let per_op_dir = fresh_dir("group-per-op");
        let batched_dir = fresh_dir("group-batched");
        {
            let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
            options.snapshot_every = snapshot_every;
            let mut engine = StorageEngine::open(&per_op_dir, options).unwrap();
            for op in &ops {
                engine.apply(op).unwrap();
            }
            engine.sync().unwrap();
        }
        {
            let mut options = StorageOptions::with_fsync(
                FsyncPolicy::group_commit(1 << 20, std::time::Duration::ZERO),
            );
            options.snapshot_every = snapshot_every;
            let mut engine = StorageEngine::open(&batched_dir, options).unwrap();
            // Partition the sequence into batches at the generated cut sizes
            // (whatever remains past the last cut is the final batch).
            let mut rest: &[crate::op::StorageOp] = &ops;
            for &cut in &cuts {
                let take = cut.min(rest.len());
                let (batch, tail) = rest.split_at(take);
                engine.apply_batch(batch.to_vec()).unwrap();
                rest = tail;
            }
            engine.apply_batch(rest.to_vec()).unwrap();
            engine.sync().unwrap();
        }
        let (expected_replicas, expected_counters) = StorageEngine::recover(&per_op_dir).unwrap();
        let (replicas, counters) = StorageEngine::recover(&batched_dir).unwrap();
        prop_assert_eq!(&replicas, &expected_replicas);
        prop_assert_eq!(&counters, &expected_counters);
        std::fs::remove_dir_all(&per_op_dir).unwrap();
        std::fs::remove_dir_all(&batched_dir).unwrap();
    }

    /// Property 4: a crash between a batch's buffered write and its covering
    /// fsync loses at most a suffix. The batch is written through
    /// `append_batch` but the file is then cut at an arbitrary byte (what a
    /// power loss may leave of the un-fsynced write); replay must yield a
    /// valid prefix of the full sequence — never a torn interior — and the
    /// engine must reopen over it and keep appending.
    #[test]
    fn crash_between_batch_write_and_fsync_loses_only_a_suffix(
        raw in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 1..60),
        synced_prefix in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let ops = ops_from(&raw);
        let dir = fresh_dir("batch-crash");
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("wal-0000000000000000.log");
        // A durable prefix (synced batches), then one final batch whose
        // covering fsync never happens.
        let split = (synced_prefix % (ops.len() as u64 + 1)) as usize;
        let synced_len;
        {
            let mut wal = WalWriter::create(
                wal_path.clone(),
                FsyncPolicy::group_commit(1 << 20, std::time::Duration::ZERO),
            ).unwrap();
            wal.append_batch(&ops[..split]).unwrap();
            synced_len = std::fs::metadata(&wal_path).unwrap().len();
            // The doomed batch: written, never explicitly synced again.
            for op in &ops[split..] {
                wal.append(op).unwrap();
            }
        }
        // Power loss: anything past what the covering sync made durable may
        // be gone — cut at an arbitrary byte at or beyond the synced prefix.
        let full_len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = synced_len + cut_seed % (full_len - synced_len + 1);
        {
            let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
            file.set_len(cut).unwrap();
        }

        let replayed = replay(&wal_path).unwrap();
        // At least the synced batches survive; at most a suffix is lost.
        prop_assert!(replayed.ops.len() >= split);
        prop_assert!(replayed.ops.len() <= ops.len());
        prop_assert_eq!(&replayed.ops[..], &ops[..replayed.ops.len()]);

        // Recovery applies exactly that prefix, and the engine reopens.
        let mut expected = MemoryState::new();
        for op in &ops[..replayed.ops.len()] {
            expected.apply(op);
        }
        let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
        prop_assert_eq!(&replicas, &expected.replicas);
        prop_assert_eq!(&counters, &expected.counters);
        let mut engine = StorageEngine::open(
            &dir,
            StorageOptions::with_fsync(FsyncPolicy::group_commit(64, std::time::Duration::ZERO)),
        ).unwrap();
        engine.apply_batch(vec![crate::op::StorageOp::ClearCounters]).unwrap();
        engine.sync().unwrap();
        let recovered = StorageEngine::recover_state(&dir).unwrap();
        prop_assert_eq!(recovered.wal_ops, replayed.ops.len() as u64 + 1);
        prop_assert!(!recovered.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
