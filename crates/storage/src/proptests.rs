//! WAL robustness properties (the ISSUE 3 satellite):
//!
//! 1. for any random op sequence, `recover()` after a clean close equals the
//!    in-memory state built by applying the same ops;
//! 2. after truncating the log at *any* byte boundary, recovery still
//!    succeeds and yields a prefix of the op sequence.
//!
//! Group commit:
//!
//! 3. a crash *between* a batch's appends and its covering fsync — modelled
//!    as truncation at any byte of the log past the synced prefix — loses at
//!    most a suffix of the op sequence: replay yields a valid prefix, never a
//!    torn interior record.
//!
//! Streaming recovery:
//!
//! 4. replay through the bounded reader gives the same ops, valid length and
//!    torn flag as a frame-by-frame walk of the whole file in memory, for the
//!    log cut at every byte, with a bit flipped in every byte, and with an
//!    undecodable record spliced in;
//! 5. a snapshot cut at any byte, with any one bit flipped, with a wrong
//!    footer count or with bytes after its footer is rejected whole, and
//!    recovery falls back to the previous generation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};

use crate::crc::crc32;
use crate::frame::{append_frame, frame_with, FRAME_HEADER_LEN, MAX_PAYLOAD_LEN};
use crate::op::StorageOp;
use crate::snapshot::{load_snapshot, write_snapshot};
use crate::state::MemoryState;
use crate::wal::{replay, FsyncPolicy, WalWriter};
use crate::{StorageEngine, StorageMetrics, StorageOptions};

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

/// The replay model: the whole log in memory, walked frame by frame. Returns
/// the ops of the valid prefix, its byte length, and whether bytes follow it.
fn model_replay(bytes: &[u8]) -> (Vec<StorageOp>, u64, bool) {
    let mut ops = Vec::new();
    let mut offset = 0;
    while bytes.len() - offset >= FRAME_HEADER_LEN {
        let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let (len, crc) = (field(offset), field(offset + 4));
        let body = offset + FRAME_HEADER_LEN;
        if len > MAX_PAYLOAD_LEN || len as usize > bytes.len() - body {
            break;
        }
        let payload = &bytes[body..body + len as usize];
        if crc32(payload) != crc {
            break;
        }
        let Some(op) = StorageOp::decode(payload) else {
            break;
        };
        ops.push(op);
        offset = body + len as usize;
    }
    (ops, offset as u64, offset != bytes.len())
}

/// `bytes` with one bit of byte `index` flipped, the bit drawn from `seed`.
fn flipped(bytes: &[u8], index: usize, seed: u64) -> Vec<u8> {
    let mut image = bytes.to_vec();
    image[index] ^= 1 << ((seed >> (index % 61)) & 7);
    image
}

fn state_of(ops: &[StorageOp]) -> MemoryState {
    let mut state = MemoryState::new();
    for op in ops {
        state.apply(op);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 4: streaming replay agrees with the frame-by-frame model on
    /// every damaged image of a log.
    #[test]
    fn streaming_replay_matches_a_frame_by_frame_model(
        raw in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 1..24),
        seed in any::<u64>(),
    ) {
        let ops = ops_from(&raw);
        let dir = fresh_dir("streaming-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0000000000000000.log");
        {
            let mut wal = WalWriter::create(path.clone(), &StorageMetrics::default()).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        // A record that checksums but does not decode, spliced in after an
        // op boundary: it ends the prefix as a torn tail would.
        let mut spliced = Vec::new();
        let splice_at = (seed % (ops.len() as u64 + 1)) as usize;
        for (index, op) in ops.iter().enumerate() {
            if index == splice_at {
                append_frame(&mut spliced, &[0xee, 1, 2]);
            }
            frame_with(&mut spliced, |out| op.encode(out));
        }
        let images = (0..=bytes.len())
            .map(|cut| bytes[..cut].to_vec())
            .chain((0..bytes.len()).map(|index| flipped(&bytes, index, seed)))
            .chain([spliced]);
        for image in images {
            std::fs::write(&path, &image).unwrap();
            let mut replayed_ops = Vec::new();
            let replayed = replay(&path, |op| replayed_ops.push(op)).unwrap();
            let (model_ops, valid_len, torn) = model_replay(&image);
            prop_assert_eq!(&replayed_ops, &model_ops);
            prop_assert_eq!(replayed.applied, model_ops.len() as u64);
            prop_assert_eq!(replayed.valid_len, valid_len);
            prop_assert_eq!(replayed.torn_tail, torn);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Property 5: a damaged newest snapshot is rejected whole, and
    /// recovery rebuilds the previous generation: its snapshot and its WAL.
    #[test]
    fn a_damaged_snapshot_is_rejected_whole_and_recovery_falls_back(
        raw in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..12),
        raw_wal in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 0..8),
        seed in any::<u64>(),
    ) {
        let (ops, wal_ops) = (ops_from(&raw), ops_from(&raw_wal));
        let dir = fresh_dir("damaged-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| dir.join(name);
        write_snapshot(&file("1.tmp"), &file("snapshot-0000000000000001.snap"), 1, &state_of(&ops))
            .unwrap();
        {
            let path = file("wal-0000000000000001.log");
            let mut wal = WalWriter::create(path, &StorageMetrics::default()).unwrap();
            for op in &wal_ops {
                wal.append(op).unwrap();
            }
        }
        let expected = state_of(&[ops, wal_ops.clone()].concat());
        let newest = file("snapshot-0000000000000002.snap");
        write_snapshot(&file("2.tmp"), &newest, 2, &expected).unwrap();
        prop_assert_eq!(load_snapshot(&newest).unwrap(), Some(expected.clone()));

        let bytes = std::fs::read(&newest).unwrap();
        let records = expected.records() as u64;
        let footer_at = bytes.len() - (FRAME_HEADER_LEN + 9);
        let miscounted = [records + 1, records.wrapping_sub(1), seed].into_iter()
            .filter(|&count| count != records)
            .map(|count| {
                let mut image = bytes[..footer_at].to_vec();
                let mut footer = vec![0xF1];
                footer.extend_from_slice(&count.to_le_bytes());
                append_frame(&mut image, &footer);
                image
            });
        // Whatever follows the footer, a whole frame or a torn one, is damage.
        let trailed = [&bytes[footer_at..], &bytes[footer_at..footer_at + 3]]
            .map(|tail| [&bytes[..], tail].concat());
        let images = (0..bytes.len())
            .map(|cut| bytes[..cut].to_vec())
            .chain((0..bytes.len()).map(|index| flipped(&bytes, index, seed)))
            .chain(miscounted)
            .chain(trailed);
        for image in images {
            std::fs::write(&newest, &image).unwrap();
            prop_assert_eq!(load_snapshot(&newest).unwrap(), None);
            let recovered = StorageEngine::recover_state(&dir).unwrap();
            prop_assert_eq!(recovered.generation, 1);
            prop_assert_eq!(recovered.wal_ops, wal_ops.len() as u64);
            prop_assert_eq!(&recovered.replicas, &expected.replicas);
            prop_assert_eq!(&recovered.counters, &expected.counters);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
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
            let mut wal = WalWriter::create(wal_path.clone(), &StorageMetrics::default()).unwrap();
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
        let mut replayed_ops = Vec::new();
        let replayed = replay(&wal_path, |op| replayed_ops.push(op)).unwrap();
        prop_assert!(replayed_ops.len() <= ops.len());
        prop_assert_eq!(&replayed_ops[..], &ops[..replayed_ops.len()]);
        prop_assert!(replayed.valid_len <= cut);
        prop_assert_eq!(replayed.torn_tail, replayed.valid_len != cut);

        // …and full recovery applies exactly that prefix.
        let mut expected = MemoryState::new();
        for op in &ops[..replayed_ops.len()] {
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
        prop_assert_eq!(recovered.wal_ops, replayed.applied + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Property 3: a crash between a batch's appends and its covering fsync
    /// loses at most a suffix. A prefix is appended op by op and covered by
    /// one sync; the rest is appended but never synced, and the file is then
    /// cut at an arbitrary byte past the synced prefix (what a power loss may
    /// leave of the un-fsynced writes). Replay must yield a valid prefix of
    /// the full sequence — never a torn interior — and the engine must reopen
    /// over it and keep appending.
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
            let mut wal = WalWriter::create(wal_path.clone(), &StorageMetrics::default()).unwrap();
            for op in &ops[..split] {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
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

        let mut replayed_ops = Vec::new();
        let replayed = replay(&wal_path, |op| replayed_ops.push(op)).unwrap();
        // At least the synced batches survive; at most a suffix is lost.
        prop_assert!(replayed_ops.len() >= split);
        prop_assert!(replayed_ops.len() <= ops.len());
        prop_assert_eq!(&replayed_ops[..], &ops[..replayed_ops.len()]);

        // Recovery applies exactly that prefix, and the engine reopens.
        let mut expected = MemoryState::new();
        for op in &ops[..replayed_ops.len()] {
            expected.apply(op);
        }
        let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
        prop_assert_eq!(&replicas, &expected.replicas);
        prop_assert_eq!(&counters, &expected.counters);
        let mut engine = StorageEngine::open(
            &dir,
            StorageOptions::with_fsync(FsyncPolicy::Always),
        ).unwrap();
        engine.apply(&StorageOp::ClearCounters).unwrap();
        engine.sync().unwrap();
        let recovered = StorageEngine::recover_state(&dir).unwrap();
        prop_assert_eq!(recovered.wal_ops, replayed.applied + 1);
        prop_assert!(!recovered.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
