//! The on-disk format is frozen: `fixtures/pr13/` holds a snapshot and a WAL
//! written by the code as it stood before the snapshot writer streamed and
//! the checksum went eight bytes a step. They must keep recovering to the
//! state below, and today's writers must reproduce them byte for byte.

use std::path::{Path, PathBuf};

use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};

use crate::frame::append_frame;
use crate::op::StorageOp;
use crate::snapshot::{load_snapshot, write_snapshot};
use crate::state::MemoryState;
use crate::wal::{replay, FsyncPolicy, WalWriter};
use crate::{StorageEngine, StorageOptions};

const SNAPSHOT: &str = "snapshot-0000000000000003.snap";
const WAL: &str = "wal-0000000000000003.log";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/pr13")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdht-format-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn put(hash: u32, key: &str, len: usize, stamp: u64, position: u64) -> StorageOp {
    StorageOp::PutReplica {
        hash: HashId(hash),
        key: Key::new(key),
        payload: (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(stamp as u8))
            .collect(),
        stamp: Timestamp(stamp),
        position,
    }
}

/// The ops the snapshot fixture is the image of: payload lengths on both
/// sides of every multiple of the checksum's eight-byte step.
fn snapshot_ops() -> Vec<StorageOp> {
    let mut ops = Vec::new();
    for (i, len) in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300]
        .into_iter()
        .enumerate()
    {
        let i = i as u64;
        ops.push(put(
            (i % 5) as u32,
            &format!("key-{}", i % 7),
            len,
            i + 1,
            i * 1_000 + 17,
        ));
    }
    for (key, value) in [("key-0", 8), ("key-3", 11), ("gone", 1)] {
        ops.push(StorageOp::SetCounter {
            key: Key::new(key),
            value: Timestamp(value),
        });
    }
    ops.push(StorageOp::RemoveCounter {
        key: Key::new("gone"),
    });
    ops
}

/// The ops the WAL fixture holds, in order: every variant at least once.
fn wal_ops() -> Vec<StorageOp> {
    vec![
        put(0, "key-0", 33, 20, 17),
        put(4, "fresh", 5, 21, 123_456_789),
        StorageOp::RemoveReplica {
            hash: HashId(1),
            key: Key::new("key-1"),
        },
        StorageOp::SetCounter {
            key: Key::new("fresh"),
            value: Timestamp(21),
        },
        StorageOp::RemoveCounter {
            key: Key::new("key-3"),
        },
        StorageOp::TransferRange {
            start: 2_000,
            end: 4_017,
        },
        StorageOp::ClearCounters,
        StorageOp::SetCounter {
            key: Key::new("key-0"),
            value: Timestamp(22),
        },
        put(2, "key-2", 0, 22, 9_017),
    ]
}

fn state_of(ops: &[StorageOp]) -> MemoryState {
    let mut state = MemoryState::new();
    for op in ops {
        state.apply(op);
    }
    state
}

#[test]
fn fixtures_written_before_the_change_recover() {
    let dir = fixture_dir();
    let snapshot_state = state_of(&snapshot_ops());
    assert_eq!(
        load_snapshot(&dir.join(SNAPSHOT)).unwrap(),
        Some(snapshot_state.clone())
    );

    let replayed = replay(&dir.join(WAL)).unwrap();
    assert_eq!(replayed.ops, wal_ops());
    assert!(!replayed.torn_tail);
    assert_eq!(
        replayed.valid_len,
        std::fs::metadata(dir.join(WAL)).unwrap().len()
    );

    let mut expected = snapshot_state;
    for op in wal_ops() {
        expected.apply_owned(op);
    }
    let recovered = StorageEngine::recover_state(&dir).unwrap();
    assert_eq!(recovered.generation, 3);
    assert_eq!(recovered.wal_ops, wal_ops().len() as u64);
    assert!(!recovered.torn_tail);
    assert_eq!(recovered.replicas, expected.replicas);
    assert_eq!(recovered.counters, expected.counters);

    // Opened for writing (on a copy: open garbage-collects and appends), the
    // old generation takes new ops and the next compaction supersedes it.
    let copy = scratch_dir("open");
    for name in [SNAPSHOT, WAL] {
        std::fs::copy(dir.join(name), copy.join(name)).unwrap();
    }
    let mut engine =
        StorageEngine::open(&copy, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
    assert_eq!(engine.replicas(), &expected.replicas);
    let extra = put(1, "later", 12, 30, 5);
    engine.apply(&extra).unwrap();
    engine.compact().unwrap();
    drop(engine);
    expected.apply_owned(extra);
    let reopened = StorageEngine::recover_state(&copy).unwrap();
    assert_eq!(reopened.generation, 4);
    assert_eq!(reopened.replicas, expected.replicas);
    assert_eq!(reopened.counters, expected.counters);
    std::fs::remove_dir_all(&copy).unwrap();
}

#[test]
fn todays_writers_reproduce_the_fixtures_byte_for_byte() {
    let dir = fixture_dir();
    let out = scratch_dir("rewrite");

    let fin = out.join(SNAPSHOT);
    write_snapshot(
        &out.join("snapshot.tmp"),
        &fin,
        3,
        &state_of(&snapshot_ops()),
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&fin).unwrap(),
        std::fs::read(dir.join(SNAPSHOT)).unwrap()
    );

    let expected_wal = std::fs::read(dir.join(WAL)).unwrap();
    let per_op = out.join("per-op.log");
    let mut wal = WalWriter::create(per_op.clone(), FsyncPolicy::Never).unwrap();
    for op in wal_ops() {
        wal.append(&op).unwrap();
    }
    drop(wal);
    assert_eq!(std::fs::read(&per_op).unwrap(), expected_wal);

    let batched = out.join("batched.log");
    let mut wal = WalWriter::create(batched.clone(), FsyncPolicy::Never).unwrap();
    wal.append_batch(&wal_ops()).unwrap();
    drop(wal);
    assert_eq!(std::fs::read(&batched).unwrap(), expected_wal);
    std::fs::remove_dir_all(&out).unwrap();
}

/// A snapshot several write-chunks long is the same bytes as one assembled
/// record by record from owned ops — header, one framed op per replica then
/// per counter in store order, footer with the count.
#[test]
fn a_snapshot_written_in_chunks_equals_the_record_by_record_image() {
    let mut ops = Vec::new();
    for i in 0..700u64 {
        ops.push(put(
            (i % 5) as u32,
            &format!("big-{i}"),
            (i % 400) as usize,
            i,
            i << 20,
        ));
        if i % 3 == 0 {
            ops.push(StorageOp::SetCounter {
                key: Key::new(format!("big-{i}")),
                value: Timestamp(i),
            });
        }
    }
    let state = state_of(&ops);

    let mut reference = Vec::new();
    let mut header = vec![0xF0];
    header.extend_from_slice(b"RDHTSNAP");
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&9u64.to_le_bytes());
    append_frame(&mut reference, &header);
    let replicas = state
        .replicas
        .iter()
        .map(|(hash, key, replica)| StorageOp::PutReplica {
            hash,
            key: key.clone(),
            payload: replica.payload.clone(),
            stamp: replica.stamp,
            position: replica.position,
        });
    let counters = state
        .counters
        .iter()
        .map(|(key, value)| StorageOp::SetCounter {
            key: key.clone(),
            value,
        });
    let mut records = 0u64;
    for op in replicas.chain(counters) {
        let mut record = vec![0x01];
        op.encode(&mut record);
        append_frame(&mut reference, &record);
        records += 1;
    }
    let mut footer = vec![0xF1];
    footer.extend_from_slice(&records.to_le_bytes());
    append_frame(&mut reference, &footer);
    assert!(
        reference.len() > 2 * 64 * 1024,
        "spans several write chunks"
    );

    let out = scratch_dir("chunks");
    let fin = out.join("big.snap");
    write_snapshot(&out.join("big.tmp"), &fin, 9, &state).unwrap();
    assert!(std::fs::read(&fin).unwrap() == reference);
    assert_eq!(load_snapshot(&fin).unwrap(), Some(state));
    std::fs::remove_dir_all(&out).unwrap();
}
