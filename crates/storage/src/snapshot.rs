//! Snapshot files: compacted images of a peer's full durable state.
//!
//! A snapshot uses the same CRC framing as the WAL. Its records are:
//!
//! 1. a header (`"RDHTSNAP"` magic, format version, generation number);
//! 2. one [`StorageOp`] per replica and per counter, rebuilding the state
//!    from empty;
//! 3. a footer carrying the op count.
//!
//! A snapshot is *valid* only if every frame checks out, the header and
//! footer are present, and the footer count matches — so a snapshot that was
//! torn mid-write (the crash-during-compaction case) is rejected as a whole
//! and recovery falls back to the previous generation, which is only deleted
//! after the new snapshot is fully on disk.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use crate::frame::{frame_with, read_frames};
use crate::op::{encode_put_replica, encode_set_counter, StorageOp};
use crate::state::MemoryState;

const MAGIC: &[u8; 8] = b"RDHTSNAP";
const VERSION: u32 = 1;
const TAG_HEADER: u8 = 0xF0;
const TAG_FOOTER: u8 = 0xF1;
const TAG_OP: u8 = 0x01;

/// Bytes of framed records gathered before each `write` of a snapshot: what
/// bounds compaction's memory to a constant (plus one record) instead of a
/// second copy of the state.
const WRITE_CHUNK_BYTES: usize = 64 * 1024;

/// Writes a snapshot of `state` to `tmp_path`, fsyncs it, then renames it
/// into place at `final_path` (rename is the atomic commit point).
///
/// Records are encoded from a borrow of the stores straight into the output
/// buffer, framed in place, and handed to the file a chunk at a time —
/// nothing of the state is cloned.
pub fn write_snapshot(
    tmp_path: &Path,
    final_path: &Path,
    generation: u64,
    state: &MemoryState,
) -> io::Result<()> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(tmp_path)?;
    let mut buf = Vec::with_capacity(WRITE_CHUNK_BYTES);
    let mut flush_full = |buf: &mut Vec<u8>| -> io::Result<()> {
        if buf.len() >= WRITE_CHUNK_BYTES {
            file.write_all(buf)?;
            buf.clear();
        }
        Ok(())
    };

    frame_with(&mut buf, |out| {
        out.push(TAG_HEADER);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&generation.to_le_bytes());
    });

    let mut records = 0u64;
    for (hash, key, replica) in state.replicas.iter() {
        frame_with(&mut buf, |out| {
            out.push(TAG_OP);
            encode_put_replica(
                out,
                hash,
                key,
                &replica.payload,
                replica.stamp,
                replica.position,
            );
        });
        records += 1;
        flush_full(&mut buf)?;
    }
    for (key, value) in state.counters.iter() {
        frame_with(&mut buf, |out| {
            out.push(TAG_OP);
            encode_set_counter(out, key, value);
        });
        records += 1;
        flush_full(&mut buf)?;
    }

    frame_with(&mut buf, |out| {
        out.push(TAG_FOOTER);
        out.extend_from_slice(&records.to_le_bytes());
    });
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp_path, final_path)?;
    Ok(())
}

/// Loads the snapshot at `path`. Returns `Ok(None)` when the file is absent
/// or fails validation (torn, truncated, wrong magic/version, bad count) —
/// the caller falls back to an older generation or an empty state.
pub fn load_snapshot(path: &Path) -> io::Result<Option<MemoryState>> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut buf)?;
        }
        Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(error) => return Err(error),
    }
    let (payloads, _, torn) = read_frames(&buf);
    if torn || payloads.len() < 2 {
        return Ok(None);
    }

    let header = payloads[0];
    if header.len() != 21
        || header[0] != TAG_HEADER
        || &header[1..9] != MAGIC
        || u32::from_le_bytes(header[9..13].try_into().expect("4 bytes")) != VERSION
    {
        return Ok(None);
    }

    let footer = payloads[payloads.len() - 1];
    if footer.len() != 9 || footer[0] != TAG_FOOTER {
        return Ok(None);
    }
    let declared = u64::from_le_bytes(footer[1..9].try_into().expect("8 bytes"));
    let op_payloads = &payloads[1..payloads.len() - 1];
    if declared != op_payloads.len() as u64 {
        return Ok(None);
    }

    let mut state = MemoryState::new();
    for payload in op_payloads {
        if payload.first() != Some(&TAG_OP) {
            return Ok(None);
        }
        match StorageOp::decode(&payload[1..]) {
            Some(op) => state.apply_owned(op),
            None => return Ok(None),
        }
    }
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_core::Timestamp;
    use rdht_hashing::{HashId, Key};
    use std::path::PathBuf;

    fn temp_pair(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        (
            dir.join(format!("rdht-snap-test-{pid}-{tag}.tmp")),
            dir.join(format!("rdht-snap-test-{pid}-{tag}.snap")),
        )
    }

    fn sample_state() -> MemoryState {
        let mut state = MemoryState::new();
        for i in 0..25u64 {
            state.apply(&StorageOp::PutReplica {
                hash: HashId((i % 4) as u32),
                key: Key::new(format!("key-{}", i / 4)),
                payload: vec![i as u8; 16],
                stamp: Timestamp(i + 1),
                position: i * 999,
            });
        }
        state.apply(&StorageOp::SetCounter {
            key: Key::new("key-0"),
            value: Timestamp(21),
        });
        state
    }

    #[test]
    fn snapshot_round_trips() {
        let (tmp, fin) = temp_pair("round-trip");
        let state = sample_state();
        write_snapshot(&tmp, &fin, 3, &state).unwrap();
        assert!(!tmp.exists(), "tmp file renamed away");
        let loaded = load_snapshot(&fin).unwrap().expect("valid snapshot");
        assert_eq!(loaded, state);
        std::fs::remove_file(&fin).unwrap();
    }

    #[test]
    fn empty_state_snapshot_round_trips() {
        let (tmp, fin) = temp_pair("empty");
        write_snapshot(&tmp, &fin, 0, &MemoryState::new()).unwrap();
        let loaded = load_snapshot(&fin).unwrap().expect("valid snapshot");
        assert_eq!(loaded, MemoryState::new());
        std::fs::remove_file(&fin).unwrap();
    }

    #[test]
    fn torn_snapshot_is_rejected_whole() {
        let (tmp, fin) = temp_pair("torn");
        let state = sample_state();
        write_snapshot(&tmp, &fin, 1, &state).unwrap();
        let len = std::fs::metadata(&fin).unwrap().len();
        // Chop off the footer (and a bit more): the snapshot must be
        // rejected entirely, not loaded as a partial state.
        let file = OpenOptions::new().write(true).open(&fin).unwrap();
        file.set_len(len - 12).unwrap();
        drop(file);
        assert_eq!(load_snapshot(&fin).unwrap(), None);
        std::fs::remove_file(&fin).unwrap();
    }

    #[test]
    fn missing_snapshot_loads_as_none() {
        assert_eq!(
            load_snapshot(Path::new("/nonexistent/none.snap")).unwrap(),
            None
        );
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let (tmp, fin) = temp_pair("magic");
        write_snapshot(&tmp, &fin, 1, &MemoryState::new()).unwrap();
        let mut bytes = std::fs::read(&fin).unwrap();
        // Corrupt the magic *and* fix up the frame CRC so only the magic
        // check can reject it.
        bytes[crate::frame::FRAME_HEADER_LEN + 1] = b'X';
        let payload_len = 21usize;
        let crc = crate::crc::crc32(
            &bytes[crate::frame::FRAME_HEADER_LEN..crate::frame::FRAME_HEADER_LEN + payload_len],
        );
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&fin, &bytes).unwrap();
        assert_eq!(load_snapshot(&fin).unwrap(), None);
        std::fs::remove_file(&fin).unwrap();
    }
}
