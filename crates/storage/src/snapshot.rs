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

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;

use rdht_core::Timestamp;

use crate::frame::{frame_with, FrameReader, FRAME_HEADER_LEN, WRITE_CHUNK_BYTES};
use crate::op::{
    encode_put_replica, encode_set_counter, put_replica_len, set_counter_len, StorageOp,
};
use crate::state::MemoryState;

const MAGIC: &[u8; 8] = b"RDHTSNAP";
const VERSION: u32 = 1;
const TAG_HEADER: u8 = 0xF0;
const TAG_FOOTER: u8 = 0xF1;
const TAG_OP: u8 = 0x01;
const HEADER_LEN: usize = 1 + 8 + 4 + 8;
const FOOTER_LEN: usize = 1 + 8;

/// Frames records into one buffer of [`WRITE_CHUNK_BYTES`] and hands it to
/// `out` before the next record would overflow it. A record larger than the
/// chunk is framed into a buffer of its own and written alone, so the chunk
/// never grows.
struct ChunkWriter<W> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> ChunkWriter<W> {
    fn new(out: W) -> Self {
        ChunkWriter {
            out,
            buf: Vec::with_capacity(WRITE_CHUNK_BYTES),
        }
    }

    /// Appends one record whose `payload_len` bytes `encode` appends.
    fn record(&mut self, payload_len: usize, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let framed = FRAME_HEADER_LEN + payload_len;
        if self.buf.len() + framed > WRITE_CHUNK_BYTES {
            self.flush()?;
        }
        if framed > WRITE_CHUNK_BYTES {
            let mut alone = Vec::with_capacity(framed);
            frame_with(&mut alone, encode);
            debug_assert_eq!(alone.len(), framed, "payload_len is the encoded length");
            return self.out.write_all(&alone);
        }
        let before = self.buf.len();
        frame_with(&mut self.buf, encode);
        debug_assert_eq!(
            self.buf.len() - before,
            framed,
            "payload_len is the encoded length"
        );
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Writes what the buffer still holds and returns the output.
    fn finish(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.out)
    }
}

/// Writes a snapshot of `state` to `tmp_path`, fsyncs it, then renames it
/// into place at `final_path` (rename is the atomic commit point).
///
/// Records are encoded from borrowed views of the stores straight into one
/// chunk buffer, framed in place, and handed to the file a chunk at a time —
/// nothing of the state is cloned or listed. Replicas are written by hash
/// function, then by key (the replica table's iteration order), so the bytes
/// depend only on the state.
pub fn write_snapshot(
    tmp_path: &Path,
    final_path: &Path,
    generation: u64,
    state: &MemoryState,
) -> io::Result<()> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(tmp_path)?;
    let mut writer = ChunkWriter::new(file);
    writer.record(HEADER_LEN, |out| {
        out.push(TAG_HEADER);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&generation.to_le_bytes());
    })?;

    let mut records = 0u64;
    for (hash, key, replica) in state.replicas.iter() {
        let len = 1 + put_replica_len(key, replica.payload);
        writer.record(len, |out| {
            out.push(TAG_OP);
            encode_put_replica(
                out,
                hash,
                key,
                replica.payload,
                Timestamp(replica.stamp),
                replica.position,
            );
        })?;
        records += 1;
    }
    for (key, value) in state.counters.iter() {
        writer.record(1 + set_counter_len(key), |out| {
            out.push(TAG_OP);
            encode_set_counter(out, key, value);
        })?;
        records += 1;
    }

    writer.record(FOOTER_LEN, |out| {
        out.push(TAG_FOOTER);
        out.extend_from_slice(&records.to_le_bytes());
    })?;
    let file = writer.finish()?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp_path, final_path)?;
    Ok(())
}

/// Loads the snapshot at `path`. Returns `Ok(None)` when the file is absent
/// or fails validation (torn, truncated, wrong magic/version, bad count) —
/// the caller falls back to an older generation or an empty state.
///
/// The file is read through one bounded `FrameReader` and each op is
/// applied to a fresh state as soon as its frame checks out; a snapshot
/// found invalid anywhere, up to its last byte, is dropped whole.
pub fn load_snapshot(path: &Path) -> io::Result<Option<MemoryState>> {
    let Some(mut frames) = FrameReader::open(path)? else {
        return Ok(None);
    };
    let header_ok = frames.next_frame()?.is_some_and(|header| {
        header.len() == HEADER_LEN
            && header[0] == TAG_HEADER
            && &header[1..9] == MAGIC
            && u32::from_le_bytes(header[9..13].try_into().expect("4 bytes")) == VERSION
    });
    if !header_ok {
        return Ok(None);
    }

    let mut state = MemoryState::new();
    let mut ops = 0u64;
    loop {
        let Some(payload) = frames.next_frame()? else {
            // The walk ended without a footer: torn.
            return Ok(None);
        };
        match payload.first() {
            Some(&TAG_OP) => match StorageOp::decode(&payload[1..]) {
                Some(op) => state.apply_owned(op),
                None => return Ok(None),
            },
            Some(&TAG_FOOTER) if payload.len() == FOOTER_LEN => {
                let declared = u64::from_le_bytes(payload[1..].try_into().expect("8 bytes"));
                // The footer must close the file: nothing, torn or not, after it.
                let closes = declared == ops && frames.next_frame()?.is_none() && !frames.torn();
                return Ok(closes.then_some(state));
            }
            _ => return Ok(None),
        }
        ops += 1;
    }
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

    /// Records straddling the chunk boundary flush the chunk before they
    /// would overflow it, and a record larger than the chunk is written on
    /// its own: the buffer keeps its capacity throughout, and the output is
    /// every record framed back to back.
    #[test]
    fn the_chunk_writer_never_grows_its_buffer() {
        let mut writer = ChunkWriter::new(Vec::new());
        let mut expected = Vec::new();
        let payloads = (0..70u32)
            .map(|i| vec![i as u8; 1_000 + 37 * i as usize])
            .chain([
                vec![0xab; 200 * 1024],
                vec![0xcd; WRITE_CHUNK_BYTES - FRAME_HEADER_LEN],
            ])
            .chain((0..5u32).map(|i| vec![i as u8; 9_000]));
        for payload in payloads {
            writer
                .record(payload.len(), |out| out.extend_from_slice(&payload))
                .unwrap();
            crate::frame::append_frame(&mut expected, &payload);
            assert_eq!(writer.buf.capacity(), WRITE_CHUNK_BYTES);
            assert!(writer.buf.len() <= WRITE_CHUNK_BYTES);
        }
        assert_eq!(writer.finish().unwrap(), expected);
    }

    /// A replica larger than the chunk still round-trips through a snapshot,
    /// between records that fill chunks around it.
    #[test]
    fn a_record_larger_than_the_chunk_round_trips() {
        let (tmp, fin) = temp_pair("large-record");
        let mut state = sample_state();
        for (i, len) in [200 * 1024, 60 * 1024, WRITE_CHUNK_BYTES, 7]
            .into_iter()
            .enumerate()
        {
            state.apply(&StorageOp::PutReplica {
                hash: HashId(i as u32),
                key: Key::new(format!("large-{i}")),
                payload: vec![i as u8 + 1; len],
                stamp: Timestamp(99),
                position: 5,
            });
        }
        write_snapshot(&tmp, &fin, 4, &state).unwrap();
        assert_eq!(load_snapshot(&fin).unwrap(), Some(state));
        std::fs::remove_file(&fin).unwrap();
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
