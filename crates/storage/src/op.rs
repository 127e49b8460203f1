//! The logged operations and their binary codec.
//!
//! A [`StorageOp`] is one accepted mutation of a peer's durable state — the
//! unit both the write-ahead log and the snapshot files are made of. The
//! codec is a fixed little-endian layout (1-byte tag, `u32`/`u64` scalars,
//! `u32`-length-prefixed byte strings); it has no self-description because
//! every record is already CRC-framed by [`crate::frame`] and versioned by
//! the snapshot header.

use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};

/// One journaled mutation of a peer's replica store or counter set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageOp {
    /// An accepted replica write: `(hash, key)` now stores `payload` stamped
    /// `stamp`, at ring position `position`.
    PutReplica {
        /// Replication hash function the replica is stored under.
        hash: HashId,
        /// The application key.
        key: Key,
        /// Replica payload.
        payload: Vec<u8>,
        /// Ordering stamp (a KTS timestamp).
        stamp: Timestamp,
        /// Ring position of the key under `hash`.
        position: u64,
    },
    /// The replica under `(hash, key)` was removed. No write path journals
    /// it today; it stays in the on-disk format so journals that hold it
    /// still decode and replay.
    RemoveReplica {
        /// Replication hash function.
        hash: HashId,
        /// The application key.
        key: Key,
    },
    /// The valid counter for `key` now holds `value`.
    SetCounter {
        /// The application key.
        key: Key,
        /// Resulting counter value.
        value: Timestamp,
    },
    /// The counter for `key` left the valid set.
    RemoveCounter {
        /// The application key.
        key: Key,
    },
    /// Every counter left the valid set (Rule 1: the peer re-joined).
    ClearCounters,
    /// Responsibility for the ring interval `(start, end]` was handed away;
    /// every replica whose position falls in it was transferred out.
    TransferRange {
        /// Exclusive interval start.
        start: u64,
        /// Inclusive interval end. `start == end` denotes the whole ring
        /// (the single-node degenerate case); replay is
        /// `rdht_overlay::PeerStore::prune_range`.
        end: u64,
    },
}

const TAG_PUT_REPLICA: u8 = 1;
const TAG_REMOVE_REPLICA: u8 = 2;
const TAG_SET_COUNTER: u8 = 3;
const TAG_REMOVE_COUNTER: u8 = 4;
const TAG_CLEAR_COUNTERS: u8 = 5;
const TAG_TRANSFER_RANGE: u8 = 6;

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends the encoding of a [`StorageOp::PutReplica`] from borrowed fields,
/// so a snapshot can stream a stored replica without first building (and
/// cloning the payload into) an owned op.
pub(crate) fn encode_put_replica(
    out: &mut Vec<u8>,
    hash: HashId,
    key: &Key,
    payload: &[u8],
    stamp: Timestamp,
    position: u64,
) {
    out.push(TAG_PUT_REPLICA);
    out.extend_from_slice(&hash.0.to_le_bytes());
    out.extend_from_slice(&stamp.0.to_le_bytes());
    out.extend_from_slice(&position.to_le_bytes());
    put_bytes(out, key.as_bytes());
    put_bytes(out, payload);
}

/// The bytes [`encode_put_replica`] appends for `key` and `payload`.
pub(crate) fn put_replica_len(key: &Key, payload: &[u8]) -> usize {
    1 + 4 + 8 + 8 + 4 + key.as_bytes().len() + 4 + payload.len()
}

/// Appends the encoding of a [`StorageOp::SetCounter`] from borrowed fields.
pub(crate) fn encode_set_counter(out: &mut Vec<u8>, key: &Key, value: Timestamp) {
    out.push(TAG_SET_COUNTER);
    out.extend_from_slice(&value.0.to_le_bytes());
    put_bytes(out, key.as_bytes());
}

/// The bytes [`encode_set_counter`] appends for `key`.
pub(crate) fn set_counter_len(key: &Key) -> usize {
    1 + 8 + 4 + key.as_bytes().len()
}

/// Little-endian, bounds-checked cursor over an encoded op.
struct Cursor<'a> {
    buf: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.offset)?;
        self.offset += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.offset.checked_add(4)?;
        let v = u32::from_le_bytes(self.buf.get(self.offset..end)?.try_into().ok()?);
        self.offset = end;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.offset.checked_add(8)?;
        let v = u64::from_le_bytes(self.buf.get(self.offset..end)?.try_into().ok()?);
        self.offset = end;
        Some(v)
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let end = self.offset.checked_add(len)?;
        let v = self.buf.get(self.offset..end)?;
        self.offset = end;
        Some(v)
    }

    fn key(&mut self) -> Option<Key> {
        Some(Key::from_bytes(self.bytes()?.to_vec()))
    }

    fn finish(self) -> bool {
        self.offset == self.buf.len()
    }
}

impl StorageOp {
    /// Appends the encoded op to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StorageOp::PutReplica {
                hash,
                key,
                payload,
                stamp,
                position,
            } => encode_put_replica(out, *hash, key, payload, *stamp, *position),
            StorageOp::RemoveReplica { hash, key } => {
                out.push(TAG_REMOVE_REPLICA);
                out.extend_from_slice(&hash.0.to_le_bytes());
                put_bytes(out, key.as_bytes());
            }
            StorageOp::SetCounter { key, value } => encode_set_counter(out, key, *value),
            StorageOp::RemoveCounter { key } => {
                out.push(TAG_REMOVE_COUNTER);
                put_bytes(out, key.as_bytes());
            }
            StorageOp::ClearCounters => out.push(TAG_CLEAR_COUNTERS),
            StorageOp::TransferRange { start, end } => {
                out.push(TAG_TRANSFER_RANGE);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
            }
        }
    }

    /// The encoded form as an owned buffer.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes one op from `buf`. `None` means the payload is malformed
    /// (unknown tag, short read, trailing garbage) — callers treat that as
    /// corruption and stop replaying.
    pub fn decode(buf: &[u8]) -> Option<StorageOp> {
        let mut cursor = Cursor { buf, offset: 0 };
        let op = match cursor.u8()? {
            TAG_PUT_REPLICA => {
                let hash = HashId(cursor.u32()?);
                let stamp = Timestamp(cursor.u64()?);
                let position = cursor.u64()?;
                let key = cursor.key()?;
                let payload = cursor.bytes()?.to_vec();
                StorageOp::PutReplica {
                    hash,
                    key,
                    payload,
                    stamp,
                    position,
                }
            }
            TAG_REMOVE_REPLICA => {
                let hash = HashId(cursor.u32()?);
                let key = cursor.key()?;
                StorageOp::RemoveReplica { hash, key }
            }
            TAG_SET_COUNTER => {
                let value = Timestamp(cursor.u64()?);
                let key = cursor.key()?;
                StorageOp::SetCounter { key, value }
            }
            TAG_REMOVE_COUNTER => StorageOp::RemoveCounter { key: cursor.key()? },
            TAG_CLEAR_COUNTERS => StorageOp::ClearCounters,
            TAG_TRANSFER_RANGE => StorageOp::TransferRange {
                start: cursor.u64()?,
                end: cursor.u64()?,
            },
            _ => return None,
        };
        cursor.finish().then_some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(op: StorageOp) {
        let encoded = op.encode_to_vec();
        assert_eq!(StorageOp::decode(&encoded), Some(op));
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(StorageOp::PutReplica {
            hash: HashId(3),
            key: Key::new("doc"),
            payload: b"payload bytes".to_vec(),
            stamp: Timestamp(42),
            position: 0xdead_beef_cafe_f00d,
        });
        round_trip(StorageOp::PutReplica {
            hash: HashId(u32::MAX),
            key: Key::from_bytes(vec![]),
            payload: vec![],
            stamp: Timestamp(u64::MAX),
            position: 0,
        });
        round_trip(StorageOp::RemoveReplica {
            hash: HashId(7),
            key: Key::new("gone"),
        });
        round_trip(StorageOp::SetCounter {
            key: Key::new("k"),
            value: Timestamp(17),
        });
        round_trip(StorageOp::RemoveCounter { key: Key::new("k") });
        round_trip(StorageOp::ClearCounters);
        round_trip(StorageOp::TransferRange {
            start: 5,
            end: u64::MAX,
        });
    }

    #[test]
    fn unknown_tag_and_trailing_garbage_are_rejected() {
        assert_eq!(StorageOp::decode(&[99]), None);
        assert_eq!(StorageOp::decode(&[]), None);
        let mut encoded = StorageOp::ClearCounters.encode_to_vec();
        encoded.push(0);
        assert_eq!(StorageOp::decode(&encoded), None);
    }

    #[test]
    fn truncated_encodings_are_rejected() {
        let encoded = StorageOp::PutReplica {
            hash: HashId(3),
            key: Key::new("doc"),
            payload: b"xyz".to_vec(),
            stamp: Timestamp(1),
            position: 9,
        }
        .encode_to_vec();
        for cut in 0..encoded.len() {
            assert_eq!(StorageOp::decode(&encoded[..cut]), None, "cut at {cut}");
        }
    }
}
