//! The materialized peer state a journal rebuilds: replicas (in the
//! workspace's one replica table, `rdht_overlay::PeerStore`) and counters.
//!
//! [`MemoryState::apply`] is the single definition of what each
//! [`StorageOp`] *means*. The engine routes every accepted mutation through
//! it before journaling, and recovery routes every replayed op through it —
//! so the in-memory state and the recovered state can only agree.

use std::collections::BTreeMap;

use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};
use rdht_overlay::{PeerStore, Record, WritePolicy};

use crate::op::StorageOp;

/// The durable per-key counters of one peer (the persistent image of its
/// Valid Counter Set).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    map: BTreeMap<Key, Timestamp>,
}

impl CounterSet {
    /// An empty set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set holds no counters.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counter value for `key`, if present.
    pub fn value(&self, key: &Key) -> Option<Timestamp> {
        self.map.get(key).copied()
    }

    /// Sets the counter for `key` to `value`.
    pub fn set(&mut self, key: Key, value: Timestamp) {
        self.map.insert(key, value);
    }

    /// Removes the counter for `key`.
    pub fn remove(&mut self, key: &Key) -> Option<Timestamp> {
        self.map.remove(key)
    }

    /// Removes every counter.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over the counters.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, Timestamp)> {
        self.map.iter().map(|(k, v)| (k, *v))
    }
}

/// A peer's full durable state: replicas + counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryState {
    /// The replica table. Its stamps are KTS timestamps.
    pub replicas: PeerStore,
    /// The counter set.
    pub counters: CounterSet,
}

impl MemoryState {
    /// An empty state.
    pub fn new() -> Self {
        MemoryState::default()
    }

    /// Live records held: replicas plus counters — the number of records a
    /// snapshot of this state writes.
    pub fn records(&self) -> usize {
        self.replicas.len() + self.counters.len()
    }

    /// Applies one op by value, moving its payload straight into the store —
    /// the allocation-free path for callers that own the op (the engine's
    /// journaling hooks, WAL replay). Semantics identical to
    /// [`MemoryState::apply`].
    pub fn apply_owned(&mut self, op: StorageOp) {
        match op {
            StorageOp::PutReplica {
                hash,
                key,
                payload,
                stamp,
                position,
            } => self.put_replica(hash, key, payload, stamp, position),
            StorageOp::SetCounter { key, value } => self.counters.set(key, value),
            // The remaining variants carry no bulk data (keys are Arc-backed,
            // cloning is a refcount bump): share the borrowed path.
            other => self.apply(&other),
        }
    }

    /// Stores a replica unconditionally: the journal records *accepted*
    /// writes, so replay never re-runs the stamp comparison.
    fn put_replica(
        &mut self,
        hash: HashId,
        key: Key,
        payload: Vec<u8>,
        stamp: Timestamp,
        position: u64,
    ) {
        let record = Record {
            payload,
            stamp: stamp.0,
            position,
        };
        self.replicas.put(hash, key, record, WritePolicy::Overwrite);
    }

    /// Applies one op — the shared semantics of journaling and replay.
    pub fn apply(&mut self, op: &StorageOp) {
        match op {
            StorageOp::PutReplica {
                hash,
                key,
                payload,
                stamp,
                position,
            } => self.put_replica(*hash, key.clone(), payload.clone(), *stamp, *position),
            StorageOp::RemoveReplica { hash, key } => {
                self.replicas.remove(*hash, key);
            }
            StorageOp::SetCounter { key, value } => self.counters.set(key.clone(), *value),
            StorageOp::RemoveCounter { key } => {
                self.counters.remove(key);
            }
            StorageOp::ClearCounters => self.counters.clear(),
            StorageOp::TransferRange { start, end } => {
                self.replicas.prune_range(*start, *end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_put_remove_and_counters() {
        let mut state = MemoryState::new();
        let k = Key::new("doc");
        state.apply(&StorageOp::PutReplica {
            hash: HashId(0),
            key: k.clone(),
            payload: b"v1".to_vec(),
            stamp: Timestamp(1),
            position: 10,
        });
        state.apply(&StorageOp::SetCounter {
            key: k.clone(),
            value: Timestamp(1),
        });
        assert_eq!(state.replicas.len(), 1);
        assert_eq!(state.counters.value(&k), Some(Timestamp(1)));
        state.apply(&StorageOp::RemoveReplica {
            hash: HashId(0),
            key: k.clone(),
        });
        state.apply(&StorageOp::RemoveCounter { key: k.clone() });
        assert!(state.replicas.is_empty());
        assert!(state.counters.is_empty());
    }

    #[test]
    fn transfer_range_matches_drain_semantics() {
        let mut state = MemoryState::new();
        for (name, position) in [("a", 100), ("b", 200), ("c", 300)] {
            state.apply(&StorageOp::PutReplica {
                hash: HashId(0),
                key: Key::new(name),
                payload: Vec::new(),
                stamp: Timestamp(1),
                position,
            });
        }
        let left_after = |start, end| {
            let mut pruned = state.clone();
            pruned.apply(&StorageOp::TransferRange { start, end });
            pruned.replicas.len()
        };
        assert_eq!(left_after(150, 250), 2);
        // Wrapped interval.
        assert_eq!(left_after(250, 150), 1);
        // Degenerate interval drains everything.
        assert_eq!(left_after(7, 7), 0);
        // Exclusive start, inclusive end.
        assert_eq!(left_after(100, 200), 2);
    }
}
