//! The materialized peer state a journal rebuilds: replicas and counters.
//!
//! [`MemoryState::apply`] is the single definition of what each
//! [`StorageOp`] *means*. The engine routes every accepted mutation through
//! it before journaling, and recovery routes every replayed op through it —
//! so the in-memory state and the recovered state can only agree.

use std::collections::BTreeMap;

use rdht_core::{ReplicaValue, Timestamp};
use rdht_hashing::{HashId, Key};

use crate::op::StorageOp;

/// One durable replica: payload, stamp and ring position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredReplica {
    /// Application payload.
    pub payload: Vec<u8>,
    /// Ordering stamp (a KTS timestamp).
    pub stamp: Timestamp,
    /// Ring position of the key under the hash function the replica is
    /// stored with; drives [`StorageOp::TransferRange`] replay.
    pub position: u64,
}

impl StoredReplica {
    /// View as the core [`ReplicaValue`] (clones the payload).
    pub fn to_replica_value(&self) -> ReplicaValue {
        ReplicaValue::new(self.payload.clone(), self.stamp)
    }
}

/// The durable replica table of one peer: `(hash, key) -> replica`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStore {
    map: BTreeMap<(HashId, Key), StoredReplica>,
}

impl ReplicaStore {
    /// An empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Number of stored replicas.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no replicas.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The replica stored under `(hash, key)`, if any. (The key clone is an
    /// `Arc` refcount bump, not a byte copy.)
    pub fn get(&self, hash: HashId, key: &Key) -> Option<&StoredReplica> {
        self.map.get(&(hash, key.clone()))
    }

    /// Stores a replica unconditionally (the journal records *accepted*
    /// writes, so replay never needs to re-run the stamp comparison).
    pub fn put(&mut self, hash: HashId, key: Key, replica: StoredReplica) {
        self.map.insert((hash, key), replica);
    }

    /// Removes the replica under `(hash, key)`, returning it.
    pub fn remove(&mut self, hash: HashId, key: &Key) -> Option<StoredReplica> {
        self.map.remove(&(hash, key.clone()))
    }

    /// Iterates over every stored replica.
    pub fn iter(&self) -> impl Iterator<Item = (HashId, &Key, &StoredReplica)> {
        self.map
            .iter()
            .map(|((hash, key), replica)| (*hash, key, replica))
    }

    /// Removes every replica whose position falls in the half-open ring
    /// interval `(start, end]`; `start == end` denotes the whole ring. The
    /// semantics mirror `rdht_overlay::PeerStore::drain_range`, so a
    /// journaled drain replays to the same surviving set.
    pub fn remove_range(&mut self, start: u64, end: u64) -> usize {
        let covered = |position: u64| {
            if start == end {
                true
            } else if start < end {
                position > start && position <= end
            } else {
                position > start || position <= end
            }
        };
        let before = self.map.len();
        self.map.retain(|_, replica| !covered(replica.position));
        before - self.map.len()
    }
}

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
    /// The replica table.
    pub replicas: ReplicaStore,
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
            } => self.replicas.put(
                hash,
                key,
                StoredReplica {
                    payload,
                    stamp,
                    position,
                },
            ),
            StorageOp::SetCounter { key, value } => self.counters.set(key, value),
            // The remaining variants carry no bulk data (keys are Arc-backed,
            // cloning is a refcount bump): share the borrowed path.
            other => self.apply(&other),
        }
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
            } => self.replicas.put(
                *hash,
                key.clone(),
                StoredReplica {
                    payload: payload.clone(),
                    stamp: *stamp,
                    position: *position,
                },
            ),
            StorageOp::RemoveReplica { hash, key } => {
                self.replicas.remove(*hash, key);
            }
            StorageOp::SetCounter { key, value } => self.counters.set(key.clone(), *value),
            StorageOp::RemoveCounter { key } => {
                self.counters.remove(key);
            }
            StorageOp::ClearCounters => self.counters.clear(),
            StorageOp::TransferRange { start, end } => {
                self.replicas.remove_range(*start, *end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(stamp: u64, position: u64) -> StoredReplica {
        StoredReplica {
            payload: vec![stamp as u8],
            stamp: Timestamp(stamp),
            position,
        }
    }

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
        let mut store = ReplicaStore::new();
        store.put(HashId(0), Key::new("a"), replica(1, 100));
        store.put(HashId(0), Key::new("b"), replica(2, 200));
        store.put(HashId(0), Key::new("c"), replica(3, 300));
        assert_eq!(store.clone().remove_range(150, 250), 1);
        // Wrapped interval.
        assert_eq!(store.clone().remove_range(250, 150), 2);
        // Degenerate interval drains everything.
        assert_eq!(store.clone().remove_range(7, 7), 3);
        // Exclusive start, inclusive end.
        assert_eq!(store.clone().remove_range(100, 200), 1);
    }
}
