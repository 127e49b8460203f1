//! The replica table of one peer.
//!
//! Every peer stores the `(k, {data, stamp})` pairs it is responsible for,
//! one entry per `(hash function, key)` pair (a peer can be responsible for
//! the same key under several replication hash functions). The *stamp* is an
//! opaque `u64` interpreted by the layer above: UMS stores KTS timestamps in
//! it, the BRK baseline stores version numbers.
//!
//! Both peer models use this one table: the simulator's peers hold a
//! [`PeerStore`] per algorithm universe, a live peer's
//! `rdht_storage::MemoryState` holds one that its journal rebuilds, and
//! hand-offs ship [`Record`]s between them — the same `rdht_net::handoff`
//! phases for both, unjournaled in the simulator and journaled live.
//!
//! The table owns the paper's `put_h` rule (Section 3.2): a write replaces
//! the held record only if its stamp is greater ([`PeerStore::accepts`]).
//! `put` with [`WritePolicy::KeepNewest`], the live peer's `put_h` and a
//! hand-off's install all decide by it.
//!
//! The table is one ordered map from `(hash, key)` to the record, so its
//! iteration order — and with it equality, a snapshot's bytes and a
//! hand-off's order — depends only on the contents, never on the history of
//! writes. [`PeerStore::drain_range`] scans the whole table: a range moves
//! only on a join or a leave.

use std::collections::BTreeMap;

use rdht_hashing::{HashId, Key};

use crate::id::in_open_closed_interval;

/// How a write should treat an existing entry for the same `(hash, key)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Keep whichever record has the greater stamp (UMS semantics: a peer
    /// receiving `(k, {data, ts})` only overwrites if `ts > ts0`,
    /// Section 3.2).
    KeepNewest,
    /// Unconditionally overwrite (used by maintenance/transfer paths, by
    /// journal replay — which records only accepted writes — and by stores
    /// that have no ordering, such as a naive DHT without currency).
    Overwrite,
}

/// One stored replica: the payload plus its stamp and the position of the
/// key under the hash function it was stored with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Application payload.
    pub payload: Vec<u8>,
    /// Ordering stamp (KTS timestamp for UMS, version counter for BRK).
    pub stamp: u64,
    /// Position of the key in the identifier space under the hash function
    /// the record was stored with; used to decide which records move when
    /// responsibility for a ring interval changes hands.
    pub position: u64,
}

/// The replica store of a single peer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerStore {
    records: BTreeMap<(HashId, Key), Record>,
}

impl PeerStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PeerStore::default()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a write of `stamp` for `(hash, key)` wins the `put_h`
    /// comparison: nothing is held, or the held record's stamp is smaller.
    /// An equal stamp loses — the held replica already reflects that update.
    pub fn accepts(&self, hash: HashId, key: &Key, stamp: u64) -> bool {
        self.get(hash, key).is_none_or(|held| stamp > held.stamp)
    }

    /// Inserts or merges a record according to `policy`. Returns `true` if
    /// the store was modified.
    pub fn put(&mut self, hash: HashId, key: Key, record: Record, policy: WritePolicy) -> bool {
        if policy == WritePolicy::KeepNewest && !self.accepts(hash, &key, record.stamp) {
            return false;
        }
        self.records.insert((hash, key), record);
        true
    }

    /// Reads the record stored for `(hash, key)`, if any. (The key clone is
    /// an `Arc` refcount bump, not a byte copy.)
    pub fn get(&self, hash: HashId, key: &Key) -> Option<&Record> {
        self.records.get(&(hash, key.clone()))
    }

    /// Removes the record stored for `(hash, key)`, returning it.
    pub fn remove(&mut self, hash: HashId, key: &Key) -> Option<Record> {
        self.records.remove(&(hash, key.clone()))
    }

    /// Iterates over all records, by hash function and then by key.
    pub fn iter(&self) -> impl Iterator<Item = (HashId, &Key, &Record)> {
        self.records
            .iter()
            .map(|((hash, key), record)| (*hash, key, record))
    }

    /// Drains every record whose position falls inside the half-open ring
    /// interval `(range_start, range_end]`; `range_start == range_end`
    /// denotes the whole ring (the single-node case). Used when
    /// responsibility for that interval moves to another peer (join /
    /// graceful leave). The drained records come out in iteration order.
    pub fn drain_range(&mut self, range_start: u64, range_end: u64) -> Vec<(HashId, Key, Record)> {
        self.records
            .extract_if(.., |_, record| {
                in_open_closed_interval(range_start, range_end, record.position)
            })
            .map(|((hash, key), record)| (hash, key, record))
            .collect()
    }

    /// Loads a batch of records, overwriting (last write wins for duplicate
    /// `(hash, key)` pairs). Returns the number of records ingested.
    pub fn bulk_load(&mut self, records: impl IntoIterator<Item = (HashId, Key, Record)>) -> usize {
        let mut loaded = 0;
        for (hash, key, record) in records {
            self.records.insert((hash, key), record);
            loaded += 1;
        }
        loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stamp: u64, position: u64) -> Record {
        Record {
            payload: vec![stamp as u8],
            stamp,
            position,
        }
    }

    #[test]
    fn keep_newest_rejects_stale_writes() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        assert!(store.put(HashId(0), k.clone(), rec(5, 10), WritePolicy::KeepNewest));
        assert!(!store.put(HashId(0), k.clone(), rec(3, 10), WritePolicy::KeepNewest));
        assert_eq!(store.get(HashId(0), &k).unwrap().stamp, 5);
        assert!(store.put(HashId(0), k.clone(), rec(9, 10), WritePolicy::KeepNewest));
        assert_eq!(store.get(HashId(0), &k).unwrap().stamp, 9);
    }

    #[test]
    fn keep_newest_rejects_equal_stamp() {
        // Equal timestamps must not overwrite: the stored replica already
        // reflects that update and the payloads are identical by construction.
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        store.put(HashId(0), k.clone(), rec(5, 10), WritePolicy::KeepNewest);
        assert!(!store.put(HashId(0), k.clone(), rec(5, 10), WritePolicy::KeepNewest));
    }

    #[test]
    fn overwrite_policy_always_wins() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        store.put(HashId(0), k.clone(), rec(5, 10), WritePolicy::KeepNewest);
        assert!(store.put(HashId(0), k.clone(), rec(1, 10), WritePolicy::Overwrite));
        assert_eq!(store.get(HashId(0), &k).unwrap().stamp, 1);
    }

    #[test]
    fn same_key_different_hash_functions_are_independent() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        store.put(HashId(0), k.clone(), rec(5, 10), WritePolicy::KeepNewest);
        store.put(HashId(1), k.clone(), rec(7, 20), WritePolicy::KeepNewest);
        assert_eq!(store.get(HashId(0), &k).unwrap().stamp, 5);
        assert_eq!(store.get(HashId(1), &k).unwrap().stamp, 7);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn drain_range_moves_only_covered_positions() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("a"),
            rec(1, 100),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(0),
            Key::new("b"),
            rec(2, 200),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(0),
            Key::new("c"),
            rec(3, 300),
            WritePolicy::Overwrite,
        );
        let moved = store.drain_range(150, 250);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].1, Key::new("b"));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn drain_range_handles_wraparound() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("hi"),
            rec(1, u64::MAX - 2),
            WritePolicy::Overwrite,
        );
        store.put(HashId(0), Key::new("lo"), rec(2, 3), WritePolicy::Overwrite);
        store.put(
            HashId(0),
            Key::new("mid"),
            rec(3, 1 << 40),
            WritePolicy::Overwrite,
        );
        let moved = store.drain_range(u64::MAX - 10, 10);
        let keys: Vec<_> = moved.iter().map(|(_, k, _)| k.clone()).collect();
        assert!(keys.contains(&Key::new("hi")));
        assert!(keys.contains(&Key::new("lo")));
        assert_eq!(moved.len(), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn drain_range_degenerate_interval_drains_everything() {
        let mut store = PeerStore::new();
        store.put(HashId(0), Key::new("a"), rec(1, 0), WritePolicy::Overwrite);
        store.put(
            HashId(1),
            Key::new("b"),
            rec(2, u64::MAX),
            WritePolicy::Overwrite,
        );
        let moved = store.drain_range(7, 7);
        assert_eq!(moved.len(), 2);
        assert!(store.is_empty());
    }

    #[test]
    fn drain_range_of_uncovered_interval_is_a_no_op() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("a"),
            rec(1, 100),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(0),
            Key::new("b"),
            rec(2, 5000),
            WritePolicy::Overwrite,
        );
        // An interval covering no stored position moves nothing...
        assert!(store.drain_range(200, 400).is_empty());
        // ...including the smallest possible non-degenerate interval.
        assert!(store.drain_range(100, 101).is_empty());
        assert_eq!(store.len(), 2);
        // The boundary semantics are (start, end]: start stays, end moves.
        let moved = store.drain_range(99, 100);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].1, Key::new("a"));
    }

    #[test]
    fn drain_range_wrapping_exactly_at_the_ring_origin() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("top"),
            rec(1, u64::MAX),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(0),
            Key::new("zero"),
            rec(2, 0),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(0),
            Key::new("mid"),
            rec(3, 1 << 32),
            WritePolicy::Overwrite,
        );
        // (MAX, 0] wraps across the origin and covers position 0 only.
        let moved = store.clone().drain_range(u64::MAX, 0);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].1, Key::new("zero"));
        // (MAX-1, 0] additionally covers position MAX.
        let moved = store.drain_range(u64::MAX - 1, 0);
        let keys: Vec<_> = moved.iter().map(|(_, k, _)| k.clone()).collect();
        assert!(keys.contains(&Key::new("top")));
        assert!(keys.contains(&Key::new("zero")));
        assert_eq!(moved.len(), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn full_ring_drain_empties_the_store_in_iteration_order() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("c"),
            rec(3, 9000),
            WritePolicy::Overwrite,
        );
        store.put(HashId(1), Key::new("a"), rec(1, 10), WritePolicy::Overwrite);
        store.put(
            HashId(2),
            Key::new("b"),
            rec(2, 400),
            WritePolicy::Overwrite,
        );
        // start == end denotes the whole ring; the drain visits records by
        // hash function, then key, whatever order they were written in.
        let moved = store.drain_range(500, 500);
        assert!(store.is_empty());
        let keys: Vec<Key> = moved.into_iter().map(|(_, k, _)| k).collect();
        assert_eq!(keys, vec![Key::new("c"), Key::new("a"), Key::new("b")]);
    }

    #[test]
    fn overwrite_with_new_position_drains_from_the_new_position() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        store.put(HashId(0), k.clone(), rec(1, 100), WritePolicy::Overwrite);
        store.put(HashId(0), k.clone(), rec(2, 5000), WritePolicy::Overwrite);
        assert_eq!(store.len(), 1);
        assert!(store.clone().drain_range(50, 150).is_empty());
        let moved = store.drain_range(4000, 6000);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].2.stamp, 2);
    }

    #[test]
    fn a_removed_record_no_longer_drains() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        store.put(HashId(0), k.clone(), rec(1, 10), WritePolicy::Overwrite);
        store.put(HashId(1), k.clone(), rec(2, 20), WritePolicy::Overwrite);
        assert_eq!(store.remove(HashId(0), &k).unwrap().stamp, 1);
        assert_eq!(store.len(), 1);
        assert!(store.remove(HashId(0), &k).is_none());
        let moved = store.drain_range(0, u64::MAX - 1);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, HashId(1));
        assert!(store.is_empty());
    }

    #[test]
    fn snapshot_bulk_load_round_trips() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("a"),
            rec(1, 300),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(1),
            Key::new("a"),
            rec(2, 100),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(0),
            Key::new("b"),
            rec(3, 200),
            WritePolicy::Overwrite,
        );
        let snapshot: Vec<(HashId, Key, Record)> = store
            .iter()
            .map(|(h, k, r)| (h, k.clone(), r.clone()))
            .collect();

        let mut restored = PeerStore::new();
        assert_eq!(restored.bulk_load(snapshot), 3);
        assert_eq!(restored, store);
        let moved = restored.drain_range(150, 250);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].1, Key::new("b"));
    }

    #[test]
    fn bulk_load_into_populated_store_overwrites() {
        let mut store = PeerStore::new();
        store.put(
            HashId(0),
            Key::new("a"),
            rec(1, 100),
            WritePolicy::Overwrite,
        );
        let loaded = store.bulk_load(vec![
            (HashId(0), Key::new("a"), rec(9, 5000)), // overwrite, position moves
            (HashId(2), Key::new("c"), rec(4, 400)),  // fresh record
            (HashId(2), Key::new("c"), rec(5, 450)),  // duplicate: last wins
        ]);
        assert_eq!(loaded, 3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(HashId(0), &Key::new("a")).unwrap().stamp, 9);
        assert_eq!(store.get(HashId(2), &Key::new("c")).unwrap().stamp, 5);
        // Drains follow the final positions only.
        assert!(store.clone().drain_range(50, 150).is_empty());
        assert_eq!(store.clone().drain_range(4000, 6000).len(), 1);
        assert_eq!(store.clone().drain_range(425, 475).len(), 1);
    }

    #[test]
    fn equality_and_order_do_not_depend_on_write_history() {
        let records = [
            (HashId(3), Key::new("b"), rec(1, 10)),
            (HashId(0), Key::new("b"), rec(2, 20)),
            (HashId(1), Key::new("a"), rec(3, 30)),
            (HashId(2), Key::new("b"), rec(4, 40)),
        ];
        let mut forward = PeerStore::new();
        forward.bulk_load(records.clone());
        let mut backward = PeerStore::new();
        backward.bulk_load(records.iter().rev().cloned());
        // A record written and removed again leaves no trace either.
        backward.put(HashId(5), Key::new("a"), rec(9, 90), WritePolicy::Overwrite);
        backward.remove(HashId(5), &Key::new("a"));
        assert_eq!(forward, backward);
        let order: Vec<(u32, String)> = backward
            .iter()
            .map(|(h, k, _)| (h.0, k.display_lossy()))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, "b".to_string()),
                (1, "a".to_string()),
                (2, "b".to_string()),
                (3, "b".to_string()),
            ]
        );
    }

    #[test]
    fn iter_visits_every_record_once() {
        let mut store = PeerStore::new();
        store.put(HashId(0), Key::new("a"), rec(1, 10), WritePolicy::Overwrite);
        store.put(HashId(1), Key::new("a"), rec(2, 20), WritePolicy::Overwrite);
        store.put(HashId(0), Key::new("b"), rec(3, 30), WritePolicy::Overwrite);
        let mut seen: Vec<(u32, String, u64)> = store
            .iter()
            .map(|(h, k, r)| (h.0, k.display_lossy(), r.stamp))
            .collect();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, "a".to_string(), 1),
                (0, "b".to_string(), 3),
                (1, "a".to_string(), 2),
            ]
        );
    }
}
