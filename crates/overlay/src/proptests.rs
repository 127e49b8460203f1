//! Property-based tests for the overlay crate.
//!
//! The central property: [`PeerStore`] is observationally equivalent to a
//! plain `HashMap<(HashId, Key), Record>` with the write policies and the
//! ring interval spelled out, under arbitrary sequences of `put` / `get` /
//! `remove` / `drain_range` / `iter_range` / `prune_range` operations. The
//! generated puts mostly repeat a key's bytes under several hashes with one
//! stamp (what the table shares) and sometimes reuse a stamp with other
//! bytes (a stale successor's re-stamped write, which it must not share).
//! The store's iterator must yield the model's records in the model's
//! `(hash, key)` order, unsorted: a snapshot's bytes follow that order.

use std::collections::HashMap;

use proptest::prelude::*;

use rdht_hashing::{HashId, Key};

use crate::id::in_open_closed_interval;
use crate::store::{PeerStore, Record, WritePolicy};

/// Reference model: the store as one flat map.
#[derive(Clone, Default)]
struct ModelStore {
    entries: HashMap<(HashId, Key), Record>,
}

impl ModelStore {
    fn put(&mut self, hash: HashId, key: Key, record: Record, policy: WritePolicy) -> bool {
        use std::collections::hash_map::Entry;
        match self.entries.entry((hash, key)) {
            Entry::Vacant(v) => {
                v.insert(record);
                true
            }
            Entry::Occupied(mut o) => match policy {
                WritePolicy::Overwrite => {
                    o.insert(record);
                    true
                }
                WritePolicy::KeepNewest => {
                    if record.stamp > o.get().stamp {
                        o.insert(record);
                        true
                    } else {
                        false
                    }
                }
            },
        }
    }

    fn get(&self, hash: HashId, key: &Key) -> Option<&Record> {
        self.entries.get(&(hash, key.clone()))
    }

    fn remove(&mut self, hash: HashId, key: &Key) -> Option<Record> {
        self.entries.remove(&(hash, key.clone()))
    }

    fn drain_range(&mut self, range_start: u64, range_end: u64) -> Vec<(HashId, Key, Record)> {
        let moving: Vec<(HashId, Key)> = self
            .entries
            .iter()
            .filter(|(_, rec)| in_open_closed_interval(range_start, range_end, rec.position))
            .map(|((h, k), _)| (*h, k.clone()))
            .collect();
        moving
            .into_iter()
            .map(|(h, k)| {
                let rec = self.entries.remove(&(h, k.clone())).expect("key just seen");
                (h, k, rec)
            })
            .collect()
    }
}

/// One record flattened to plain comparable data: hash id, key bytes, stamp,
/// position, payload.
type FlatRecord = (u32, Vec<u8>, u64, u64, Vec<u8>);

/// A record set flattened in the order it came.
fn flatten(moved: Vec<(HashId, Key, Record)>) -> Vec<FlatRecord> {
    moved
        .into_iter()
        .map(|(h, k, r)| (h.0, k.as_bytes().to_vec(), r.stamp, r.position, r.payload))
        .collect()
}

/// Canonical, order-independent rendering of a drained record set.
fn canonical(mut moved: Vec<(HashId, Key, Record)>) -> Vec<FlatRecord> {
    moved.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    flatten(moved)
}

/// A full store as its iterator yields it, unsorted: the order itself is
/// what is compared.
fn contents_in_iteration_order(store: &PeerStore) -> Vec<FlatRecord> {
    store
        .iter()
        .map(|(h, k, r)| {
            (
                h.0,
                k.as_bytes().to_vec(),
                r.stamp,
                r.position,
                r.payload.clone(),
            )
        })
        .collect()
}

/// The model's records by hash function, then by key bytes: the order the
/// store's iterator must yield them in (each `(hash, key)` is held once, so
/// sorting the flat tuples sorts by that pair).
fn canonical_model(model: &ModelStore) -> Vec<FlatRecord> {
    let mut all: Vec<_> = model
        .entries
        .iter()
        .map(|((h, k), r)| {
            (
                h.0,
                k.as_bytes().to_vec(),
                r.stamp,
                r.position,
                r.payload.clone(),
            )
        })
        .collect();
    all.sort();
    all
}

/// Positions are drawn from 16 points spread over the full ring, so that
/// drain intervals (drawn from the same lattice) regularly cover, miss and
/// wrap around stored records.
fn lattice(point: u8) -> u64 {
    u64::from(point % 16)
        .wrapping_mul(u64::MAX / 16)
        .wrapping_add(u64::from(point) << 3)
}

proptest! {
    /// The store and the flat-map model agree on every observable
    /// result of every operation, for arbitrary op sequences, and the
    /// store's sharing stays canonical throughout.
    #[test]
    fn indexed_store_is_observationally_equivalent(
        ops in proptest::collection::vec(
            ((0u8..7, 0u8..5, 0u8..4), (0u64..6, 0u8..32, 0u8..32, 0u8..4)),
            0..120,
        ),
    ) {
        let mut store = PeerStore::new();
        let mut model = ModelStore::default();
        for ((op, key_id, hash_id), (stamp, a, b, variant)) in ops {
            let key = Key::new(format!("key-{key_id}"));
            let hash = HashId(u32::from(hash_id));
            match op {
                // put, both policies: one stamp's bytes are mostly the same
                // under every hash, and one time in four they differ
                0 | 1 => {
                    let policy = if op == 0 {
                        WritePolicy::KeepNewest
                    } else {
                        WritePolicy::Overwrite
                    };
                    let record = Record {
                        payload: vec![key_id, stamp as u8, variant / 3],
                        stamp,
                        position: lattice(a),
                    };
                    let modified = store.put(hash, key.clone(), record.clone(), policy);
                    let model_modified = model.put(hash, key, record, policy);
                    prop_assert_eq!(modified, model_modified);
                }
                // get
                2 => {
                    let held = store.get(hash, &key).map(|view| view.to_record());
                    prop_assert_eq!(held.as_ref(), model.get(hash, &key));
                }
                // remove
                3 => {
                    prop_assert_eq!(store.remove(hash, &key), model.remove(hash, &key));
                }
                // iter_range, the walk a hand-off's export copies from,
                // yields the model's records of the interval in iteration
                // order and leaves the store as it is
                4 => {
                    let (start, end) = (lattice(a), lattice(b));
                    let before = store.clone();
                    let walked: Vec<_> = store
                        .iter_range(start, end)
                        .map(|(hash, key, view)| (hash, key.clone(), view.to_record()))
                        .collect();
                    prop_assert_eq!(&store, &before);
                    let model_copied = model.clone().drain_range(start, end);
                    prop_assert_eq!(flatten(walked), canonical(model_copied));
                }
                // prune_range
                5 => {
                    let (start, end) = (lattice(a), lattice(b));
                    let pruned = store.prune_range(start, end);
                    prop_assert_eq!(pruned, model.drain_range(start, end).len());
                }
                // drain_range (including degenerate and wrapped intervals),
                // in iteration order
                _ => {
                    let (start, end) = (lattice(a), lattice(b));
                    let moved = store.drain_range(start, end);
                    let model_moved = model.drain_range(start, end);
                    let in_order = canonical(moved.clone());
                    prop_assert_eq!(flatten(moved), in_order.clone());
                    prop_assert_eq!(in_order, canonical(model_moved));
                }
            }
            store.assert_canonical();
            prop_assert_eq!(store.len(), model.entries.len());
            prop_assert_eq!(store.is_empty(), model.entries.is_empty());
        }
        prop_assert_eq!(contents_in_iteration_order(&store), canonical_model(&model));
    }

    /// Draining the full ring in two complementary intervals moves every
    /// record exactly once, regardless of where the cut lands.
    #[test]
    fn complementary_drains_partition_the_store(
        records in proptest::collection::vec(
            ((0u8..8, 0u8..4), (0u64..100, 0u8..32)),
            1..60,
        ),
        cut in any::<u64>(),
    ) {
        let mut store = PeerStore::new();
        let mut model = ModelStore::default();
        for ((key_id, hash_id), (stamp, position)) in records {
            let key = Key::new(format!("key-{key_id}"));
            let record = Record {
                payload: vec![key_id],
                stamp,
                position: lattice(position),
            };
            store.put(HashId(u32::from(hash_id)), key.clone(), record.clone(), WritePolicy::Overwrite);
            model.put(HashId(u32::from(hash_id)), key, record, WritePolicy::Overwrite);
        }
        let total = store.len();
        prop_assume!(total > 0);
        let other = cut.wrapping_add(u64::MAX / 2);
        let first = store.drain_range(cut, other);
        let second = store.drain_range(other, cut);
        prop_assert_eq!(first.len() + second.len(), total);
        prop_assert!(store.is_empty());
        let mut both = first;
        both.extend(second);
        let mut model_both = model.drain_range(cut, other);
        model_both.extend(model.drain_range(other, cut));
        prop_assert_eq!(canonical(both), canonical(model_both));
    }

    /// `drain_range` followed by `bulk_load` of the drained records restores
    /// the original store exactly — the invariant the membership hand-off
    /// relies on when a transfer is rolled back (or replayed) after a crash.
    #[test]
    fn drain_then_bulk_load_round_trips(
        records in proptest::collection::vec(
            ((0u8..8, 0u8..4), (0u64..100, 0u8..32)),
            0..60,
        ),
        start in 0u8..32,
        end in 0u8..32,
    ) {
        let mut store = PeerStore::new();
        for ((key_id, hash_id), (stamp, position)) in records {
            store.put(
                HashId(u32::from(hash_id)),
                Key::new(format!("key-{key_id}")),
                Record {
                    payload: vec![key_id, stamp as u8],
                    stamp,
                    position: lattice(position),
                },
                WritePolicy::Overwrite,
            );
        }
        let original = store.clone();
        // Drain an arbitrary interval (covering, empty, wrapped or the
        // degenerate full ring) and load the drained records straight back.
        let moved = store.drain_range(lattice(start), lattice(end));
        let moved_count = moved.len();
        let loaded = store.bulk_load(moved);
        prop_assert_eq!(loaded, moved_count);
        prop_assert_eq!(store, original);
    }
}
