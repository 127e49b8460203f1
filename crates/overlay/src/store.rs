//! The replica table of one peer.
//!
//! Every peer stores the `(k, {data, stamp})` pairs it is responsible for,
//! one record per `(hash function, key)` pair: UMS stores each pair under
//! all |Hr| replication hash functions (Section 3.2), and with few peers one
//! peer is often `rsp(k, h)` for several `h` at once. The *stamp* is an
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
//! # Layout
//!
//! The table is one hashed map from a key to that key's *slots*: one per
//! hash function the key is held under, side by side in hash order, each
//! with its stamp and ring position. A `get` or `put` is one hash of the
//! key's bytes and one look at its slots; an ordered map compared key bytes
//! behind a pointer at every level instead. [`PeerStore::len`] still counts
//! `(hash, key)` records.
//!
//! # Sharing
//!
//! A slot whose stamp **and** bytes equal those of a sibling slot (same key,
//! other hash function) keeps no bytes of its own: it names the sibling
//! that holds them. So a `(k, {data, ts})` held under several hash functions
//! costs one buffer, whichever path filled the table — a live put, journal
//! replay, a snapshot load, a hand-off install or the simulator. A payload
//! held under one hash function is a plain `Vec<u8>`, with no reference
//! count and no extra box. Equal stamps with unequal bytes (a stale
//! successor's re-stamped write) are never shared. The sharing is
//! canonical: slots share exactly when stamp and bytes are equal, and the
//! lowest hash function of such a group holds the bytes. Equality,
//! iteration and a snapshot's bytes therefore depend only on the contents,
//! never on the history of writes. A put pays for this with one byte
//! comparison per sibling of equal stamp.
//!
//! # Views
//!
//! [`PeerStore::get`] and [`PeerStore::iter`] lend a [`RecordRef`], whose
//! payload borrows the one buffer: reading a shared replica copies nothing,
//! and the borrow cannot outlive a write that would re-home the bytes.
//! [`Record`] stays the owned form that goes into the table (`put`,
//! `bulk_load`) and comes out of it (`remove`, `drain_range`,
//! [`RecordRef::to_record`]): what hand-off bundles and snapshot loads
//! carry.
//!
//! # Order
//!
//! Only whole-table walks are ordered, and they are rare: a snapshot, a
//! join or a leave. [`PeerStore::iter`] visits records by hash function,
//! then by key — the order snapshots are written in — and
//! [`PeerStore::iter_range`] visits the records of one ring interval in the
//! same order, the walk a hand-off's export copies its bounded bundles
//! from. Both sort one list of key references once (`iter_range` only the
//! keys holding a record in the interval) and yield records lazily from
//! it, so neither a snapshot nor an export holds a list of the records
//! themselves. [`PeerStore::drain_range`] and [`PeerStore::prune_range`]
//! scan the table once: `drain_range` sorts only the records that leave,
//! into the same order, and `prune_range` builds none.

use std::collections::HashMap;

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

/// One stored replica, owned: the payload plus its stamp and the position
/// of the key under the hash function it was stored with.
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

/// One stored replica as the table holds it, borrowed: the payload is the
/// table's one buffer for it, shared with every sibling replica of equal
/// stamp and bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Application payload.
    pub payload: &'a Vec<u8>,
    /// Ordering stamp (KTS timestamp for UMS, version counter for BRK).
    pub stamp: u64,
    /// Position of the key under the record's hash function.
    pub position: u64,
}

impl RecordRef<'_> {
    /// An owned copy of the replica.
    pub fn to_record(&self) -> Record {
        Record {
            payload: self.payload.clone(),
            stamp: self.stamp,
            position: self.position,
        }
    }
}

/// Where the bytes of a slot are.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Payload {
    /// Here: no lower sibling has this slot's stamp and bytes.
    Held(Vec<u8>),
    /// In the slot of this lower hash function, whose stamp and bytes are
    /// this slot's.
    SharedWith(HashId),
}

/// One replica of a key.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Slot {
    hash: HashId,
    stamp: u64,
    position: u64,
    payload: Payload,
}

/// Where the bytes of a slot went when it left its sharing group.
enum Released {
    /// No sibling shared them: here they are.
    Owned(Vec<u8>),
    /// The slot of this hash function holds them.
    Kept(HashId),
}

/// The replicas of one key: one slot per hash function, in hash order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Slots(Vec<Slot>);

impl Slots {
    fn index(&self, hash: HashId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&hash, |slot| slot.hash)
    }

    fn bytes(&self, index: usize) -> &Vec<u8> {
        match &self.0[index].payload {
            Payload::Held(bytes) => bytes,
            Payload::SharedWith(holder) => self.bytes(
                self.index(*holder)
                    .expect("a shared slot's holder is a sibling"),
            ),
        }
    }

    fn view(&self, index: usize) -> RecordRef<'_> {
        let slot = &self.0[index];
        RecordRef {
            payload: self.bytes(index),
            stamp: slot.stamp,
            position: slot.position,
        }
    }

    /// Takes slot `index` out of its sharing group and leaves it empty, for
    /// the caller to refill or remove. Bytes it held for siblings pass to
    /// the lowest of them.
    fn release(&mut self, index: usize) -> Released {
        let hash = self.0[index].hash;
        match std::mem::replace(&mut self.0[index].payload, Payload::Held(Vec::new())) {
            Payload::SharedWith(holder) => Released::Kept(holder),
            Payload::Held(bytes) => {
                let shares =
                    |slot: &Slot| matches!(slot.payload, Payload::SharedWith(h) if h == hash);
                let Some(heir) = self.0.iter().position(shares) else {
                    return Released::Owned(bytes);
                };
                let heir_hash = self.0[heir].hash;
                self.0[heir].payload = Payload::Held(bytes);
                for slot in &mut self.0[heir + 1..] {
                    if shares(slot) {
                        slot.payload = Payload::SharedWith(heir_hash);
                    }
                }
                Released::Kept(heir_hash)
            }
        }
    }

    /// Fills the empty slot `index`, whose stamp is already set: with a share
    /// of the sibling holding that stamp and equal bytes, if there is one,
    /// else with `bytes`.
    fn attach(&mut self, index: usize, bytes: Vec<u8>) {
        let (hash, stamp) = (self.0[index].hash, self.0[index].stamp);
        let twin = self.0.iter().position(|slot| {
            slot.hash != hash
                && slot.stamp == stamp
                && matches!(&slot.payload, Payload::Held(held) if *held == bytes)
        });
        self.0[index].payload = match twin {
            None => Payload::Held(bytes),
            Some(twin) if twin < index => Payload::SharedWith(self.0[twin].hash),
            Some(twin) => {
                // This slot is now the group's lowest, so it holds the bytes.
                let twin_hash = self.0[twin].hash;
                for slot in &mut self.0 {
                    if slot.hash == twin_hash
                        || matches!(slot.payload, Payload::SharedWith(h) if h == twin_hash)
                    {
                        slot.payload = Payload::SharedWith(hash);
                    }
                }
                Payload::Held(bytes)
            }
        };
    }

    /// Removes slot `index`, returning its replica: the held bytes when no
    /// sibling shared them, else a copy.
    fn take(&mut self, index: usize) -> Record {
        let payload = match self.release(index) {
            Released::Owned(bytes) => bytes,
            Released::Kept(holder) => self.bytes(self.index(holder).expect("a sibling")).clone(),
        };
        let slot = self.0.remove(index);
        Record {
            payload,
            stamp: slot.stamp,
            position: slot.position,
        }
    }

    /// Removes slot `index`, dropping its bytes unless a sibling keeps them.
    fn discard(&mut self, index: usize) {
        self.release(index);
        self.0.remove(index);
    }
}

/// The replica store of a single peer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerStore {
    keys: HashMap<Key, Slots>,
    /// `(hash, key)` records held: the slots of every key.
    records: usize,
}

impl PeerStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PeerStore::default()
    }

    /// Number of stored `(hash, key)` records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Whether a write of `stamp` for `(hash, key)` wins the `put_h`
    /// comparison: nothing is held, or the held record's stamp is smaller.
    /// An equal stamp loses — the held replica already reflects that update.
    pub fn accepts(&self, hash: HashId, key: &Key, stamp: u64) -> bool {
        self.get(hash, key).is_none_or(|held| stamp > held.stamp)
    }

    /// Inserts or merges a record according to `policy`. Returns `true` if
    /// the store was modified. The payload is dropped for a share of a
    /// sibling's equal bytes under an equal stamp.
    pub fn put(&mut self, hash: HashId, key: Key, record: Record, policy: WritePolicy) -> bool {
        if policy == WritePolicy::KeepNewest && !self.accepts(hash, &key, record.stamp) {
            return false;
        }
        let slots = self.keys.entry(key).or_default();
        let index = match slots.index(hash) {
            Ok(index) => {
                slots.release(index);
                index
            }
            Err(index) => {
                // Exact growth: a key gains slots one hash at a time, and a
                // doubled capacity would mostly idle.
                slots.0.reserve_exact(1);
                slots.0.insert(
                    index,
                    Slot {
                        hash,
                        stamp: 0,
                        position: 0,
                        payload: Payload::Held(Vec::new()),
                    },
                );
                self.records += 1;
                index
            }
        };
        let slot = &mut slots.0[index];
        slot.stamp = record.stamp;
        slot.position = record.position;
        slots.attach(index, record.payload);
        true
    }

    /// Reads the record stored for `(hash, key)`, if any.
    pub fn get(&self, hash: HashId, key: &Key) -> Option<RecordRef<'_>> {
        let slots = self.keys.get(key)?;
        let index = slots.index(hash).ok()?;
        Some(slots.view(index))
    }

    /// Removes the record stored for `(hash, key)`, returning it.
    pub fn remove(&mut self, hash: HashId, key: &Key) -> Option<Record> {
        let slots = self.keys.get_mut(key)?;
        let index = slots.index(hash).ok()?;
        let record = slots.take(index);
        if slots.0.is_empty() {
            self.keys.remove(key);
        }
        self.records -= 1;
        Some(record)
    }

    /// Iterates over all records, by hash function and then by key: the
    /// keys are sorted once into a list of references, which the walk then
    /// passes over once per hash function held, yielding as it goes.
    pub fn iter(&self) -> impl Iterator<Item = (HashId, &Key, RecordRef<'_>)> {
        self.walk(|_| true)
    }

    /// Iterates over every record whose position falls inside `(range_start,
    /// range_end]` (the whole ring when they are equal), in [`Self::iter`]'s
    /// order, leaving the table as it is: the walk a hand-off's export
    /// copies its bundles from. Only the keys holding such a record are
    /// sorted.
    pub fn iter_range(
        &self,
        range_start: u64,
        range_end: u64,
    ) -> impl Iterator<Item = (HashId, &Key, RecordRef<'_>)> {
        self.walk(move |position| in_open_closed_interval(range_start, range_end, position))
    }

    /// The ordered walk over the slots whose position passes `keep`.
    fn walk(
        &self,
        keep: impl Fn(u64) -> bool,
    ) -> impl Iterator<Item = (HashId, &Key, RecordRef<'_>)> {
        let kept = move |slot: &Slot| keep(slot.position);
        let holds = |slots: &Slots| slots.0.iter().any(&kept);
        // Counted first: a filtered collect would grow the list by doubling,
        // up to twice the bytes it needs.
        let mut keys: Vec<(&Key, &Slots)> =
            Vec::with_capacity(self.keys.values().filter(|slots| holds(slots)).count());
        keys.extend(self.keys.iter().filter(|(_, slots)| holds(slots)));
        keys.sort_unstable_by_key(|(key, _)| *key);
        let mut hashes: Vec<HashId> = Vec::new();
        for slot in keys.iter().flat_map(|(_, slots)| &slots.0) {
            if !kept(slot) {
                continue;
            }
            if let Err(at) = hashes.binary_search(&slot.hash) {
                hashes.insert(at, slot.hash);
            }
        }
        let (mut hash, mut next_key) = (0, 0);
        std::iter::from_fn(move || loop {
            let current = *hashes.get(hash)?;
            let Some(&(key, slots)) = keys.get(next_key) else {
                (hash, next_key) = (hash + 1, 0);
                continue;
            };
            next_key += 1;
            match slots.index(current) {
                Ok(index) if kept(&slots.0[index]) => {
                    return Some((current, key, slots.view(index)))
                }
                _ => {}
            }
        })
    }

    /// Drains every record whose position falls inside the half-open ring
    /// interval `(range_start, range_end]`; `range_start == range_end`
    /// denotes the whole ring (the single-node case). Used when
    /// responsibility for that interval moves to another peer (join /
    /// graceful leave). The drained records come out in iteration order;
    /// payloads no staying sibling shares move out without a copy.
    pub fn drain_range(&mut self, range_start: u64, range_end: u64) -> Vec<(HashId, Key, Record)> {
        let mut moved = Vec::new();
        self.extract_range(range_start, range_end, |key, slots, index| {
            moved.push((slots.0[index].hash, key.clone(), slots.take(index)));
        });
        by_hash_then_key(moved)
    }

    /// Removes every record whose position falls inside `(range_start,
    /// range_end]` (the whole ring when they are equal) without building
    /// any: a hand-off's commit and a replayed `TransferRange`. Returns how
    /// many records went.
    pub fn prune_range(&mut self, range_start: u64, range_end: u64) -> usize {
        self.extract_range(range_start, range_end, |_, slots, index| {
            slots.discard(index)
        })
    }

    /// Hands each slot whose position lies in `(start, end]` to `take`,
    /// which removes it; drops keys left without slots. Returns how many
    /// slots were taken.
    fn extract_range(
        &mut self,
        start: u64,
        end: u64,
        mut take: impl FnMut(&Key, &mut Slots, usize),
    ) -> usize {
        let mut taken = 0;
        self.keys.retain(|key, slots| {
            let mut index = 0;
            while index < slots.0.len() {
                if in_open_closed_interval(start, end, slots.0[index].position) {
                    take(key, slots, index);
                    taken += 1;
                } else {
                    index += 1;
                }
            }
            !slots.0.is_empty()
        });
        self.records -= taken;
        taken
    }

    /// Loads a batch of records, overwriting (last write wins for duplicate
    /// `(hash, key)` pairs). Returns the number of records ingested.
    pub fn bulk_load(&mut self, records: impl IntoIterator<Item = (HashId, Key, Record)>) -> usize {
        let mut loaded = 0;
        for (hash, key, record) in records {
            self.put(hash, key, record, WritePolicy::Overwrite);
            loaded += 1;
        }
        loaded
    }

    /// Asserts the layout's invariants: slots in strict hash order, the
    /// record count, and canonical sharing — a shared slot names a lower
    /// holder of equal stamp, and no two holders of one key have equal stamp
    /// and bytes.
    #[cfg(test)]
    pub(crate) fn assert_canonical(&self) {
        let mut records = 0;
        for (key, slots) in &self.keys {
            assert!(!slots.0.is_empty(), "{key:?} is kept without slots");
            assert!(slots.0.windows(2).all(|pair| pair[0].hash < pair[1].hash));
            records += slots.0.len();
            for (index, slot) in slots.0.iter().enumerate() {
                match &slot.payload {
                    Payload::SharedWith(holder) => {
                        let held = &slots.0[slots.index(*holder).expect("holder exists")];
                        assert!(*holder < slot.hash && held.stamp == slot.stamp);
                        assert!(matches!(held.payload, Payload::Held(_)), "chained share");
                    }
                    Payload::Held(bytes) => {
                        let twin = slots.0[index + 1..].iter().any(|other| {
                            other.stamp == slot.stamp
                                && matches!(&other.payload, Payload::Held(b) if b == bytes)
                        });
                        assert!(!twin, "{key:?}: equal replicas not shared");
                    }
                }
            }
        }
        assert_eq!(records, self.records);
    }
}

/// `records` in iteration order: by hash function, then by key.
fn by_hash_then_key(mut records: Vec<(HashId, Key, Record)>) -> Vec<(HashId, Key, Record)> {
    records.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    records
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

    /// `payload` at `stamp`, stored at `position`.
    fn value(payload: &str, stamp: u64, position: u64) -> Record {
        Record {
            payload: payload.as_bytes().to_vec(),
            stamp,
            position,
        }
    }

    /// Which of `hashes` lend the same buffer as the first of them.
    fn sharing_first(store: &PeerStore, key: &Key, hashes: &[u32]) -> Vec<bool> {
        let first = store.get(HashId(hashes[0]), key).unwrap().payload;
        hashes
            .iter()
            .map(|&hash| std::ptr::eq(store.get(HashId(hash), key).unwrap().payload, first))
            .collect()
    }

    #[test]
    fn equal_replicas_under_several_hashes_share_one_buffer() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        for hash in [2, 0, 3] {
            let record = value("v", 4, u64::from(hash));
            assert!(store.put(HashId(hash), k.clone(), record, WritePolicy::KeepNewest));
        }
        assert_eq!(store.len(), 3);
        assert_eq!(sharing_first(&store, &k, &[0, 2, 3]), [true; 3]);
        for hash in [0, 2, 3] {
            let held = store.get(HashId(hash), &k).unwrap();
            assert_eq!((held.payload.as_slice(), held.stamp), (&b"v"[..], 4));
            assert_eq!(held.position, u64::from(hash));
        }
        store.assert_canonical();

        // A newer write to the holder leaves the others sharing; so does
        // removing the next holder.
        assert!(store.put(
            HashId(0),
            k.clone(),
            value("w", 5, 0),
            WritePolicy::KeepNewest
        ));
        assert_eq!(sharing_first(&store, &k, &[2, 3]), [true; 2]);
        store.assert_canonical();
        assert_eq!(store.remove(HashId(2), &k).unwrap(), value("v", 4, 2));
        assert_eq!(store.get(HashId(3), &k).unwrap().payload, b"v");
        assert_eq!(store.get(HashId(0), &k).unwrap().payload, b"w");
        assert_eq!(store.len(), 2);
        store.assert_canonical();
    }

    #[test]
    fn a_reused_stamp_with_other_bytes_is_not_shared() {
        // A stale successor can hand out a stamp already used for other
        // bytes: equal stamps alone never make a share.
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        store.put(
            HashId(0),
            k.clone(),
            value("old", 7, 10),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(1),
            k.clone(),
            value("new", 7, 20),
            WritePolicy::Overwrite,
        );
        store.put(
            HashId(2),
            k.clone(),
            value("new", 7, 30),
            WritePolicy::Overwrite,
        );
        assert_eq!(sharing_first(&store, &k, &[0, 1, 2]), [true, false, false]);
        assert_eq!(sharing_first(&store, &k, &[1, 2]), [true, true]);
        assert_eq!(store.get(HashId(0), &k).unwrap().payload, b"old");
        assert_eq!(store.get(HashId(2), &k).unwrap().payload, b"new");
        store.assert_canonical();
    }

    #[test]
    fn shared_slots_are_canonical_whatever_the_write_history() {
        let writes = [
            (3, "a", value("x", 5, 30)),
            (1, "a", value("x", 5, 10)),
            (2, "a", value("y", 5, 20)),
            (0, "b", value("x", 5, 0)),
            (2, "b", value("x", 5, 20)),
        ];
        let mut forward = PeerStore::new();
        for (hash, key, record) in writes.clone() {
            forward.put(HashId(hash), Key::new(key), record, WritePolicy::Overwrite);
        }
        let mut backward = PeerStore::new();
        for (hash, key, record) in writes.iter().rev().cloned() {
            backward.put(HashId(hash), Key::new(key), record, WritePolicy::Overwrite);
        }
        // A holder written below the group, overwritten and removed again,
        // and a holder rewritten with what it held, leave no trace either.
        let a = Key::new("a");
        backward.put(
            HashId(0),
            a.clone(),
            value("x", 5, 0),
            WritePolicy::Overwrite,
        );
        backward.put(
            HashId(0),
            a.clone(),
            value("z", 6, 0),
            WritePolicy::Overwrite,
        );
        backward.remove(HashId(0), &a);
        backward.put(
            HashId(1),
            a.clone(),
            value("x", 5, 10),
            WritePolicy::Overwrite,
        );
        for store in [&forward, &backward] {
            store.assert_canonical();
            assert_eq!(sharing_first(store, &a, &[1, 2, 3]), [true, false, true]);
        }
        assert_eq!(forward, backward);
        let rendered = |store: &PeerStore| -> Vec<(u32, String, Record)> {
            store
                .iter()
                .map(|(h, k, r)| (h.0, k.display_lossy(), r.to_record()))
                .collect()
        };
        assert_eq!(rendered(&forward), rendered(&backward));
    }

    #[test]
    fn range_moves_leave_the_staying_siblings_shared() {
        let mut store = PeerStore::new();
        let k = Key::new("doc");
        for (hash, position) in [(0, 100), (1, 200), (2, 300)] {
            store.put(
                HashId(hash),
                k.clone(),
                value("v", 1, position),
                WritePolicy::Overwrite,
            );
        }
        // The holder leaves: the drained record owns its copy, the two
        // staying slots still share one.
        let copied: Vec<_> = store
            .iter_range(50, 150)
            .map(|(hash, key, view)| (hash, key.clone(), view.to_record()))
            .collect();
        assert_eq!(store.len(), 3);
        let drained = store.drain_range(50, 150);
        assert_eq!(drained, copied);
        assert_eq!(drained, vec![(HashId(0), k.clone(), value("v", 1, 100))]);
        assert_eq!(sharing_first(&store, &k, &[1, 2]), [true; 2]);
        store.assert_canonical();
        // A prune builds nothing and keeps the last slot's bytes.
        assert_eq!(store.prune_range(150, 250), 1);
        assert_eq!(store.get(HashId(2), &k).unwrap().payload, b"v");
        assert_eq!(store.len(), 1);
        assert_eq!(store.prune_range(7, 7), 1);
        assert!(store.is_empty());
        assert_eq!(store, PeerStore::new());
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
            .map(|(h, k, r)| (h, k.clone(), r.to_record()))
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
