//! A single-process, in-memory [`UmsAccess`] implementation.
//!
//! `InMemoryDht` behaves like a perfectly reliable DHT collapsed into one
//! process: every replica holder and the timestamping responsible are all
//! "reachable" as plain map entries. It exists for three purposes:
//!
//! * unit tests and doctests of the UMS/KTS algorithms, with knobs to inject
//!   failures (dropping replicas, failing puts/gets, crashing the
//!   timestamping state);
//! * the quickstart example, which demonstrates the API without pulling in
//!   the simulator;
//! * a correctness oracle in property tests — whatever the simulated or
//!   threaded deployments return can be compared against this reference.

use std::collections::{HashMap, HashSet};

use rdht_hashing::{HashFamily, HashId, Key};

use crate::access::UmsAccess;
use crate::durability::{DurableState, NoDurability};
use crate::error::UmsError;
use crate::kts::{IndirectObservation, KtsNode, Probe};
use crate::types::{ReplicaValue, Timestamp};

/// An in-memory DHT with UMS/KTS semantics (see the module docs).
///
/// Replicas are grouped per key (one small per-hash table each): lookups
/// borrow the key, so the probe path performs no key clones.
///
/// The second type parameter is the durability backend every accepted
/// mutation is journaled to. It defaults to [`NoDurability`] (state dies with
/// the value, the paper's fail-stop model); plugging in a persistent backend
/// such as `rdht_storage::StorageEngine` via [`InMemoryDht::with_durability`]
/// turns the same DHT into one whose replicas and counters survive a crash.
#[derive(Clone, Debug)]
pub struct InMemoryDht<D: DurableState = NoDurability> {
    family: HashFamily,
    replicas: HashMap<Key, Vec<(HashId, ReplicaValue)>>,
    kts: KtsNode,
    fail_all_puts: bool,
    fail_puts_for: HashSet<HashId>,
    fail_gets_for: HashSet<HashId>,
    fail_kts: bool,
    durability: D,
}

impl InMemoryDht {
    /// Creates an in-memory DHT with `num_replicas` replication hash
    /// functions derived from `seed` and no durability (state is lost on
    /// drop).
    pub fn new(num_replicas: usize, seed: u64) -> Self {
        InMemoryDht::with_durability(num_replicas, seed, NoDurability)
    }
}

impl<D: DurableState> InMemoryDht<D> {
    /// Creates an in-memory DHT journaling every accepted mutation to
    /// `durability`.
    pub fn with_durability(num_replicas: usize, seed: u64, durability: D) -> Self {
        InMemoryDht {
            family: HashFamily::new(num_replicas, seed),
            replicas: HashMap::new(),
            kts: KtsNode::new(),
            fail_all_puts: false,
            fail_puts_for: HashSet::new(),
            fail_gets_for: HashSet::new(),
            fail_kts: false,
            durability,
        }
    }

    /// Read access to the durability backend.
    pub fn durability(&self) -> &D {
        &self.durability
    }

    /// Mutable access to the durability backend (to sync it, inspect journal
    /// health, force a compaction, ...).
    pub fn durability_mut(&mut self) -> &mut D {
        &mut self.durability
    }

    /// The hash family in use.
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// Replication hash ids as a vector (convenience for tests).
    pub fn replication_ids_vec(&self) -> Vec<HashId> {
        self.family.replication_ids().collect()
    }

    /// Number of replicas currently stored (across all keys and hash
    /// functions).
    pub fn stored_replicas(&self) -> usize {
        self.replicas.values().map(Vec::len).sum()
    }

    /// Overwrites a replica unconditionally — used by tests to fabricate
    /// stale replicas (as if the holder had missed updates). Journaled like
    /// any accepted write, so a persistent backend replays the fabricated
    /// state faithfully.
    pub fn overwrite_replica(&mut self, hash: HashId, key: &Key, value: ReplicaValue) {
        self.durability
            .record_replica_put(hash, key, &value, self.family.eval(hash, key));
        self.load_recovered_replica(hash, key, value);
    }

    /// Drops the replica stored under one hash function — as if its holder
    /// had failed and its memory were lost. Not journaled: the modelled
    /// failure loses the holder's durable state too.
    pub fn drop_replica(&mut self, hash: HashId, key: &Key) {
        if let Some(slots) = self.replicas.get_mut(key) {
            slots.retain(|(h, _)| *h != hash);
            if slots.is_empty() {
                self.replicas.remove(key);
            }
        }
    }

    /// Simulates a crash of the timestamping responsible: all counters are
    /// lost, and the next request will have to use the indirect
    /// initialization against whatever replicas remain. Not journaled — this
    /// models the *loss* of volatile state, not a graceful mutation.
    pub fn crash_timestamp_service(&mut self) {
        self.kts = KtsNode::new();
    }

    /// Re-loads a recovered replica into the store without journaling it
    /// (it is already durable — journaling it again would double it in the
    /// log). Used when rebuilding a DHT from `rdht-storage` recovered state.
    pub fn load_recovered_replica(&mut self, hash: HashId, key: &Key, value: ReplicaValue) {
        let slots = self.replicas.entry(key.clone()).or_default();
        match slots.iter_mut().find(|(h, _)| *h == hash) {
            Some((_, stored)) => *stored = value,
            None => slots.push((hash, value)),
        }
    }

    /// Access to the embedded KTS node (for assertions on VCS state).
    pub fn kts(&self) -> &KtsNode {
        &self.kts
    }

    /// Makes every `put_replica` fail (simulates a fully unreachable DHT for
    /// writes).
    pub fn fail_all_puts(&mut self, fail: bool) {
        self.fail_all_puts = fail;
    }

    /// Makes `put_replica` fail for the given hash functions only.
    pub fn fail_puts_for_hashes(&mut self, hashes: impl IntoIterator<Item = HashId>) {
        self.fail_puts_for = hashes.into_iter().collect();
    }

    /// Makes `get_replica` fail for the given hash functions only.
    pub fn fail_gets_for_hashes(&mut self, hashes: impl IntoIterator<Item = HashId>) {
        self.fail_gets_for = hashes.into_iter().collect();
    }

    /// Makes every KTS operation fail (simulates the timestamping responsible
    /// being unreachable, as opposed to crashed-and-restarted). Used to test
    /// the degraded retrieval path.
    pub fn fail_kts(&mut self, fail: bool) {
        self.fail_kts = fail;
    }

    /// The indirect observation of `key`: one probe per replication hash
    /// function, every holder answering.
    fn indirect_observation(&self, key: &Key) -> IndirectObservation {
        let slots = self.replicas.get(key).map(Vec::as_slice).unwrap_or(&[]);
        IndirectObservation::from_probes(self.family.replication_ids().map(|hash| {
            match slots.iter().find(|(h, _)| *h == hash) {
                Some((_, value)) => Probe::Replica(value.timestamp),
                None => Probe::NoReplica,
            }
        }))
    }
}

impl<D: DurableState> UmsAccess for InMemoryDht<D> {
    fn kts_gen_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        if self.fail_kts {
            return Err(UmsError::lookup("timestamping peer unreachable (injected)"));
        }
        let observation = self.indirect_observation(key);
        Ok(self
            .kts
            .gen_ts(key, || observation, &mut self.durability)
            .timestamp)
    }

    fn kts_last_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        if self.fail_kts {
            return Err(UmsError::lookup("timestamping peer unreachable (injected)"));
        }
        let observation = self.indirect_observation(key);
        Ok(self
            .kts
            .last_ts(key, || observation, &mut self.durability)
            .timestamp)
    }

    fn put_replica(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &ReplicaValue,
    ) -> Result<(), UmsError> {
        if self.fail_all_puts || self.fail_puts_for.contains(&hash) {
            return Err(UmsError::lookup("replica holder unreachable (injected)"));
        }
        let slots = self.replicas.entry(key.clone()).or_default();
        let accepted = match slots.iter_mut().find(|(h, _)| *h == hash) {
            Some((_, stored)) => {
                let newer = value.is_newer_than(Some(stored));
                if newer {
                    *stored = value.clone();
                }
                newer
            }
            None => {
                slots.push((hash, value.clone()));
                true
            }
        };
        if accepted {
            self.durability
                .record_replica_put(hash, key, value, self.family.eval(hash, key));
        }
        Ok(())
    }

    fn get_replica(&mut self, hash: HashId, key: &Key) -> Result<Option<ReplicaValue>, UmsError> {
        if self.fail_gets_for.contains(&hash) {
            return Err(UmsError::lookup("replica holder unreachable (injected)"));
        }
        Ok(self
            .replicas
            .get(key)
            .and_then(|slots| slots.iter().find(|(h, _)| *h == hash))
            .map(|(_, value)| value.clone()))
    }

    fn replication_count(&self) -> usize {
        self.family.num_replication()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ums;

    #[test]
    fn crash_of_timestamp_service_recovers_via_indirect_init() {
        let mut dht = InMemoryDht::new(10, 11);
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        ums::insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        dht.crash_timestamp_service();
        // The next retrieve re-initializes the counter from the replicas and
        // still returns the latest version.
        let got = ums::retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.data.unwrap(), b"v2");
        assert!(got.is_current);
        // And the next insert keeps monotonicity: its timestamp exceeds v2's.
        let report = ums::insert(&mut dht, &key, b"v3".to_vec()).unwrap();
        assert!(report.timestamp > got.timestamp);
    }

    #[test]
    fn dropped_replicas_do_not_break_retrieve() {
        let mut dht = InMemoryDht::new(6, 12);
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        let ids = dht.replication_ids_vec();
        for h in ids.iter().take(5) {
            dht.drop_replica(*h, &key);
        }
        let got = ums::retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.data.unwrap(), b"v1");
        assert!(got.is_current);
        assert_eq!(got.replicas_probed, 6);
    }

    #[test]
    fn stored_replica_count_tracks_inserts() {
        let mut dht = InMemoryDht::new(4, 13);
        assert_eq!(dht.stored_replicas(), 0);
        ums::insert(&mut dht, &Key::new("a"), b"1".to_vec()).unwrap();
        ums::insert(&mut dht, &Key::new("b"), b"2".to_vec()).unwrap();
        assert_eq!(dht.stored_replicas(), 8);
        // Updating an existing key does not add replicas.
        ums::insert(&mut dht, &Key::new("a"), b"3".to_vec()).unwrap();
        assert_eq!(dht.stored_replicas(), 8);
    }

    #[test]
    fn kts_state_is_inspectable() {
        let mut dht = InMemoryDht::new(4, 14);
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"v".to_vec()).unwrap();
        assert!(dht.kts().has_counter(&key));
        assert_eq!(dht.kts().counter_value(&key), Some(Timestamp(1)));
    }

    #[test]
    fn accepted_mutations_are_journaled_in_apply_order() {
        use crate::durability::recording::{Event, RecordingJournal};

        let mut dht = InMemoryDht::with_durability(3, 15, RecordingJournal::default());
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        let events = dht.durability().events.clone();
        // One counter mutation (gen_ts), then one accepted put per replica.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], Event::SetCounter(key.clone(), Timestamp(1)));
        for (i, hash) in dht.replication_ids().enumerate() {
            match &events[1 + i] {
                Event::Put(h, k, ts, position) => {
                    assert_eq!(*h, hash);
                    assert_eq!(k, &key);
                    assert_eq!(*ts, Timestamp(1));
                    assert_eq!(*position, dht.family().eval(hash, &key));
                }
                other => panic!("expected a put event, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejected_stale_puts_are_not_journaled() {
        use crate::durability::recording::RecordingJournal;

        let mut dht = InMemoryDht::with_durability(3, 16, RecordingJournal::default());
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        ums::insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        let journaled_before = dht.durability().events.len();
        // Replay a stale write: it must neither change state nor be journaled.
        let hash = dht.replication_ids_vec()[0];
        let stale = ReplicaValue::new(b"v1".to_vec(), Timestamp(1));
        dht.put_replica(hash, &key, &stale).unwrap();
        assert_eq!(dht.durability().events.len(), journaled_before);
        // Retrieval is also journal-free.
        ums::retrieve(&mut dht, &key).unwrap();
        assert_eq!(dht.durability().events.len(), journaled_before);
    }
}
