//! In-memory reference implementation of [`BrkAccess`].

use std::collections::{HashMap, HashSet};

use rdht_hashing::{HashFamily, HashId, Key};

use rdht_core::UmsError;

use crate::access::BrkAccess;
use crate::types::VersionedValue;

/// A single-process BRK store, mirroring [`rdht_core::InMemoryDht`] for the
/// baseline: used in unit tests, property tests and examples. Replicas are
/// grouped per key so that lookups borrow the key without cloning it.
#[derive(Clone, Debug)]
pub struct InMemoryBrk {
    family: HashFamily,
    replicas: HashMap<Key, Vec<(HashId, VersionedValue)>>,
    fail_puts_for: HashSet<HashId>,
    fail_gets_for: HashSet<HashId>,
}

impl InMemoryBrk {
    /// Creates a BRK store with `num_replicas` replication hash functions
    /// derived from `seed`.
    pub fn new(num_replicas: usize, seed: u64) -> Self {
        InMemoryBrk {
            family: HashFamily::new(num_replicas, seed),
            replicas: HashMap::new(),
            fail_puts_for: HashSet::new(),
            fail_gets_for: HashSet::new(),
        }
    }

    /// Replication hash ids as a vector (test convenience).
    pub fn replication_ids_vec(&self) -> Vec<HashId> {
        self.family.replication_ids().collect()
    }

    /// Overwrites a replica unconditionally (used to fabricate stale state).
    pub fn overwrite(&mut self, hash: HashId, key: &Key, value: VersionedValue) {
        let slots = self.replicas.entry(key.clone()).or_default();
        match slots.iter_mut().find(|(h, _)| *h == hash) {
            Some((_, stored)) => *stored = value,
            None => slots.push((hash, value)),
        }
    }

    /// Makes writes fail for the given hash functions.
    pub fn fail_puts_for(&mut self, hashes: impl IntoIterator<Item = HashId>) {
        self.fail_puts_for = hashes.into_iter().collect();
    }

    /// Makes reads fail for the given hash functions.
    pub fn fail_gets_for(&mut self, hashes: impl IntoIterator<Item = HashId>) {
        self.fail_gets_for = hashes.into_iter().collect();
    }
}

impl BrkAccess for InMemoryBrk {
    fn put_versioned(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &VersionedValue,
    ) -> Result<(), UmsError> {
        if self.fail_puts_for.contains(&hash) {
            return Err(UmsError::lookup("replica holder unreachable (injected)"));
        }
        let slots = self.replicas.entry(key.clone()).or_default();
        match slots.iter_mut().find(|(h, _)| *h == hash) {
            Some((_, stored)) => {
                if value.supersedes(stored.version) {
                    *stored = value.clone();
                }
            }
            None => slots.push((hash, value.clone())),
        }
        Ok(())
    }

    fn get_versioned(
        &mut self,
        hash: HashId,
        key: &Key,
    ) -> Result<Option<VersionedValue>, UmsError> {
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
    use crate::types::Version;

    #[test]
    fn equal_version_writes_take_arrival_order() {
        let mut dht = InMemoryBrk::new(2, 1);
        let key = Key::new("doc");
        let h = dht.replication_ids_vec()[0];
        let first = VersionedValue::new(b"first".to_vec(), Version(1));
        let second = VersionedValue::new(b"second".to_vec(), Version(1));
        BrkAccess::put_versioned(&mut dht, h, &key, &first).unwrap();
        BrkAccess::put_versioned(&mut dht, h, &key, &second).unwrap();
        let got = BrkAccess::get_versioned(&mut dht, h, &key)
            .unwrap()
            .unwrap();
        assert_eq!(got.data, b"second");
    }

    #[test]
    fn lower_version_writes_are_rejected() {
        let mut dht = InMemoryBrk::new(2, 2);
        let key = Key::new("doc");
        let h = dht.replication_ids_vec()[0];
        BrkAccess::put_versioned(
            &mut dht,
            h,
            &key,
            &VersionedValue::new(b"v2".to_vec(), Version(2)),
        )
        .unwrap();
        BrkAccess::put_versioned(
            &mut dht,
            h,
            &key,
            &VersionedValue::new(b"v1".to_vec(), Version(1)),
        )
        .unwrap();
        let got = BrkAccess::get_versioned(&mut dht, h, &key)
            .unwrap()
            .unwrap();
        assert_eq!(got.data, b"v2");
        assert_eq!(got.version, Version(2));
    }
}
