//! **BRK** — the baseline the paper compares UMS against (Sections 5.1 and
//! 6), modelled on the BRICKS project's replication scheme (Knezevic,
//! Wombacher, Risse — GLOBE 2005).
//!
//! BRICKS replicates a data item under multiple correlated keys and attaches
//! a *version number* to each replica, incremented on every update. BRK needs
//! nothing from the DHT but `put_h` / `get_h` over `Hr`, so it runs over the
//! same [`UmsAccess`] environments as UMS and calls only
//! [`UmsAccess::get_replica`], [`UmsAccess::put_replica`] and
//! [`UmsAccess::replication_ids`] — never KTS. The version number rides in
//! [`ReplicaValue::timestamp`], but it is minted by the updater (the highest
//! version read, plus one), not by a per-key timestamping service. Holders
//! keep a write by the one holder rule ([`ReplicaValue::is_newer_than`]):
//! only a strictly higher version replaces the one they hold. Two properties
//! follow — both of which the paper criticizes and fixes with UMS/KTS:
//!
//! 1. **A retrieve must fetch every replica.** A replica cannot prove it is
//!    current on its own, so [`retrieve`] reads all `|Hr|` replicas and keeps
//!    the one with the highest version — `|Hr|` sequential DHT gets instead
//!    of UMS's expected `< 1/p_t`.
//! 2. **Concurrent updates are ambiguous.** Two peers that update
//!    concurrently read the same current version `v` and both write `v + 1`.
//!    Each holder keeps whichever of the two arrived first, so replicas
//!    disagree about what "version v+1" contains and no reader can tell which
//!    is the real latest value ([`ConcurrencyAmbiguity`]).

use rdht_hashing::Key;

use crate::access::UmsAccess;
use crate::error::UmsError;
use crate::types::{ReplicaValue, Timestamp};
use crate::ums::InsertReport;

/// Outcome of a BRK [`retrieve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetrieveReport {
    /// The payload of (one of) the highest-version replica(s).
    pub data: Option<Vec<u8>>,
    /// The highest version observed ([`Timestamp::ZERO`] when no replica
    /// answered with data).
    pub version: Timestamp,
    /// Replicas probed — always `|Hr|` for BRK, which is exactly the cost the
    /// paper's Figures 9–10 show growing linearly with the replica count.
    pub replicas_probed: usize,
    /// Probes that failed outright.
    pub probes_failed: usize,
    /// Evidence of concurrent-update ambiguity, if any (several distinct
    /// payloads share the highest version).
    pub ambiguity: Option<ConcurrencyAmbiguity>,
}

/// Concurrent updates minted the same version number for different payloads,
/// so "the current replica" is not well defined — the failure mode of
/// version-counter replication that KTS timestamps eliminate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcurrencyAmbiguity {
    /// The contested version number.
    pub version: Timestamp,
    /// The distinct payloads observed under that version.
    pub conflicting_payloads: Vec<Vec<u8>>,
}

/// Updates the data associated with `key` using BRK's versioning protocol:
/// read every replica to learn the current maximum version, then write the
/// new payload with `max + 1` to every replica. The report's `timestamp` is
/// that version.
///
/// Fails with [`UmsError::NoReplicaWritten`] if not a single replica could be
/// written.
pub fn insert<A: UmsAccess + ?Sized>(
    access: &mut A,
    key: &Key,
    data: Vec<u8>,
) -> Result<InsertReport, UmsError> {
    let ids = access.replication_ids();
    let mut max_version = Timestamp::ZERO;
    for hash in ids {
        if let Ok(Some(existing)) = access.get_replica(hash, key) {
            max_version = max_version.max(existing.timestamp);
        }
    }
    let value = ReplicaValue::new(data, max_version.next());
    let mut replicas_written = 0;
    let mut replicas_failed = 0;
    for hash in ids {
        match access.put_replica(hash, key, &value) {
            Ok(()) => replicas_written += 1,
            Err(_) => replicas_failed += 1,
        }
    }
    if replicas_written == 0 {
        return Err(UmsError::NoReplicaWritten);
    }
    Ok(InsertReport {
        timestamp: value.timestamp,
        replicas_written,
        replicas_failed,
    })
}

/// Retrieves the data associated with `key`: every replica is read and the
/// one with the highest version number is returned. If several distinct
/// payloads share that highest version (concurrent updates), the first one
/// encountered is returned and the ambiguity is reported.
pub fn retrieve<A: UmsAccess + ?Sized>(
    access: &mut A,
    key: &Key,
) -> Result<RetrieveReport, UmsError> {
    let mut best: Option<ReplicaValue> = None;
    let mut conflicting: Vec<Vec<u8>> = Vec::new();
    let mut replicas_probed = 0;
    let mut probes_failed = 0;

    for hash in access.replication_ids() {
        replicas_probed += 1;
        match access.get_replica(hash, key) {
            Ok(Some(replica)) => match &best {
                Some(current) if replica.timestamp == current.timestamp => {
                    if replica.data != current.data && !conflicting.contains(&replica.data) {
                        conflicting.push(replica.data);
                    }
                }
                _ => {
                    if replica.is_newer_than(best.as_ref()) {
                        conflicting.clear();
                        best = Some(replica);
                    }
                }
            },
            Ok(None) => {}
            Err(_) => probes_failed += 1,
        }
    }

    let Some(best) = best else {
        return Ok(RetrieveReport {
            data: None,
            version: Timestamp::ZERO,
            replicas_probed,
            probes_failed,
            ambiguity: None,
        });
    };
    let ambiguity = (!conflicting.is_empty()).then(|| {
        let mut payloads = vec![best.data.clone()];
        payloads.extend(conflicting);
        ConcurrencyAmbiguity {
            version: best.timestamp,
            conflicting_payloads: payloads,
        }
    });
    Ok(RetrieveReport {
        data: Some(best.data),
        version: best.timestamp,
        replicas_probed,
        probes_failed,
        ambiguity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryDht;
    use rdht_hashing::HashId;

    #[test]
    fn insert_then_retrieve_round_trips() {
        let mut dht = InMemoryDht::new(10, 1);
        let key = Key::new("doc");
        let report = insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        assert_eq!(report.timestamp, Timestamp(1));
        assert_eq!(report.replicas_written, 10);
        let got = retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.data.unwrap(), b"v1");
        assert_eq!(got.version, Timestamp(1));
        assert!(got.ambiguity.is_none());
        // The updater minted the version: KTS was never asked.
        assert!(!dht.kts().has_counter(&key));
    }

    #[test]
    fn retrieve_always_probes_all_replicas() {
        // The defining cost difference with UMS: even when every replica is
        // current, BRK cannot stop early.
        let mut dht = InMemoryDht::new(25, 2);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        let got = retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.replicas_probed, 25);
    }

    #[test]
    fn versions_increase_across_updates() {
        let mut dht = InMemoryDht::new(5, 3);
        let key = Key::new("doc");
        for i in 1..=7u64 {
            let report = insert(&mut dht, &key, format!("v{i}").into_bytes()).unwrap();
            assert_eq!(report.timestamp, Timestamp(i));
        }
        let got = retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.data.unwrap(), b"v7");
    }

    #[test]
    fn retrieve_of_unknown_key_is_empty() {
        let mut dht = InMemoryDht::new(5, 4);
        let got = retrieve(&mut dht, &Key::new("missing")).unwrap();
        assert!(got.data.is_none());
        assert_eq!(got.version, Timestamp::ZERO);
        assert_eq!(got.replicas_probed, 5);
    }

    #[test]
    fn stale_replicas_lose_to_higher_versions() {
        let mut dht = InMemoryDht::new(6, 5);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"old".to_vec()).unwrap();
        insert(&mut dht, &key, b"new".to_vec()).unwrap();
        // Roll two replicas back to the old version.
        let old = ReplicaValue::new(b"old".to_vec(), Timestamp(1));
        for hash in dht.replication_ids_vec().into_iter().take(2) {
            dht.overwrite_replica(hash, &key, old.clone());
        }
        let got = retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.data.unwrap(), b"new");
        assert_eq!(got.version, Timestamp(2));
    }

    #[test]
    fn concurrent_updates_produce_ambiguity() {
        // Two peers update concurrently: both observe version 1 and both mint
        // version 2, writing to the replicas in opposite orders. Each holder
        // keeps the write that reached it first, so the holders disagree.
        let mut dht = InMemoryDht::new(4, 6);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"base".to_vec()).unwrap();
        let from_a = ReplicaValue::new(b"from A".to_vec(), Timestamp(2));
        let from_b = ReplicaValue::new(b"from B".to_vec(), Timestamp(2));
        for (i, hash) in dht.replication_ids_vec().into_iter().enumerate() {
            let (first, second) = if i % 2 == 0 {
                (&from_a, &from_b)
            } else {
                (&from_b, &from_a)
            };
            dht.put_replica(hash, &key, first).unwrap();
            dht.put_replica(hash, &key, second).unwrap();
        }
        let got = retrieve(&mut dht, &key).unwrap();
        let ambiguity = got.ambiguity.expect("same version, different payloads");
        assert_eq!(ambiguity.version, Timestamp(2));
        assert_eq!(ambiguity.conflicting_payloads.len(), 2);
    }

    #[test]
    fn insert_reports_partial_write_failures() {
        let mut dht = InMemoryDht::new(6, 7);
        let ids = dht.replication_ids_vec();
        dht.fail_puts_for_hashes(vec![ids[2]]);
        let report = insert(&mut dht, &Key::new("doc"), b"x".to_vec()).unwrap();
        assert_eq!(report.replicas_written, 5);
        assert_eq!(report.replicas_failed, 1);
    }

    #[test]
    fn insert_fails_when_nothing_can_be_written() {
        let mut dht = InMemoryDht::new(3, 8);
        let ids = dht.replication_ids_vec();
        dht.fail_puts_for_hashes(ids);
        let err = insert(&mut dht, &Key::new("doc"), b"x".to_vec()).unwrap_err();
        assert_eq!(err, UmsError::NoReplicaWritten);
    }

    #[test]
    fn failed_probes_are_counted() {
        let mut dht = InMemoryDht::new(4, 9);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"v".to_vec()).unwrap();
        dht.fail_gets_for_hashes(vec![HashId(0), HashId(3)]);
        let got = retrieve(&mut dht, &key).unwrap();
        assert_eq!(got.probes_failed, 2);
        assert_eq!(got.data.unwrap(), b"v");
    }
}
