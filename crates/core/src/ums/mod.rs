//! UMS — the Update Management Service (Section 3 of the paper).
//!
//! UMS provides two client-side operations over any [`UmsAccess`]
//! environment, reproducing Figure 2 of the paper:
//!
//! * [`insert`] — generate a timestamp with KTS and write the stamped replica
//!   to `rsp(k, h)` for every replication hash function `h ∈ Hr`;
//! * [`retrieve`] — obtain the last generated timestamp from KTS and probe
//!   replicas one at a time, returning the first *current* replica found, or
//!   the most recent replica seen when no current one is reachable.
//!
//! Both return reports ([`InsertReport`], [`RetrieveReport`]) that expose how
//! much work was done (replicas written/probed), which is what the
//! experiments and the Theorem 1 validation measure.
//!
//! ## Which steps of Figure 2 depend on which
//!
//! In `insert` every put carries the timestamp `gen_ts` returned, so no put
//! can be *applied* before the stamp exists; the `|Hr|` puts are independent
//! of each other. Only the peer that generates the stamp, `rsp(k, h_ts)`,
//! has it without being told: it can store the replicas it holds itself
//! right after stamping, in Figure 2's order, as part of the same request.
//! So [`insert`] hands the environment the whole step once the data is known
//! ([`UmsAccess::stamp_and_put`]): the default is `gen_ts` followed by the
//! puts, and an environment with real messages sends the data along with
//! `gen_ts` when `rsp(k, h_ts)` holds replicas, leaving the put round to the
//! other holders — and skipping it when there are none. Those other holders
//! still wait for the stamp: an insert is two round trips unless every
//! replica lives with the counter.
//!
//! `retrieve` opens with no chain at all: Figure 2 writes `ts_1 := last_ts(k)`
//! and then the probe loop, but the *first* probe is sent whatever `ts_1`
//! turns out to be and uses nothing from it — only the comparison
//! `ts = ts_1` needs both. So [`retrieve`] asks for the two together
//! ([`UmsAccess::kts_last_ts_and_probe`]), and an environment with real
//! round trips overlaps them: one round trip to a current answer, not two.
//! Every *later* probe stays sequential, as the paper prescribes — whether
//! it is sent at all depends on the one before it — so the number and kind
//! of requests is exactly Figure 2's.
//!
//! ## Which replica is probed first
//!
//! Figure 2 says `for each h ∈ Hr` and prescribes no order: any replica
//! stamped `ts_1` is the current one, so the order decides how many probes a
//! retrieve pays, never what it returns. [`retrieve`] therefore lets the
//! environment name the first probe ([`UmsAccess::first_probe`]) and reads
//! the remaining ids in increasing order, each once. The default names
//! `HashId(0)`, which is plain id order; an environment that pays per message
//! names a replica that costs it least (the threaded cluster: one that lives
//! on the peer that also answers `last_ts`).
//!
//! Currency is unaffected because it never rested on the order of the two
//! reads: both happen after the retrieve began, and a replica is certified
//! current only when its stamp *equals* the `last_ts` that was read. If a
//! concurrent insert falls between the two reads (either way round) the
//! stamps differ, the replica is treated as stale and probing continues —
//! the sequential order has the same window between its two calls.

use rdht_hashing::Key;

use crate::access::UmsAccess;
use crate::error::UmsError;
use crate::types::{ReplicaValue, Timestamp};

/// Outcome of an [`insert`] operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertReport {
    /// The timestamp obtained from KTS and attached to every replica written.
    pub timestamp: Timestamp,
    /// How many replicas were successfully written.
    pub replicas_written: usize,
    /// How many `put_h` operations failed (their replica holders were
    /// unreachable); those replicas stay stale until the next update.
    pub replicas_failed: usize,
}

/// Outcome of a [`retrieve`] operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetrieveReport {
    /// The returned payload (`None` when no replica at all was reachable).
    pub data: Option<Vec<u8>>,
    /// Timestamp of the returned replica ([`Timestamp::ZERO`] when `data` is
    /// `None`).
    pub timestamp: Timestamp,
    /// The last timestamp KTS reports for the key (`ts_1` in Figure 2).
    pub last_timestamp: Timestamp,
    /// Whether the returned replica is guaranteed current, i.e. its timestamp
    /// equals the last timestamp generated for the key.
    pub is_current: bool,
    /// Number of replicas probed (`get_h` calls issued). This is the random
    /// variable `X` of the Theorem 1 analysis.
    pub replicas_probed: usize,
    /// How many of those probes failed outright (lookup errors), as opposed
    /// to returning no or stale data.
    pub probes_failed: usize,
    /// Set when the environment degraded the answer: part of the system was
    /// unreachable (KTS, or some replica holders) and the report carries the
    /// best *reachable* stamp instead of a certified one. A degraded report
    /// is never `is_current`; a current report is never degraded (currency
    /// is a certificate, however many probes failed on the way to it).
    pub degraded: bool,
}

/// Inserts (or updates) the data associated with `key`, following the
/// `insert(k, data)` algorithm of Figure 2.
///
/// A fresh timestamp is generated by KTS, then the stamped replica is written
/// to the responsible of `key` under every replication hash function.
/// Receivers keep the write only if its timestamp is newer than what they
/// hold, so when several peers insert concurrently, the insert that obtained
/// the latest timestamp wins everywhere it reaches — concurrent updates never
/// leave replicas ambiguous, unlike version-counter schemes.
///
/// Fails with [`UmsError::NoReplicaWritten`] if not a single replica could be
/// written (the update would otherwise be silently lost).
pub fn insert<A: UmsAccess + ?Sized>(
    access: &mut A,
    key: &Key,
    data: Vec<u8>,
) -> Result<InsertReport, UmsError> {
    // `gen_ts` and the |Hr| puts as one step: environments with real
    // message costs group the puts by peer and let the stamping peer store
    // its own replicas in the `gen_ts` request.
    let (timestamp, outcome) = access.stamp_and_put(key, data)?;
    if outcome.written == 0 {
        return Err(UmsError::NoReplicaWritten);
    }
    Ok(InsertReport {
        timestamp,
        replicas_written: outcome.written,
        replicas_failed: outcome.failed,
    })
}

/// Retrieves the most recent replica associated with `key`, following the
/// `retrieve(k)` algorithm of Figure 2.
///
/// KTS is asked for the last timestamp generated for the key (`ts_1`) together
/// with the first probe (they are independent, see the module docs); the
/// remaining replicas are then probed one at a time and the first one stamped
/// `ts_1` is returned immediately as *current*. If no current replica is
/// reachable, the most recent replica seen is returned with
/// `is_current == false` — the caller knows the guarantee could not be
/// established.
///
/// Retrieval degrades rather than fails: when KTS itself is unreachable the
/// replicas are probed anyway and the best reachable stamp is returned with
/// `degraded == true` (and `last_timestamp == Timestamp::ZERO`, since no
/// certificate exists). Only when *nothing* is reachable — KTS down and not a
/// single replica answering with data — does `retrieve` return the KTS error.
pub fn retrieve<A: UmsAccess + ?Sized>(
    access: &mut A,
    key: &Key,
) -> Result<RetrieveReport, UmsError> {
    // `last_ts` and the first probe are independent and asked for together
    // (see the module docs); every later probe waits for the one before it.
    // The environment names the first replica, the rest follow in id order.
    let first = (access.replication_count() > 0).then(|| access.first_probe(key));
    let (last, first_probe) = match first {
        Some(hash) => {
            let (last, probe) = access.kts_last_ts_and_probe(key, hash);
            (last, Some(probe))
        }
        None => (access.kts_last_ts(key), None),
    };
    let hashes = access.replication_ids().filter(|hash| Some(*hash) != first);
    let (last_timestamp, kts_error) = match last {
        Ok(ts) => (ts, None),
        Err(error) => (Timestamp::ZERO, Some(error)),
    };
    let mut most_recent: Option<ReplicaValue> = None;
    let mut replicas_probed = 0;
    let mut probes_failed = 0;

    let later_probes = hashes.map(|hash| access.get_replica(hash, key));
    for probe in first_probe.into_iter().chain(later_probes) {
        replicas_probed += 1;
        match probe {
            Ok(Some(replica)) => {
                // Currency can only be certified against a KTS answer.
                if kts_error.is_none()
                    && !last_timestamp.is_zero()
                    && replica.timestamp == last_timestamp
                {
                    return Ok(RetrieveReport {
                        timestamp: replica.timestamp,
                        data: Some(replica.data),
                        last_timestamp,
                        is_current: true,
                        replicas_probed,
                        probes_failed,
                        degraded: false,
                    });
                }
                if replica.is_newer_than(most_recent.as_ref()) {
                    most_recent = Some(replica);
                }
            }
            Ok(None) => {}
            Err(_) => probes_failed += 1,
        }
    }

    if let Some(error) = kts_error {
        // KTS unreachable: the probes are all we have. Surface the best
        // reachable replica as an explicitly degraded answer; fail only
        // when no replica yielded data either.
        return match most_recent {
            Some(replica) => Ok(RetrieveReport {
                timestamp: replica.timestamp,
                data: Some(replica.data),
                last_timestamp: Timestamp::ZERO,
                is_current: false,
                replicas_probed,
                probes_failed,
                degraded: true,
            }),
            None => Err(error),
        };
    }

    Ok(match most_recent {
        Some(replica) => RetrieveReport {
            // A replica can only be *newer* than `ts_1` if the timestamping
            // counter was under-initialized after a failure; the data is
            // still the best available, but currency cannot be certified.
            is_current: false,
            timestamp: replica.timestamp,
            data: Some(replica.data),
            last_timestamp,
            replicas_probed,
            probes_failed,
            degraded: probes_failed > 0,
        },
        None => RetrieveReport {
            data: None,
            timestamp: Timestamp::ZERO,
            last_timestamp,
            is_current: false,
            replicas_probed,
            probes_failed,
            degraded: probes_failed > 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryDht;
    use rdht_hashing::HashId;

    #[test]
    fn insert_then_retrieve_is_current() {
        let mut dht = InMemoryDht::new(10, 1);
        let key = Key::new("doc");
        let report = insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        assert_eq!(report.replicas_written, 10);
        assert_eq!(report.replicas_failed, 0);
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"v1");
        assert_eq!(
            got.replicas_probed, 1,
            "a current replica is found on the first probe"
        );
    }

    #[test]
    fn successive_inserts_return_latest() {
        let mut dht = InMemoryDht::new(5, 2);
        let key = Key::new("doc");
        for i in 0..20u32 {
            insert(&mut dht, &key, format!("v{i}").into_bytes()).unwrap();
        }
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"v19");
        assert_eq!(got.timestamp, got.last_timestamp);
    }

    #[test]
    fn retrieve_of_unknown_key_returns_nothing() {
        let mut dht = InMemoryDht::new(5, 3);
        let got = retrieve(&mut dht, &Key::new("missing")).unwrap();
        assert!(got.data.is_none());
        assert!(!got.is_current);
        assert_eq!(got.last_timestamp, Timestamp::ZERO);
        assert_eq!(got.replicas_probed, 5);
    }

    #[test]
    fn stale_replicas_are_skipped_until_current_found() {
        let mut dht = InMemoryDht::new(8, 4);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"old".to_vec()).unwrap();
        insert(&mut dht, &key, b"new".to_vec()).unwrap();
        // Make the first few replicas stale by rolling them back to the old value.
        let ids = dht.replication_ids_vec();
        for h in ids.iter().take(4) {
            dht.overwrite_replica(*h, &key, ReplicaValue::new(b"old".to_vec(), Timestamp(1)));
        }
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"new");
        assert_eq!(
            got.replicas_probed, 5,
            "four stale replicas probed before the current one"
        );
    }

    #[test]
    fn retrieve_falls_back_to_most_recent_when_no_current_replica() {
        let mut dht = InMemoryDht::new(6, 5);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        // Wipe every replica of the current version, leaving stale ones.
        let ids = dht.replication_ids_vec();
        for h in &ids {
            dht.overwrite_replica(*h, &key, ReplicaValue::new(b"v1".to_vec(), Timestamp(1)));
        }
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(!got.is_current);
        assert_eq!(got.data.unwrap(), b"v1");
        assert_eq!(
            got.replicas_probed, 6,
            "all replicas are probed when none is current"
        );
        assert_eq!(got.last_timestamp, Timestamp(2));
    }

    #[test]
    fn concurrent_inserts_resolve_to_latest_timestamp() {
        // Two "peers" race: both read, then both write, in opposite orders for
        // different hash functions. With timestamps the later one wins
        // everywhere because receivers keep only the newest stamp.
        let mut dht = InMemoryDht::new(4, 6);
        let key = Key::new("doc");
        let ts_a = dht.kts_gen_ts(&key).unwrap();
        let ts_b = dht.kts_gen_ts(&key).unwrap();
        assert!(ts_b > ts_a);
        let value_a = ReplicaValue::new(b"from A".to_vec(), ts_a);
        let value_b = ReplicaValue::new(b"from B".to_vec(), ts_b);
        let ids = dht.replication_ids_vec();
        // A writes first on even replicas, B first on odd replicas; then the
        // other writes arrive (reordered network).
        for (i, h) in ids.iter().enumerate() {
            if i % 2 == 0 {
                dht.put_replica(*h, &key, &value_a).unwrap();
                dht.put_replica(*h, &key, &value_b).unwrap();
            } else {
                dht.put_replica(*h, &key, &value_b).unwrap();
                dht.put_replica(*h, &key, &value_a).unwrap();
            }
        }
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"from B");
    }

    #[test]
    fn insert_fails_when_no_replica_can_be_written() {
        let mut dht = InMemoryDht::new(3, 7);
        dht.fail_all_puts(true);
        let err = insert(&mut dht, &Key::new("doc"), b"x".to_vec()).unwrap_err();
        assert_eq!(err, UmsError::NoReplicaWritten);
    }

    #[test]
    fn insert_reports_partial_failures() {
        let mut dht = InMemoryDht::new(6, 8);
        dht.fail_puts_for_hashes(vec![
            dht.replication_ids_vec()[0],
            dht.replication_ids_vec()[3],
        ]);
        let report = insert(&mut dht, &Key::new("doc"), b"x".to_vec()).unwrap();
        assert_eq!(report.replicas_written, 4);
        assert_eq!(report.replicas_failed, 2);
    }

    #[test]
    fn retrieve_counts_failed_probes() {
        let mut dht = InMemoryDht::new(4, 9);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        dht.fail_gets_for_hashes(vec![dht.replication_ids_vec()[0]]);
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.probes_failed, 1);
        assert_eq!(got.replicas_probed, 2);
        assert!(
            !got.degraded,
            "currency is a certificate: a current answer is never degraded"
        );
    }

    #[test]
    fn retrieve_degrades_when_kts_is_unreachable() {
        let mut dht = InMemoryDht::new(5, 20);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        dht.fail_kts(true);
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.degraded);
        assert!(!got.is_current);
        assert_eq!(got.last_timestamp, Timestamp::ZERO);
        assert_eq!(got.data.unwrap(), b"v2", "best reachable stamp wins");
        assert_eq!(got.timestamp, Timestamp(2));
    }

    #[test]
    fn retrieve_fails_only_when_nothing_is_reachable() {
        let mut dht = InMemoryDht::new(3, 21);
        let key = Key::new("doc");
        dht.fail_kts(true);
        // KTS down and no replica holds data: the KTS error surfaces.
        retrieve(&mut dht, &key).unwrap_err();
        // As soon as one replica is reachable with data, retrieval degrades
        // instead of failing.
        dht.fail_kts(false);
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        dht.fail_kts(true);
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(got.degraded);
        assert_eq!(got.data.unwrap(), b"v1");
    }

    #[test]
    fn stale_answer_with_failed_probes_is_degraded() {
        let mut dht = InMemoryDht::new(4, 22);
        let key = Key::new("doc");
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        let ids = dht.replication_ids_vec();
        // The current version survives only on replica 0, which is then
        // unreachable; the rest are rolled back to v1.
        for h in ids.iter().skip(1) {
            dht.overwrite_replica(*h, &key, ReplicaValue::new(b"v1".to_vec(), Timestamp(1)));
        }
        dht.fail_gets_for_hashes(vec![ids[0]]);
        let got = retrieve(&mut dht, &key).unwrap();
        assert!(!got.is_current);
        assert!(
            got.degraded,
            "stale answer with unreachable holders is degraded"
        );
        assert_eq!(got.data.unwrap(), b"v1");
    }

    /// Records which access methods `insert` and `retrieve` call, and for
    /// which hashes, over an [`InMemoryDht`] that does the actual work.
    struct Recording {
        dht: InMemoryDht,
        /// What `first_probe` answers; `None` keeps the trait's default.
        first: Option<HashId>,
        overlapped_calls: usize,
        last_ts_calls: usize,
        probed: Vec<HashId>,
        stamp_and_put_calls: usize,
        /// `gen_ts` and `put_h` calls made outside `stamp_and_put`.
        bare_insert_steps: usize,
    }

    impl Recording {
        fn over(dht: InMemoryDht) -> Self {
            Recording {
                dht,
                first: None,
                overlapped_calls: 0,
                last_ts_calls: 0,
                probed: Vec::new(),
                stamp_and_put_calls: 0,
                bare_insert_steps: 0,
            }
        }
    }

    impl UmsAccess for Recording {
        fn first_probe(&self, key: &Key) -> HashId {
            self.first.unwrap_or_else(|| self.dht.first_probe(key))
        }
        fn kts_gen_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
            self.bare_insert_steps += 1;
            self.dht.kts_gen_ts(key)
        }
        fn stamp_and_put(
            &mut self,
            key: &Key,
            data: Vec<u8>,
        ) -> Result<(Timestamp, crate::PutReplicasOutcome), UmsError> {
            self.stamp_and_put_calls += 1;
            self.dht.stamp_and_put(key, data)
        }
        fn kts_last_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
            self.last_ts_calls += 1;
            self.dht.kts_last_ts(key)
        }
        fn kts_last_ts_and_probe(
            &mut self,
            key: &Key,
            hash: HashId,
        ) -> (
            Result<Timestamp, UmsError>,
            Result<Option<ReplicaValue>, UmsError>,
        ) {
            self.overlapped_calls += 1;
            self.probed.push(hash);
            self.dht.kts_last_ts_and_probe(key, hash)
        }
        fn put_replica(
            &mut self,
            hash: HashId,
            key: &Key,
            value: &ReplicaValue,
        ) -> Result<(), UmsError> {
            self.bare_insert_steps += 1;
            self.dht.put_replica(hash, key, value)
        }
        fn get_replica(
            &mut self,
            hash: HashId,
            key: &Key,
        ) -> Result<Option<ReplicaValue>, UmsError> {
            self.probed.push(hash);
            self.dht.get_replica(hash, key)
        }
        fn replication_count(&self) -> usize {
            self.dht.replication_count()
        }
    }

    /// `retrieve` opens with exactly one `kts_last_ts_and_probe` (never a
    /// bare `kts_last_ts`), and the replica that call probed is not probed
    /// again — whether the first replica is current, stale, or KTS is down.
    #[test]
    fn retrieve_overlaps_last_ts_with_the_first_probe_exactly_once() {
        let key = Key::new("doc");
        let mut dht = InMemoryDht::new(6, 30);
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        let ids = dht.replication_ids_vec();

        let mut access = Recording::over(dht);
        let got = retrieve(&mut access, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.replicas_probed, 1);
        assert_eq!(access.probed, ids[..1]);

        // Three stale replicas in front of the current one.
        for h in ids.iter().take(3) {
            access
                .dht
                .overwrite_replica(*h, &key, ReplicaValue::new(b"v1".to_vec(), Timestamp(1)));
        }
        access.probed.clear();
        let got = retrieve(&mut access, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.replicas_probed, 4);
        assert_eq!(
            access.probed,
            ids[..4],
            "each replica probed once, in order"
        );

        // KTS down: the probe the overlapped call made is the first of the
        // |Hr| the degraded path reads, not an extra one.
        access.dht.fail_kts(true);
        access.probed.clear();
        let got = retrieve(&mut access, &key).unwrap();
        assert!(got.degraded && !got.is_current);
        assert_eq!(got.replicas_probed, ids.len());
        assert_eq!(access.probed, ids);

        assert_eq!(access.overlapped_calls, 3, "one per retrieve");
        assert_eq!(access.last_ts_calls, 0);
    }

    /// `insert` hands the environment the whole step once the data is known:
    /// exactly one `stamp_and_put` per insert, and no `gen_ts` or `put_h` of
    /// its own — whether every replica is written, some, or none.
    #[test]
    fn insert_calls_stamp_and_put_exactly_once() {
        let key = Key::new("doc");
        let mut access = Recording::over(InMemoryDht::new(5, 32));
        let report = insert(&mut access, &key, b"v1".to_vec()).unwrap();
        assert_eq!(
            (report.timestamp, report.replicas_written),
            (Timestamp(1), 5)
        );

        let ids = access.dht.replication_ids_vec();
        access.dht.fail_puts_for_hashes(ids[..2].to_vec());
        let report = insert(&mut access, &key, b"v2".to_vec()).unwrap();
        assert_eq!((report.replicas_written, report.replicas_failed), (3, 2));

        access.dht.fail_all_puts(true);
        let err = insert(&mut access, &key, b"v3".to_vec()).unwrap_err();
        assert_eq!(err, UmsError::NoReplicaWritten);

        assert_eq!(access.stamp_and_put_calls, 3, "one per insert");
        assert_eq!(access.bare_insert_steps, 0);
    }

    /// An environment that names another first probe moves that replica to
    /// the front and nothing else: the rest follow in id order, each replica
    /// is still read once, and a current answer is the same answer.
    #[test]
    fn a_named_first_probe_goes_first_and_the_rest_keep_id_order() {
        let key = Key::new("doc");
        let mut dht = InMemoryDht::new(5, 31);
        insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        let ids = dht.replication_ids_vec();
        let mut access = Recording::over(dht);
        access.first = Some(ids[3]);

        let got = retrieve(&mut access, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"v2");
        assert_eq!((got.replicas_probed, &access.probed[..]), (1, &ids[3..4]));

        // Only the last replica is current: the named one is read first,
        // then 0, 1, 2 — not 3 again — and 4 certifies.
        for h in &ids[..4] {
            access
                .dht
                .overwrite_replica(*h, &key, ReplicaValue::new(b"v1".to_vec(), Timestamp(1)));
        }
        access.probed.clear();
        let got = retrieve(&mut access, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.replicas_probed, 5);
        assert_eq!(access.probed, [ids[3], ids[0], ids[1], ids[2], ids[4]]);
    }
}
