//! Integration tests contrasting UMS semantics with the BRK baseline — the
//! behavioural claims of Sections 3 and 6 of the paper.

use rdht::core::{brk, ums, InMemoryDht, ReplicaValue, UmsAccess};
use rdht::hashing::Key;

/// Replays the paper's introductory scenario: an update misses one replica
/// holder ("p2 cannot be reached"), the holder comes back with stale data,
/// and a reader must still get the current value — and know that it is
/// current.
#[test]
fn missed_update_does_not_surface_stale_data() {
    let mut dht = InMemoryDht::new(2, 1);
    let key = Key::new("k");
    // put(k, d0) reaches both replica holders.
    ums::insert(&mut dht, &key, b"d0".to_vec()).unwrap();
    // put(k, d1): the holder under the second hash function is unreachable.
    let ids = dht.replication_ids_vec();
    dht.fail_puts_for_hashes(vec![ids[1]]);
    let report = ums::insert(&mut dht, &key, b"d1".to_vec()).unwrap();
    assert_eq!(report.replicas_written, 1);
    assert_eq!(report.replicas_failed, 1);
    dht.fail_puts_for_hashes(Vec::<rdht::hashing::HashId>::new());

    // The stale holder is reachable again; a reader still gets d1, certified.
    let got = ums::retrieve(&mut dht, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"d1");
}

/// The concurrent-update scenario of the introduction: two updates reach the
/// two replica holders in opposite orders. BRK ends ambiguous; UMS converges
/// to the update holding the later timestamp.
#[test]
fn concurrent_updates_brk_ambiguous_ums_deterministic() {
    let key = Key::new("k");

    // BRK: both updaters read version 1 and mint version 2; each holder keeps
    // the write that reached it first.
    let mut brk_dht = InMemoryDht::new(2, 2);
    brk::insert(&mut brk_dht, &key, b"d0".to_vec()).unwrap();
    let ids = brk_dht.replication_ids_vec();
    let d2 = ReplicaValue::new(b"d2".to_vec(), rdht::Timestamp(2));
    let d3 = ReplicaValue::new(b"d3".to_vec(), rdht::Timestamp(2));
    brk_dht.put_replica(ids[0], &key, &d2).unwrap();
    brk_dht.put_replica(ids[0], &key, &d3).unwrap();
    brk_dht.put_replica(ids[1], &key, &d3).unwrap();
    brk_dht.put_replica(ids[1], &key, &d2).unwrap();
    let brk_result = brk::retrieve(&mut brk_dht, &key).unwrap();
    assert!(
        brk_result.ambiguity.is_some(),
        "same version, different payloads: BRK cannot identify the current replica"
    );

    // UMS: the update that obtained the later timestamp wins everywhere.
    let mut dht = InMemoryDht::new(2, 2);
    ums::insert(&mut dht, &key, b"d0".to_vec()).unwrap();
    let ids = dht.replication_ids_vec();
    let ts2 = dht.kts_gen_ts(&key).unwrap();
    let ts3 = dht.kts_gen_ts(&key).unwrap();
    let d2 = ReplicaValue::new(b"d2".to_vec(), ts2);
    let d3 = ReplicaValue::new(b"d3".to_vec(), ts3);
    dht.put_replica(ids[0], &key, &d2).unwrap();
    dht.put_replica(ids[0], &key, &d3).unwrap();
    dht.put_replica(ids[1], &key, &d3).unwrap();
    dht.put_replica(ids[1], &key, &d2).unwrap();
    let ums_result = ums::retrieve(&mut dht, &key).unwrap();
    assert!(ums_result.is_current);
    assert_eq!(ums_result.data.unwrap(), b"d3");
}

/// Cost claim: UMS stops at the first current replica; BRK always reads all
/// of them (Figures 9–10 in microcosm).
#[test]
fn probe_counts_diverge_with_replica_count() {
    for replicas in [5usize, 10, 20, 40] {
        let key = Key::new("doc");
        let mut ums_dht = InMemoryDht::new(replicas, 3);
        ums::insert(&mut ums_dht, &key, b"v".to_vec()).unwrap();
        let ums_result = ums::retrieve(&mut ums_dht, &key).unwrap();
        assert_eq!(ums_result.replicas_probed, 1);

        let mut brk_dht = InMemoryDht::new(replicas, 3);
        brk::insert(&mut brk_dht, &key, b"v".to_vec()).unwrap();
        let brk_result = brk::retrieve(&mut brk_dht, &key).unwrap();
        assert_eq!(brk_result.replicas_probed, replicas);
    }
}

/// When no current replica survives, UMS degrades gracefully: it returns the
/// most recent surviving replica and *says* it could not certify currency.
#[test]
fn ums_reports_uncertified_fallback_honestly() {
    let mut dht = InMemoryDht::new(6, 4);
    let key = Key::new("doc");
    ums::insert(&mut dht, &key, b"old".to_vec()).unwrap();
    ums::insert(&mut dht, &key, b"new".to_vec()).unwrap();
    for hash in dht.replication_ids_vec() {
        dht.overwrite_replica(
            hash,
            &key,
            ReplicaValue::new(b"old".to_vec(), rdht::Timestamp(1)),
        );
    }
    let got = ums::retrieve(&mut dht, &key).unwrap();
    assert!(!got.is_current);
    assert_eq!(got.data.unwrap(), b"old");
    assert_eq!(got.last_timestamp, rdht::Timestamp(2));
}
