//! Tests of the threaded deployment: real concurrency, real failover, real
//! crash/restart recovery from on-disk peer state.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rdht_core::{ums, Timestamp, UmsAccess};
use rdht_hashing::{HashId, Key};
use rdht_storage::{FsyncPolicy, StorageEngine, StorageOptions};

use crate::{
    Cluster, ClusterConfig, ClusterStorage, FaultPlan, HandoffFault, LinkFaults, MembershipError,
    PeerId, Reply, Request, TransportKind,
};

static STORAGE_ROOT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh storage root for one test, removed up-front in case a previous
/// run left debris.
pub(crate) fn fresh_storage_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "rdht-net-test-{}-{}-{tag}",
        std::process::id(),
        // relaxed: uniqueness needs only RMW atomicity, no ordering.
        STORAGE_ROOT_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A fault plan holding every frame back `millis` one way — the one way to
/// model network latency.
fn delayed_links(seed: u64, millis: u64) -> FaultPlan {
    FaultPlan::new(seed).with_all_links(LinkFaults::delayed(
        std::time::Duration::from_millis(millis),
        std::time::Duration::ZERO,
    ))
}

#[test]
fn insert_and_retrieve_round_trip() {
    let cluster = Cluster::spawn(8, 5, 1);
    let mut client = cluster.client();
    let key = Key::new("doc");
    let report = ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
    assert_eq!(report.replicas_written, 5);
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"v1");
    assert!(client.messages() > 0);
    cluster.shutdown();
}

#[test]
fn updates_supersede_older_values() {
    let cluster = Cluster::spawn(6, 4, 2);
    let mut client = cluster.client();
    let key = Key::new("doc");
    for i in 0..10u32 {
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
    }
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"v9");
    cluster.shutdown();
}

#[test]
fn retrieve_of_unknown_key_returns_nothing() {
    let cluster = Cluster::spawn(4, 3, 3);
    let mut client = cluster.client();
    let got = ums::retrieve(&mut client, &Key::new("nothing here")).unwrap();
    assert!(got.data.is_none());
    assert!(!got.is_current);
    cluster.shutdown();
}

#[test]
fn concurrent_writers_converge_to_single_latest_value() {
    // Many threads update the same key concurrently through their own
    // clients; afterwards, a retrieve returns one of the written values, it
    // is certified current, and its timestamp equals the last timestamp KTS
    // generated (the race resolved deterministically via timestamps).
    let cluster = Arc::new(Cluster::spawn(12, 6, 4));
    let key = Key::new("contended");
    let writers = 8;
    let updates_per_writer = 25;

    std::thread::scope(|scope| {
        for w in 0..writers {
            let cluster = Arc::clone(&cluster);
            let key = key.clone();
            scope.spawn(move || {
                let mut client = cluster.client();
                for i in 0..updates_per_writer {
                    let payload = format!("writer-{w}-update-{i}").into_bytes();
                    ums::insert(&mut client, &key, payload).unwrap();
                }
            });
        }
    });

    let mut client = cluster.client();
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(
        got.is_current,
        "after all writers finish the retrieve must be certified current"
    );
    let data = got.data.unwrap();
    assert!(String::from_utf8_lossy(&data).starts_with("writer-"));
    // The winning timestamp is the total number of generated timestamps.
    assert_eq!(got.timestamp.0, (writers * updates_per_writer) as u64);

    // Every replica slot now stores that same winning timestamp (mutual
    // consistency of replicas after the race).
    let last = got.timestamp;
    for hash in client.replication_ids() {
        let replica = client.get_replica(hash, &key).unwrap().unwrap();
        assert_eq!(replica.timestamp, last);
        assert_eq!(replica.data, data);
    }

    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn readers_and_writers_race_without_stale_certified_answers() {
    let cluster = Arc::new(Cluster::spawn(10, 5, 5));
    let key = Key::new("live feed");
    {
        let mut client = cluster.client();
        ums::insert(&mut client, &key, b"seed".to_vec()).unwrap();
    }

    std::thread::scope(|scope| {
        let writer_cluster = Arc::clone(&cluster);
        let writer_key = key.clone();
        scope.spawn(move || {
            let mut client = writer_cluster.client();
            for i in 0..50u32 {
                ums::insert(&mut client, &writer_key, format!("rev-{i}").into_bytes()).unwrap();
            }
        });
        for _ in 0..3 {
            let reader_cluster = Arc::clone(&cluster);
            let reader_key = key.clone();
            scope.spawn(move || {
                let mut client = reader_cluster.client();
                for _ in 0..30 {
                    let got = ums::retrieve(&mut client, &reader_key).unwrap();
                    // A certified answer must carry the timestamp KTS reported
                    // as the latest at that moment — never older.
                    if got.is_current {
                        assert_eq!(got.timestamp, got.last_timestamp);
                    }
                    assert!(got.data.is_some());
                }
            });
        }
    });

    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn crash_of_timestamp_responsible_triggers_indirect_initialization() {
    let cluster = Cluster::spawn(10, 6, 6);
    let key = Key::new("important doc");
    let mut client = cluster.client();
    for i in 0..5u32 {
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
    }
    let before = ums::retrieve(&mut client, &key).unwrap();
    assert!(before.is_current);

    // Kill the peer that generates timestamps for this key; its counters die
    // with it. The next responsible must re-initialize from the replicas.
    let responsible = cluster.timestamp_responsible(&key).unwrap();
    cluster.crash_peer(responsible).unwrap();
    assert!(cluster.live_peers() < 10);

    // Where everything lives now that the ring closed over the dead peer.
    let kts = cluster.timestamp_responsible(&key).unwrap();
    let holders: Vec<PeerId> = client
        .replication_ids()
        .map(|hash| cluster.replica_responsible(hash, &key).unwrap())
        .collect();
    let first = holders[client.first_probe(&key).0 as usize];

    let (messages, inits) = (client.messages(), client.indirect_initializations());
    let after = ums::retrieve(&mut client, &key).unwrap();
    assert_eq!(
        after.data.unwrap(),
        b"v4",
        "latest surviving value is still returned"
    );
    // The requests are the sequential algorithm's — the opening pair, |Hr| = 6
    // observation probes, the hint-carrying KTS request, the retrieve's later
    // probes — and each round costs one frame per distinct peer it reaches,
    // there and back.
    let opening = if first == kts { 1 } else { 2 };
    let observation = holders.iter().collect::<BTreeSet<_>>().len() as u64;
    let later = after.replicas_probed as u64 - 1;
    assert_eq!(client.indirect_initializations() - inits, 1);
    assert_eq!(
        client.messages() - messages,
        2 * (opening + observation + 1 + later)
    );
    assert_eq!(client.retries(), 0);

    // Updates keep working and remain monotonic after the failover.
    let report = ums::insert(&mut client, &key, b"v5".to_vec()).unwrap();
    assert!(report.timestamp > before.timestamp);
    let finally = ums::retrieve(&mut client, &key).unwrap();
    assert!(finally.is_current);
    assert_eq!(finally.data.unwrap(), b"v5");
    cluster.shutdown();
}

#[test]
fn crash_of_replica_holders_degrades_availability_not_correctness() {
    let cluster = Cluster::spawn(12, 8, 7);
    let key = Key::new("doc");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
    ums::insert(&mut client, &key, b"v2".to_vec()).unwrap();

    // Crash holders of the first few replicas (two hash functions can map
    // to the same peer, so an AlreadyDead error here is expected).
    for hash in client.replication_ids().into_iter().take(4) {
        if let Some(peer) = cluster.replica_responsible(hash, &key) {
            let _ = cluster.crash_peer(peer);
        }
    }
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert_eq!(
        got.data.unwrap(),
        b"v2",
        "surviving replicas still serve the latest value"
    );
    cluster.shutdown();
}

/// The KTS responsible is crashed (its thread torn down), restarted from its
/// storage directory, and a subsequent retrieve is certified current with
/// the pre-crash latest payload. The counter is not left in memory: the
/// restart re-initialises it indirectly, from the replicas, in its batched
/// observation, so the retrieve needs no per-key initialization.
#[test]
fn crash_restart_of_kts_responsible_recovers_indirectly() {
    let root = fresh_storage_root("kts-responsible");
    let config = ClusterConfig::new(8, 5, 11).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Always),
    ));
    let mut cluster = Cluster::spawn_with(config);
    let key = Key::new("important doc");
    let mut client = cluster.client();
    for i in 0..5u32 {
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
    }
    let before = ums::retrieve(&mut client, &key).unwrap();
    assert!(before.is_current);

    // Kill the peer that generates timestamps for this key, then bring it
    // back from its on-disk directory.
    let responsible = cluster.timestamp_responsible(&key).unwrap();
    cluster.crash_peer(responsible).unwrap();
    assert_eq!(cluster.live_peers(), 7);

    let report = cluster.restart_peer(responsible).unwrap();
    assert_eq!(cluster.live_peers(), 8);
    // The peer owns its old ring position again.
    assert_eq!(cluster.timestamp_responsible(&key), Some(responsible));
    // Its durable counter image for the key survived the crash…
    assert!(
        report.recovered_counters >= 1,
        "the timestamp responsible journaled at least this key's counter"
    );

    // …but the live VCS starts empty (Rule 1): the restart observed the
    // key's replicas and installed the counter from them, so a fresh client
    // meets no NeedsInitialization and still certifies the pre-crash value.
    assert_eq!(
        report.counters_reinitialized, report.recovered_counters,
        "every recovered counter was re-initialised in the batched observation"
    );
    let mut fresh = cluster.client();
    let after = ums::retrieve(&mut fresh, &key).unwrap();
    assert_eq!(
        fresh.indirect_initializations(),
        0,
        "the restart re-initialised the counter"
    );
    assert!(after.is_current, "currency is re-certified after recovery");
    assert_eq!(after.data.unwrap(), b"v4", "pre-crash latest payload");
    assert_eq!(after.timestamp, before.timestamp);

    // Updates continue monotonically after the recovery.
    let next = ums::insert(&mut fresh, &key, b"v5".to_vec()).unwrap();
    assert!(next.timestamp > before.timestamp);
    let finally = ums::retrieve(&mut fresh, &key).unwrap();
    assert!(finally.is_current);
    assert_eq!(finally.data.unwrap(), b"v5");

    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Stronger durability claim: crash *every* peer (all in-memory state gone),
/// restart them all from disk, and every key still retrieves current. The
/// data can only have come from the journals.
#[test]
fn whole_cluster_crash_restart_serves_current_data_from_disk() {
    let root = fresh_storage_root("whole-cluster");
    let config = ClusterConfig::new(6, 4, 12).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Always),
    ));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("doc-{i}"))).collect();
    {
        let mut client = cluster.client();
        for (i, key) in keys.iter().enumerate() {
            for version in 0..=i {
                let payload = format!("doc-{i}-v{version}").into_bytes();
                ums::insert(&mut client, key, payload).unwrap();
            }
        }
    }

    let peers = cluster.peer_ids();
    for &peer in &peers {
        cluster.crash_peer(peer).unwrap();
    }
    assert_eq!(cluster.live_peers(), 0);
    let (mut recovered_replicas, mut reinitialized) = (0, 0);
    for &peer in &peers {
        let report = cluster.restart_peer(peer).unwrap();
        recovered_replicas += report.recovered_replicas;
        reinitialized += report.counters_reinitialized;
    }
    assert_eq!(cluster.live_peers(), peers.len());
    // Every (key, hash) replica written must be back: 8 keys × |Hr| = 4.
    // (Every acknowledged insert followed its covering fsync; a thread crash
    // loses nothing already written to the fs anyway.)
    assert_eq!(recovered_replicas, keys.len() * 4);
    // Every key's counter came back at its timestamp responsible's restart:
    // the holders restarted later were still down, so the observation may
    // have missed them, and the recovery floor carried the counter.
    assert_eq!(reinitialized, keys.len());

    let mut client = cluster.client();
    for (i, key) in keys.iter().enumerate() {
        let got = ums::retrieve(&mut client, key).unwrap();
        assert!(got.is_current, "doc-{i} must re-certify from durable state");
        assert_eq!(got.data.unwrap(), format!("doc-{i}-v{i}").into_bytes());
    }
    assert_eq!(
        client.indirect_initializations(),
        0,
        "the restarts re-initialised every key's counter"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The same claim where the compaction rule matters: every peer's state is
/// larger than the compaction floor, so its log is left to grow *past* the
/// floor (a fixed cadence would have cut it there) before it is rewritten.
/// A whole-cluster crash at that point must still recover every acknowledged
/// insert from a snapshot plus a log longer than the floor.
#[test]
fn whole_cluster_crash_restart_recovers_from_logs_longer_than_the_compaction_floor() {
    let root = fresh_storage_root("long-logs");
    let options = StorageOptions::with_fsync(FsyncPolicy::Never);
    let storage = ClusterStorage::with_options(&root, options);
    // Seed 84 places the two peers so that each holds about half the ring.
    let mut cluster =
        Cluster::spawn_with(ClusterConfig::new(2, 4, 84).with_storage(storage.clone()));
    let keys: Vec<Key> = (0..2_600).map(|i| Key::new(format!("doc-{i}"))).collect();
    let rewritten = 1_100;
    {
        let mut client = cluster.client();
        for key in &keys {
            ums::insert(&mut client, key, b"v0".to_vec()).unwrap();
        }
        for key in &keys[..rewritten] {
            ums::insert(&mut client, key, b"v1".to_vec()).unwrap();
        }
    }

    let peers = cluster.peer_ids();
    for &peer in &peers {
        cluster.crash_peer(peer).unwrap();
    }
    for &peer in &peers {
        let on_disk = StorageEngine::recover_state(&storage.peer_dir(peer)).unwrap();
        let records = (on_disk.replicas.len() + on_disk.counters.len()) as u64;
        assert!(on_disk.generation >= 1, "{peer:?} compacted at the floor");
        assert!(
            on_disk.wal_ops > options.snapshot_every && on_disk.wal_ops < records,
            "{peer:?}: a log of {} ops over {records} records",
            on_disk.wal_ops
        );
    }
    let mut recovered_replicas = 0;
    for &peer in &peers {
        recovered_replicas += cluster.restart_peer(peer).unwrap().recovered_replicas;
    }
    assert_eq!(recovered_replicas, keys.len() * 4);

    let mut client = cluster.client();
    for (i, key) in keys.iter().enumerate() {
        let got = ums::retrieve(&mut client, key).unwrap();
        assert!(got.is_current, "doc-{i} must re-certify from durable state");
        let expected: &[u8] = if i < rewritten { b"v1" } else { b"v0" };
        assert_eq!(got.data.unwrap(), expected);
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Restarting a peer of a storage-less cluster simply rejoins it empty —
/// the volatile analogue of a rejoin after failure.
#[test]
fn restart_without_storage_rejoins_empty() {
    let mut cluster = Cluster::spawn(5, 3, 13);
    let key = Key::new("doc");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();

    let victim = cluster.timestamp_responsible(&key).unwrap();
    cluster.crash_peer(victim).unwrap();
    let report = cluster.restart_peer(victim).unwrap();
    assert_eq!(report.recovered_replicas, 0);
    assert_eq!(report.recovered_counters, 0);
    assert_eq!(cluster.live_peers(), 5);

    // The surviving replicas still certify the value through indirect init.
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert_eq!(got.data.unwrap(), b"v1");
    cluster.shutdown();
}

/// The ISSUE 4 satellite: lifecycle operations against unknown or
/// already-dead peer ids report errors instead of silently no-op'ing.
#[test]
fn lifecycle_operations_report_unknown_and_dead_peers() {
    let mut cluster = Cluster::spawn(3, 3, 14);
    let bogus = crate::PeerId(0xdead_beef);
    assert!(!cluster.peer_ids().contains(&bogus));
    assert_eq!(
        cluster.restart_peer(bogus),
        Err(MembershipError::UnknownPeer(bogus.0))
    );
    assert_eq!(
        cluster.crash_peer(bogus),
        Err(MembershipError::UnknownPeer(bogus.0))
    );
    assert_eq!(
        cluster.leave_peer(bogus),
        Err(MembershipError::UnknownPeer(bogus.0))
    );

    // A double crash is an error too: the second call tested nothing.
    let victim = cluster.peer_ids()[0];
    cluster.crash_peer(victim).unwrap();
    assert_eq!(
        cluster.crash_peer(victim),
        Err(MembershipError::AlreadyDead(victim.0))
    );
    assert_eq!(
        cluster.leave_peer(victim),
        Err(MembershipError::AlreadyDead(victim.0))
    );
    // Joining an id that already exists (even dead: its identity is
    // reserved for restart) is rejected.
    assert_eq!(
        cluster.join_peer(victim),
        Err(MembershipError::AlreadyMember(victim.0))
    );

    // Restart works on the dead peer and brings the count back.
    cluster.restart_peer(victim).unwrap();
    assert_eq!(cluster.live_peers(), 3);
    cluster.shutdown();
}

/// A durable peer's journal survives a *graceful* shutdown too: a second
/// cluster spawned over the same root serves the data.
#[test]
fn cluster_respawn_over_same_root_keeps_data() {
    let root = fresh_storage_root("respawn");
    let storage = ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Never), // Shutdown syncs
    );
    let key = Key::new("persistent doc");
    {
        let cluster =
            Cluster::spawn_with(ClusterConfig::new(4, 3, 15).with_storage(storage.clone()));
        let mut client = cluster.client();
        ums::insert(&mut client, &key, b"kept".to_vec()).unwrap();
        cluster.shutdown();
    }
    {
        // Same seed -> same peer ids -> same peer directories.
        let cluster = Cluster::spawn_with(ClusterConfig::new(4, 3, 15).with_storage(storage));
        let mut client = cluster.client();
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"kept");
        cluster.shutdown();
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Link latency must not apply to shutdown drains (lifecycle messages are
/// exempt from the fault plan) — a delayed cluster shuts down promptly.
#[test]
fn delayed_cluster_shuts_down_promptly() {
    let config = ClusterConfig::new(8, 3, 16).with_faults(delayed_links(16, 150));
    let cluster = Cluster::spawn_with(config);
    let start = std::time::Instant::now();
    cluster.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "shutdown must skip the link delay, took {elapsed:?}"
    );
}

#[test]
fn artificial_delay_slows_operations_down() {
    let fast = Cluster::spawn(4, 3, 8);
    let slow = Cluster::spawn_with(ClusterConfig::new(4, 3, 8).with_faults(delayed_links(8, 2)));

    let key = Key::new("doc");
    let mut fast_client = fast.client();
    let mut slow_client = slow.client();

    let t0 = std::time::Instant::now();
    ums::insert(&mut fast_client, &key, b"v".to_vec()).unwrap();
    let fast_elapsed = t0.elapsed();

    let t1 = std::time::Instant::now();
    ums::insert(&mut slow_client, &key, b"v".to_vec()).unwrap();
    let slow_elapsed = t1.elapsed();

    assert!(slow_elapsed > fast_elapsed);
    fast.shutdown();
    slow.shutdown();
}

#[test]
fn peer_ids_are_stable_and_sorted() {
    let cluster = Cluster::spawn(16, 4, 9);
    let ids = cluster.peer_ids();
    assert_eq!(ids.len(), 16);
    assert!(ids.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(cluster.live_peers(), 16);
    cluster.shutdown();
}

#[test]
#[should_panic(expected = "at least one peer")]
fn empty_cluster_is_rejected() {
    let _ = Cluster::spawn(0, 3, 10);
}

/// The ISSUE 5 acceptance test: full-durability group commit under real
/// concurrency. Eight writer threads hammer a storage-backed cluster whose
/// peers run the drain-apply-sync-reply loop (`FsyncPolicy::Always`);
/// every insert is acknowledged only after its covering fsync, and a
/// whole-cluster crash + restart afterwards recovers every acknowledged
/// value from the journals alone.
#[test]
fn group_commit_concurrent_writers_recover_after_whole_cluster_crash() {
    let root = fresh_storage_root("group-commit-acceptance");
    let config = ClusterConfig::new(6, 4, 31).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Always),
    ));
    let cluster = Arc::new(Cluster::spawn_with(config));
    let writers = 8;
    let keys_per_writer = 6;

    std::thread::scope(|scope| {
        for w in 0..writers {
            let cluster = Arc::clone(&cluster);
            scope.spawn(move || {
                let mut client = cluster.client();
                for i in 0..keys_per_writer {
                    let key = Key::new(format!("w{w}-doc-{i}"));
                    ums::insert(&mut client, &key, format!("w{w}-v{i}").into_bytes())
                        .expect("group-commit insert");
                }
            });
        }
    });

    let mut cluster = match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster,
        Err(_) => panic!("cluster still shared"),
    };
    // Every acknowledged write reads back current before the crash…
    let mut client = cluster.client();
    for w in 0..writers {
        for i in 0..keys_per_writer {
            let key = Key::new(format!("w{w}-doc-{i}"));
            let got = ums::retrieve(&mut client, &key).unwrap();
            assert!(got.is_current, "{key:?} current under group commit");
            assert_eq!(got.data.unwrap(), format!("w{w}-v{i}").into_bytes());
        }
    }
    // …and after a whole-cluster fail-stop, from the journals alone.
    let peers = cluster.peer_ids();
    for &peer in &peers {
        cluster.crash_peer(peer).unwrap();
    }
    for &peer in &peers {
        cluster.restart_peer(peer).unwrap();
    }
    let mut recovered = cluster.client();
    for w in 0..writers {
        for i in 0..keys_per_writer {
            let key = Key::new(format!("w{w}-doc-{i}"));
            let got = ums::retrieve(&mut recovered, &key).unwrap();
            assert!(got.is_current, "{key:?} recovered after crash");
            assert_eq!(got.data.unwrap(), format!("w{w}-v{i}").into_bytes());
        }
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The same deterministic request sequence issued against a cluster whose
/// peers serve one request at a time (`Never`) and a group-commit cluster
/// (`Always`: drained batches, one covering fsync each) of the same seed
/// produces **identical replies, reply for reply** — insert reports,
/// retrieve payloads, certification flags and timestamps — and identical
/// replica state afterwards. Batching changes syscalls, never observable
/// semantics.
#[test]
fn group_commit_is_reply_for_reply_identical_to_per_op_path() {
    let roots = [
        fresh_storage_root("reply-for-reply-never"),
        fresh_storage_root("reply-for-reply-always"),
    ];
    let policies = [FsyncPolicy::Never, FsyncPolicy::Always];
    let keys: Vec<Key> = (0..7).map(|i| Key::new(format!("doc-{i}"))).collect();

    let mut transcripts = Vec::new();
    for (root, policy) in roots.iter().zip(policies) {
        let config = ClusterConfig::new(5, 4, 33).with_storage(ClusterStorage::with_options(
            root,
            StorageOptions::with_fsync(policy),
        ));
        let cluster = Cluster::spawn_with(config);
        let mut client = cluster.client();
        let mut transcript: Vec<String> = Vec::new();
        // A fixed mixed workload: interleaved inserts and retrieves whose
        // pattern exercises overwrites, fresh keys and read-your-writes.
        for round in 0..4u64 {
            for (i, key) in keys.iter().enumerate() {
                if (round + i as u64).is_multiple_of(3) {
                    let got = ums::retrieve(&mut client, key).unwrap();
                    transcript.push(format!(
                        "retrieve {key:?} -> {:?} current={} ts={}",
                        got.data, got.is_current, got.timestamp.0
                    ));
                } else {
                    let payload = format!("r{round}-{i}").into_bytes();
                    let report = ums::insert(&mut client, key, payload).unwrap();
                    transcript.push(format!(
                        "insert {key:?} -> ts={} written={}",
                        report.timestamp.0, report.replicas_written
                    ));
                }
            }
        }
        // Final state probe: every replica of every key.
        for key in &keys {
            for hash in client.replication_ids() {
                let replica = client.get_replica(hash, key).unwrap();
                transcript.push(format!("replica {hash:?} {key:?} -> {replica:?}"));
            }
        }
        transcripts.push(transcript);
        cluster.shutdown();
        std::fs::remove_dir_all(root).unwrap();
    }
    let group = transcripts.pop().unwrap();
    let per_op = transcripts.pop().unwrap();
    assert_eq!(per_op.len(), group.len());
    for (a, b) in per_op.iter().zip(&group) {
        assert_eq!(a, b, "group commit diverged from the per-op path");
    }
}

/// A gracefully departed peer goes at its leave, as the paper's direct
/// algorithm has it: its thread has finished within a bounded wait after
/// `leave_peer` returns, with no knob, and the moved range keeps serving
/// through the directory.
#[test]
fn departed_peer_exits_at_its_leave_and_range_serves_via_directory() {
    let mut cluster = Cluster::spawn(6, 4, 34);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"kept".to_vec()).unwrap();
    }

    let victim = cluster.peer_ids()[2];
    cluster.leave_peer(victim).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !cluster.peer_thread_finished(victim) {
        assert!(
            std::time::Instant::now() < deadline,
            "the departed peer's thread outlived its leave"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The departed peer's range serves via the directory: every key is
    // certified current and the direct hand-off left nothing to
    // re-initialize.
    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.is_current, "{key:?} after the leave");
        assert_eq!(got.data.unwrap(), b"kept");
    }
    assert_eq!(fresh.indirect_initializations(), 0);

    // Lifecycle still behaves: the departed peer restarts (its thread is
    // already gone; the restart respawns it) and the cluster shuts down.
    cluster.restart_peer(victim).unwrap();
    assert_eq!(cluster.live_peers(), 6);
    cluster.shutdown();
}

/// A `(hash, key)` pair the join moved to `joiner`, with a stored replica.
fn moved_replica(cluster: &Cluster, keys: &[Key], joiner: PeerId) -> (HashId, Key) {
    let hashes: Vec<HashId> = cluster.client().replication_ids().collect();
    keys.iter()
        .flat_map(|key| hashes.iter().map(move |&hash| (hash, key.clone())))
        .find(|(hash, key)| cluster.replica_responsible(*hash, key) == Some(joiner))
        .expect("the join moved at least one replica")
}

/// A join source that receives a request for the range it handed away
/// re-resolves it through the directory, not through any state of its own:
/// here the joiner is hard-restarted (new mailbox, new directory endpoint)
/// and requests injected at the source, as if routed there under the
/// pre-join view, must still reach the data at the restarted joiner — never
/// the source's own pruned store.
#[test]
fn join_source_reroutes_to_a_hard_restarted_joiner_through_the_directory() {
    use crate::{Reply, Request};

    let root = fresh_storage_root("join-source-reroute");
    let config = ClusterConfig::new(6, 4, 35).with_storage(ClusterStorage::new(&root));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v1".to_vec()).unwrap();
    }

    let joiner = unused_peer_id(&cluster, 0x3535_0000_0000_0001);
    let join = cluster.join_peer(joiner).unwrap();
    let (probe_hash, probe_key) = moved_replica(&cluster, &keys, joiner);
    // Hard-restart the joiner: its journal survives, its mailbox does not.
    cluster.restart_peer(joiner).unwrap();

    let source = cluster.peer_endpoint(join.source).expect("source endpoint");
    for attempt in 0..2 {
        let reply = source
            .call(
                Request::GetReplica {
                    hash: probe_hash,
                    key: probe_key.clone(),
                },
                std::time::Duration::from_secs(5),
            )
            .expect("the re-sent request must be answered");
        match reply {
            Reply::Replica(stored) => {
                let (payload, _) = stored.unwrap_or_else(|| {
                    panic!(
                        "attempt {attempt}: the directory re-send must reach the restarted \
                         joiner, not the source's pruned local store"
                    )
                });
                assert_eq!(payload, b"v1");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A join source never answers for a range the directory gives to another
/// peer. The joiner's thread is stopped behind the directory's back (a
/// `Crash` sent to its endpoint, so the directory still lists it alive):
/// requests for a moved position sent to the source then end in a typed
/// failure — not `Replica(None)` from the source's pruned store, and not a
/// put acknowledged from it.
#[test]
fn join_source_never_serves_a_range_the_directory_gives_away() {
    use crate::{CallError, Request};

    let mut cluster = Cluster::spawn(6, 4, 36);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v1".to_vec()).unwrap();
    }

    let joiner = unused_peer_id(&cluster, 0x3636_0000_0000_0001);
    let join = cluster.join_peer(joiner).unwrap();
    let (hash, key) = moved_replica(&cluster, &keys, joiner);
    cluster
        .peer_endpoint(joiner)
        .expect("joiner endpoint")
        .send_no_reply(Request::Crash)
        .unwrap();
    while !cluster.peer_thread_finished(joiner) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(cluster.peer_is_alive(joiner), "the directory was not told");

    let source = cluster.peer_endpoint(join.source).expect("source endpoint");
    let wait = std::time::Duration::from_secs(5);
    let get = Request::GetReplica {
        hash,
        key: key.clone(),
    };
    let put = Request::PutReplica {
        op: None,
        hash,
        key,
        payload: b"v2".to_vec(),
        timestamp: rdht_core::Timestamp(u64::MAX),
    };
    for request in [get, put] {
        match source.call(request.clone(), wait) {
            Err(CallError::Dropped | CallError::Rejected(_)) => {}
            other => panic!("{request:?} at the source ended in {other:?}"),
        }
    }
    cluster.shutdown();
}

/// A peer id not yet present in the cluster, derived from a fixed seed.
fn unused_peer_id(cluster: &Cluster, seed: u64) -> PeerId {
    let mut candidate = seed;
    while cluster.peer_ids().contains(&PeerId(candidate)) {
        candidate = candidate.wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    PeerId(candidate)
}

/// A departed peer's thread is joined at its leave: after join → leave
/// cycles the cluster holds a thread handle for exactly its live peers.
#[test]
fn departed_peers_threads_are_joined_at_their_leave() {
    let mut cluster = Cluster::spawn(4, 3, 35);
    let key = Key::new("doc");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"kept".to_vec()).unwrap();
    for cycle in 0..5u64 {
        let joiner = unused_peer_id(&cluster, 0x5eed_0000_0000_0000 + cycle);
        cluster.join_peer(joiner).unwrap();
        cluster.leave_peer(joiner).unwrap();
        let mut live: Vec<PeerId> = cluster
            .peer_ids()
            .into_iter()
            .filter(|&peer| cluster.peer_is_alive(peer))
            .collect();
        live.sort();
        assert_eq!(cluster.threaded_peers(), live, "after cycle {cycle}");
    }
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"kept");
    cluster.shutdown();
}

/// The ISSUE 4 acceptance test: under ongoing UMS traffic, one peer joins
/// and one peer gracefully leaves a storage-backed cluster; afterwards every
/// retrieve is certified current and a fresh client reports **zero**
/// indirect initializations — the direct algorithm of Section 4.2.1 was
/// taken for every moved counter.
#[test]
fn join_and_graceful_leave_under_traffic_stay_current_with_zero_indirect_inits() {
    use std::sync::atomic::AtomicBool;

    let root = fresh_storage_root("membership-acceptance");
    let config = ClusterConfig::new(8, 5, 21).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Always),
    ));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..6).map(|i| Key::new(format!("doc-{i}"))).collect();
    {
        let mut client = cluster.client();
        for key in &keys {
            ums::insert(&mut client, key, b"v0".to_vec()).unwrap();
        }
    }

    let joiner = unused_peer_id(&cluster, 0x0123_4567_89ab_cdef);
    let victim = cluster.peer_ids()[3];
    let stop = AtomicBool::new(false);
    let (join_report, leave_report) = std::thread::scope(|scope| {
        for writer in 0..3 {
            let mut client = cluster.client();
            let keys = keys.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut round = 0u64;
                // relaxed: a late-observed stop flag only costs one extra
                // round; no data is published through it.
                while !stop.load(Ordering::Relaxed) {
                    for key in &keys {
                        let payload = format!("w{writer}-r{round}").into_bytes();
                        ums::insert(&mut client, key, payload).expect("insert under churn");
                    }
                    round += 1;
                }
            });
        }
        // Membership changes while the writers hammer the same keys.
        let join_report = cluster.join_peer(joiner).expect("join");
        let leave_report = cluster.leave_peer(victim).expect("leave");
        // relaxed: pure signal; scope join below is the synchronization.
        stop.store(true, Ordering::Relaxed);
        (join_report, leave_report)
    });

    assert_eq!(join_report.peer, joiner);
    assert_eq!(leave_report.peer, victim);
    assert_eq!(cluster.live_peers(), 8, "one in, one out");

    // Every subsequent retrieve is certified current, and none of them needs
    // the indirect initialization: the join and the leave both handed their
    // counters over directly.
    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.is_current, "{key:?} must re-certify after churn");
        assert!(got.data.is_some());
    }
    assert_eq!(
        fresh.indirect_initializations(),
        0,
        "graceful membership changes must never force the indirect path"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The direct-vs-crash contrast the paper's Section 4.2 draws, measured on
/// the same cluster shape: a graceful leave leaves zero indirect
/// initializations behind, a crash of the same peer forces at least one.
#[test]
fn graceful_leave_is_free_where_a_crash_pays_indirect_initializations() {
    let seed = 22;
    let keys: Vec<Key> = (0..5).map(|i| Key::new(format!("doc-{i}"))).collect();

    // Universe A: the timestamp responsible of doc-0 leaves gracefully.
    let mut cluster = Cluster::spawn(8, 4, seed);
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v".to_vec()).unwrap();
    }
    let victim = cluster.timestamp_responsible(&keys[0]).unwrap();
    let report = cluster.leave_peer(victim).unwrap();
    assert!(
        report.counters_moved >= 1,
        "the victim was responsible for at least doc-0's counter"
    );
    let mut fresh = cluster.client();
    for key in &keys {
        assert!(ums::retrieve(&mut fresh, key).unwrap().is_current);
    }
    assert_eq!(fresh.indirect_initializations(), 0);
    cluster.shutdown();

    // Universe B: same cluster shape, same victim — but it crashes.
    let cluster = Cluster::spawn(8, 4, seed);
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v".to_vec()).unwrap();
    }
    cluster.crash_peer(victim).unwrap();
    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.data.is_some());
    }
    assert!(
        fresh.indirect_initializations() >= 1,
        "the crashed responsible's counters must re-initialize indirectly"
    );
    cluster.shutdown();
}

/// A join splits the successor's range: the joiner ends up responsible for
/// ring positions it took over, replicas moved with the range, and no
/// client ever observes a stale or uncertified value.
#[test]
fn join_moves_replicas_and_responsibility_to_the_new_peer() {
    let root = fresh_storage_root("join-moves-state");
    let config = ClusterConfig::new(6, 5, 23).with_storage(ClusterStorage::new(&root));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..12).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"payload".to_vec()).unwrap();
    }

    let joiner = unused_peer_id(&cluster, 0x7777_0000_dead_0001);
    let report = cluster.join_peer(joiner).unwrap();
    assert_eq!(cluster.live_peers(), 7);
    assert!(
        report.replicas_moved > 0,
        "12 keys x 5 replicas spread over the ring: the moved range holds some"
    );
    // The ring now resolves the moved range to the joiner: its own id is
    // the inclusive end of the interval it took over.
    assert_eq!(report.range_end, joiner.0);
    let probe = Key::new("doc-0");
    let ts_holder = cluster.timestamp_responsible(&probe).unwrap();
    assert!(cluster.peer_ids().contains(&ts_holder));

    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"payload");
    }
    assert_eq!(fresh.indirect_initializations(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A join and a leave ship their range in bounded bundles on both
/// transports: with 1 KiB values each range spans several bundles, each
/// report counts every replica the source held in range, and the target
/// serves one `install` request per bundle.
#[test]
fn join_and_leave_ship_bounded_bundles_on_both_backends() {
    use crate::handoff::bundled_bytes;
    use rdht_storage::frame::WRITE_CHUNK_BYTES;

    let value = vec![0x5a; 1024];
    let keys: Vec<Key> = (0..600).map(|i| Key::new(format!("doc-{i:04}"))).collect();
    // Equal key lengths and values: every replica counts the same bytes.
    let per_bundle = WRITE_CHUNK_BYTES / bundled_bytes(&keys[0], &value);
    let bundles = |replicas: usize| replicas.div_ceil(per_bundle).max(1);
    let installs = |cluster: &Cluster, peer: PeerId| {
        scraped_sum(
            cluster,
            &[peer],
            crate::metrics::names::REQUESTS,
            |labels| {
                labels
                    .iter()
                    .any(|(name, kind)| name == "kind" && kind == "install")
            },
        )
    };
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let mut cluster = Cluster::spawn_with(ClusterConfig::new(4, 3, 0xB0).with_transport(kind));
        let mut client = cluster.client();
        for key in &keys {
            ums::insert(&mut client, key, value.clone()).unwrap();
        }
        let hashes: Vec<HashId> = client.replication_ids().collect();
        let holders = |cluster: &Cluster| -> Vec<Option<PeerId>> {
            keys.iter()
                .flat_map(|key| {
                    hashes
                        .iter()
                        .map(|&hash| cluster.replica_responsible(hash, key))
                })
                .collect()
        };
        // (pred, peer] of the peer with the widest range.
        let widest = |cluster: &Cluster| -> (PeerId, PeerId) {
            let ids = cluster.peer_ids();
            let arcs = ids.iter().enumerate().map(|(i, &peer)| {
                let pred = ids[(i + ids.len() - 1) % ids.len()];
                (pred, peer)
            });
            arcs.max_by_key(|(pred, peer)| peer.0.wrapping_sub(pred.0))
                .expect("a peer")
        };

        // The joiner splits the widest range in half.
        let (pred, source) = widest(&cluster);
        let joiner = PeerId(pred.0.wrapping_add(source.0.wrapping_sub(pred.0) / 2));
        let before = holders(&cluster);
        let report = cluster.join_peer(joiner).unwrap();
        assert_eq!(report.source, source, "{kind:?}");
        let in_range = before
            .iter()
            .zip(holders(&cluster))
            .filter(|(was, now)| **was == Some(source) && *now == Some(joiner))
            .count();
        assert_eq!(report.replicas_moved, in_range, "{kind:?}");
        assert!(bundles(in_range) >= 3, "{kind:?}: {in_range} replicas");
        assert_eq!(
            installs(&cluster, joiner),
            bundles(in_range) as f64,
            "{kind:?}"
        );

        // The peer with the widest range leaves to its successor.
        let (_, leaving) = widest(&cluster);
        let ids = cluster.peer_ids();
        let at = ids.iter().position(|&peer| peer == leaving).unwrap();
        let successor = ids[(at + 1) % ids.len()];
        let installed_before = installs(&cluster, successor);
        let in_range = holders(&cluster)
            .iter()
            .filter(|holder| **holder == Some(leaving))
            .count();
        let report = cluster.leave_peer(leaving).unwrap();
        assert_eq!(report.target, successor, "{kind:?}");
        assert_eq!(report.replicas_moved, in_range, "{kind:?}");
        assert!(bundles(in_range) >= 3, "{kind:?}: {in_range} replicas");
        assert_eq!(
            installs(&cluster, successor) - installed_before,
            bundles(in_range) as f64,
            "{kind:?}"
        );

        let mut fresh = cluster.client();
        for key in keys.iter().step_by(37) {
            let got = ums::retrieve(&mut fresh, key).unwrap();
            assert!(got.is_current, "{kind:?}: {key:?}");
            assert_eq!(got.data.as_deref(), Some(&value[..]), "{kind:?}: {key:?}");
        }
        cluster.shutdown();
    }
}

/// Crash mid-transfer, before the bundle ships (`CrashAfterExport`): the
/// transfer **rolls back**. The crashed source restarts from its journal
/// with every replica intact; the drained counters re-initialize indirectly
/// and currency is preserved. A retried join then completes.
#[test]
fn crash_after_export_rolls_back_and_a_retried_join_completes() {
    let root = fresh_storage_root("crash-after-export");
    let config = ClusterConfig::new(6, 4, 24).with_storage(ClusterStorage::new(&root));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"stable".to_vec()).unwrap();
    }

    let joiner = unused_peer_id(&cluster, 0x5151_5151_0000_0001);
    let error = cluster
        .join_peer_with_fault(joiner, HandoffFault::CrashAfterExport)
        .unwrap_err();
    assert!(matches!(error, MembershipError::TransferFailed(_)));
    assert_eq!(cluster.live_peers(), 5, "the source fail-stopped");
    assert!(
        !cluster.peer_ids().contains(&joiner),
        "the joiner was never registered"
    );

    // Restart the crashed source from its journal: rollback — every replica
    // is still there.
    let crashed = cluster
        .peer_ids()
        .into_iter()
        .find(|&peer| !cluster.peer_is_alive(peer))
        .expect("exactly one peer died");
    let report = cluster.restart_peer(crashed).unwrap();
    assert!(report.recovered_replicas > 0);
    assert_eq!(cluster.live_peers(), 6);

    // Currency is preserved across the rollback (indirect inits allowed —
    // that is the price of the crash, not a correctness loss).
    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.is_current, "{key:?} after rollback");
        assert_eq!(got.data.unwrap(), b"stable");
    }

    // The retried join completes the membership change.
    let join = cluster.join_peer(joiner).unwrap();
    assert_eq!(join.peer, joiner);
    assert_eq!(cluster.live_peers(), 7);
    let mut after = cluster.client();
    for key in &keys {
        assert!(ums::retrieve(&mut after, key).unwrap().is_current);
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Crash mid-transfer, after the target journaled the bundle
/// (`CrashAfterInstall`): the transfer **completes from the journals**. The
/// joiner's directory already holds the installed state; restarting the
/// source and retrying the join converges, and every retrieve stays
/// current.
#[test]
fn crash_after_install_completes_from_the_journal_on_retry() {
    let root = fresh_storage_root("crash-after-install");
    let config = ClusterConfig::new(6, 4, 25).with_storage(ClusterStorage::new(&root));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"handed".to_vec()).unwrap();
    }

    let joiner = unused_peer_id(&cluster, 0x6262_6262_0000_0001);
    let error = cluster
        .join_peer_with_fault(joiner, HandoffFault::CrashAfterInstall)
        .unwrap_err();
    assert!(matches!(error, MembershipError::TransferFailed(_)));

    let crashed = cluster
        .peer_ids()
        .into_iter()
        .find(|&peer| !cluster.peer_is_alive(peer))
        .expect("exactly one peer died");
    cluster.restart_peer(crashed).unwrap();

    // Retry: the joiner's engine reopens over the journal the first attempt
    // wrote (replicas + counters recovered, counters seeded as floors), the
    // restarted source re-exports its still-present replicas, and the
    // hand-off commits.
    let join = cluster.join_peer(joiner).unwrap();
    assert_eq!(join.peer, joiner);
    assert_eq!(cluster.live_peers(), 7);

    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.is_current, "{key:?} after completed retry");
        assert_eq!(got.data.unwrap(), b"handed");
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A currency-regression corner: the restarted timestamp responsible seeds
/// its counter with the recovered durable one, so even when **every**
/// replica holder of the key is down at the restart (the observation comes
/// back empty) the next timestamp is strictly larger than everything
/// generated before the crash.
#[test]
fn restart_seeds_indirect_init_with_recovered_counter_floor() {
    let root = fresh_storage_root("recovery-floor");
    let config = ClusterConfig::new(10, 3, 26).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Always),
    ));
    let mut cluster = Cluster::spawn_with(config);
    let mut client = cluster.client();
    // A key whose timestamp responsible holds none of its replicas: once the
    // holders are down, only the responsible's recovered counter remembers
    // the key's stamps.
    let key = (0..)
        .map(|i| Key::new(format!("contested doc {i}")))
        .find(|key| {
            let responsible = cluster.timestamp_responsible(key);
            client
                .replication_ids()
                .all(|hash| cluster.replica_responsible(hash, key) != responsible)
        })
        .expect("some key is timestamped away from its replicas");
    for i in 0..5u32 {
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
    }
    let before = ums::retrieve(&mut client, &key).unwrap();
    assert!(before.is_current);
    assert_eq!(before.timestamp.0, 5);

    // Crash the timestamp responsible and every replica holder of the key
    // (leaving them down), so the restart's observation finds nothing:
    // the probes reach the holders' live successors, which hold no replica.
    let responsible = cluster.timestamp_responsible(&key).unwrap();
    let holders: Vec<PeerId> = client
        .replication_ids()
        .filter_map(|hash| cluster.replica_responsible(hash, &key))
        .collect();
    cluster.crash_peer(responsible).unwrap();
    for holder in holders {
        let _ = cluster.crash_peer(holder);
    }

    // Restart the timestamp responsible: its durable counter (5) comes back
    // as a recovery floor, and the observation-driven re-initialization
    // takes `max(observed, floor)` with an empty observation.
    let report = cluster.restart_peer(responsible).unwrap();
    assert!(report.recovered_counters >= 1);
    assert!(report.counters_reinitialized >= 1);

    // Without the floor this insert would restart the counter near zero and
    // re-issue timestamps 1..5, silently shadowing the pre-crash history.
    let next = ums::insert(&mut client, &key, b"post-crash".to_vec()).unwrap();
    assert!(
        next.timestamp > before.timestamp,
        "the recovered floor must keep timestamps monotonic, got {:?} after {:?}",
        next.timestamp,
        before.timestamp
    );

    let after = ums::retrieve(&mut client, &key).unwrap();
    assert!(after.is_current);
    assert_eq!(after.data.unwrap(), b"post-crash");
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The sum of the `name` samples `peers` expose whose labels pass `keep`,
/// read from their registries.
fn scraped_sum(
    cluster: &Cluster,
    peers: &[PeerId],
    name: &str,
    keep: impl Fn(&[(String, String)]) -> bool,
) -> f64 {
    let sum = |text: String| -> f64 {
        rdht_metrics::parse::parse(&text)
            .expect("exposition parses")
            .samples
            .iter()
            .filter(|sample| sample.name == name && keep(&sample.labels))
            .map(|sample| sample.value)
            .sum()
    };
    peers
        .iter()
        .map(|&peer| sum(cluster.scrape(peer).expect("a known peer")))
        .sum()
}

/// Request frames of kind `get` or `batch` that `peers` served: the frames
/// a batched observation sends.
fn probe_frames(cluster: &Cluster, peers: &[PeerId]) -> f64 {
    scraped_sum(cluster, peers, crate::metrics::names::REQUESTS, |labels| {
        labels
            .iter()
            .any(|(name, kind)| name == "kind" && (kind == "get" || kind == "batch"))
    })
}

/// A restart re-initialises its recovered counters in batched rounds: each
/// round sends one request frame per live peer its probes reach, however
/// many keys it observes, and a fresh client then meets no
/// `NeedsInitialization`.
#[test]
fn restart_reinitializes_counters_in_one_frame_per_holder_peer_per_round() {
    let root = fresh_storage_root("batched-observation");
    let config = ClusterConfig::new(4, 3, 37).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Never),
    ));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..1_600).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v".to_vec()).unwrap();
    }
    // The peer that stamps the most keys; its floors are observed in key
    // order, so they split into rounds in that order.
    let stamped_by = |peer: PeerId| -> Vec<Key> {
        let mut stamped: Vec<Key> = keys
            .iter()
            .filter(|key| cluster.timestamp_responsible(key) == Some(peer))
            .cloned()
            .collect();
        stamped.sort();
        stamped
    };
    let victim = cluster
        .peer_ids()
        .into_iter()
        .max_by_key(|&peer| stamped_by(peer).len())
        .expect("a peer");
    let stamped = stamped_by(victim);
    let per_round = crate::cluster::OBSERVATION_ROUND_PROBES / 3;
    assert!(stamped.len() > per_round, "more than one round of keys");

    let others: Vec<PeerId> = cluster
        .peer_ids()
        .into_iter()
        .filter(|&peer| peer != victim)
        .collect();
    cluster.crash_peer(victim).unwrap();
    let before = probe_frames(&cluster, &others);
    let report = cluster.restart_peer(victim).unwrap();
    // The restarted peer counts from zero in its fresh registry.
    let frames = probe_frames(&cluster, &cluster.peer_ids()) - before;

    assert_eq!(report.recovered_counters, stamped.len());
    assert_eq!(report.counters_reinitialized, stamped.len());
    let expected: usize = stamped
        .chunks(per_round)
        .map(|round| {
            round
                .iter()
                .flat_map(|key| {
                    client
                        .replication_ids()
                        .map(|hash| cluster.replica_responsible(hash, key))
                })
                .collect::<BTreeSet<_>>()
                .len()
        })
        .sum();
    assert_eq!(
        frames, expected as f64,
        "one frame per holder peer per round"
    );
    assert!(expected <= stamped.len().div_ceil(per_round) * cluster.live_peers());

    let mut fresh = cluster.client();
    for key in &stamped {
        assert!(ums::retrieve(&mut fresh, key).unwrap().is_current);
    }
    assert_eq!(fresh.indirect_initializations(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The restart's batched observation installs only the keys whose `|Hr|`
/// probes all answered. One replica holder's thread is stopped behind the
/// directory's back, so every probe routed to it fails: the keys it holds a
/// replica of are left to the per-key path, the others are re-initialised.
#[test]
fn restart_leaves_keys_with_an_unanswered_probe_to_the_per_key_path() {
    use crate::Request;

    let root = fresh_storage_root("unanswered-probe");
    let config = ClusterConfig::new(6, 3, 38).with_storage(ClusterStorage::with_options(
        &root,
        StorageOptions::with_fsync(FsyncPolicy::Never),
    ));
    let mut cluster = Cluster::spawn_with(config);
    let keys: Vec<Key> = (0..120).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v".to_vec()).unwrap();
    }
    let responsible = cluster.timestamp_responsible(&keys[0]).unwrap();
    // The holders of each key the responsible stamps, on the ring the
    // restart brings back.
    let holders: Vec<BTreeSet<PeerId>> = keys
        .iter()
        .filter(|key| cluster.timestamp_responsible(key) == Some(responsible))
        .map(|key| {
            client
                .replication_ids()
                .filter_map(|hash| cluster.replica_responsible(hash, key))
                .collect()
        })
        .collect();

    cluster.crash_peer(responsible).unwrap();
    let successor = cluster.timestamp_responsible(&keys[0]).unwrap();
    // A holder of some of those keys but not all, away from the hand-off.
    let silent = cluster
        .peer_ids()
        .into_iter()
        .filter(|&peer| peer != responsible && peer != successor)
        .find(|peer| {
            let held = holders.iter().filter(|set| set.contains(peer)).count();
            held > 0 && held < holders.len()
        })
        .expect("a peer holds replicas of some of the keys");
    cluster
        .peer_endpoint(silent)
        .expect("silent endpoint")
        .send_no_reply(Request::Crash)
        .unwrap();
    while !cluster.peer_thread_finished(silent) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let report = cluster.restart_peer(responsible).unwrap();
    assert_eq!(report.recovered_counters, holders.len());
    let answered = holders.iter().filter(|set| !set.contains(&silent)).count();
    assert_eq!(report.counters_reinitialized, answered);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Restarting a gracefully departed peer must terminate, whether or not its
/// thread has finished re-sending its queue: the restart path stops it
/// explicitly rather than assume a dead thread.
#[test]
fn restart_after_graceful_leave_returns_and_rejoins() {
    let mut cluster = Cluster::spawn(5, 3, 28);
    let key = Key::new("doc");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();

    let victim = cluster.peer_ids()[1];
    cluster.leave_peer(victim).unwrap();
    assert_eq!(cluster.live_peers(), 4);

    // The departed peer is dead to the directory, so crash_peer's liveness
    // check would skip it; the restart must still stop and join its thread.
    let report = cluster.restart_peer(victim).unwrap();
    assert_eq!(cluster.live_peers(), 5);
    // A departed peer's journal was pruned at hand-off; it rejoins
    // (essentially) empty and re-acquires state through later traffic.
    assert_eq!(report.recovered_counters, 0);

    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.data.is_some());
    ums::insert(&mut client, &key, b"v2".to_vec()).unwrap();
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"v2");
    cluster.shutdown();
}

/// A crash of a freshly joined peer must not black-hole its range: the
/// directory fails the range back to the source (the live successor again),
/// which serves it itself, promptly.
#[test]
fn crash_of_joined_peer_fails_its_range_back_to_the_source() {
    let mut cluster = Cluster::spawn(6, 5, 29);
    let keys: Vec<Key> = (0..10).map(|i| Key::new(format!("doc-{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v1".to_vec()).unwrap();
    }

    let joiner = unused_peer_id(&cluster, 0x9090_0000_0000_0007);
    let report = cluster.join_peer(joiner).unwrap();
    assert!(report.replicas_moved > 0, "the moved range holds replicas");
    cluster.crash_peer(joiner).unwrap();

    // Every key must still be retrievable promptly — requests for the
    // moved range route to the source again, and nothing at the source may
    // still send them to the dead joiner. (Replicas that died with the
    // storage-less joiner are restored by the next update; surviving
    // replicas under other hash functions keep the data available.)
    let start = std::time::Instant::now();
    let mut fresh = cluster.client();
    for key in &keys {
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.data.is_some(), "{key:?} lost after joiner crash");
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "retrieves must not run into black holes, took {:?}",
        start.elapsed()
    );

    // Writes re-establish full replication and currency.
    for key in &keys {
        ums::insert(&mut fresh, key, b"v2".to_vec()).unwrap();
        let got = ums::retrieve(&mut fresh, key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), b"v2");
    }
    cluster.shutdown();
}

/// Bootstrapping: joining peers one at a time grows the cluster from one
/// peer to many, and a graceful leave shrinks it back — the elastic-ring
/// lifecycle with no fixed deployment size.
#[test]
fn cluster_grows_and_shrinks_one_peer_at_a_time() {
    let mut cluster = Cluster::spawn(1, 3, 27);
    let key = Key::new("doc");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();

    let mut joined = Vec::new();
    for i in 0..4u64 {
        let id = unused_peer_id(&cluster, 0x4040_0000_0000_0000 + i * 0x0101_0101_0101);
        cluster.join_peer(id).unwrap();
        joined.push(id);
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current, "current after join {i}");
    }
    assert_eq!(cluster.live_peers(), 5);

    for id in joined {
        cluster.leave_peer(id).unwrap();
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current, "current after leave of {id:?}");
        assert_eq!(got.data.as_deref(), Some(b"v1".as_slice()));
    }
    assert_eq!(cluster.live_peers(), 1);
    cluster.shutdown();
}

/// A metrics scrape — over the wire via [`crate::ClusterClient::scrape_metrics`]
/// and in-process via [`Cluster::scrape`] — returns a parseable Prometheus
/// exposition carrying every roadmap-named instrument.
#[test]
fn metrics_scrape_exposes_roadmap_instruments() {
    let cluster = Cluster::spawn(3, 3, 91);
    let mut client = cluster.client();
    let key = Key::new("observed");
    ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
    ums::retrieve(&mut client, &key).unwrap();

    let required = [
        crate::metrics::names::REQUESTS,
        crate::metrics::names::DRAIN_BATCH,
        crate::metrics::names::SERVICE_NS,
        crate::metrics::names::DEDUP_APPLIED,
        crate::metrics::names::DEDUP_SUPPRESSED,
        crate::metrics::names::HANDOFF_STALL_NS,
        crate::metrics::names::INDIRECT_INITS,
        rdht_storage::metrics::names::WAL_SYNCS,
        crate::metrics::names::HANDOFF_EXPORT_NS,
    ];
    for peer in cluster.peer_ids() {
        let exposition = client.scrape_metrics(peer).expect("scrape answers");
        let parsed = rdht_metrics::parse::parse(&exposition).expect("exposition parses");
        assert!(!parsed.samples.is_empty(), "peer {peer:?} exposes series");
        for name in required {
            assert!(
                exposition.contains(name),
                "peer {peer:?} exposition is missing {name}"
            );
        }
        // The in-process scrape reads the same registry.
        let local = cluster.scrape(peer).expect("metrics are on by default");
        for name in required {
            assert!(local.contains(name), "local scrape is missing {name}");
        }
    }

    // Some peer served the insert's writes: a peer holding several replicas
    // gets them as one `PutReplicas` (kind "puts"), one holding a single
    // replica a bare `PutReplica` (kind "put"), the stamping peer none.
    let total_puts: u64 = cluster
        .peer_ids()
        .into_iter()
        .filter_map(|peer| cluster.registry(peer))
        .map(|registry| {
            rdht_metrics::parse::parse(&rdht_metrics::encode(&registry))
                .expect("parses")
                .samples
                .iter()
                .filter(|sample| {
                    sample.name == crate::metrics::names::REQUESTS
                        && sample
                            .labels
                            .iter()
                            .any(|(k, v)| k == "kind" && (v == "put" || v == "puts"))
                })
                .map(|sample| sample.value as u64)
                .sum::<u64>()
        })
        .sum();
    assert!(total_puts >= 1, "the insert's puts were counted");
    cluster.shutdown();
}

/// The client's own counters are registry-grade: attach_metrics exposes the
/// same atomics the accessors read.
#[test]
fn client_counters_are_registry_handles() {
    let cluster = Cluster::spawn(2, 3, 93);
    let mut client = cluster.client();
    let registry = rdht_metrics::Registry::new();
    client.attach_metrics(&registry, &[("client", "t")]);
    let key = Key::new("counted");
    ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
    assert!(client.messages() > 0);
    let exposition = rdht_metrics::encode(&registry);
    assert!(exposition.contains(&format!(
        "{}{{client=\"t\"}} {}",
        crate::metrics::names::CLIENT_MESSAGES,
        client.messages()
    )));
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Scatter-gather calls: the sequential algorithm's requests, one frame per
// peer per round
// ---------------------------------------------------------------------------

/// Overlapping `last_ts` with the first probe changes when requests are sent
/// and how many frames carry them, never which requests: the opening round
/// costs one frame each way when a replica lives on the timestamping peer
/// (that replica is probed first) and two when none does, and `k` stale
/// replicas in front of the current one cost `k` more probes, a frame each
/// way apiece.
#[test]
fn overlapped_retrieve_sends_the_sequential_algorithms_messages() {
    use crate::{OpId, Reply, Request};
    use rdht_core::Timestamp;
    use rdht_hashing::HashId;
    use std::time::Duration;

    const REPLICAS: usize = 5;
    let cluster = Cluster::spawn(6, REPLICAS, 0x5CA7);
    let mut client = cluster.client();
    // Whether some replica of `key` lives on the peer that timestamps it.
    let colocated = |key: &Key| {
        let kts = cluster.timestamp_responsible(key);
        (0..REPLICAS).any(|h| cluster.replica_responsible(HashId(h as u32), key) == kts)
    };
    // The first `tag:i` key that is (or is not) co-located.
    let pick = |tag: &str, want: bool| {
        (0..)
            .map(|i| Key::new(format!("{tag}:{i}")))
            .find(|key| colocated(key) == want)
            .expect("both placements occur")
    };

    for (shared, opening) in [(true, 2), (false, 4)] {
        let key = pick("counted", shared);
        ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
        let before = client.messages();
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.replicas_probed, 1);
        assert_eq!(
            client.messages() - before,
            opening,
            "last_ts + one probe (co-located: {shared}), a request frame and a reply frame per peer"
        );

        // Version 2 reaches only the replicas from the `stale`-th probed on:
        // the ones in front keep version 1 and must each be probed (and
        // skipped) first.
        for stale in 1..REPLICAS {
            let key = pick(&format!("stale{stale}"), shared);
            ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
            let first = client.first_probe(&key);
            assert_eq!(
                cluster.replica_responsible(first, &key) == cluster.timestamp_responsible(&key),
                shared,
                "the first probe is co-located whenever a replica is"
            );
            let rest = client.replication_ids().filter(|hash| *hash != first);
            let order: Vec<HashId> = std::iter::once(first).chain(rest).collect();
            let call = |peer, request| {
                cluster
                    .peer_endpoint(peer)
                    .unwrap()
                    .call(request, Duration::from_secs(5))
                    .unwrap()
            };
            let stamped = call(
                cluster.timestamp_responsible(&key).unwrap(),
                Request::Timestamp {
                    op: Some(OpId {
                        client: 0x57A1E,
                        seq: stale as u64 + if shared { 100 } else { 0 },
                    }),
                    key: key.clone(),
                    generate: true,
                    observation_hint: None,
                },
            );
            assert_eq!(stamped, Reply::Timestamp(Timestamp(2)));
            for &hash in &order[stale..] {
                let acked = call(
                    cluster.replica_responsible(hash, &key).unwrap(),
                    Request::PutReplica {
                        op: None,
                        hash,
                        key: key.clone(),
                        payload: b"v2".to_vec(),
                        timestamp: Timestamp(2),
                    },
                );
                assert_eq!(acked, Reply::PutAck);
            }
            let before = client.messages();
            let got = ums::retrieve(&mut client, &key).unwrap();
            assert!(got.is_current);
            assert_eq!(got.data.unwrap(), b"v2");
            assert_eq!(got.replicas_probed, stale + 1);
            assert_eq!(
                client.messages() - before,
                opening + 2 * stale as u64,
                "{stale} stale replicas: the opening round plus {stale} probes"
            );
        }
    }
    assert_eq!(client.retries(), 0);
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Gather: the slot / fill / close protocol on real threads
// ---------------------------------------------------------------------------

mod gather {
    use std::time::{Duration, Instant};

    use crate::transport::Gather;
    use crate::{CallError, Reply};

    /// The last fill releases the waiter long before the deadline, and the
    /// slots come back in index order whatever order they were filled in.
    #[test]
    fn the_last_reply_releases_the_waiter() {
        let gather = Gather::new(3, false);
        let sinks: Vec<_> = (0..3).map(|index| gather.sink(index)).collect();
        let filler = std::thread::spawn(move || {
            for (index, sink) in sinks.into_iter().enumerate().rev() {
                sink.send(Reply::Metrics(index.to_string()));
            }
        });
        let started = Instant::now();
        let landed = gather.wait(Duration::from_secs(30));
        assert!(started.elapsed() < Duration::from_secs(10));
        filler.join().unwrap();
        for (index, slot) in landed.into_iter().enumerate() {
            assert_eq!(slot.outcome, Ok(Reply::Metrics(index.to_string())));
        }
    }

    /// A slot takes the first outcome offered and nothing after the waiter
    /// collected: the late reply of a timed-out slot is discarded.
    #[test]
    fn late_and_repeated_fills_are_discarded() {
        let gather = Gather::new(3, false);
        let (late_reply, late_teardown) = (gather.sink(1), gather.sink(1));
        gather.sink(0).send(Reply::PutAck);
        // Slot 0 is taken: neither a second reply nor a dropped sink moves it.
        gather.sink(0).send(Reply::NeedsInitialization);
        drop(gather.sink(0));
        gather.sink(2).send(Reply::Error {
            reason: "refused".to_string(),
        });
        let landed = gather.wait(Duration::from_millis(20));
        let outcomes: Vec<_> = landed.into_iter().map(|slot| slot.outcome).collect();
        assert_eq!(
            outcomes,
            vec![
                Ok(Reply::PutAck),
                Err(CallError::Timeout),
                Err(CallError::Rejected("refused".to_string())),
            ]
        );
        // The gather is closed and its slots are gone: both a late reply and
        // a late teardown are no-ops.
        late_reply.send(Reply::PutAck);
        drop(late_teardown);
    }

    /// A sink dropped unsent reads as the prompt `Dropped` of a crash, not
    /// as a timeout.
    #[test]
    fn a_dropped_sink_fills_its_slot_at_once() {
        let gather = Gather::new(1, false);
        drop(gather.sink(0));
        let started = Instant::now();
        let landed = gather.wait(Duration::from_secs(30));
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(landed[0].outcome, Err(CallError::Dropped));
    }
}

// ---------------------------------------------------------------------------
// The founding rule: founders of an empty ring stamp first inserts directly
// ---------------------------------------------------------------------------

/// The first `tag:i` key timestamped at `peer`.
fn key_stamped_at(cluster: &Cluster, peer: PeerId, tag: &str) -> Key {
    (0..)
        .map(|i| Key::new(format!("{tag}:{i}")))
        .find(|key| cluster.timestamp_responsible(key) == Some(peer))
        .expect("every peer timestamps some key")
}

/// What `peer` answers a `last_ts` of `key` that carries no hint.
fn bare_last_ts(cluster: &Cluster, peer: PeerId, key: &Key) -> Reply {
    let request = Request::Timestamp {
        op: None,
        key: key.clone(),
        generate: false,
        observation_hint: None,
    };
    let endpoint = cluster.peer_endpoint(peer).expect("a known peer");
    endpoint.call(request, Duration::from_secs(5)).unwrap()
}

/// The indirect initializations every peer of `cluster` counted.
fn peer_indirect_inits(cluster: &Cluster) -> f64 {
    let peers = cluster.peer_ids();
    scraped_sum(
        cluster,
        &peers,
        crate::metrics::names::INDIRECT_INITS,
        |_| true,
    )
}

/// On a fresh cluster a key's first insert is stamped by the founding rule:
/// no indirect initialization, at the client or at any peer, and exactly the
/// frames of its second insert — on both transports.
#[test]
fn a_founders_first_insert_costs_what_a_second_insert_costs() {
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let cluster = Cluster::spawn_with(ClusterConfig::new(6, 4, 0xF0).with_transport(kind));
        let mut client = cluster.client();
        for i in 0..8 {
            let key = Key::new(format!("founded:{i}"));
            let before = client.messages();
            let first = ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
            let first_frames = client.messages() - before;
            let second = ums::insert(&mut client, &key, b"v2".to_vec()).unwrap();
            let second_frames = client.messages() - before - first_frames;
            assert_eq!(first.timestamp, Timestamp(1), "{kind:?}: {key:?}");
            assert_eq!(second.timestamp, Timestamp(2), "{kind:?}: {key:?}");
            assert_eq!(first_frames, second_frames, "{kind:?}: {key:?}");
        }
        assert_eq!(client.indirect_initializations(), 0, "{kind:?}");
        assert_eq!(peer_indirect_inits(&cluster), 0.0, "{kind:?}");
        // A crash takeover still initializes indirectly, and counts it.
        let key = Key::new("founded:0");
        cluster
            .crash_peer(cluster.timestamp_responsible(&key).unwrap())
            .unwrap();
        let third = ums::insert(&mut client, &key, b"v3".to_vec()).unwrap();
        assert!(third.timestamp > Timestamp(2), "{kind:?}: {third:?}");
        assert_eq!(client.indirect_initializations(), 1, "{kind:?}");
        assert_eq!(peer_indirect_inits(&cluster), 1.0, "{kind:?}");
        cluster.shutdown();
    }
}

/// A cluster spawned over journals founds no arc, even where a peer's own
/// disk is empty: a key it never stamped may have been stamped before.
#[test]
fn no_founding_arc_over_recovered_journals() {
    let root = fresh_storage_root("founding-respawn");
    let storage =
        ClusterStorage::with_options(&root, StorageOptions::with_fsync(FsyncPolicy::Never));
    let config = || ClusterConfig::new(4, 3, 0xF1).with_storage(storage.clone());
    let cluster = Cluster::spawn_with(config());
    let founder = cluster.peer_ids()[0];
    let key = key_stamped_at(&cluster, founder, "respawn");
    assert_eq!(
        bare_last_ts(&cluster, founder, &key),
        Reply::Timestamp(Timestamp::ZERO),
        "over empty disks every peer founds its range"
    );
    ums::insert(&mut cluster.client(), &key, b"v1".to_vec()).unwrap();
    cluster.shutdown();

    let cluster = Cluster::spawn_with(config());
    for peer in cluster.peer_ids() {
        let unstamped = key_stamped_at(&cluster, peer, "respawn-unstamped");
        assert_eq!(
            bare_last_ts(&cluster, peer, &unstamped),
            Reply::NeedsInitialization,
            "{peer:?}"
        );
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A joiner and a restarted peer found no arc: the range a joiner takes
/// over may hold keys its source stamped, and a restarted peer may have
/// stamped keys of its own range before it crashed.
#[test]
fn no_founding_arc_for_a_joiner_or_a_restarted_peer() {
    let mut cluster = Cluster::spawn(4, 3, 0xF2);
    let joiner = unused_peer_id(&cluster, 0xF2F2_0000_0000_0001);
    cluster.join_peer(joiner).unwrap();
    let key = key_stamped_at(&cluster, joiner, "joiner");
    assert_eq!(
        bare_last_ts(&cluster, joiner, &key),
        Reply::NeedsInitialization
    );

    let restarted = *cluster
        .peer_ids()
        .iter()
        .find(|&&peer| peer != joiner)
        .unwrap();
    cluster.crash_peer(restarted).unwrap();
    let report = cluster.restart_peer(restarted).unwrap();
    assert_eq!(report.recovered_replicas + report.recovered_counters, 0);
    let key = key_stamped_at(&cluster, restarted, "restarted");
    assert_eq!(
        bare_last_ts(&cluster, restarted, &key),
        Reply::NeedsInitialization
    );
    cluster.shutdown();
}

/// A join cuts the joiner's range out of its source's founding arc: when
/// the joiner crashes after stamping a key there, the founder that takes
/// the range back initializes that key indirectly, above the stamp the
/// joiner acknowledged, instead of starting it over at 0.
#[test]
fn a_founders_arc_shrinks_when_a_joiner_splits_it() {
    let mut cluster = Cluster::spawn(4, 3, 0xF3);
    let ids = cluster.peer_ids();
    // Join midway into the first arc: the hand-off source is ids[1].
    let joiner = PeerId(ids[0].0 + (ids[1].0 - ids[0].0) / 2);
    cluster.join_peer(joiner).unwrap();
    // A key the joiner stamps with at least one replica elsewhere, so its
    // stamp survives the joiner.
    let key = (0..)
        .map(|i| Key::new(format!("split:{i}")))
        .find(|key| {
            cluster.timestamp_responsible(key) == Some(joiner)
                && (0..3).any(|h| cluster.replica_responsible(HashId(h), key) != Some(joiner))
        })
        .expect("some key of the joiner has a replica elsewhere");
    let mut client = cluster.client();
    let mut acknowledged = Timestamp::ZERO;
    for version in 0..3u8 {
        acknowledged = ums::insert(&mut client, &key, vec![version])
            .unwrap()
            .timestamp;
    }
    assert_eq!(acknowledged, Timestamp(3));
    cluster.crash_peer(joiner).unwrap();
    assert_eq!(cluster.timestamp_responsible(&key), Some(ids[1]));

    let inits = client.indirect_initializations();
    let next = ums::insert(&mut client, &key, b"after".to_vec()).unwrap();
    assert_eq!(client.indirect_initializations(), inits + 1);
    assert!(
        next.timestamp > acknowledged,
        "{:?} after {acknowledged:?} was acknowledged",
        next.timestamp
    );
    cluster.shutdown();
}
