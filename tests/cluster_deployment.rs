//! Integration test of the threaded deployment through the facade crate:
//! the same `rdht::ums` code that runs in the simulator runs against real
//! threads, and Chord's neighbour-handoff property (which justifies the
//! direct algorithm) holds.

use rdht::core::ums;
use rdht::hashing::{HashFamily, Key};
use rdht::net::{Cluster, PeerId};
use rdht::overlay::chord::{ChordConfig, ChordNetwork};
use rdht::overlay::{in_open_closed_interval, NodeId};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn cluster_round_trip_through_facade() {
    let cluster = Cluster::spawn(12, 6, 2026);
    let mut client = cluster.client();
    let key = Key::new("facade-check");
    ums::insert(&mut client, &key, b"one".to_vec()).unwrap();
    ums::insert(&mut client, &key, b"two".to_vec()).unwrap();
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"two");
    cluster.shutdown();
}

/// Where a running cluster routes each sampled position: the timestamp and
/// replica positions of `keys`, read through the key-level queries, and the
/// `probes`, read directly.
fn routes(
    cluster: &Cluster,
    family: &HashFamily,
    keys: &[Key],
    probes: &[u64],
) -> Vec<(u64, PeerId)> {
    let mut out = Vec::new();
    for key in keys {
        let stamp = cluster.timestamp_responsible(key).unwrap();
        out.push((family.eval_timestamp(key), stamp));
        for hash in family.replication_ids() {
            let holder = cluster.replica_responsible(hash, key).unwrap();
            out.push((family.eval(hash, key), holder));
        }
    }
    out.extend(
        probes
            .iter()
            .map(|&p| (p, cluster.responsible_for(p).unwrap())),
    );
    out
}

/// Checks that exactly the positions in `(start, end]` changed hands, all
/// from `from` to `to`, between two `routes` snapshots.
fn moved_exactly(
    before: &[(u64, PeerId)],
    after: &[(u64, PeerId)],
    (start, end): (u64, u64),
    from: PeerId,
    to: PeerId,
) {
    assert_eq!(before.len(), after.len());
    let mut moved = 0;
    for (&(position, old), &(_, new)) in before.iter().zip(after) {
        if in_open_closed_interval(start, end, position) {
            assert_eq!(
                (old, new),
                (from, to),
                "position {position:#x} in ({start:#x}, {end:#x}]"
            );
            moved += 1;
        } else {
            assert_eq!(
                old, new,
                "position {position:#x} outside ({start:#x}, {end:#x}] moved"
            );
        }
    }
    assert!(
        moved > 0,
        "no sampled position fell in ({start:#x}, {end:#x}]"
    );
}

/// The live router and the hand-off planner answer from one ring: after a
/// join or a graceful leave, the sampled positions routed to a new peer are
/// exactly those in the reported range, taken from the reported peer.
/// The samples include every peer id and its neighbours (so both range ends)
/// and the wrap point.
#[test]
fn routing_and_hand_off_planning_agree_in_a_running_cluster() {
    let mut cluster = Cluster::spawn(8, 4, 4040);
    let family = HashFamily::new(4, 4040);
    let keys: Vec<Key> = (0..48).map(|i| Key::new(format!("agree:{i}"))).collect();
    let mut client = cluster.client();
    for key in &keys {
        ums::insert(&mut client, key, b"v".to_vec()).unwrap();
    }
    let ids = cluster.peer_ids();
    // A joiner below the smallest id: its range wraps past the top.
    let joiner = PeerId(ids[0].0 / 2);
    let mut probes = vec![0, 1, u64::MAX];
    for id in ids.iter().chain([&joiner]) {
        probes.extend([id.0.wrapping_sub(1), id.0, id.0.wrapping_add(1)]);
    }

    let before = routes(&cluster, &family, &keys, &probes);
    let join = cluster.join_peer(joiner).unwrap();
    assert_eq!((join.source, join.range_end), (ids[0], joiner.0));
    assert!(join.range_start > join.range_end, "the joined range wraps");
    let after_join = routes(&cluster, &family, &keys, &probes);
    let range = (join.range_start, join.range_end);
    moved_exactly(&before, &after_join, range, join.source, joiner);

    // A leave in the middle of the ring.
    let leave = cluster.leave_peer(ids[4]).unwrap();
    let after_leave = routes(&cluster, &family, &keys, &probes);
    let range = (leave.range_start, leave.range_end);
    moved_exactly(&after_join, &after_leave, range, ids[4], leave.target);

    // The joiner leaves again: its range goes back to the join's source.
    let undo = cluster.leave_peer(joiner).unwrap();
    assert_eq!(
        (undo.target, undo.range_start, undo.range_end),
        (join.source, join.range_start, join.range_end)
    );
    let after_undo = routes(&cluster, &family, &keys, &probes);
    moved_exactly(
        &after_leave,
        &after_undo,
        (undo.range_start, undo.range_end),
        joiner,
        undo.target,
    );

    for key in &keys {
        let got = ums::retrieve(&mut client, key).unwrap();
        assert!(got.is_current, "{key:?} is not current after the hand-offs");
    }
    cluster.shutdown();
}

fn random_ids(seed: u64, count: usize) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < count {
        ids.insert(NodeId(rng.gen()));
    }
    ids.into_iter().collect()
}

/// Section 4.2.1.1: in Chord, when the responsible for a key departs, the
/// next responsible is one of its neighbours — the property that makes the
/// O(1)-message direct counter transfer possible.
#[test]
fn chord_next_responsible_is_a_neighbor() {
    let mut overlay = ChordNetwork::bootstrap(random_ids(3, 80), ChordConfig::default());
    let position = 0x0123_4567_89ab_cdefu64;
    for _ in 0..20 {
        let responsible = overlay.responsible_for(position).unwrap();
        let neighbors = overlay.neighbors(responsible);
        overlay.leave(responsible);
        match overlay.responsible_for(position) {
            Some(next) => assert!(neighbors.contains(&next)),
            None => break,
        }
    }
}

/// The lookup-service contract under churn: through joins, leaves and
/// failures every position has exactly one live responsible, and a lookup
/// from any live origin finds it. (`sample_alive` staying in `alive_ids`
/// order is `chord::tests::sample_alive_matches_alive_ids_across_churn`.)
#[test]
fn chord_keeps_a_unique_responsible_under_churn() {
    let mut chord = ChordNetwork::bootstrap(random_ids(5, 30), ChordConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..40 {
        let position: u64 = rng.gen();
        let responsible = chord.responsible_for(position).unwrap();
        assert!(chord.is_alive(responsible));
        let origin = chord
            .sample_alive(rng.gen_range(0..chord.alive_count()))
            .unwrap();
        assert_eq!(
            chord.lookup(origin, position).unwrap().responsible,
            responsible
        );
        match round % 4 {
            0 => {
                chord.join(NodeId(rng.gen()));
            }
            1 => {
                chord.leave(origin);
            }
            2 => {
                chord.fail(origin);
            }
            _ => {
                chord.stabilize();
            }
        }
    }
}

/// The durable deployment through the facade: a cluster journaling to disk
/// survives the crash and restart of the timestamping responsible.
#[test]
fn cluster_crash_restart_through_facade() {
    use rdht::net::{ClusterConfig, ClusterStorage};

    let root =
        std::env::temp_dir().join(format!("rdht-facade-crash-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ClusterConfig::new(6, 4, 2027).with_storage(ClusterStorage::new(&root));
    let mut cluster = Cluster::spawn_with(config);
    let key = Key::new("facade-durable");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"survives".to_vec()).unwrap();

    let victim = cluster.timestamp_responsible(&key).unwrap();
    cluster.crash_peer(victim).unwrap();
    let report = cluster.restart_peer(victim).unwrap();
    assert!(report.recovered_counters >= 1);

    // The restart re-initialised the key's counter in its batched
    // observation: the retrieve needs no per-key indirect initialization.
    assert_eq!(report.counters_reinitialized, 1);
    let mut fresh = cluster.client();
    let got = ums::retrieve(&mut fresh, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"survives");
    assert_eq!(fresh.indirect_initializations(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The peer that serves a crashed owner's range initialises the counters of
/// its keys while the owner is down. A restart takes that range back with
/// the counters, so at the owner's *second* crash the interim owner has no
/// stale counter left to stamp from: its next stamp is above everything the
/// restarted owner stamped, and the retrieve after it certifies the latest
/// payload.
#[test]
fn interim_owner_stamps_above_the_restarted_owner_at_its_second_crash() {
    use rdht::net::{ClusterConfig, ClusterStorage};

    let root =
        std::env::temp_dir().join(format!("rdht-facade-second-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ClusterConfig::new(6, 4, 2028).with_storage(ClusterStorage::new(&root));
    let mut cluster = Cluster::spawn_with(config);
    let key = Key::new("owned twice");
    let mut client = cluster.client();
    ums::insert(&mut client, &key, b"v0".to_vec()).unwrap();

    let owner = cluster.timestamp_responsible(&key).unwrap();
    cluster.crash_peer(owner).unwrap();
    let interim = cluster.timestamp_responsible(&key).unwrap();
    assert_ne!(interim, owner);
    // The interim owner initialises a counter for the key.
    ums::insert(&mut client, &key, b"interim".to_vec()).unwrap();

    cluster.restart_peer(owner).unwrap();
    assert_eq!(cluster.timestamp_responsible(&key), Some(owner));
    let mut highest = rdht::core::Timestamp::ZERO;
    for i in 0..20u32 {
        let stamped = ums::insert(&mut client, &key, format!("owner-{i}").into_bytes()).unwrap();
        assert!(stamped.timestamp > highest, "stamps stay monotone");
        highest = stamped.timestamp;
    }

    cluster.crash_peer(owner).unwrap();
    assert_eq!(cluster.timestamp_responsible(&key), Some(interim));
    let last = ums::insert(&mut client, &key, b"after".to_vec()).unwrap();
    assert!(
        last.timestamp > highest,
        "the interim owner stamped {:?} after {:?} was acknowledged",
        last.timestamp,
        highest
    );
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.timestamp, last.timestamp);
    assert_eq!(got.data.unwrap(), b"after");
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
