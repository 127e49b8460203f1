//! Integration test of the threaded deployment through the facade crate:
//! the same `rdht::ums` code that runs in the simulator runs against real
//! threads, and Chord's neighbour-handoff property (which justifies the
//! direct algorithm) holds.

use rdht::core::ums;
use rdht::hashing::Key;
use rdht::net::Cluster;
use rdht::overlay::chord::{ChordConfig, ChordNetwork};
use rdht::overlay::NodeId;

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

    let mut fresh = cluster.client();
    let got = ums::retrieve(&mut fresh, &key).unwrap();
    assert!(got.is_current);
    assert_eq!(got.data.unwrap(), b"survives");
    assert!(fresh.indirect_initializations() >= 1);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
