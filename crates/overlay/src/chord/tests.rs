//! Unit and property tests for the Chord overlay.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{ChordConfig, ChordNetwork};
use crate::cost::MembershipEventKind;
use crate::id::NodeId;

fn ids(seed: u64, count: usize) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < count {
        set.insert(NodeId(rng.gen()));
    }
    set.into_iter().collect()
}

fn small_config() -> ChordConfig {
    ChordConfig {
        successor_list_len: 4,
        finger_bits: 64,
        fingers_fixed_per_round: 16,
        max_routing_steps: 256,
    }
}

#[test]
fn sample_alive_matches_alive_ids_across_churn() {
    // The O(1) sampler must stay in lockstep with `alive_ids` through joins,
    // leaves and failures — the simulator relies on identical ordering to
    // keep seeded runs reproducible.
    let mut network = ChordNetwork::bootstrap(ids(77, 24), small_config());
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..40 {
        let members = network.alive_ids();
        assert_eq!(network.alive_count(), members.len());
        for (index, id) in members.iter().enumerate() {
            assert_eq!(network.sample_alive(index), Some(*id));
        }
        assert_eq!(network.sample_alive(members.len()), None);
        if round % 3 == 0 {
            network.join(NodeId(rng.gen()));
        } else {
            let victim = members[rng.gen_range(0..members.len())];
            if round % 3 == 1 {
                network.leave(victim);
            } else {
                network.fail(victim);
            }
        }
        network.check_invariants().unwrap();
    }
}

#[test]
fn bootstrap_builds_consistent_ring() {
    let network = ChordNetwork::bootstrap(ids(1, 50), small_config());
    assert_eq!(network.len(), 50);
    network.check_invariants().unwrap();
    for id in network.alive_ids() {
        let node = network.node(id).unwrap();
        assert_eq!(node.successor(), network.truth_successor_of_node(id));
        assert_eq!(node.predecessor, network.truth_predecessor_of_node(id));
    }
}

#[test]
fn lookup_finds_ground_truth_responsible() {
    let mut network = ChordNetwork::bootstrap(ids(2, 128), small_config());
    let members = network.alive_ids();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let origin = members[rng.gen_range(0..members.len())];
        let target: u64 = rng.gen();
        let expected = network.responsible_for(target).unwrap();
        let outcome = network.lookup(origin, target).unwrap();
        assert_eq!(outcome.responsible, expected);
        assert_eq!(
            outcome.timeouts, 0,
            "stabilized ring should have no timeouts"
        );
    }
}

#[test]
fn lookup_hops_are_logarithmic() {
    let mut network = ChordNetwork::bootstrap(ids(3, 1024), small_config());
    let members = network.alive_ids();
    let mut rng = StdRng::seed_from_u64(11);
    let mut total_hops = 0u64;
    let samples = 300;
    for _ in 0..samples {
        let origin = members[rng.gen_range(0..members.len())];
        let target: u64 = rng.gen();
        total_hops += u64::from(network.lookup(origin, target).unwrap().hops);
    }
    let avg = total_hops as f64 / samples as f64;
    // Expected ~ (1/2) log2(1024) = 5; allow generous slack.
    assert!(avg > 2.0 && avg < 12.0, "average hops {avg} out of range");
}

#[test]
fn single_node_ring_answers_locally() {
    let mut network = ChordNetwork::bootstrap(vec![NodeId(5)], small_config());
    let outcome = network.lookup(NodeId(5), 12345).unwrap();
    assert_eq!(outcome.responsible, NodeId(5));
    assert_eq!(outcome.hops, 0);
}

#[test]
fn lookup_from_dead_origin_fails() {
    let mut network = ChordNetwork::bootstrap(ids(4, 8), small_config());
    let err = network.lookup(NodeId(1), 42).unwrap_err();
    assert_eq!(err, crate::cost::LookupError::OriginNotAlive);
}

#[test]
fn empty_overlay_lookup_fails() {
    let mut network = ChordNetwork::new(small_config());
    let err = network.lookup(NodeId(1), 42).unwrap_err();
    assert_eq!(err, crate::cost::LookupError::EmptyOverlay);
}

#[test]
fn join_takes_over_range_from_successor() {
    let mut network = ChordNetwork::bootstrap(ids(5, 32), small_config());
    let new_id = NodeId(0x4242_4242_4242_4242);
    assert!(!network.is_alive(new_id));
    let expected_successor = network.responsible_for(new_id.0).unwrap();
    let outcome = network.join(new_id);
    assert!(network.is_alive(new_id));
    assert_eq!(outcome.changes.len(), 1);
    let change = &outcome.changes[0];
    assert_eq!(change.kind, MembershipEventKind::Join);
    assert_eq!(change.from, expected_successor);
    assert_eq!(change.to, new_id);
    assert!(change.handover_possible);
    assert!(change.covers(new_id.0));
    // The new node is now the ground-truth responsible for its own id.
    assert_eq!(network.responsible_for(new_id.0), Some(new_id));
}

#[test]
fn join_into_empty_overlay_has_no_transfer() {
    let mut network = ChordNetwork::new(small_config());
    let outcome = network.join(NodeId(9));
    assert!(outcome.changes.is_empty());
    assert_eq!(network.len(), 1);
    assert_eq!(network.responsible_for(123), Some(NodeId(9)));
}

#[test]
fn duplicate_join_is_ignored() {
    let mut network = ChordNetwork::bootstrap(vec![NodeId(9)], small_config());
    let outcome = network.join(NodeId(9));
    assert!(outcome.changes.is_empty());
    assert_eq!(network.len(), 1);
}

#[test]
fn leave_hands_over_to_successor() {
    let mut network = ChordNetwork::bootstrap(ids(6, 32), small_config());
    let members = network.alive_ids();
    let leaving = members[10];
    let successor = network.truth_successor_of_node(leaving).unwrap();
    let predecessor = network.truth_predecessor_of_node(leaving).unwrap();
    let outcome = network.leave(leaving);
    assert_eq!(outcome.changes.len(), 1);
    let change = &outcome.changes[0];
    assert_eq!(change.kind, MembershipEventKind::Leave);
    assert_eq!(change.from, leaving);
    assert_eq!(change.to, successor);
    assert!(change.handover_possible);
    assert_eq!(change.range_start, predecessor.0);
    assert_eq!(change.range_end, leaving.0);
    assert!(!network.is_alive(leaving));
    assert_eq!(network.len(), 31);
}

#[test]
fn fail_produces_change_without_handover() {
    let mut network = ChordNetwork::bootstrap(ids(7, 32), small_config());
    let failing = network.alive_ids()[3];
    let successor = network.truth_successor_of_node(failing).unwrap();
    let outcome = network.fail(failing);
    assert_eq!(outcome.changes.len(), 1);
    assert_eq!(outcome.changes[0].kind, MembershipEventKind::Fail);
    assert!(!outcome.changes[0].handover_possible);
    assert_eq!(outcome.changes[0].to, successor);
    assert!(!network.is_alive(failing));
}

#[test]
fn leave_of_last_node_empties_ring() {
    let mut network = ChordNetwork::bootstrap(vec![NodeId(1)], small_config());
    let outcome = network.leave(NodeId(1));
    assert!(outcome.changes.is_empty());
    assert!(network.is_empty());
    assert_eq!(network.responsible_for(0), None);
}

#[test]
fn lookups_survive_failures_with_timeouts() {
    let mut network = ChordNetwork::bootstrap(ids(8, 256), small_config());
    let mut rng = StdRng::seed_from_u64(13);
    // Fail 25% of the nodes without any stabilization.
    let members = network.alive_ids();
    for chunk in members.chunks(4) {
        network.fail(chunk[0]);
    }
    let survivors = network.alive_ids();
    let mut total_timeouts = 0u32;
    for _ in 0..100 {
        let origin = survivors[rng.gen_range(0..survivors.len())];
        let target: u64 = rng.gen();
        let expected = network.responsible_for(target).unwrap();
        let outcome = network.lookup(origin, target).unwrap();
        assert_eq!(outcome.responsible, expected);
        total_timeouts += outcome.timeouts;
    }
    assert!(
        total_timeouts > 0,
        "failing a quarter of the ring should cause at least one timeout"
    );
}

#[test]
fn stabilization_removes_stale_references_and_timeouts() {
    let mut network = ChordNetwork::bootstrap(ids(9, 256), small_config());
    let members = network.alive_ids();
    for chunk in members.chunks(4) {
        network.fail(chunk[0]);
    }
    // Enough rounds to refresh all 64 fingers at 16 per round.
    for _ in 0..5 {
        network.stabilize();
    }
    let survivors = network.alive_ids();
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..100 {
        let origin = survivors[rng.gen_range(0..survivors.len())];
        let target: u64 = rng.gen();
        let outcome = network.lookup(origin, target).unwrap();
        assert_eq!(outcome.timeouts, 0, "stabilized ring should not time out");
    }
}

#[test]
fn stabilize_reports_work_done() {
    let mut network = ChordNetwork::bootstrap(ids(10, 64), small_config());
    let victim = network.alive_ids()[0];
    network.fail(victim);
    let outcome = network.stabilize();
    assert!(outcome.messages > 0);
    assert!(outcome.refreshed_fingers > 0);
}

#[test]
fn neighbors_include_successors_and_predecessor() {
    let network = ChordNetwork::bootstrap(ids(11, 16), small_config());
    let id = network.alive_ids()[4];
    let neighbors = network.neighbors(id);
    let succ = network.truth_successor_of_node(id).unwrap();
    let pred = network.truth_predecessor_of_node(id).unwrap();
    assert!(neighbors.contains(&succ));
    assert!(neighbors.contains(&pred));
    assert!(!neighbors.contains(&id));
    assert!(network.neighbors(NodeId(0xdead)).is_empty());
}

#[test]
fn next_responsible_is_a_neighbor_of_current_responsible() {
    // The property Section 4.2.1.1 proves for Chord: when the responsible for
    // a key departs, the next responsible is one of its neighbors, so the
    // direct algorithm can hand counters over in O(1) messages.
    let mut network = ChordNetwork::bootstrap(ids(12, 64), small_config());
    let key_position = 0x7777_7777_7777_7777u64;
    for _ in 0..10 {
        let responsible = network.responsible_for(key_position).unwrap();
        let neighbors = network.neighbors(responsible);
        network.leave(responsible);
        match network.responsible_for(key_position) {
            Some(next) => assert!(
                neighbors.contains(&next),
                "next responsible {next:?} was not a neighbor of {responsible:?}"
            ),
            None => break,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of joins, leaves and failures, lookups from any live
    /// origin locate the ground-truth responsible peer.
    #[test]
    fn lookup_agrees_with_ground_truth_under_churn(
        seed in any::<u64>(),
        initial in 4usize..40,
        operations in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..60),
    ) {
        let mut network = ChordNetwork::bootstrap(ids(seed, initial), small_config());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for (op, value) in operations {
            match op % 4 {
                0 => { network.join(NodeId(value)); },
                1 => {
                    let members = network.alive_ids();
                    if members.len() > 2 {
                        network.leave(members[(value as usize) % members.len()]);
                    }
                }
                2 => {
                    let members = network.alive_ids();
                    if members.len() > 2 {
                        network.fail(members[(value as usize) % members.len()]);
                    }
                }
                _ => { network.stabilize(); },
            }
        }
        let members = network.alive_ids();
        prop_assume!(!members.is_empty());
        for _ in 0..10 {
            let origin = members[rng.gen_range(0..members.len())];
            let target: u64 = rng.gen();
            let expected = network.responsible_for(target).unwrap();
            let outcome = network.lookup(origin, target).unwrap();
            prop_assert_eq!(outcome.responsible, expected);
        }
        network.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Successor-list/finger state never references the node itself as a
    /// neighbor after bootstrap with at least two members.
    #[test]
    fn neighbors_never_contain_self(seed in any::<u64>(), count in 2usize..50) {
        let network = ChordNetwork::bootstrap(ids(seed, count), small_config());
        for id in network.alive_ids() {
            prop_assert!(!network.neighbors(id).contains(&id));
        }
    }
}
