//! Integration tests of KTS monotonicity across responsibility hand-offs on a
//! real Chord overlay (overlay + core used together, outside the simulator).

use rdht::core::kts::{IndirectObservation, KtsNode};
use rdht::core::Timestamp;
use rdht::hashing::{HashFamily, Key};
use rdht::overlay::chord::{ChordConfig, ChordNetwork};
use rdht::overlay::{MembershipEventKind, NodeId};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives a Chord ring through churn while generating timestamps for one key
/// at whichever peer is currently the responsible of timestamping, handing
/// counters over exactly as the direct algorithm prescribes for graceful
/// leaves and using the indirect observation after failures. Timestamps must
/// stay strictly increasing throughout.
#[test]
fn timestamps_stay_monotonic_across_chord_churn() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < 64 {
        ids.insert(NodeId(rng.gen()));
    }
    let mut overlay = ChordNetwork::bootstrap(ids, ChordConfig::default());
    let family = HashFamily::new(8, 7);
    let key = Key::new("audited-key");
    let ts_position = family.eval_timestamp(&key);

    // KTS state per live peer.
    let mut kts: std::collections::HashMap<NodeId, KtsNode> = overlay
        .alive_ids()
        .into_iter()
        .map(|id| (id, KtsNode::new(false)))
        .collect();

    let mut last_generated = Timestamp::ZERO;
    // The "DHT view" of the latest committed timestamp, available to the
    // indirect algorithm (we commit every generated timestamp immediately).
    let mut committed = Timestamp::ZERO;

    for round in 0..200 {
        // Generate a timestamp at the current responsible.
        let responsible = overlay.responsible_for(ts_position).unwrap();
        let node = kts
            .entry(responsible)
            .or_insert_with(|| KtsNode::new(false));
        let observation = if committed.is_zero() {
            IndirectObservation::nothing()
        } else {
            IndirectObservation::observed(committed)
        };
        let generated = node.gen_ts(&key, || observation).timestamp;
        assert!(
            generated > last_generated,
            "round {round}: generated {generated:?} after {last_generated:?}"
        );
        last_generated = generated;
        committed = generated;

        // Churn: every other round the responsible departs (mostly leaves,
        // sometimes failures), otherwise a random peer joins.
        if round % 2 == 0 {
            let fails = round % 10 == 0;
            let outcome = if fails {
                overlay.fail(responsible)
            } else {
                overlay.leave(responsible)
            };
            let mut departing = kts
                .remove(&responsible)
                .unwrap_or_else(|| KtsNode::new(false));
            for change in &outcome.changes {
                if change.handover_possible && change.kind == MembershipEventKind::Leave {
                    let exported = departing
                        .export_counters_in_range(|k| change.covers(family.eval_timestamp(k)));
                    kts.entry(change.to)
                        .or_insert_with(|| KtsNode::new(false))
                        .receive_transferred_counters(exported);
                }
            }
        } else {
            let new_id = NodeId(rng.gen());
            let outcome = overlay.join(new_id);
            kts.insert(new_id, KtsNode::new(false));
            for change in &outcome.changes {
                if change.kind == MembershipEventKind::Join {
                    let exported = kts
                        .get_mut(&change.from)
                        .map(|node| {
                            node.export_counters_in_range(|k| {
                                change.covers(family.eval_timestamp(k))
                            })
                        })
                        .unwrap_or_default();
                    kts.entry(change.to)
                        .or_insert_with(|| KtsNode::new(false))
                        .receive_transferred_counters(exported);
                }
            }
        }
    }
    assert!(last_generated.0 >= 200, "200 timestamps were generated");
}

/// The recovery strategy: a failed responsible that restarts hands its
/// counters to the new responsible, which corrects any counter the indirect
/// algorithm initialized too low.
#[test]
fn recovery_corrects_underestimated_counters_after_failure() {
    let key = Key::new("doc");
    let mut old_responsible = KtsNode::new(false);
    let mut latest = Timestamp::ZERO;
    for _ in 0..10 {
        latest = old_responsible
            .gen_ts(&key, IndirectObservation::nothing)
            .timestamp;
    }

    // The old responsible fails before the last timestamps reach any replica:
    // the new responsible can only observe an older timestamp in the DHT.
    let mut new_responsible = KtsNode::new(false);
    let stale_observation = Timestamp(4);
    let first = new_responsible
        .gen_ts(&key, || IndirectObservation::observed(stale_observation))
        .timestamp;
    assert!(
        first < latest,
        "the under-initialized counter would break monotonicity ({first:?} < {latest:?})"
    );

    // Recovery: the failed responsible restarts and sends its counters; the
    // new responsible corrects itself and reports which keys need re-insertion.
    let corrections =
        new_responsible.reconcile_with_recovered_counters(vec![(key.clone(), latest)]);
    assert_eq!(corrections.len(), 1);
    assert_eq!(corrections[0].corrected_to, latest);
    let next = new_responsible
        .gen_ts(&key, || panic!("counter is valid"))
        .timestamp;
    assert!(next > latest);
}

/// Periodic inspection achieves the same correction without the failed peer
/// ever coming back, by comparing counters against the timestamps stored in
/// the DHT.
#[test]
fn periodic_inspection_catches_up_with_stored_timestamps() {
    let key = Key::new("doc");
    let mut responsible = KtsNode::new(false);
    responsible.gen_ts(&key, || IndirectObservation::observed(Timestamp(3)));
    // The DHT actually holds a replica stamped 17 that the indirect scan missed.
    let corrections =
        responsible.periodic_inspection(|k| if k == &key { Some(Timestamp(17)) } else { None });
    assert_eq!(corrections.len(), 1);
    assert!(responsible.counter_value(&key).unwrap() >= Timestamp(17));
    let next = responsible
        .gen_ts(&key, || panic!("counter is valid"))
        .timestamp;
    assert!(next > Timestamp(17));
}
