//! Property-based tests for the UMS/KTS core.

use proptest::prelude::*;

use rdht_hashing::Key;

use crate::durability::NoDurability;
use crate::kts::{IndirectObservation, KtsNode};
use crate::memory::InMemoryDht;
use crate::types::Timestamp;
use crate::{analysis, brk, ums};

proptest! {
    /// Timestamps generated for the same key are strictly increasing, no
    /// matter how gen_ts and last_ts requests interleave (Definition 2 /
    /// Theorem 2).
    #[test]
    fn kts_timestamps_are_monotonic(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut node = KtsNode::new();
        let key = Key::new("k");
        let mut last_generated = Timestamp::ZERO;
        for is_gen in ops {
            if is_gen {
                let out = node.gen_ts(&key, IndirectObservation::nothing, &mut NoDurability);
                prop_assert!(out.timestamp > last_generated);
                last_generated = out.timestamp;
            } else {
                let out = node.last_ts(&key, IndirectObservation::nothing, &mut NoDurability);
                prop_assert_eq!(out.timestamp, last_generated);
            }
        }
    }

    /// Monotonicity survives arbitrary responsibility hand-offs: counters move
    /// between peers by direct transfer (leave) or are re-initialized by the
    /// indirect algorithm against the last *committed* timestamp (failure,
    /// with at least one current replica reachable, i.e. the p_s case).
    #[test]
    fn monotonicity_survives_responsibility_changes(
        schedule in proptest::collection::vec((any::<bool>(), 1u8..6), 1..60),
    ) {
        let key = Key::new("k");
        let mut responsible = KtsNode::new();
        let mut last_generated = Timestamp::ZERO;
        for (fail, gens) in schedule {
            for _ in 0..gens {
                let committed = last_generated;
                let out = responsible.gen_ts(&key, || {
                    if committed.is_zero() {
                        IndirectObservation::nothing()
                    } else {
                        IndirectObservation::observed(committed)
                    }
                }, &mut NoDurability);
                prop_assert!(out.timestamp > last_generated);
                last_generated = out.timestamp;
            }
            if fail {
                // The responsible fails: the next responsible starts from an
                // empty VCS and will use the indirect observation above.
                responsible = KtsNode::new();
            } else {
                // Graceful leave: counters are transferred directly.
                let exported = responsible.export_counters_in_range(|_| true, &mut NoDurability);
                let mut next = KtsNode::new();
                next.receive_transferred_counters(exported, &mut NoDurability);
                responsible = next;
            }
        }
    }

    /// insert/retrieve round-trips through the in-memory DHT always return the
    /// most recently inserted value, for any number of updates and keys.
    #[test]
    fn retrieve_returns_last_insert(
        num_replicas in 1usize..20,
        seed in any::<u64>(),
        updates in proptest::collection::vec((0u8..5, proptest::collection::vec(any::<u8>(), 0..16)), 1..40),
    ) {
        let mut dht = InMemoryDht::new(num_replicas, seed);
        let mut latest: std::collections::HashMap<u8, Vec<u8>> = Default::default();
        for (key_index, payload) in updates {
            let key = Key::new(format!("key-{key_index}"));
            ums::insert(&mut dht, &key, payload.clone()).unwrap();
            latest.insert(key_index, payload);
        }
        for (key_index, expected) in latest {
            let key = Key::new(format!("key-{key_index}"));
            let got = ums::retrieve(&mut dht, &key).unwrap();
            prop_assert!(got.is_current);
            prop_assert_eq!(got.data.unwrap(), expected);
            prop_assert_eq!(got.replicas_probed, 1);
        }
    }

    /// Even when an arbitrary subset of replicas is rolled back or dropped,
    /// retrieve never returns data older than the most recent surviving
    /// replica, and when a current replica survives it is found and flagged.
    #[test]
    fn retrieve_never_returns_older_than_best_surviving(
        seed in any::<u64>(),
        damaged in proptest::collection::vec(any::<bool>(), 8),
        drop_instead in any::<bool>(),
    ) {
        let mut dht = InMemoryDht::new(8, seed);
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"old".to_vec()).unwrap();
        ums::insert(&mut dht, &key, b"new".to_vec()).unwrap();
        let ids = dht.replication_ids_vec();
        let mut any_current_left = false;
        for (hash, damage) in ids.iter().zip(&damaged) {
            if *damage {
                if drop_instead {
                    dht.drop_replica(*hash, &key);
                } else {
                    dht.overwrite_replica(
                        *hash,
                        &key,
                        crate::types::ReplicaValue::new(b"old".to_vec(), Timestamp(1)),
                    );
                }
            } else {
                any_current_left = true;
            }
        }
        let got = ums::retrieve(&mut dht, &key).unwrap();
        if any_current_left {
            prop_assert!(got.is_current);
            prop_assert_eq!(got.data.unwrap(), b"new".to_vec());
        } else if !drop_instead {
            // All replicas stale: the most recent surviving value is "old".
            prop_assert!(!got.is_current);
            prop_assert_eq!(got.data.unwrap(), b"old".to_vec());
        } else {
            // Every replica dropped: nothing can be returned.
            prop_assert!(got.data.is_none());
        }
    }

    /// The measured number of probes in a controlled stale/current mix stays
    /// within the Equation 5 bound min(1/p_t, |Hr|).
    #[test]
    fn probe_counts_respect_eq5(
        seed in any::<u64>(),
        stale_mask in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let mut dht = InMemoryDht::new(10, seed);
        let key = Key::new("doc");
        ums::insert(&mut dht, &key, b"v1".to_vec()).unwrap();
        ums::insert(&mut dht, &key, b"v2".to_vec()).unwrap();
        let ids = dht.replication_ids_vec();
        let mut current = 0usize;
        for (hash, stale) in ids.iter().zip(&stale_mask) {
            if *stale {
                dht.overwrite_replica(
                    *hash,
                    &key,
                    crate::types::ReplicaValue::new(b"v1".to_vec(), Timestamp(1)),
                );
            } else {
                current += 1;
            }
        }
        let got = ums::retrieve(&mut dht, &key).unwrap();
        let p_t = current as f64 / 10.0;
        let bound = analysis::bounded_expectation(p_t, 10);
        // A single sample of X is always <= |Hr|; when p_t > 0 the worst case
        // is bounded by the position of the last stale prefix, which is <= Hr.
        prop_assert!(got.replicas_probed as f64 <= 10.0);
        if p_t == 0.0 {
            prop_assert_eq!(got.replicas_probed, 10);
        }
        prop_assert!(bound >= 1.0);
    }

    /// The closed-form expectations are internally consistent for all valid
    /// parameters.
    #[test]
    fn analysis_formulas_are_consistent(p_t in 0.0f64..=1.0, hr in 1usize..60) {
        let eq1 = analysis::expected_retrievals_eq1(p_t, hr);
        let exact = analysis::expected_probes_exact(p_t, hr);
        prop_assert!(exact + 1e-9 >= eq1);
        prop_assert!(exact <= hr as f64 + 1e-9);
        prop_assert!(eq1 <= analysis::theorem1_upper_bound(p_t) + 1e-9);
        let ps = analysis::indirect_success_probability(p_t, hr);
        prop_assert!((0.0..=1.0).contains(&ps));
    }

    /// Sequential (non-concurrent) updates behave correctly in BRK: the last
    /// written value is returned, like UMS.
    #[test]
    fn sequential_updates_agree_with_ums(
        num_replicas in 1usize..15,
        seed in any::<u64>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 1..25),
    ) {
        let mut brk_dht = InMemoryDht::new(num_replicas, seed);
        let mut ums_dht = InMemoryDht::new(num_replicas, seed);
        let key = Key::new("shared");
        for payload in &payloads {
            brk::insert(&mut brk_dht, &key, payload.clone()).unwrap();
            ums::insert(&mut ums_dht, &key, payload.clone()).unwrap();
        }
        let brk_result = brk::retrieve(&mut brk_dht, &key).unwrap();
        let ums_result = ums::retrieve(&mut ums_dht, &key).unwrap();
        prop_assert_eq!(brk_result.data.as_ref(), payloads.last());
        prop_assert_eq!(brk_result.data, ums_result.data);
        // BRK always pays |Hr| probes; UMS finds a current replica on the
        // first probe in this failure-free setting.
        prop_assert_eq!(brk_result.replicas_probed, num_replicas);
        prop_assert_eq!(ums_result.replicas_probed, 1);
    }

    /// BRK's version numbers equal the number of updates applied so far.
    #[test]
    fn versions_count_updates(
        seed in any::<u64>(),
        updates in 1usize..30,
    ) {
        let mut dht = InMemoryDht::new(5, seed);
        let key = Key::new("doc");
        let mut last_version = Timestamp::ZERO;
        for i in 0..updates {
            last_version = brk::insert(&mut dht, &key, vec![i as u8]).unwrap().timestamp;
        }
        prop_assert_eq!(last_version, Timestamp(updates as u64));
    }

    /// Unknown keys never return data from BRK, regardless of replica count.
    #[test]
    fn unknown_keys_return_nothing(num_replicas in 1usize..30, seed in any::<u64>()) {
        let mut dht = InMemoryDht::new(num_replicas, seed);
        let got = brk::retrieve(&mut dht, &Key::new("never inserted")).unwrap();
        prop_assert!(got.data.is_none());
        prop_assert_eq!(got.replicas_probed, num_replicas);
    }
}
