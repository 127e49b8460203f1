//! The range hand-off: three journaled phase functions.
//!
//! One transfer moves responsibility for a ring interval `(start, end]` from
//! a *source* peer to a *target* peer — the join and the graceful leave are
//! the same protocol with different plans. The phases, in order, and what
//! each one journals:
//!
//! | Phase | Action | Journaled where |
//! |---|---|---|
//! | export | [`export_handoff`]: replicas in range *copied* (not removed), counters in range drained from the source's VCS | counter removes on the **source** |
//! | install | [`install_handoff`]: the bundle applied at the target | replica puts + counter sets on the **target** |
//! | commit | [`commit_handoff`]: one `TransferRange` record prunes the moved replicas from the source | `TransferRange` on the **source** |
//!
//! The ordering is what makes a crash at any point safe:
//!
//! * **before the install** the transfer *rolls back*: the source's journal
//!   still holds every replica (they were only copied), so recovery serves
//!   them unchanged; the exported counters are durably gone, but a missing
//!   counter only costs an indirect re-initialization (Section 4.2.2), which
//!   is always safe — replicas, not counters, are the currency ground truth.
//! * **from the install on** the transfer *completes*: the target's journal
//!   holds every moved replica and counter, so re-running the remaining
//!   phases (or simply re-driving the whole protocol — every step is
//!   idempotent) converges to the committed state. Until the source commits,
//!   both sides hold the moved replicas; duplicates are harmless because
//!   replicas are immutable `(payload, stamp)` pairs and responsibility is
//!   resolved by the ring, not by who stores what.

use rdht_core::kts::KtsNode;
use rdht_core::{DurableState, ReplicaValue, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_overlay::in_open_closed_interval;
use rdht_storage::{StorageEngine, StoredReplica};

/// Everything a range transfer ships from source to target: the replicas
/// stored in the moved interval and the KTS counters of the keys whose
/// *timestamping* position falls in it (the direct algorithm's payload).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HandoffBundle {
    /// Replicas whose ring position lies in the moved interval.
    pub replicas: Vec<(HashId, Key, StoredReplica)>,
    /// Counters handed over directly (Section 4.2.1), with their current
    /// values.
    pub counters: Vec<(Key, Timestamp)>,
    /// Pending *recovery floors* of moved keys (recovered durable counter
    /// values not yet consumed by an initialization at the source). Not
    /// valid counters — they re-seed as floors at the target, so its first
    /// indirect initialization still takes `max(observed, recovered)`.
    pub floors: Vec<(Key, Timestamp)>,
}

impl HandoffBundle {
    /// Whether nothing at all moves.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty() && self.counters.is_empty() && self.floors.is_empty()
    }
}

/// What [`install_handoff`] applied at the target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstallReport {
    /// Replicas installed (stale duplicates already superseded at the target
    /// are skipped, mirroring UMS `put_h` semantics).
    pub replicas_installed: usize,
    /// Counters received through the direct transfer.
    pub counters_received: usize,
}

/// Source side, export phase: copies every replica whose position falls
/// in `(range_start, range_end]` out of the engine (the originals stay until
/// [`commit_handoff`]) and drains the counters of every key whose
/// *timestamping* position falls in the range — each drained counter is
/// journaled as removed on the source, enforcing Rule 3 durably.
pub fn export_handoff(
    engine: &mut StorageEngine,
    kts: &mut KtsNode,
    family: &HashFamily,
    range_start: u64,
    range_end: u64,
) -> HandoffBundle {
    let replicas: Vec<(HashId, Key, StoredReplica)> = engine
        .replicas()
        .iter()
        .filter(|(_, _, replica)| in_open_closed_interval(range_start, range_end, replica.position))
        .map(|(hash, key, replica)| (hash, key.clone(), replica.clone()))
        .collect();
    let counters = kts.export_counters_in_range_with(
        |key| in_open_closed_interval(range_start, range_end, family.eval_timestamp(key)),
        engine,
    );
    // Unconsumed recovery floors of moved keys travel too: the takeover
    // peer inherits the "resume at least here" guarantee, or a crash-then-
    // hand-off sequence would reopen the counter-regression corner.
    let floors = kts.drain_recovery_floors(|key| {
        in_open_closed_interval(range_start, range_end, family.eval_timestamp(key))
    });
    HandoffBundle {
        replicas,
        counters,
        floors,
    }
}

/// Target side, install phase: applies the bundle. Replicas install with
/// keep-newest semantics (a stale duplicate never overwrites a fresher local
/// record) and every accepted put is journaled; counters install through the
/// direct-transfer receive path, which journals each installed value and
/// never downgrades a larger local counter.
pub fn install_handoff(
    engine: &mut StorageEngine,
    kts: &mut KtsNode,
    bundle: HandoffBundle,
) -> InstallReport {
    let mut report = InstallReport {
        counters_received: bundle.counters.len(),
        ..InstallReport::default()
    };
    for (hash, key, replica) in bundle.replicas {
        let accepted = match engine.replicas().get(hash, &key) {
            Some(existing) => replica.stamp > existing.stamp,
            None => true,
        };
        if accepted {
            let value = ReplicaValue::new(replica.payload, replica.stamp);
            engine.record_replica_put(hash, &key, &value, replica.position);
            report.replicas_installed += 1;
        }
    }
    // Floors first, so a transferred counter that lost against a floor at
    // the source cannot sneak in below it here either.
    kts.seed_recovery_floors(bundle.floors);
    kts.receive_transferred_counters_with(bundle.counters, engine);
    report
}

/// Source side, commit phase: prunes every replica in the moved range
/// with a single journaled `TransferRange` record — the durable commit point
/// of the transfer. Returns how many replicas were pruned.
pub fn commit_handoff(engine: &mut StorageEngine, range_start: u64, range_end: u64) -> usize {
    let before = engine.replicas().len();
    engine.record_range_transfer(range_start, range_end);
    before - engine.replicas().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_core::kts::IndirectObservation;
    use rdht_storage::{FsyncPolicy, StorageOptions};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdht-membership-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &PathBuf) -> StorageEngine {
        StorageEngine::open(dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap()
    }

    /// Populates a source engine + KTS with `n` keys: one replica per
    /// replication function and one generated counter per key.
    fn populate(engine: &mut StorageEngine, kts: &mut KtsNode, family: &HashFamily, n: usize) {
        for i in 0..n {
            let key = Key::new(format!("doc-{i}"));
            for _ in 0..3 {
                kts.gen_ts_with(&key, IndirectObservation::nothing, engine);
            }
            let stamp = kts.counter_value(&key).unwrap();
            for hash in (0..family.num_replication()).map(|h| HashId(h as u32)) {
                let value = ReplicaValue::new(format!("payload-{i}").into_bytes(), stamp);
                let position = family.eval(hash, &key);
                engine.record_replica_put(hash, &key, &value, position);
            }
        }
    }

    #[test]
    fn full_handoff_moves_range_and_counters() {
        let family = HashFamily::new(4, 7);
        let src_dir = temp_dir("full-src");
        let dst_dir = temp_dir("full-dst");
        let mut src = open(&src_dir);
        let mut src_kts = KtsNode::new(false);
        let mut dst = open(&dst_dir);
        let mut dst_kts = KtsNode::new(false);
        populate(&mut src, &mut src_kts, &family, 8);
        let total = src.replicas().len();

        // Move half the ring.
        let (start, end) = (0u64, u64::MAX / 2);
        let bundle = export_handoff(&mut src, &mut src_kts, &family, start, end);
        let moved_replicas = bundle.replicas.len();
        let moved_counters = bundle.counters.len();
        assert!(moved_replicas > 0 && moved_replicas < total);
        // Every exported counter left the source's VCS (Rule 3).
        for (key, _) in &bundle.counters {
            assert!(!src_kts.has_counter(key));
        }

        let report = install_handoff(&mut dst, &mut dst_kts, bundle);
        assert_eq!(report.replicas_installed, moved_replicas);
        assert_eq!(report.counters_received, moved_counters);

        let pruned = commit_handoff(&mut src, start, end);
        assert_eq!(pruned, moved_replicas);
        assert_eq!(src.replicas().len(), total - moved_replicas);
        assert_eq!(dst.replicas().len(), moved_replicas);

        // The target generates the next timestamp for a moved key without an
        // indirect initialization, continuing the source's sequence.
        let first_counter: Option<(Key, Timestamp)> =
            dst_kts.vcs().iter().map(|(k, v)| (k.clone(), v)).next();
        if let Some((key, value)) = first_counter {
            let out = dst_kts.gen_ts_with(
                &key,
                || panic!("direct transfer must make the counter valid"),
                &mut dst,
            );
            assert_eq!(out.timestamp, Timestamp(value.0 + 1));
        }

        // Both journals replay to the post-transfer state.
        drop(src);
        drop(dst);
        let (src_replicas, _) = StorageEngine::recover(&src_dir).unwrap();
        let (dst_replicas, dst_counters) = StorageEngine::recover(&dst_dir).unwrap();
        assert_eq!(src_replicas.len(), total - moved_replicas);
        assert_eq!(dst_replicas.len(), moved_replicas);
        assert_eq!(dst_counters.len(), moved_counters);
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }

    #[test]
    fn install_keeps_newest_on_duplicate_records() {
        let family = HashFamily::new(2, 1);
        let mut dst = StorageEngine::ephemeral();
        let mut dst_kts = KtsNode::new(false);
        let key = Key::new("doc");
        let hash = HashId(0);
        let position = family.eval(hash, &key);
        // The target already holds a fresher record.
        dst.record_replica_put(
            hash,
            &key,
            &ReplicaValue::new(b"fresh".to_vec(), Timestamp(9)),
            position,
        );
        let bundle = HandoffBundle {
            replicas: vec![(
                hash,
                key.clone(),
                StoredReplica {
                    payload: b"stale".to_vec(),
                    stamp: Timestamp(3),
                    position,
                },
            )],
            counters: Vec::new(),
            floors: Vec::new(),
        };
        let report = install_handoff(&mut dst, &mut dst_kts, bundle);
        assert_eq!(report.replicas_installed, 0);
        assert_eq!(dst.replicas().get(hash, &key).unwrap().payload, b"fresh");
    }

    #[test]
    fn pending_recovery_floors_travel_with_the_handoff() {
        // The source recovered from a crash (floor seeded, VCS empty) and
        // then hands its range away before any request consumed the floor:
        // the floor must re-seed at the target, or the target's first
        // indirect initialization could restart the counter below 5.
        let family = HashFamily::new(2, 9);
        let mut src = StorageEngine::ephemeral();
        let mut src_kts = KtsNode::new(false);
        let mut dst = StorageEngine::ephemeral();
        let mut dst_kts = KtsNode::new(false);
        let key = Key::new("resumed doc");
        src_kts.seed_recovery_floors(vec![(key.clone(), Timestamp(5))]);

        // Full-ring hand-off so the key's timestamp position is covered.
        let bundle = export_handoff(&mut src, &mut src_kts, &family, 7, 7);
        assert_eq!(bundle.counters.len(), 0, "a floor is not a valid counter");
        assert_eq!(bundle.floors.len(), 1);
        assert_eq!(src_kts.recovery_floor(&key), None, "drained at the source");

        install_handoff(&mut dst, &mut dst_kts, bundle);
        assert!(
            !dst_kts.has_counter(&key),
            "the floor must not resurrect into the VCS (Rule 1)"
        );
        // An empty observation at the target still resumes after the floor.
        let out = dst_kts.gen_ts_with(&key, IndirectObservation::nothing, &mut dst);
        assert_eq!(out.timestamp, Timestamp(6));
    }

    #[test]
    fn crash_before_install_rolls_back_without_losing_replicas() {
        let family = HashFamily::new(3, 11);
        let src_dir = temp_dir("rollback-src");
        let mut src = open(&src_dir);
        let mut src_kts = KtsNode::new(false);
        populate(&mut src, &mut src_kts, &family, 6);
        let total = src.replicas().len();

        // Export, then "crash" both sides before the target installs: the
        // bundle is lost in flight.
        let bundle = export_handoff(&mut src, &mut src_kts, &family, 0, u64::MAX / 2);
        let exported_counters = bundle.counters.len();
        drop(bundle);
        drop(src);

        let (replicas, counters) = StorageEngine::recover(&src_dir).unwrap();
        assert_eq!(replicas.len(), total, "no replica was lost");
        // The exported counters are durably gone from the source; the
        // remaining durable counter images are only the unexported ones.
        assert_eq!(counters.len(), 6 - exported_counters);
        // Indirect re-initialization from the intact replicas reproduces a
        // safe counter for a moved key: the max stored stamp is the last
        // generated timestamp (3 per key in populate()).
        for (hash, key, replica) in replicas.iter() {
            assert_eq!(replica.stamp, Timestamp(3), "{hash:?}/{key:?}");
        }
        let _ = std::fs::remove_dir_all(&src_dir);
    }

    #[test]
    fn empty_range_handoff_is_a_no_op() {
        let family = HashFamily::new(2, 3);
        let mut src = StorageEngine::ephemeral();
        let mut src_kts = KtsNode::new(false);
        // A range covering no stored position moves nothing. Positions of
        // "doc-0" under 2 hash functions are essentially random; use an
        // empty engine instead for determinism.
        let bundle = export_handoff(&mut src, &mut src_kts, &family, 5, 6);
        assert!(bundle.is_empty());
        assert_eq!(commit_handoff(&mut src, 5, 6), 0);
    }
}
