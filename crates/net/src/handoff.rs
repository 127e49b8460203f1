//! The range hand-off of a live join or a graceful leave — the *direct*
//! algorithm of Section 4.2.1, which moves the counters of the moved keys
//! with their replicas so the next responsible needs no indirect
//! re-initialization — as journaled phase functions that the live peers
//! and the simulator both run.
//!
//! One transfer moves responsibility for a ring interval `(start, end]`
//! ([`rdht_overlay::Ring::join`] / [`rdht_overlay::Ring::leave`] name it)
//! from a *source* peer to a *target* peer:
//!
//! | Phase | Action | Journaled where |
//! |---|---|---|
//! | export | [`export_handoff`]: counters in range drained from the source's VCS, recovery floors with them | counter removes on the **source** |
//! | install | [`HandoffExport::bundles`] *copies* the replicas in range (they are not removed) into bounded [`HandoffBundle`]s, the counters and floors riding in the last; [`install_handoff`] applies each at the target, one after the other | replica puts, then counter sets, on the **target**, one synced batch per bundle |
//! | commit | [`commit_handoff`]: one `TransferRange` record prunes the moved replicas from the source | `TransferRange` on the **source** |
//!
//! A bundle holds at most [`WRITE_CHUNK_BYTES`] of replicas, as
//! [`bundled_bytes`] counts them, or one larger replica alone, and the
//! source copies the next bundle only once the target acknowledged the
//! previous one: however large the range, a transfer holds one bundle in
//! flight, never a copy of the range.
//!
//! The phases are generic over the [`ReplicaTable`] they touch: a live peer
//! passes its journaled `StorageEngine` and drives them from two peer
//! threads exchanging messages; the simulator passes each universe's bare
//! [`PeerStore`] as [`Unjournaled`]. The ordering makes a crash at any point
//! safe:
//!
//! * **before the last bundle installs** the transfer *rolls back*: the
//!   source's journal still holds every replica (they were only copied);
//!   the target holds at most duplicates of the bundles it installed, which
//!   are harmless because replicas are immutable `(payload, stamp)` pairs
//!   and responsibility is resolved by the ring, not by who stores what; the
//!   exported counters are durably gone, but a missing counter only costs
//!   an indirect re-initialization (Section 4.2.2), which is always safe —
//!   replicas, not counters, are the currency ground truth.
//! * **from the last bundle's install on** the transfer *completes*: the
//!   target's journal holds every moved replica and counter, and re-driving
//!   the protocol (every step is idempotent) converges. Until the source
//!   commits, both sides hold the moved replicas.

use rdht_core::kts::KtsNode;
use rdht_core::{DurableState, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_overlay::{in_open_closed_interval, PeerStore, Record, WritePolicy};
use rdht_storage::frame::WRITE_CHUNK_BYTES;
use rdht_storage::{StorageEngine, StorageOp};

/// The replica table a hand-off phase reads and writes; its
/// [`DurableState`] is the journal the phase's counter moves go to.
pub trait ReplicaTable: DurableState {
    /// The replicas held.
    fn table(&self) -> &PeerStore;
    /// Stores `record`, which has already won the `put_h` comparison
    /// ([`PeerStore::accepts`]).
    fn put_owned(&mut self, hash: HashId, key: Key, record: Record);
    /// Drops every replica whose position lies in `(start, end]`.
    fn prune_range(&mut self, start: u64, end: u64);
}

/// A live peer's table: every put and prune is journaled.
impl ReplicaTable for StorageEngine {
    fn table(&self) -> &PeerStore {
        self.replicas()
    }

    fn put_owned(&mut self, hash: HashId, key: Key, record: Record) {
        // The bundle owns the payload: apply it as it is, without the copy
        // the by-reference `record_replica_put` makes.
        self.apply_latching(StorageOp::PutReplica {
            hash,
            key,
            payload: record.payload,
            stamp: Timestamp(record.stamp),
            position: record.position,
        });
    }

    fn prune_range(&mut self, start: u64, end: u64) {
        self.record_range_transfer(start, end);
    }
}

/// A bare [`PeerStore`], as the simulator's peers hold one per universe:
/// nothing it does is journaled (its [`DurableState`] hooks are the no-ops
/// of `NoDurability`).
pub struct Unjournaled<'a>(pub &'a mut PeerStore);

impl DurableState for Unjournaled<'_> {}

impl ReplicaTable for Unjournaled<'_> {
    fn table(&self) -> &PeerStore {
        self.0
    }

    fn put_owned(&mut self, hash: HashId, key: Key, record: Record) {
        self.0.put(hash, key, record, WritePolicy::Overwrite);
    }

    fn prune_range(&mut self, start: u64, end: u64) {
        self.0.prune_range(start, end);
    }
}

/// One shipment of a range transfer from source to target: some of the
/// replicas stored in the moved interval and, in a transfer's last bundle,
/// the KTS counters of the keys whose *timestamping* position falls in it
/// (the direct algorithm's payload).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HandoffBundle {
    /// Replicas whose ring position lies in the moved interval (stamps are
    /// KTS timestamps).
    pub replicas: Vec<(HashId, Key, Record)>,
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

/// The bytes a replica counts for in a bundle's [`WRITE_CHUNK_BYTES`]: its
/// entry plus its key and payload bytes. That is more than the replica holds
/// in the bundle (the key's bytes are shared) and more than it encodes to on
/// the wire, so a bundle's memory and its frame are both bounded by the sum.
pub fn bundled_bytes(key: &Key, payload: &[u8]) -> usize {
    std::mem::size_of::<(HashId, Key, Record)>() + key.as_bytes().len() + payload.len()
}

/// What the export phase took out of the source's KTS, and the interval
/// whose replicas follow it, copied lazily by [`HandoffExport::bundles`].
#[derive(Debug)]
pub struct HandoffExport {
    /// The moved interval `(range_start, range_end]`.
    pub range_start: u64,
    /// See `range_start`.
    pub range_end: u64,
    /// Counters drained from the source's VCS (Section 4.2.1).
    pub counters: Vec<(Key, Timestamp)>,
    /// Recovery floors drained from the source.
    pub floors: Vec<(Key, Timestamp)>,
}

impl HandoffExport {
    /// The transfer's bundles: `table`'s replicas in the interval, walked
    /// lazily in [`PeerStore::iter_range`]'s order and copied into bundles of
    /// at most [`WRITE_CHUNK_BYTES`] (a larger replica travels alone). The
    /// last bundle — the only one when no replica moves — also carries the
    /// counters and floors, so a target holds them only once it holds every
    /// replica. A bundle is copied only when asked for.
    pub fn bundles(self, table: &PeerStore) -> impl Iterator<Item = HandoffBundle> + '_ {
        let mut replicas = table
            .iter_range(self.range_start, self.range_end)
            .peekable();
        let mut tail = Some((self.counters, self.floors));
        std::iter::from_fn(move || {
            tail.as_ref()?;
            let mut bundle = HandoffBundle::default();
            let mut bytes = 0;
            while let Some((hash, key, record)) = replicas.peek() {
                let size = bundled_bytes(key, record.payload);
                if bytes > 0 && bytes + size > WRITE_CHUNK_BYTES {
                    break;
                }
                bytes += size;
                bundle
                    .replicas
                    .push((*hash, (*key).clone(), record.to_record()));
                replicas.next();
            }
            if replicas.peek().is_none() {
                (bundle.counters, bundle.floors) = tail.take()?;
            }
            Some(bundle)
        })
    }
}

/// What [`install_handoff`] applied at the target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstallReport {
    /// Replicas installed (stale duplicates already superseded at the target
    /// are skipped, by the `put_h` rule).
    pub replicas_installed: usize,
    /// Counters received through the direct transfer.
    pub counters_received: usize,
}

/// Source side, export phase: drains the counters of every key whose
/// *timestamping* position falls in `(range_start, range_end]` — each
/// drained counter is journaled as removed on the source, enforcing Rule 3
/// durably — and the recovery floors of those keys. The range also leaves
/// the source's founding arc, whether or not the install follows: once
/// exported, its keys may be stamped elsewhere. The replicas in range stay
/// in the table until [`commit_handoff`]; [`HandoffExport::bundles`] copies
/// them out.
pub fn export_handoff(
    table: &mut impl ReplicaTable,
    kts: &mut KtsNode,
    family: &HashFamily,
    range_start: u64,
    range_end: u64,
) -> HandoffExport {
    let moved =
        |key: &Key| in_open_closed_interval(range_start, range_end, family.eval_timestamp(key));
    let counters = kts.export_counters_in_range(moved, table);
    // Unconsumed recovery floors of moved keys travel too: the takeover
    // peer inherits the "resume at least here" guarantee, or a crash-then-
    // hand-off sequence would reopen the counter-regression corner.
    let floors = kts.drain_recovery_floors(moved);
    kts.cede_arc(range_start, range_end);
    HandoffExport {
        range_start,
        range_end,
        counters,
        floors,
    }
}

/// Target side, install phase: applies one bundle. A replica installs only
/// if it wins the `put_h` comparison (a stale duplicate never overwrites a
/// fresher local record), and every accepted put is journaled; counters
/// install through the direct-transfer receive path, which journals each
/// installed value and never downgrades a larger local counter.
pub fn install_handoff(
    table: &mut impl ReplicaTable,
    kts: &mut KtsNode,
    bundle: HandoffBundle,
) -> InstallReport {
    let mut report = InstallReport {
        counters_received: bundle.counters.len(),
        ..InstallReport::default()
    };
    for (hash, key, replica) in bundle.replicas {
        if table.table().accepts(hash, &key, replica.stamp) {
            table.put_owned(hash, key, replica);
            report.replicas_installed += 1;
        }
    }
    // Floors first, so a transferred counter that lost against a floor at
    // the source cannot sneak in below it here either.
    kts.seed_recovery_floors(bundle.floors);
    kts.receive_transferred_counters(bundle.counters, table);
    report
}

/// Source side, commit phase: prunes every replica in the moved range
/// (journaled as a single `TransferRange` record — the durable commit point
/// of the transfer). Returns how many replicas were pruned.
pub fn commit_handoff(table: &mut impl ReplicaTable, range_start: u64, range_end: u64) -> usize {
    let before = table.table().len();
    table.prune_range(range_start, range_end);
    before - table.table().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_core::kts::IndirectObservation;
    use rdht_core::ReplicaValue;
    use rdht_storage::{FsyncPolicy, StorageOptions};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdht-handoff-test-{}-{tag}", std::process::id()));
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
                kts.gen_ts(&key, IndirectObservation::nothing, engine);
            }
            let stamp = kts.counter_value(&key).unwrap();
            for hash in (0..family.num_replication()).map(|h| HashId(h as u32)) {
                let value = ReplicaValue::new(format!("payload-{i}").into_bytes(), stamp);
                let position = family.eval(hash, &key);
                engine.record_replica_put(hash, &key, &value, position);
            }
        }
    }

    /// Ships every bundle of `export`, copied from `source`, into the
    /// target as a live source does, one after the other: the replicas
    /// shipped and the summed install report.
    fn install_all(
        export: HandoffExport,
        source: &PeerStore,
        target: &mut impl ReplicaTable,
        target_kts: &mut KtsNode,
    ) -> (usize, InstallReport) {
        let mut shipped = 0;
        let mut total = InstallReport::default();
        for bundle in export.bundles(source) {
            shipped += bundle.replicas.len();
            let report = install_handoff(target, target_kts, bundle);
            total.replicas_installed += report.replicas_installed;
            total.counters_received += report.counters_received;
        }
        (shipped, total)
    }

    /// A range over several bundles, with a replica larger than a bundle
    /// among them, and both counters and a floor moving: the records 400
    /// keys hold under 3 hash functions, one key's oversized.
    fn several_bundles() -> (PeerStore, KtsNode, HashFamily) {
        let n = 400;
        let family = HashFamily::new(3, 5);
        let mut store = PeerStore::new();
        let mut kts = KtsNode::new();
        for i in 0..n {
            let key = Key::new(format!("doc-{i:04}"));
            let stamp = kts
                .gen_ts(
                    &key,
                    IndirectObservation::nothing,
                    &mut Unjournaled(&mut store),
                )
                .timestamp;
            let len = if i == n / 2 {
                WRITE_CHUNK_BYTES + 1
            } else {
                100 + 9 * i
            };
            for hash in (0..3).map(HashId) {
                let record = Record {
                    payload: vec![i as u8; len],
                    stamp: stamp.0,
                    position: family.eval(hash, &key),
                };
                store.put(hash, key.clone(), record, WritePolicy::Overwrite);
            }
        }
        kts.seed_recovery_floors(vec![(Key::new("recovered doc"), Timestamp(4))]);
        (store, kts, family)
    }

    #[test]
    fn bundles_are_bounded_and_concatenate_to_the_range_in_order() {
        let (mut store, mut kts, family) = several_bundles();
        // Full ring: every counter and the floor move.
        let (start, end) = (11, 11);
        let expected = store.clone().drain_range(start, end);
        let export = export_handoff(&mut Unjournaled(&mut store), &mut kts, &family, start, end);
        let (counters, floors) = (export.counters.clone(), export.floors.clone());
        assert_eq!((counters.len(), floors.len()), (400, 1));
        let bundles: Vec<HandoffBundle> = export.bundles(&store).collect();
        assert!(bundles.len() >= 3, "{} bundles", bundles.len());

        let bytes = |bundle: &HandoffBundle| -> usize {
            bundle
                .replicas
                .iter()
                .map(|(_, key, record)| bundled_bytes(key, &record.payload))
                .sum()
        };
        let mut oversized = 0;
        for (i, bundle) in bundles.iter().enumerate() {
            if bytes(bundle) > WRITE_CHUNK_BYTES {
                assert_eq!(bundle.replicas.len(), 1, "only a lone replica may overflow");
                oversized += 1;
            }
            // Each bundle is as full as the budget allows: the next replica
            // would not have fitted.
            if let Some((_, key, record)) =
                bundles.get(i + 1).and_then(|next| next.replicas.first())
            {
                assert!(bytes(bundle) + bundled_bytes(key, &record.payload) > WRITE_CHUNK_BYTES);
            }
            // A bundle of several replicas encodes to a frame within the
            // budget too.
            let install = crate::Request::InstallState {
                op: None,
                start,
                end,
                bundle: HandoffBundle {
                    counters: Vec::new(),
                    floors: Vec::new(),
                    ..bundle.clone()
                },
            };
            let frame = crate::wire::encode_request(0, &install, None).len();
            assert!(frame <= WRITE_CHUNK_BYTES || bundle.replicas.len() == 1);
            // Counters and floors ride in the last bundle only.
            if i + 1 < bundles.len() {
                assert!(bundle.counters.is_empty() && bundle.floors.is_empty());
            }
        }
        assert_eq!(
            oversized, 3,
            "the large replica under each hash travels alone"
        );
        let last = bundles.last().unwrap();
        assert_eq!((&last.counters, &last.floors), (&counters, &floors));

        let concatenated: Vec<_> = bundles.into_iter().flat_map(|b| b.replicas).collect();
        assert_eq!(concatenated, expected, "the range, in iteration order");
    }

    #[test]
    fn full_handoff_moves_range_and_counters() {
        let family = HashFamily::new(4, 7);
        let src_dir = temp_dir("full-src");
        let dst_dir = temp_dir("full-dst");
        let mut src = open(&src_dir);
        let mut src_kts = KtsNode::new();
        let mut dst = open(&dst_dir);
        let mut dst_kts = KtsNode::new();
        populate(&mut src, &mut src_kts, &family, 8);
        let total = src.replicas().len();

        // Move half the ring.
        let (start, end) = (0u64, u64::MAX / 2);
        let export = export_handoff(&mut src, &mut src_kts, &family, start, end);
        let moved_counters = export.counters.len();
        // Every exported counter left the source's VCS (Rule 3).
        for (key, _) in &export.counters {
            assert!(!src_kts.has_counter(key));
        }

        let (moved_replicas, report) = install_all(export, src.replicas(), &mut dst, &mut dst_kts);
        assert!(moved_replicas > 0 && moved_replicas < total);
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
            let out = dst_kts.gen_ts(
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
        let mut dst_kts = KtsNode::new();
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
                Record {
                    payload: b"stale".to_vec(),
                    stamp: 3,
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
        let mut src_kts = KtsNode::new();
        let mut dst = StorageEngine::ephemeral();
        let mut dst_kts = KtsNode::new();
        let key = Key::new("resumed doc");
        src_kts.seed_recovery_floors(vec![(key.clone(), Timestamp(5))]);

        // Full-ring hand-off so the key's timestamp position is covered.
        let export = export_handoff(&mut src, &mut src_kts, &family, 7, 7);
        assert_eq!(export.counters.len(), 0, "a floor is not a valid counter");
        assert_eq!(export.floors.len(), 1);
        assert_eq!(src_kts.recovery_floor(&key), None, "drained at the source");

        install_all(export, src.replicas(), &mut dst, &mut dst_kts);
        assert!(
            !dst_kts.has_counter(&key),
            "the floor must not resurrect into the VCS (Rule 1)"
        );
        // An empty observation at the target still resumes after the floor.
        let out = dst_kts.gen_ts(&key, IndirectObservation::nothing, &mut dst);
        assert_eq!(out.timestamp, Timestamp(6));
    }

    #[test]
    fn crash_before_install_rolls_back_without_losing_replicas() {
        let family = HashFamily::new(3, 11);
        let src_dir = temp_dir("rollback-src");
        let mut src = open(&src_dir);
        let mut src_kts = KtsNode::new();
        populate(&mut src, &mut src_kts, &family, 6);
        let total = src.replicas().len();

        // Export, then "crash" both sides before the target installs: no
        // bundle ever ships.
        let export = export_handoff(&mut src, &mut src_kts, &family, 0, u64::MAX / 2);
        let exported_counters = export.counters.len();
        drop(export);
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
            assert_eq!(replica.stamp, 3, "{hash:?}/{key:?}");
        }
        let _ = std::fs::remove_dir_all(&src_dir);
    }

    #[test]
    fn empty_range_handoff_is_a_no_op() {
        let family = HashFamily::new(2, 3);
        let mut src = StorageEngine::ephemeral();
        let mut src_kts = KtsNode::new();
        // A range covering no stored position moves nothing. Positions of
        // "doc-0" under 2 hash functions are essentially random; use an
        // empty engine instead for determinism.
        let export = export_handoff(&mut src, &mut src_kts, &family, 5, 6);
        // One bundle still ships: the last one, which carries the (here
        // absent) counters.
        let bundles: Vec<HandoffBundle> = export.bundles(src.replicas()).collect();
        assert_eq!(bundles.len(), 1);
        assert!(bundles[0].is_empty());
        assert_eq!(commit_handoff(&mut src, 5, 6), 0);
    }
}
