//! Crash-recovery property tests of the hand-off protocol.
//!
//! The protocol is executed against two real journaled engines and
//! interrupted at every phase boundary — with nothing shipped, after `k` of
//! the transfer's `m` bundles installed, after the last, after the commit;
//! both directories are then recovered read-only, and three safety
//! properties must hold at **every** interruption point:
//!
//! 1. **No currency loss.** For every `(hash, key)` record the source held
//!    before the transfer, the maximum stamp recoverable across the two
//!    directories is at least the original stamp — a retrieve driven off the
//!    recovered replicas can always observe the latest committed timestamp,
//!    so the indirect re-initialization of Section 4.2.2 never regresses.
//! 2. **No counter overshoot.** No durable counter image anywhere exceeds
//!    the value the source last generated for that key — a recovered or
//!    transferred counter can never stamp "into the future" and shadow a
//!    later legitimate update.
//! 3. **No stale overwrite.** A newer replica the target already held is
//!    still there: no shipped replica, from a whole transfer or from the
//!    first bundles of an aborted one, beats it.
//!
//! A hand-off retried from the recovered directories then ends with the
//! same replicas on both sides as the one-shot hand-off of the same state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use rdht_core::kts::{IndirectObservation, KtsNode};
use rdht_core::{DurableState, ReplicaValue, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_overlay::in_open_closed_interval;
use rdht_storage::{FsyncPolicy, StorageEngine, StorageOptions};

use crate::handoff::{commit_handoff, export_handoff, install_handoff, ReplicaTable, Unjournaled};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rdht-handoff-prop-{}-{}-{tag}",
        std::process::id(),
        // relaxed: uniqueness needs only RMW atomicity, no ordering.
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Phase boundary at which the "crash" interrupts the protocol.
#[derive(Clone, Copy, Debug)]
enum Interrupt {
    /// Exported; no bundle shipped.
    Export,
    /// The first `k` of the transfer's bundles installed, `k` below their
    /// count: the counters, which ride in the last, never arrived.
    Bundles(usize),
    /// Every bundle installed.
    Install,
    /// Installed and committed.
    Commit,
}

/// The whole protocol, as a live source drives it: export, every bundle
/// installed in order, commit.
fn one_shot(
    source: &mut impl ReplicaTable,
    source_kts: &mut KtsNode,
    target: &mut impl ReplicaTable,
    target_kts: &mut KtsNode,
    family: &HashFamily,
    (start, end): (u64, u64),
) {
    let export = export_handoff(source, source_kts, family, start, end);
    for bundle in export.bundles(source.table()) {
        install_handoff(target, target_kts, bundle);
    }
    commit_handoff(source, start, end);
}

proptest! {
    #[test]
    fn handoff_interrupted_at_any_phase_recovers_safely(
        keys in proptest::collection::vec((1u64..5, 8usize..12_000, any::<bool>()), 1..9),
        range_seed in any::<u64>(),
        interrupt_code in 0u8..4,
        cut in any::<usize>(),
        seed in 0u64..1_000,
    ) {
        let family = HashFamily::new(3, seed);
        let src_dir = temp_dir("src");
        let dst_dir = temp_dir("dst");
        let options = StorageOptions::with_fsync(FsyncPolicy::Never);
        let mut src = StorageEngine::open(&src_dir, options).unwrap();
        let mut src_kts = KtsNode::new();
        let mut dst = StorageEngine::open(&dst_dir, options).unwrap();
        let mut dst_kts = KtsNode::new();

        // Populate the source: per key, `gens` generated timestamps and one
        // replica per hash function stamped with the latest, `len` bytes
        // long, so a range spans one bundle or several. A `newer` key's
        // replicas at the target are already one stamp ahead.
        let mut truth: Vec<(HashId, Key, Timestamp)> = Vec::new();
        let mut newer: Vec<(HashId, Key, Timestamp)> = Vec::new();
        let mut last_generated: Vec<(Key, Timestamp)> = Vec::new();
        for (i, &(gens, len, ahead)) in keys.iter().enumerate() {
            let key = Key::new(format!("doc-{i}"));
            let mut latest = Timestamp::ZERO;
            for _ in 0..gens {
                latest = src_kts
                    .gen_ts(&key, IndirectObservation::nothing, &mut src)
                    .timestamp;
            }
            last_generated.push((key.clone(), latest));
            for h in 0..family.num_replication() {
                let hash = HashId(h as u32);
                let position = family.eval(hash, &key);
                let value = ReplicaValue::new(vec![i as u8; len], latest);
                src.record_replica_put(hash, &key, &value, position);
                if ahead {
                    let fresher = Timestamp(latest.0 + 1);
                    let value = ReplicaValue::new(b"fresher".to_vec(), fresher);
                    dst.record_replica_put(hash, &key, &value, position);
                    newer.push((hash, key.clone(), fresher));
                } else {
                    truth.push((hash, key.clone(), latest));
                }
            }
        }

        // A pseudo-random interval; every shape (covering, missing,
        // wrapping, degenerate-full-ring) occurs across cases.
        let range_start = range_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let range_end = range_seed.rotate_left(17) ^ 0x5bd1_e995;
        let in_range = |position| in_open_closed_interval(range_start, range_end, position);

        // The one-shot hand-off of the same state, on bare copies.
        let (mut reference_src, mut reference_dst) = (src.replicas().clone(), dst.replicas().clone());
        one_shot(
            &mut Unjournaled(&mut reference_src),
            &mut src_kts.clone(),
            &mut Unjournaled(&mut reference_dst),
            &mut dst_kts.clone(),
            &family,
            (range_start, range_end),
        );

        // Drive the protocol up to the interruption point.
        let export = export_handoff(&mut src, &mut src_kts, &family, range_start, range_end);
        let bundles: Vec<_> = export.bundles(src.replicas()).collect();
        let interrupt = match interrupt_code {
            0 => Interrupt::Export,
            1 if bundles.len() > 1 => Interrupt::Bundles(1 + cut % (bundles.len() - 1)),
            1 | 2 => Interrupt::Install,
            _ => Interrupt::Commit,
        };
        let installed = match interrupt {
            Interrupt::Export => 0,
            Interrupt::Bundles(k) => k,
            Interrupt::Install | Interrupt::Commit => bundles.len(),
        };
        for bundle in bundles.into_iter().take(installed) {
            install_handoff(&mut dst, &mut dst_kts, bundle);
        }
        if let Interrupt::Commit = interrupt {
            commit_handoff(&mut src, range_start, range_end);
        }
        // Crash both sides: engines dropped without a final sync.
        drop(src);
        drop(dst);

        let (src_replicas, src_counters) = StorageEngine::recover(&src_dir).unwrap();
        let (dst_replicas, dst_counters) = StorageEngine::recover(&dst_dir).unwrap();

        // Property 1: no currency loss — every pre-transfer record is
        // recoverable somewhere with at least its original stamp.
        for (hash, key, stamp) in &truth {
            let best = [&src_replicas, &dst_replicas]
                .iter()
                .filter_map(|store| store.get(*hash, key).map(|r| Timestamp(r.stamp)))
                .max();
            prop_assert!(
                best == Some(*stamp),
                "{hash:?}/{key:?}: expected recoverable stamp {stamp:?}, got {best:?} \
                 (interrupt {interrupt:?}, range ({range_start:#x}, {range_end:#x}])"
            );
        }

        // Property 2: no counter overshoot — no durable counter image
        // anywhere exceeds the last generated timestamp for its key.
        for (key, latest) in &last_generated {
            for counters in [&src_counters, &dst_counters] {
                if let Some(value) = counters.value(key) {
                    prop_assert!(
                        value <= *latest,
                        "{key:?}: durable counter {value:?} exceeds last generated {latest:?}"
                    );
                }
            }
        }

        // Property 3: no stale overwrite — the target's newer replicas
        // survive whatever part of the transfer arrived.
        for (hash, key, fresher) in &newer {
            let held = dst_replicas.get(*hash, key).map(|r| (Timestamp(r.stamp), r.payload.clone()));
            prop_assert_eq!(held, Some((*fresher, b"fresher".to_vec())));
        }

        // Sharper phase-specific claims.
        match interrupt {
            Interrupt::Export | Interrupt::Bundles(_) => {
                // Rollback: the source still holds every replica, and no
                // counter reached the target.
                prop_assert_eq!(src_replicas.len(), truth.len() + newer.len());
                prop_assert_eq!(dst_counters.len(), 0);
            }
            Interrupt::Install | Interrupt::Commit => {
                // Completion: the destination holds every moved replica at
                // the original stamp, and every transferred counter at the
                // exported value.
                for (hash, key, stamp) in &truth {
                    if in_range(family.eval(*hash, key)) {
                        let got = dst_replicas.get(*hash, key).map(|r| Timestamp(r.stamp));
                        prop_assert_eq!(got, Some(*stamp));
                    }
                }
                for (key, latest) in &last_generated {
                    if in_range(family.eval_timestamp(key)) {
                        prop_assert_eq!(dst_counters.value(key), Some(*latest));
                    }
                }
            }
        }

        // Retry: the recovered peers re-drive the whole hand-off and end
        // with the one-shot's replicas on both sides.
        let mut src = StorageEngine::open(&src_dir, options).unwrap();
        let mut dst = StorageEngine::open(&dst_dir, options).unwrap();
        one_shot(
            &mut src,
            &mut KtsNode::new(),
            &mut dst,
            &mut KtsNode::new(),
            &family,
            (range_start, range_end),
        );
        prop_assert_eq!(src.replicas(), &reference_src);
        prop_assert_eq!(dst.replicas(), &reference_dst);
        drop(src);
        drop(dst);

        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }
}
