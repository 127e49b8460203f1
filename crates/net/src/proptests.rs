//! Crash-recovery property tests of the hand-off protocol.
//!
//! The protocol is executed against two real journaled engines and
//! interrupted at every phase boundary (and with the in-flight bundle lost);
//! both directories are then recovered read-only, and two safety properties
//! must hold at **every** interruption point:
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

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use rdht_core::kts::{IndirectObservation, KtsNode};
use rdht_core::{DurableState, ReplicaValue, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_storage::{FsyncPolicy, StorageEngine, StorageOptions};

use crate::handoff::{commit_handoff, export_handoff, install_handoff};

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
    Export,
    Install,
    Commit,
}

proptest! {
    #[test]
    fn handoff_interrupted_at_any_phase_recovers_safely(
        gens in proptest::collection::vec(1u64..5, 1..6),
        range_seed in any::<u64>(),
        interrupt_code in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let interrupt = match interrupt_code {
            0 => Interrupt::Export,
            1 => Interrupt::Install,
            _ => Interrupt::Commit,
        };
        let family = HashFamily::new(3, seed);
        let src_dir = temp_dir("src");
        let dst_dir = temp_dir("dst");
        let options = StorageOptions::with_fsync(FsyncPolicy::Never);
        let mut src = StorageEngine::open(&src_dir, options).unwrap();
        let mut src_kts = KtsNode::new();
        let mut dst = StorageEngine::open(&dst_dir, options).unwrap();
        let mut dst_kts = KtsNode::new();

        // Populate the source: per key, `gens[i]` generated timestamps and
        // one replica per hash function stamped with the latest.
        let mut truth: Vec<(HashId, Key, Timestamp)> = Vec::new();
        let mut last_generated: Vec<(Key, Timestamp)> = Vec::new();
        for (i, &n) in gens.iter().enumerate() {
            let key = Key::new(format!("doc-{i}"));
            let mut latest = Timestamp::ZERO;
            for _ in 0..n {
                latest = src_kts
                    .gen_ts(&key, IndirectObservation::nothing, &mut src)
                    .timestamp;
            }
            last_generated.push((key.clone(), latest));
            for h in 0..family.num_replication() {
                let hash = HashId(h as u32);
                let position = family.eval(hash, &key);
                let value = ReplicaValue::new(vec![i as u8; 8], latest);
                src.record_replica_put(hash, &key, &value, position);
                truth.push((hash, key.clone(), latest));
            }
        }

        // A pseudo-random interval; every shape (covering, missing,
        // wrapping, degenerate-full-ring) occurs across cases.
        let range_start = range_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let range_end = range_seed.rotate_left(17) ^ 0x5bd1_e995;

        // Drive the protocol up to the interruption point.
        let bundle = export_handoff(&mut src, &mut src_kts, &family, range_start, range_end);
        match interrupt {
            Interrupt::Export => {
                // Bundle lost in flight.
            }
            Interrupt::Install => {
                install_handoff(&mut dst, &mut dst_kts, bundle);
            }
            Interrupt::Commit => {
                install_handoff(&mut dst, &mut dst_kts, bundle);
                commit_handoff(&mut src, range_start, range_end);
            }
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

        // Sharper phase-specific claims.
        match interrupt {
            Interrupt::Export => {
                // Rollback: the source still holds every replica.
                prop_assert_eq!(src_replicas.len(), truth.len());
            }
            Interrupt::Install | Interrupt::Commit => {
                // Completion: the destination holds every moved replica at
                // the original stamp, and every transferred counter at the
                // exported value.
                for (hash, key, stamp) in &truth {
                    let position = family.eval(*hash, key);
                    if rdht_overlay::in_open_closed_interval(range_start, range_end, position) {
                        let got = dst_replicas.get(*hash, key).map(|r| Timestamp(r.stamp));
                        prop_assert_eq!(got, Some(*stamp));
                    }
                }
                for (key, latest) in &last_generated {
                    let ts_position = family.eval_timestamp(key);
                    if rdht_overlay::in_open_closed_interval(range_start, range_end, ts_position) {
                        prop_assert_eq!(dst_counters.value(key), Some(*latest));
                    }
                }
            }
        }

        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }
}
