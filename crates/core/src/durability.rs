//! The durability interface of the UMS/KTS node state.
//!
//! Every piece of node state the paper's failure model touches — the stamped
//! replicas a peer stores and the per-key counters in its Valid Counter Set —
//! mutates through a small set of operations. [`DurableState`] is the journal
//! of those operations: an environment that wants peer state to survive a
//! crash plugs in a backend (such as `rdht-storage`'s write-ahead-logging
//! `StorageEngine`) and every accepted mutation is recorded *after* it is
//! applied in memory, in apply order, so replaying the journal from an empty
//! state rebuilds exactly the in-memory state.
//!
//! The default backend is [`NoDurability`], a zero-cost no-op: the purely
//! in-memory stores ([`crate::InMemoryDht`], the simulator's peers) journal
//! into it and behave exactly as before — a crash loses everything, which is
//! the paper's baseline failure model.
//!
//! Two invariants matter for correctness of replay:
//!
//! 1. hooks are invoked only for mutations that were *accepted* (a stale
//!    `put_replica` that lost the timestamp comparison is not journaled), so
//!    replay can apply every op unconditionally;
//! 2. counter hooks record the *resulting* counter value, not the delta, so
//!    replay is idempotent and a torn journal tail can only lose the newest
//!    suffix of mutations, never corrupt earlier ones.

use rdht_hashing::{HashId, Key};

use crate::types::{ReplicaValue, Timestamp};

/// Journal of accepted mutations to a peer's replica store and valid counter
/// set.
///
/// All methods default to no-ops so a backend only overrides the events it
/// persists. Hooks are infallible by design: they are invoked from hot,
/// otherwise-infallible paths (timestamp generation, replica writes); a
/// persistent backend that encounters an I/O error is expected to latch it
/// internally and surface it through its own health/sync API rather than
/// unwind the caller.
pub trait DurableState {
    /// A replica write for `(hash, key)` was accepted with `value`, stored at
    /// ring position `position` (the evaluation of `hash` on `key`).
    fn record_replica_put(
        &mut self,
        _hash: HashId,
        _key: &Key,
        _value: &ReplicaValue,
        _position: u64,
    ) {
    }

    /// The valid counter for `key` now holds `value` (covers initialization,
    /// increment and raise — the hook always reports the resulting value).
    fn record_counter_set(&mut self, _key: &Key, _value: Timestamp) {}

    /// The counter for `key` left the valid set (Rule 3: the export half of a
    /// direct transfer).
    fn record_counter_remove(&mut self, _key: &Key) {}

    /// Every counter left the valid set at once (Rule 1: the peer re-joined).
    fn record_counters_cleared(&mut self) {}

    /// Responsibility for the ring interval `(start, end]` was handed away
    /// and every replica in it transferred out.
    fn record_range_transfer(&mut self, _start: u64, _end: u64) {}

    /// Flush everything journaled so far to stable storage. Called on
    /// graceful shutdown; a no-op for memory-only backends.
    fn sync_to_durable(&mut self) {}
}

/// The no-op durability backend: peer state lives in memory only and dies
/// with the process, exactly the paper's fail-stop model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoDurability;

impl DurableState for NoDurability {}

#[cfg(test)]
pub(crate) mod recording {
    //! A journal that records every hook invocation, used by tests to assert
    //! exactly which mutations the core paths report.

    use super::*;

    /// One recorded journal event.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Event {
        /// `record_replica_put`
        Put(HashId, Key, Timestamp, u64),
        /// `record_counter_set`
        SetCounter(Key, Timestamp),
        /// `record_counter_remove`
        RemoveCounter(Key),
        /// `record_counters_cleared`
        ClearCounters,
        /// `record_range_transfer`
        Transfer(u64, u64),
        /// `sync_to_durable`
        Sync,
    }

    /// Records hook invocations in order.
    #[derive(Clone, Debug, Default)]
    pub struct RecordingJournal {
        /// Events in invocation order.
        pub events: Vec<Event>,
    }

    impl DurableState for RecordingJournal {
        fn record_replica_put(
            &mut self,
            hash: HashId,
            key: &Key,
            value: &ReplicaValue,
            position: u64,
        ) {
            self.events
                .push(Event::Put(hash, key.clone(), value.timestamp, position));
        }

        fn record_counter_set(&mut self, key: &Key, value: Timestamp) {
            self.events.push(Event::SetCounter(key.clone(), value));
        }

        fn record_counter_remove(&mut self, key: &Key) {
            self.events.push(Event::RemoveCounter(key.clone()));
        }

        fn record_counters_cleared(&mut self) {
            self.events.push(Event::ClearCounters);
        }

        fn record_range_transfer(&mut self, start: u64, end: u64) {
            self.events.push(Event::Transfer(start, end));
        }

        fn sync_to_durable(&mut self) {
            self.events.push(Event::Sync);
        }
    }
}
