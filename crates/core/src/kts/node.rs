//! Node-side KTS logic: timestamp generation at the responsible of
//! timestamping.

use std::collections::BTreeMap;

use rdht_hashing::Key;

use crate::durability::DurableState;
use crate::kts::vcs::ValidCounterSet;
use crate::types::Timestamp;

/// What an indirect counter initialization observed in the DHT: the largest
/// timestamp stored along with the key under any replication hash function,
/// or `None` when no replica (and hence no timestamp) was found
/// (Section 4.2.2, Figure 5).
///
/// The *cost* of producing the observation (`|Hr|` replica reads) is the
/// environment's business; the environment builds this value and hands it to
/// [`KtsNode::gen_ts`] / [`KtsNode::last_ts`] through the `observe` closure,
/// which is only invoked when an initialization is actually needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndirectObservation {
    /// Largest timestamp found among the key's replicas.
    pub max_observed: Option<Timestamp>,
}

impl IndirectObservation {
    /// No replica was found for the key.
    pub fn nothing() -> Self {
        IndirectObservation { max_observed: None }
    }

    /// A replica with the given maximum timestamp was found.
    pub fn observed(ts: Timestamp) -> Self {
        IndirectObservation {
            max_observed: Some(ts),
        }
    }
}

/// Result of serving a `gen_ts` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenTsOutcome {
    /// The freshly generated timestamp.
    pub timestamp: Timestamp,
    /// Whether the counter had to be initialized with the indirect algorithm
    /// (costing `|Hr|` replica reads) before generating.
    pub used_indirect_init: bool,
}

/// Result of serving a `last_ts` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LastTsOutcome {
    /// The last timestamp generated for the key ([`Timestamp::ZERO`] if none
    /// is known).
    pub timestamp: Timestamp,
    /// Whether the counter had to be initialized with the indirect algorithm.
    pub used_indirect_init: bool,
}

/// Counters of how much work a KTS node has performed; used by tests,
/// experiments and the ablation benches. They are plain integers rather
/// than registry handles because `rdht-core` has no metrics dependency; the
/// simulator builds its `sim_kts_*` series from them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KtsStats {
    /// Timestamps generated (`gen_ts` requests served).
    pub timestamps_generated: u64,
    /// `last_ts` requests served.
    pub last_ts_served: u64,
    /// Counters received through the direct transfer.
    pub counters_received_directly: u64,
    /// Counters initialized with the indirect algorithm.
    pub indirect_initializations: u64,
    /// Counters corrected by recovery or periodic inspection.
    pub corrections: u64,
    /// Indirect initializations whose starting value was raised by a
    /// recovered durable counter (the recovery floor exceeded what the
    /// replica scan observed).
    pub recovery_floor_seeds: u64,
}

/// The KTS state of one peer: the valid counters for the keys it is currently
/// the responsible of timestamping for.
#[derive(Clone, Debug, Default)]
pub struct KtsNode {
    vcs: ValidCounterSet,
    rlu_mode: bool,
    stats: KtsStats,
    /// Per-key lower bounds recovered from a durable counter image
    /// ([`KtsNode::seed_recovery_floors`]). A recovered value is the last
    /// timestamp this peer *generated* for the key before it crashed — per
    /// Rule 1 it must not be resurrected into the VCS (another peer may have
    /// generated newer timestamps meanwhile), but it is a safe **lower
    /// bound**: the next indirect initialization takes
    /// `max(observed, recovered)` so the counter cannot regress even when
    /// every replica holder of the key crashed at once and the observation
    /// comes back empty (Section 4.2.2's corner case).
    recovery_floors: BTreeMap<Key, u64>,
}

impl KtsNode {
    /// Creates the KTS state of a peer that has just joined the system
    /// (Rule 1: the VCS starts empty).
    pub fn new(rlu_mode: bool) -> Self {
        KtsNode {
            vcs: ValidCounterSet::new(),
            rlu_mode,
            stats: KtsStats::default(),
            recovery_floors: BTreeMap::new(),
        }
    }

    /// Seeds per-key recovery floors from a recovered durable counter image.
    ///
    /// Called by a deployment right after crash recovery, **instead of**
    /// resurrecting the recovered values into the VCS (which Rule 1
    /// forbids). Each floor is consumed by the first initialization of its
    /// key — indirect (`gen_ts`/`last_ts`) or direct
    /// ([`KtsNode::receive_transferred_counters`]) — which takes
    /// `max(initialized value, floor)`. Duplicate seeds keep the largest
    /// value.
    pub fn seed_recovery_floors(&mut self, floors: impl IntoIterator<Item = (Key, Timestamp)>) {
        for (key, value) in floors {
            let entry = self.recovery_floors.entry(key).or_insert(0);
            *entry = (*entry).max(value.0);
        }
    }

    /// The pending recovery floor for `key`, if one was seeded and not yet
    /// consumed by an initialization.
    pub fn recovery_floor(&self, key: &Key) -> Option<Timestamp> {
        self.recovery_floors.get(key).map(|v| Timestamp(*v))
    }

    /// Removes and returns the pending recovery floors of every key selected
    /// by `covers` — the floor counterpart of
    /// [`KtsNode::export_counters_in_range`]. When responsibility for a
    /// range moves before the floors were consumed, they must travel with it
    /// (re-seeded at the new responsible via
    /// [`KtsNode::seed_recovery_floors`]), or the regression they guard
    /// against would reopen at the takeover peer.
    pub fn drain_recovery_floors(
        &mut self,
        mut covers: impl FnMut(&Key) -> bool,
    ) -> Vec<(Key, Timestamp)> {
        let keys: Vec<Key> = self
            .recovery_floors
            .keys()
            .filter(|key| covers(key))
            .cloned()
            .collect();
        keys.into_iter()
            .map(|key| {
                let value = self.recovery_floors.remove(&key).expect("key just listed");
                (key, Timestamp(value))
            })
            .collect()
    }

    /// The one recovery-floor rule: consumes the pending floor of `key`, if
    /// any, and returns `value` raised to it. A recovered durable counter was
    /// genuinely generated by this peer before it crashed, so whatever value
    /// first initializes the key here — observed indirectly or transferred
    /// directly — must not fall below it.
    fn raise_to_recovery_floor(&mut self, key: &Key, value: Timestamp) -> Timestamp {
        match self.recovery_floors.remove(key) {
            Some(floor) if floor > value.0 => {
                self.stats.recovery_floor_seeds += 1;
                Timestamp(floor)
            }
            _ => value,
        }
    }

    /// Read-only access to the valid counter set.
    pub fn vcs(&self) -> &ValidCounterSet {
        &self.vcs
    }

    /// Work counters.
    pub fn stats(&self) -> KtsStats {
        self.stats
    }

    /// Whether a valid counter exists for `key`.
    pub fn has_counter(&self, key: &Key) -> bool {
        self.vcs.contains(key)
    }

    /// Current counter value for `key`, if valid.
    pub fn counter_value(&self, key: &Key) -> Option<Timestamp> {
        self.vcs.value(key)
    }

    /// Serves a `gen_ts(k)` request (Figure 4).
    ///
    /// If the counter for `key` is valid it is simply incremented. Otherwise
    /// the `observe` closure is invoked to run the indirect initialization
    /// (Figure 5): the counter starts at `ts_m + 1` where `ts_m` is the
    /// largest timestamp observed in the DHT (or at 0 when no replica
    /// exists), and is then incremented to produce the new timestamp. Every
    /// counter mutation (the post-increment value, and the RLU invalidation
    /// when applicable) is recorded on `durable` after it is applied; a
    /// caller without a journal passes [`NoDurability`].
    ///
    /// [`NoDurability`]: crate::durability::NoDurability
    pub fn gen_ts<D: DurableState + ?Sized>(
        &mut self,
        key: &Key,
        observe: impl FnOnce() -> IndirectObservation,
        durable: &mut D,
    ) -> GenTsOutcome {
        let mut used_indirect_init = false;
        if !self.vcs.contains(key) {
            let observation = observe();
            let observed = match observation.max_observed {
                Some(ts) => Timestamp(ts.0 + 1),
                None => Timestamp::ZERO,
            };
            // The counter resumes at least at the recovered floor even when
            // the observation missed every replica (all holders down at once).
            let initial = self.raise_to_recovery_floor(key, observed);
            self.vcs.initialize(key.clone(), initial);
            self.stats.indirect_initializations += 1;
            used_indirect_init = true;
        }
        let timestamp = self
            .vcs
            .increment(key)
            .expect("counter was just initialized or already valid");
        self.stats.timestamps_generated += 1;
        if self.rlu_mode {
            // In an RLU DHT the peer cannot detect responsibility loss, so it
            // conservatively assumes it lost responsibility right after
            // generating (Section 4.3) and invalidates the counter. The
            // generation itself is not journaled: the counter never rests at
            // the incremented value, and re-initialization is indirect anyway.
            self.vcs.remove(key);
            durable.record_counter_remove(key);
        } else {
            durable.record_counter_set(key, timestamp);
        }
        GenTsOutcome {
            timestamp,
            used_indirect_init,
        }
    }

    /// Serves a `last_ts(k)` request: like `gen_ts` but without incrementing
    /// the counter (Section 4.1.2). When the request has to initialize the
    /// counter, the initialized value is recorded on `durable`.
    ///
    /// Indirect initialization here sets the counter to the largest observed
    /// timestamp `ts_m`, not to Figure 5's `ts_m + 1`. The paper does not say
    /// which value `last_ts` should use. `ts_m + 1` is the safe choice on the
    /// `gen_ts` path, where the *next generated* timestamp must exceed
    /// everything ever generated; a later `gen_ts` from `ts_m` still does,
    /// because it increments the counter first. On the `last_ts` path,
    /// `ts_m + 1` would over-report the last generated timestamp, and every
    /// retrieve would scan all replicas until the next update.
    pub fn last_ts<D: DurableState + ?Sized>(
        &mut self,
        key: &Key,
        observe: impl FnOnce() -> IndirectObservation,
        durable: &mut D,
    ) -> LastTsOutcome {
        let mut used_indirect_init = false;
        if !self.vcs.contains(key) {
            let observed = observe().max_observed.unwrap_or(Timestamp::ZERO);
            let initial = self.raise_to_recovery_floor(key, observed);
            self.vcs.initialize(key.clone(), initial);
            self.stats.indirect_initializations += 1;
            used_indirect_init = true;
            durable.record_counter_set(key, initial);
        }
        let timestamp = self.vcs.value(key).unwrap_or(Timestamp::ZERO);
        self.stats.last_ts_served += 1;
        LastTsOutcome {
            timestamp,
            used_indirect_init,
        }
    }

    /// Direct transfer, receiving side: the previous responsible handed over
    /// the counters for keys this peer is now responsible for (Section
    /// 4.2.1). Each received counter becomes valid with the transferred
    /// value, unless a larger value is already known locally. Every counter
    /// the transfer actually installed is recorded on `durable`.
    pub fn receive_transferred_counters<D: DurableState + ?Sized>(
        &mut self,
        counters: impl IntoIterator<Item = (Key, Timestamp)>,
        durable: &mut D,
    ) {
        for (key, value) in counters {
            // The transferrer may have initialized from a stale replica set
            // while this peer was down.
            let value = self.raise_to_recovery_floor(&key, value);
            match self.vcs.value(&key) {
                Some(existing) if existing >= value => {}
                _ => {
                    durable.record_counter_set(&key, value);
                    self.vcs.initialize(key, value);
                }
            }
            self.stats.counters_received_directly += 1;
        }
    }

    /// Direct transfer, sending side: removes and returns the counters for
    /// every key selected by `covers` (the keys whose responsibility is being
    /// handed to the next responsible). Removing them also enforces Rule 3 on
    /// this peer; each is recorded on `durable` as removed.
    pub fn export_counters_in_range<D: DurableState + ?Sized>(
        &mut self,
        covers: impl FnMut(&Key) -> bool,
        durable: &mut D,
    ) -> Vec<(Key, Timestamp)> {
        let exported = self.vcs.drain_where(covers);
        for (key, _) in &exported {
            durable.record_counter_remove(key);
        }
        exported
    }

    pub(crate) fn vcs_mut(&mut self) -> &mut ValidCounterSet {
        &mut self.vcs
    }

    pub(crate) fn note_correction(&mut self) {
        self.stats.corrections += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::NoDurability;

    fn no_observation() -> IndirectObservation {
        IndirectObservation::nothing()
    }

    #[test]
    fn gen_ts_is_monotonic_for_a_key() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        let mut previous = Timestamp::ZERO;
        for _ in 0..100 {
            let out = node.gen_ts(&k, no_observation, &mut NoDurability);
            assert!(out.timestamp > previous);
            previous = out.timestamp;
        }
        assert_eq!(node.stats().timestamps_generated, 100);
        assert_eq!(node.stats().indirect_initializations, 1);
    }

    #[test]
    fn first_gen_ts_without_history_is_one() {
        let mut node = KtsNode::new(false);
        let out = node.gen_ts(&Key::new("fresh"), no_observation, &mut NoDurability);
        assert_eq!(out.timestamp, Timestamp(1));
        assert!(out.used_indirect_init);
    }

    #[test]
    fn gen_ts_after_indirect_observation_exceeds_observed() {
        let mut node = KtsNode::new(false);
        let out = node.gen_ts(
            &Key::new("doc"),
            || IndirectObservation::observed(Timestamp(41)),
            &mut NoDurability,
        );
        // Figure 5 initializes to ts_m + 1 = 42, gen_ts then increments to 43.
        assert_eq!(out.timestamp, Timestamp(43));
        assert!(out.timestamp > Timestamp(41));
        assert!(out.used_indirect_init);
    }

    #[test]
    fn second_gen_ts_does_not_invoke_observation() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.gen_ts(&k, no_observation, &mut NoDurability);
        let out = node.gen_ts(
            &k,
            || panic!("observation must not run for a valid counter"),
            &mut NoDurability,
        );
        assert!(!out.used_indirect_init);
    }

    #[test]
    fn last_ts_returns_last_generated_value() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        let generated = node.gen_ts(&k, no_observation, &mut NoDurability).timestamp;
        let last = node.last_ts(&k, no_observation, &mut NoDurability);
        assert_eq!(last.timestamp, generated);
        assert!(!last.used_indirect_init);
        assert_eq!(node.stats().last_ts_served, 1);
    }

    #[test]
    fn last_ts_for_unknown_key_initializes_from_observation() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        let out = node.last_ts(
            &k,
            || IndirectObservation::observed(Timestamp(7)),
            &mut NoDurability,
        );
        assert_eq!(out.timestamp, Timestamp(7));
        assert!(out.used_indirect_init);
        // The counter is now valid; a later gen_ts continues from it.
        let gen = node.gen_ts(&k, || panic!("already valid"), &mut NoDurability);
        assert_eq!(gen.timestamp, Timestamp(8));
    }

    #[test]
    fn last_ts_without_history_is_zero() {
        let mut node = KtsNode::new(false);
        let out = node.last_ts(&Key::new("ghost"), no_observation, &mut NoDurability);
        assert_eq!(out.timestamp, Timestamp::ZERO);
    }

    #[test]
    fn direct_transfer_preserves_continuity() {
        let mut old_responsible = KtsNode::new(false);
        let k = Key::new("doc");
        let mut last = Timestamp::ZERO;
        for _ in 0..5 {
            last = old_responsible
                .gen_ts(&k, no_observation, &mut NoDurability)
                .timestamp;
        }
        // Hand the counter to the next responsible (graceful leave).
        let exported = old_responsible.export_counters_in_range(|_| true, &mut NoDurability);
        assert!(!old_responsible.has_counter(&k));
        let mut new_responsible = KtsNode::new(false);
        new_responsible.receive_transferred_counters(exported, &mut NoDurability);
        assert_eq!(new_responsible.counter_value(&k), Some(last));
        let next =
            new_responsible.gen_ts(&k, || panic!("no indirect init needed"), &mut NoDurability);
        assert_eq!(next.timestamp, Timestamp(last.0 + 1));
        assert_eq!(new_responsible.stats().counters_received_directly, 1);
    }

    #[test]
    fn transfer_does_not_downgrade_existing_counter() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.vcs_mut().initialize(k.clone(), Timestamp(10));
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(3))], &mut NoDurability);
        assert_eq!(node.counter_value(&k), Some(Timestamp(10)));
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(30))], &mut NoDurability);
        assert_eq!(node.counter_value(&k), Some(Timestamp(30)));
    }

    #[test]
    fn export_only_covers_selected_keys() {
        let mut node = KtsNode::new(false);
        node.gen_ts(&Key::new("a"), no_observation, &mut NoDurability);
        node.gen_ts(&Key::new("b"), no_observation, &mut NoDurability);
        let exported = node.export_counters_in_range(|k| k.as_bytes() == b"a", &mut NoDurability);
        assert_eq!(exported.len(), 1);
        assert!(!node.has_counter(&Key::new("a")));
        assert!(node.has_counter(&Key::new("b")));
    }

    #[test]
    fn rlu_mode_invalidates_counter_after_each_generation() {
        let mut node = KtsNode::new(true);
        let k = Key::new("doc");
        let first = node.gen_ts(&k, no_observation, &mut NoDurability);
        assert!(!node.has_counter(&k));
        // The next generation must re-initialize; with the DHT still holding
        // the previous timestamp, monotonicity is preserved.
        let second = node.gen_ts(
            &k,
            || IndirectObservation::observed(first.timestamp),
            &mut NoDurability,
        );
        assert!(second.timestamp > first.timestamp);
        assert!(second.used_indirect_init);
    }

    #[test]
    fn recovery_floor_prevents_regression_when_observation_is_empty() {
        // The Section 4.2.2 corner case: the responsible crashed after
        // generating timestamp 5 and every replica holder crashed too, so
        // the indirect observation comes back empty. Without the floor, the
        // counter would restart at zero and re-issue timestamps 1..5.
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(5))]);
        assert_eq!(node.recovery_floor(&k), Some(Timestamp(5)));
        let out = node.gen_ts(&k, no_observation, &mut NoDurability);
        assert_eq!(out.timestamp, Timestamp(6), "resumes after the floor");
        assert!(out.used_indirect_init);
        assert_eq!(node.stats().recovery_floor_seeds, 1);
        assert_eq!(node.recovery_floor(&k), None, "floor consumed");
    }

    #[test]
    fn recovery_floor_loses_to_a_fresher_observation() {
        // Another peer generated newer timestamps while this one was down:
        // the observation (10) beats the stale floor (5) and the floor does
        // not distort the normal Figure 5 arithmetic.
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(5))]);
        let out = node.gen_ts(
            &k,
            || IndirectObservation::observed(Timestamp(10)),
            &mut NoDurability,
        );
        assert_eq!(out.timestamp, Timestamp(12));
        assert_eq!(node.stats().recovery_floor_seeds, 0);
        assert_eq!(node.recovery_floor(&k), None, "still consumed");
    }

    #[test]
    fn last_ts_reports_at_least_the_recovery_floor() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(7))]);
        let out = node.last_ts(
            &k,
            || IndirectObservation::observed(Timestamp(3)),
            &mut NoDurability,
        );
        assert_eq!(out.timestamp, Timestamp(7));
        assert_eq!(node.stats().recovery_floor_seeds, 1);
        // The now-valid counter continues monotonically.
        assert_eq!(
            node.gen_ts(&k, no_observation, &mut NoDurability).timestamp,
            Timestamp(8)
        );
    }

    #[test]
    fn recovery_floor_raises_a_stale_direct_transfer() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(9))]);
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(4))], &mut NoDurability);
        assert_eq!(node.counter_value(&k), Some(Timestamp(9)));
        // A fresher transfer is untouched by an already-consumed floor.
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(20))], &mut NoDurability);
        assert_eq!(node.counter_value(&k), Some(Timestamp(20)));
    }

    #[test]
    fn duplicate_floor_seeds_keep_the_largest() {
        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(3))]);
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(8)), (k.clone(), Timestamp(2))]);
        assert_eq!(node.recovery_floor(&k), Some(Timestamp(8)));
    }

    #[test]
    fn journaled_variants_record_resulting_counter_states() {
        use crate::durability::recording::{Event, RecordingJournal};

        let mut node = KtsNode::new(false);
        let mut journal = RecordingJournal::default();
        let k = Key::new("doc");

        let out = node.gen_ts(&k, no_observation, &mut journal);
        assert_eq!(out.timestamp, Timestamp(1));
        node.gen_ts(&k, no_observation, &mut journal);
        let exported = node.export_counters_in_range(|_| true, &mut journal);
        assert_eq!(exported.len(), 1);
        node.receive_transferred_counters(exported, &mut journal);

        assert_eq!(
            journal.events,
            vec![
                Event::SetCounter(k.clone(), Timestamp(1)),
                Event::SetCounter(k.clone(), Timestamp(2)),
                Event::RemoveCounter(k.clone()),
                Event::SetCounter(k.clone(), Timestamp(2)),
            ]
        );
    }

    #[test]
    fn rejected_transfer_and_last_ts_on_valid_counter_journal_nothing() {
        use crate::durability::recording::RecordingJournal;

        let mut node = KtsNode::new(false);
        let k = Key::new("doc");
        node.vcs_mut().initialize(k.clone(), Timestamp(10));
        let mut journal = RecordingJournal::default();
        // Transfer loses against the larger local value: no journal entry.
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(3))], &mut journal);
        // last_ts on a valid counter does not mutate it: no journal entry.
        node.last_ts(&k, no_observation, &mut journal);
        assert!(journal.events.is_empty());
    }

    #[test]
    fn rlu_generation_journals_the_invalidation() {
        use crate::durability::recording::{Event, RecordingJournal};

        let mut node = KtsNode::new(true);
        let k = Key::new("doc");
        let mut journal = RecordingJournal::default();
        node.gen_ts(&k, no_observation, &mut journal);
        assert_eq!(journal.events, vec![Event::RemoveCounter(k.clone())]);
    }
}
