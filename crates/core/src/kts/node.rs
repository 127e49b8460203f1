//! Node-side KTS logic: timestamp generation at the responsible of
//! timestamping.

use std::collections::BTreeMap;

use rdht_hashing::Key;

use crate::durability::DurableState;
use crate::kts::vcs::ValidCounterSet;
use crate::types::Timestamp;

/// What one of the `|Hr|` replica reads of an indirect initialization gave
/// (Section 4.2.2, Figure 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The holder did not answer: routing failed, it was unreachable, or it
    /// answered something that is not a replica read.
    Unanswered,
    /// The holder answered and stores no replica of the key.
    NoReplica,
    /// The holder answered with a replica carrying this timestamp.
    Replica(Timestamp),
}

/// What an indirect counter initialization observed in the DHT: the largest
/// timestamp stored along with the key under any replication hash function,
/// or `None` when no replica (and hence no timestamp) was found, and how many
/// of the probes were answered (Section 4.2.2, Figure 5).
///
/// [`IndirectObservation::from_probes`] is the one fold of the probe
/// outcomes. Figure 5 places the probes at the responsible of timestamping:
/// the peer that finds its counter missing reads the `|Hr|` replicas itself,
/// and the simulator charges them to that peer. A live peer serves its queue
/// one request at a time and waits on another peer only to install a
/// hand-off, so it does not send probes (some would route back to itself and
/// stall every request queued behind them). It answers `NeedsInitialization`
/// instead; the client gathers the probes, folds them here and sends the
/// maximum back as a hint, from which the peer seeds the counter.
///
/// The *cost* of producing the observation is the environment's business;
/// the environment builds this value and hands it to [`KtsNode::gen_ts`] /
/// [`KtsNode::last_ts`] through the `observe` closure, which is only invoked
/// when an initialization is actually needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndirectObservation {
    /// Largest timestamp found among the key's replicas.
    pub max_observed: Option<Timestamp>,
    /// How many probes a holder answered, with or without a replica. An
    /// observation built from a bare maximum ([`IndirectObservation::nothing`],
    /// [`IndirectObservation::observed`], as the live peer decodes the
    /// client's hint) does not know the count and reports 0.
    pub answered: usize,
}

impl IndirectObservation {
    /// No replica was found for the key.
    pub fn nothing() -> Self {
        IndirectObservation {
            max_observed: None,
            answered: 0,
        }
    }

    /// A replica with the given maximum timestamp was found.
    pub fn observed(ts: Timestamp) -> Self {
        IndirectObservation {
            max_observed: Some(ts),
            answered: 0,
        }
    }

    /// Folds the outcomes of one key's probes: the largest timestamp any
    /// replica answered with, and how many probes were answered.
    pub fn from_probes(probes: impl IntoIterator<Item = Probe>) -> Self {
        probes
            .into_iter()
            .fold(Self::nothing(), |mut observation, probe| {
                match probe {
                    Probe::Unanswered => return observation,
                    Probe::NoReplica => {}
                    Probe::Replica(ts) => {
                        observation.max_observed = observation.max_observed.max(Some(ts));
                    }
                }
                observation.answered += 1;
                observation
            })
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

/// Whether ring position `x` lies in the arc `(start, end]`; `start == end`
/// is the whole ring.
fn arc_contains(start: u64, end: u64, x: u64) -> bool {
    start == end || (1..=end.wrapping_sub(start)).contains(&x.wrapping_sub(start))
}

/// The arc `(start, end]` minus the arc `cut`, when what is left is one
/// non-empty arc (`start == end` is the whole ring on either side).
fn arc_difference((start, end): (u64, u64), cut: (u64, u64)) -> Option<(u64, u64)> {
    const RING: u128 = 1 << 64;
    let span = |(from, to): (u64, u64)| match to.wrapping_sub(from) {
        0 => RING,
        len => u128::from(len),
    };
    let (len, cut_len) = (span((start, end)), span(cut));
    if cut_len == RING {
        return None;
    }
    if len == RING {
        return Some((cut.1, cut.0));
    }
    // Offsets past `start`: the arc holds `[0, len)`, the cut
    // `[from, from + cut_len)` modulo the ring.
    let from = u128::from(cut.0.wrapping_sub(start));
    let kept = if from + cut_len <= RING {
        let left = (0, from.min(len));
        let right = ((from + cut_len).min(len), len);
        match (left.0 < left.1, right.0 < right.1) {
            (true, false) => Some(left),
            (false, true) => Some(right),
            _ => None,
        }
    } else {
        Some((from + cut_len - RING, from.min(len))).filter(|(lo, hi)| lo < hi)
    };
    // Offset `o` is position `start + 1 + o`, so `[lo, hi)` is
    // `(start + lo, start + hi]`; `hi <= len` fits in a position.
    kept.map(|(lo, hi)| (start.wrapping_add(lo as u64), start.wrapping_add(hi as u64)))
}

/// The KTS state of one peer: the valid counters for the keys it is currently
/// the responsible of timestamping for.
///
/// Next to Rules 1–3 of the [`ValidCounterSet`] it keeps the **founding
/// rule**. A peer that founds an empty ring knows that no key timestamped in
/// its founding arc `(pred, id]` was ever stamped, so within that arc its
/// VCS holds every counter ever generated and a missing counter means a new
/// key: [`KtsNode::initialize_unstamped`] starts it at 0 without an
/// observation, which is what the observation of an empty DHT gives. The arc
/// is granted once, before the peer serves anything
/// ([`KtsNode::found_arc`]), and only ever shrinks: every range handed away
/// is cut out of it ([`KtsNode::cede_arc`]), and a range gained never enters
/// it. A peer that joins, restarts or recovers anything from disk holds no
/// arc. Neither do the simulator's peers, whose figures keep Figure 5's
/// cost model (the initial load pays the observation), nor a stand-alone
/// TCP peer, whose empty disk says nothing of the other processes'.
#[derive(Clone, Debug, Default)]
pub struct KtsNode {
    vcs: ValidCounterSet,
    stats: KtsStats,
    /// The part of the founding arc `(start, end]` still owned since the
    /// founding (`start == end` is the whole ring), if any.
    founding_arc: Option<(u64, u64)>,
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
    /// (Rule 1: the VCS starts empty), with no founding arc.
    pub fn new() -> Self {
        KtsNode::default()
    }

    /// Grants the founding arc `(start, end]` (`start == end`: the whole
    /// ring) to a peer founding an empty ring, before it serves anything.
    pub fn found_arc(&mut self, start: u64, end: u64) {
        self.founding_arc = Some((start, end));
    }

    /// Cuts a range handed away, `(start, end]`, out of the founding arc.
    /// When what is left is not a single arc, the whole arc is dropped.
    pub fn cede_arc(&mut self, start: u64, end: u64) {
        self.founding_arc = self
            .founding_arc
            .and_then(|arc| arc_difference(arc, (start, end)));
    }

    /// The founding rule: when `key`, timestamped at `position`, has no
    /// valid counter and `position` lies in the founding arc, the key was
    /// never stamped, so its counter starts at 0 without an observation
    /// (Rule 2). Says whether it did. The start is not journaled: a durable
    /// counter image of 0 is no recovery floor, and the `gen_ts` that follows
    /// journals its own value.
    pub fn initialize_unstamped(&mut self, key: &Key, position: u64) -> bool {
        let founded = self
            .founding_arc
            .is_some_and(|(start, end)| arc_contains(start, end, position));
        if !founded || self.vcs.contains(key) {
            return false;
        }
        let initial = self.raise_to_recovery_floor(key, Timestamp::ZERO);
        self.vcs.initialize(key.clone(), initial);
        true
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

    /// The keys with a pending recovery floor, in key order.
    pub fn recovery_floor_keys(&self) -> impl Iterator<Item = &Key> {
        self.recovery_floors.keys()
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
    /// exists), and is then incremented to produce the new timestamp. The
    /// post-increment value is recorded on `durable` after it is applied; a
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
        durable.record_counter_set(key, timestamp);
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
    fn the_probe_fold_keeps_the_max_and_counts_answered_probes() {
        use Probe::{NoReplica, Replica, Unanswered};
        let full = IndirectObservation::from_probes([
            Replica(Timestamp(3)),
            NoReplica,
            Replica(Timestamp(7)),
        ]);
        assert_eq!((full.max_observed, full.answered), (Some(Timestamp(7)), 3));
        let empty = IndirectObservation::from_probes([NoReplica, NoReplica]);
        assert_eq!((empty.max_observed, empty.answered), (None, 2));
        // A lost probe lowers the count but not the maximum of the rest.
        let lost = IndirectObservation::from_probes([
            Replica(Timestamp(3)),
            Unanswered,
            Replica(Timestamp(5)),
        ]);
        assert_eq!((lost.max_observed, lost.answered), (Some(Timestamp(5)), 2));
        let silent = IndirectObservation::from_probes([Unanswered, Unanswered]);
        assert_eq!(silent, IndirectObservation::nothing());
        assert_eq!(
            IndirectObservation::from_probes([]),
            IndirectObservation::nothing()
        );
    }

    #[test]
    fn the_founding_arc_difference_keeps_one_arc_or_none() {
        const TOP: u64 = u64::MAX;
        let cases = [
            // A join takes a prefix, a later one the next prefix.
            ((100, 200), (100, 150), Some((150, 200))),
            ((150, 200), (150, 180), Some((180, 200))),
            ((100, 200), (50, 150), Some((150, 200))),
            ((100, 200), (150, 200), Some((100, 150))),
            // Disjoint cuts leave the arc whole, on either side.
            ((100, 200), (300, 400), Some((100, 200))),
            ((100, 200), (0, 100), Some((100, 200))),
            ((100, 200), (200, 300), Some((100, 200))),
            // A covering cut, or one that splits the arc in two, drops it.
            ((100, 200), (100, 200), None),
            ((100, 200), (50, 250), None),
            ((100, 200), (120, 150), None),
            // Ring wrap-around, of the arc and of the cut.
            ((TOP - 10, 20), (TOP - 10, 5), Some((5, 20))),
            ((TOP - 10, 20), (5, 20), Some((TOP - 10, 5))),
            ((TOP - 10, 20), (TOP - 20, TOP - 15), Some((TOP - 10, 20))),
            ((TOP - 10, 20), (TOP - 5, 5), None),
            ((100, 200), (150, 50), Some((100, 150))),
            ((100, 200), (250, 120), Some((120, 200))),
            ((100, 200), (150, 120), Some((120, 150))),
            // `start == end` is the whole ring: a lone founder's arc, and
            // a cut no arc survives.
            ((7, 7), (7, 40), Some((40, 7))),
            ((7, 7), (10, 20), Some((20, 10))),
            ((7, 7), (20, 20), None),
            ((100, 200), (5, 5), None),
        ];
        for (arc, cut, left) in cases {
            assert_eq!(arc_difference(arc, cut), left, "{arc:?} minus {cut:?}");
        }
        assert!(arc_contains(7, 7, 7) && arc_contains(7, 7, 0));
        assert!(arc_contains(TOP - 10, 20, 0) && arc_contains(TOP - 10, 20, 20));
        assert!(!arc_contains(TOP - 10, 20, TOP - 10) && !arc_contains(TOP - 10, 20, 21));
    }

    #[test]
    fn only_a_founded_position_starts_an_unstamped_counter_at_zero() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        assert!(!node.initialize_unstamped(&k, 150), "no arc, no founding");
        node.found_arc(100, 200);
        assert!(!node.initialize_unstamped(&k, 250), "outside the arc");
        assert!(node.initialize_unstamped(&k, 150));
        assert_eq!(node.counter_value(&k), Some(Timestamp::ZERO));
        assert!(!node.initialize_unstamped(&k, 150), "the counter is valid");
        let out = node.gen_ts(&k, || panic!("no observation"), &mut NoDurability);
        assert_eq!(
            (out.timestamp, out.used_indirect_init),
            (Timestamp(1), false)
        );
        assert_eq!(node.stats().indirect_initializations, 0);
        // A ceded range is no longer founded; the rest of the arc still is.
        node.cede_arc(100, 160);
        assert!(!node.initialize_unstamped(&Key::new("ceded"), 150));
        assert!(node.initialize_unstamped(&Key::new("kept"), 170));
        node.cede_arc(100, 200);
        assert!(!node.initialize_unstamped(&Key::new("gone"), 190));
    }

    #[test]
    fn gen_ts_is_monotonic_for_a_key() {
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
        let out = node.gen_ts(&Key::new("fresh"), no_observation, &mut NoDurability);
        assert_eq!(out.timestamp, Timestamp(1));
        assert!(out.used_indirect_init);
    }

    #[test]
    fn gen_ts_after_indirect_observation_exceeds_observed() {
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        let generated = node.gen_ts(&k, no_observation, &mut NoDurability).timestamp;
        let last = node.last_ts(&k, no_observation, &mut NoDurability);
        assert_eq!(last.timestamp, generated);
        assert!(!last.used_indirect_init);
        assert_eq!(node.stats().last_ts_served, 1);
    }

    #[test]
    fn last_ts_for_unknown_key_initializes_from_observation() {
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
        let out = node.last_ts(&Key::new("ghost"), no_observation, &mut NoDurability);
        assert_eq!(out.timestamp, Timestamp::ZERO);
    }

    #[test]
    fn direct_transfer_preserves_continuity() {
        let mut old_responsible = KtsNode::new();
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
        let mut new_responsible = KtsNode::new();
        new_responsible.receive_transferred_counters(exported, &mut NoDurability);
        assert_eq!(new_responsible.counter_value(&k), Some(last));
        let next =
            new_responsible.gen_ts(&k, || panic!("no indirect init needed"), &mut NoDurability);
        assert_eq!(next.timestamp, Timestamp(last.0 + 1));
        assert_eq!(new_responsible.stats().counters_received_directly, 1);
    }

    #[test]
    fn transfer_does_not_downgrade_existing_counter() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        node.vcs_mut().initialize(k.clone(), Timestamp(10));
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(3))], &mut NoDurability);
        assert_eq!(node.counter_value(&k), Some(Timestamp(10)));
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(30))], &mut NoDurability);
        assert_eq!(node.counter_value(&k), Some(Timestamp(30)));
    }

    #[test]
    fn export_only_covers_selected_keys() {
        let mut node = KtsNode::new();
        node.gen_ts(&Key::new("a"), no_observation, &mut NoDurability);
        node.gen_ts(&Key::new("b"), no_observation, &mut NoDurability);
        let exported = node.export_counters_in_range(|k| k.as_bytes() == b"a", &mut NoDurability);
        assert_eq!(exported.len(), 1);
        assert!(!node.has_counter(&Key::new("a")));
        assert!(node.has_counter(&Key::new("b")));
    }

    #[test]
    fn recovery_floor_prevents_regression_when_observation_is_empty() {
        // The Section 4.2.2 corner case: the responsible crashed after
        // generating timestamp 5 and every replica holder crashed too, so
        // the indirect observation comes back empty. Without the floor, the
        // counter would restart at zero and re-issue timestamps 1..5.
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
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
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(3))]);
        node.seed_recovery_floors(vec![(k.clone(), Timestamp(8)), (k.clone(), Timestamp(2))]);
        assert_eq!(node.recovery_floor(&k), Some(Timestamp(8)));
    }

    #[test]
    fn journaled_variants_record_resulting_counter_states() {
        use crate::durability::recording::{Event, RecordingJournal};

        let mut node = KtsNode::new();
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

        let mut node = KtsNode::new();
        let k = Key::new("doc");
        node.vcs_mut().initialize(k.clone(), Timestamp(10));
        let mut journal = RecordingJournal::default();
        // Transfer loses against the larger local value: no journal entry.
        node.receive_transferred_counters(vec![(k.clone(), Timestamp(3))], &mut journal);
        // last_ts on a valid counter does not mutate it: no journal entry.
        node.last_ts(&k, no_observation, &mut journal);
        assert!(journal.events.is_empty());
    }
}
