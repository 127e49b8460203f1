//! Recovery and periodic inspection (Section 4.2.2).
//!
//! The indirect algorithm initializes a counter from the replicas it can
//! reach; with probability `1 − p_s = (1 − p_t)^|Hr|` none of them is current
//! and the counter starts too low. The paper proposes two complementary
//! strategies for those rare cases, both implemented here:
//!
//! * **Recovery** — when the failed responsible of timestamping restarts, it
//!   sends the counters it still remembers to the new responsible, which
//!   corrects any counter that was initialized too low
//!   ([`KtsNode::reconcile_with_recovered_counters`]).
//! * **Periodic inspection** — a responsible that took over from a failed
//!   peer periodically compares its counters with the timestamps stored in
//!   the DHT and raises any counter found to be lower
//!   ([`KtsNode::inspect_key`]).
//!
//! Both return [`CounterCorrection`] records. A correction also tells the
//! environment that the data stored with the *latest value of the incorrect
//! counter* must be re-inserted under the corrected timestamp so that
//! replicas stamped with the bogus low timestamps cannot shadow newer data.
//!
//! The live cluster (`rdht-net`) does recovery through the range hand-off
//! instead. A restarted peer rejoins at its old ring position, so the range
//! and its counters flow the other way: the interim responsible hands its
//! counters to the restarted peer, which raises each to the value it
//! recovered from its journal (its *recovery floor*,
//! [`KtsNode::seed_recovery_floors`]). The recovered counters nobody handed
//! over are re-initialized from the replicas in a batched observation and
//! raised the same way. Either way the counter ends at
//! `max(recovered, what the new responsible knows)`, as reconciliation
//! would leave it, and the interim responsible keeps no counter of the range.

use rdht_hashing::Key;

use crate::kts::node::KtsNode;
use crate::types::Timestamp;

/// A counter correction performed by recovery or periodic inspection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterCorrection {
    /// The key whose counter was corrected.
    pub key: Key,
    /// The (incorrect) value the counter had before the correction.
    pub previous: Timestamp,
    /// The value the counter was raised to.
    pub corrected_to: Timestamp,
}

impl KtsNode {
    /// Recovery strategy: the previously failed responsible restarted and
    /// sent `recovered` — the counters it had generated before failing. Any
    /// local counter that is lower is corrected; counters for keys this node
    /// has not initialized yet are adopted as-is.
    ///
    /// Returns the corrections applied, so the environment can re-insert the
    /// data that had been stored with the incorrect counter values.
    pub fn reconcile_with_recovered_counters(
        &mut self,
        recovered: impl IntoIterator<Item = (Key, Timestamp)>,
    ) -> Vec<CounterCorrection> {
        let mut corrections = Vec::new();
        for (key, recovered_value) in recovered {
            match self.vcs().value(&key) {
                None => {
                    // The new responsible had not initialized this counter at
                    // all; adopting the recovered value is strictly safe.
                    self.vcs_mut().initialize(key, recovered_value);
                }
                Some(current) if current < recovered_value => {
                    self.vcs_mut().raise_to(&key, recovered_value);
                    self.note_correction();
                    corrections.push(CounterCorrection {
                        key,
                        previous: current,
                        corrected_to: recovered_value,
                    });
                }
                Some(_) => {}
            }
        }
        corrections
    }

    /// Periodic inspection step for one key: compare the local counter with
    /// the largest timestamp currently stored in the DHT (`observed_max`,
    /// gathered by the environment by reading the key's replicas) and raise
    /// the counter if it is behind.
    pub fn inspect_key(&mut self, key: &Key, observed_max: Timestamp) -> Option<CounterCorrection> {
        let current = self.vcs().value(key)?;
        if current >= observed_max {
            return None;
        }
        self.vcs_mut().raise_to(key, observed_max);
        self.note_correction();
        Some(CounterCorrection {
            key: key.clone(),
            previous: current,
            corrected_to: observed_max,
        })
    }

    /// Runs [`KtsNode::inspect_key`] over every valid counter, with the
    /// environment supplying the observed maximum per key. Returns all
    /// corrections applied.
    pub fn periodic_inspection(
        &mut self,
        mut observe: impl FnMut(&Key) -> Option<Timestamp>,
    ) -> Vec<CounterCorrection> {
        let keys: Vec<Key> = self.vcs().iter().map(|(k, _)| k.clone()).collect();
        let mut corrections = Vec::new();
        for key in keys {
            if let Some(observed) = observe(&key) {
                if let Some(correction) = self.inspect_key(&key, observed) {
                    corrections.push(correction);
                }
            }
        }
        corrections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::NoDurability;
    use crate::kts::node::IndirectObservation;

    #[test]
    fn recovery_corrects_low_counters() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        // Indirect init observed only a stale replica (ts=3): counter = 4,
        // first generated = 5.
        node.gen_ts(
            &k,
            || IndirectObservation::observed(Timestamp(3)),
            &mut NoDurability,
        );
        // The failed responsible restarts knowing it had generated ts=9.
        let corrections = node.reconcile_with_recovered_counters(vec![(k.clone(), Timestamp(9))]);
        assert_eq!(corrections.len(), 1);
        assert_eq!(corrections[0].corrected_to, Timestamp(9));
        assert_eq!(node.counter_value(&k), Some(Timestamp(9)));
        // The next generated timestamp is now safely above 9.
        let next = node.gen_ts(&k, || panic!("valid counter"), &mut NoDurability);
        assert_eq!(next.timestamp, Timestamp(10));
        assert_eq!(node.stats().corrections, 1);
    }

    #[test]
    fn recovery_ignores_counters_that_are_already_ahead() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        node.gen_ts(
            &k,
            || IndirectObservation::observed(Timestamp(20)),
            &mut NoDurability,
        );
        let corrections = node.reconcile_with_recovered_counters(vec![(k.clone(), Timestamp(5))]);
        assert!(corrections.is_empty());
        assert!(node.counter_value(&k).unwrap() > Timestamp(20));
    }

    #[test]
    fn recovery_adopts_unknown_counters_silently() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        let corrections = node.reconcile_with_recovered_counters(vec![(k.clone(), Timestamp(7))]);
        assert!(corrections.is_empty(), "adoption is not a correction");
        assert_eq!(node.counter_value(&k), Some(Timestamp(7)));
    }

    #[test]
    fn inspection_raises_lagging_counter() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        node.gen_ts(
            &k,
            || IndirectObservation::observed(Timestamp(2)),
            &mut NoDurability,
        );
        let correction = node.inspect_key(&k, Timestamp(15)).unwrap();
        assert_eq!(correction.previous, Timestamp(4));
        assert_eq!(correction.corrected_to, Timestamp(15));
        assert_eq!(node.counter_value(&k), Some(Timestamp(15)));
    }

    #[test]
    fn inspection_of_up_to_date_counter_is_noop() {
        let mut node = KtsNode::new();
        let k = Key::new("doc");
        node.gen_ts(
            &k,
            || IndirectObservation::observed(Timestamp(10)),
            &mut NoDurability,
        );
        assert!(node.inspect_key(&k, Timestamp(5)).is_none());
        assert!(node
            .inspect_key(&Key::new("unknown"), Timestamp(5))
            .is_none());
    }

    #[test]
    fn periodic_inspection_covers_all_counters() {
        let mut node = KtsNode::new();
        node.gen_ts(
            &Key::new("a"),
            || IndirectObservation::observed(Timestamp(1)),
            &mut NoDurability,
        );
        node.gen_ts(
            &Key::new("b"),
            || IndirectObservation::observed(Timestamp(1)),
            &mut NoDurability,
        );
        let corrections = node.periodic_inspection(|k| {
            if k.as_bytes() == b"a" {
                Some(Timestamp(50))
            } else {
                None
            }
        });
        assert_eq!(corrections.len(), 1);
        assert_eq!(corrections[0].key, Key::new("a"));
        assert_eq!(node.counter_value(&Key::new("a")), Some(Timestamp(50)));
    }
}
