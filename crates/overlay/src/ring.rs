//! The ground-truth ring: which live peer is responsible for a position, and
//! which interval a join or a graceful leave moves.
//!
//! This is the paper's responsibility rule `rsp(k, h)` — the first live peer
//! clockwise from `h(k)` (Definition 1) — written once. The simulator's Chord
//! keeps its ground truth in a [`Ring`]; the live cluster's directory routes
//! requests and plans hand-offs from one. The interval a join or a leave
//! moves ([`ResponsibilityChange`]) is what both hand over, through the same
//! three hand-off phases of `rdht_net::handoff`.

use crate::cost::{MembershipEventKind, ResponsibilityChange};
use crate::id::NodeId;

/// Why a join or a graceful leave cannot be planned on a [`Ring`]. The live
/// cluster reports it as the `rdht_net::MembershipError` variant of the same
/// name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingError {
    /// A join named an id that is already live.
    AlreadyMember(u64),
    /// A leave named an id that is not live.
    UnknownPeer(u64),
    /// A leave named the only live peer: nobody can take its range.
    LastPeer,
    /// A join found no live peer whose range it could split.
    EmptyRing,
}

/// The live peer ids of a ring, sorted; index `i` is the `i`-th live id in
/// ring order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ring {
    ids: Vec<u64>,
}

impl FromIterator<u64> for Ring {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut ids: Vec<u64> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Ring { ids }
    }
}

impl Ring {
    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no id is live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The live ids in ring order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The `index`-th live id in ring order.
    pub fn get(&self, index: usize) -> Option<u64> {
        self.ids.get(index).copied()
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Makes `id` live. Returns whether it was not already.
    pub fn insert(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.ids.insert(at, id);
                true
            }
        }
    }

    /// Takes `id` off the ring. Returns whether it was live.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(at) => {
                self.ids.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// `rsp`: the first live id clockwise from `position`, `position`
    /// itself included, wrapping past the top of the ring. `None` when no
    /// id is live.
    pub fn successor(&self, position: u64) -> Option<u64> {
        let at = self.ids.partition_point(|&id| id < position);
        self.ids.get(at).or(self.ids.first()).copied()
    }

    /// The live ids strictly clockwise from `id`, in ring order, once
    /// around: the first is `id`'s successor, and a live `id` comes last.
    pub fn successors(&self, id: u64) -> impl Iterator<Item = u64> + '_ {
        let at = self.ids.partition_point(|&x| x <= id);
        self.ids[at..].iter().chain(&self.ids[..at]).copied()
    }

    /// The first live id strictly counter-clockwise from `id`, wrapping past
    /// the bottom of the ring; on a one-peer ring the peer is its own
    /// predecessor. `None` when no id is live.
    pub fn predecessor(&self, id: u64) -> Option<u64> {
        let at = self.ids.partition_point(|&x| x < id);
        match at {
            0 => self.ids.last().copied(),
            _ => Some(self.ids[at - 1]),
        }
    }

    /// What `joiner` takes over when it joins: `(predecessor, joiner]`,
    /// split off the range of its successor, which is the change's `from`.
    pub fn join(&self, joiner: u64) -> Result<ResponsibilityChange, RingError> {
        if self.contains(joiner) {
            return Err(RingError::AlreadyMember(joiner));
        }
        let from = self.successor(joiner).ok_or(RingError::EmptyRing)?;
        Ok(self.change(from, joiner, joiner, MembershipEventKind::Join))
    }

    /// What moves when the live peer `leaving` departs gracefully: its whole
    /// range `(predecessor, leaving]`, to its successor, which is the
    /// change's `to`.
    pub fn leave(&self, leaving: u64) -> Result<ResponsibilityChange, RingError> {
        if !self.contains(leaving) {
            return Err(RingError::UnknownPeer(leaving));
        }
        if self.len() == 1 {
            return Err(RingError::LastPeer);
        }
        let to = self.successors(leaving).next().expect("two live peers");
        Ok(self.change(leaving, to, leaving, MembershipEventKind::Leave))
    }

    /// The change moving `(predecessor(end), end]` from `from` to `to`.
    fn change(
        &self,
        from: u64,
        to: u64,
        end: u64,
        kind: MembershipEventKind,
    ) -> ResponsibilityChange {
        ResponsibilityChange {
            from: NodeId(from),
            to: NodeId(to),
            range_start: self.predecessor(end).expect("a live peer"),
            range_end: end,
            handover_possible: true,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::id::in_open_closed_interval;

    fn ring(ids: &[u64]) -> Ring {
        ids.iter().copied().collect()
    }

    fn range(change: &ResponsibilityChange) -> (u64, u64, u64, u64) {
        (
            change.from.0,
            change.to.0,
            change.range_start,
            change.range_end,
        )
    }

    #[test]
    fn ring_successor_wraps_and_hits_exact_positions() {
        let ring = ring(&[10, 50, 90]);
        assert_eq!(ring.successor(5), Some(10));
        assert_eq!(ring.successor(10), Some(10), "a live id answers for itself");
        assert_eq!(ring.successor(11), Some(50));
        assert_eq!(ring.successor(91), Some(10), "wraps past the top");
        assert_eq!(ring.successor(u64::MAX), Some(10));
        assert_eq!(Ring::default().successor(5), None);
    }

    #[test]
    fn ring_successors_and_predecessor_are_strict_and_wrap() {
        let single = ring(&[42]);
        assert_eq!(single.predecessor(42), Some(42), "self on a 1-ring");
        assert_eq!(single.successors(42).collect::<Vec<_>>(), [42]);
        let ring = ring(&[10, 50, 90]);
        let after = |id| ring.successors(id).collect::<Vec<_>>();
        assert_eq!(after(50), [90, 10, 50], "once around, itself last");
        assert_eq!(after(90), [10, 50, 90]);
        assert_eq!(after(70), [90, 10, 50], "a position that is no peer");
        assert_eq!(ring.predecessor(50), Some(10));
        assert_eq!(ring.predecessor(10), Some(90), "wraps to the top");
        assert_eq!(ring.predecessor(70), Some(50));
        assert_eq!(Ring::default().predecessor(7), None);
        assert_eq!(Ring::default().successors(7).next(), None);
    }

    #[test]
    fn ring_insert_and_remove_keep_the_ids_sorted() {
        let mut ring = ring(&[50, 10, 90, 10]);
        assert_eq!(ring.ids(), [10, 50, 90], "sorted, duplicates dropped");
        assert!(ring.insert(30));
        assert!(!ring.insert(30));
        assert_eq!(ring.ids(), [10, 30, 50, 90]);
        assert_eq!(ring.get(1), Some(30));
        assert_eq!(ring.get(4), None);
        assert!(ring.remove(10));
        assert!(!ring.remove(10));
        assert!(!ring.contains(10));
        assert_eq!(ring.ids(), [30, 50, 90]);
    }

    #[test]
    fn ring_join_splits_the_successors_range() {
        let change = ring(&[10, 50, 90]).join(30).unwrap();
        assert_eq!(range(&change), (50, 30, 10, 30));
        assert_eq!(change.kind, MembershipEventKind::Join);
        assert!(change.handover_possible);
        assert!(change.covers(30));
        assert!(change.covers(11));
        assert!(!change.covers(10), "start is exclusive");
        assert!(!change.covers(31));
    }

    #[test]
    fn ring_join_below_the_smallest_id_wraps() {
        let change = ring(&[10, 50, 90]).join(5).unwrap();
        assert_eq!(range(&change), (10, 5, 90, 5));
        assert!(change.covers(u64::MAX));
        assert!(change.covers(0));
        assert!(!change.covers(10));
    }

    #[test]
    fn ring_join_into_single_peer_ring() {
        let change = ring(&[100]).join(40).unwrap();
        assert_eq!(range(&change), (100, 40, 100, 40));
    }

    #[test]
    fn ring_join_rejects_duplicates_and_empty_rings() {
        assert_eq!(ring(&[10, 50]).join(50), Err(RingError::AlreadyMember(50)));
        assert_eq!(Ring::default().join(5), Err(RingError::EmptyRing));
    }

    #[test]
    fn ring_leave_hands_the_whole_range_to_the_successor() {
        let change = ring(&[10, 50, 90]).leave(50).unwrap();
        assert_eq!(range(&change), (50, 90, 10, 50));
        assert_eq!(change.kind, MembershipEventKind::Leave);
        assert!(change.handover_possible);
    }

    #[test]
    fn ring_leave_of_the_largest_id_wraps_to_the_smallest() {
        let change = ring(&[10, 50, 90]).leave(90).unwrap();
        assert_eq!(range(&change), (90, 10, 50, 90));
    }

    #[test]
    fn ring_leave_of_two_peer_ring_degenerates_to_full_takeover() {
        let change = ring(&[10, 90]).leave(90).unwrap();
        assert_eq!(range(&change), (90, 10, 10, 90));
    }

    #[test]
    fn ring_leave_rejects_unknown_and_last_peer() {
        assert_eq!(ring(&[10, 50]).leave(99), Err(RingError::UnknownPeer(99)));
        assert_eq!(ring(&[10]).leave(10), Err(RingError::LastPeer));
        assert_eq!(Ring::default().leave(10), Err(RingError::UnknownPeer(10)));
    }

    #[test]
    fn ring_join_then_leave_round_trips_the_range() {
        // A peer joining and then leaving gracefully hands back exactly the
        // range it took, to the peer it took it from.
        let mut ring = ring(&[10, 50, 90]);
        let join = ring.join(30).unwrap();
        ring.insert(30);
        let leave = ring.leave(30).unwrap();
        assert_eq!(leave.to, join.from);
        assert_eq!(
            (leave.range_start, leave.range_end),
            (join.range_start, join.range_end)
        );
        ring.remove(30);
        assert_eq!(ring.ids(), [10, 50, 90]);
        assert_eq!(
            ring.predecessor(50),
            Some(10),
            "the source's range is (10, 50] again"
        );
    }

    /// The successor by definition: the smallest live id at or above
    /// `position`, or the smallest live id when there is none.
    fn oracle_successor(ids: &[u64], position: u64) -> Option<u64> {
        let above = ids.iter().copied().filter(|&id| id >= position).min();
        above.or_else(|| ids.iter().copied().min())
    }

    /// Positions worth probing around a ring: every id, its neighbours, the
    /// wrap point and some arbitrary ones.
    fn probes(ids: &[u64], extra: &[u64]) -> Vec<u64> {
        let mut out = vec![0, 1, u64::MAX - 1, u64::MAX];
        for &id in ids {
            out.extend([id.wrapping_sub(1), id, id.wrapping_add(1)]);
        }
        out.extend_from_slice(extra);
        out
    }

    /// Checks that `change` moves exactly the probed positions whose
    /// successor differs between `before` and `after`, from `change.from` to
    /// `change.to`.
    fn moves_exactly_what_changed(
        before: &Ring,
        after: &Ring,
        change: &ResponsibilityChange,
        probes: &[u64],
    ) -> Result<(), TestCaseError> {
        for &p in probes {
            let (old, new) = (before.successor(p), after.successor(p));
            prop_assert!(
                in_open_closed_interval(change.range_start, change.range_end, p) == (old != new),
                "position {p} went {old:?} -> {new:?} under {change:?}"
            );
            if old != new {
                prop_assert_eq!((old, new), (Some(change.from.0), Some(change.to.0)));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The successor matches the brute-force definition, and a join or a
        /// leave moves exactly the positions whose successor changes.
        #[test]
        fn ring_agrees_with_a_brute_force_oracle(
            ids in proptest::collection::vec(any::<u64>(), 1..12),
            small in proptest::collection::vec(0u64..64, 0..6),
            joiner in any::<u64>(),
            small_joiner in 0u64..64,
            pick in any::<usize>(),
            extra in proptest::collection::vec(any::<u64>(), 8),
        ) {
            // Mix in small ids so that neighbours and collisions are common.
            let ring: Ring = ids.iter().chain(&small).copied().collect();
            let probes = probes(ring.ids(), &extra);
            for &p in &probes {
                prop_assert_eq!(ring.successor(p), oracle_successor(ring.ids(), p));
            }

            for joiner in [joiner, small_joiner] {
                let mut after = ring.clone();
                match ring.join(joiner) {
                    Err(error) => {
                        prop_assert!(ring.contains(joiner));
                        prop_assert_eq!(error, RingError::AlreadyMember(joiner));
                    }
                    Ok(change) => {
                        prop_assert!(after.insert(joiner));
                        prop_assert_eq!(change.to.0, joiner);
                        moves_exactly_what_changed(&ring, &after, &change, &probes)?;
                    }
                }
            }

            let leaving = ring.ids()[pick % ring.len()];
            let mut after = ring.clone();
            after.remove(leaving);
            match ring.leave(leaving) {
                Err(error) => {
                    prop_assert_eq!(ring.len(), 1);
                    prop_assert_eq!(error, RingError::LastPeer);
                }
                Ok(change) => {
                    prop_assert_eq!(change.from.0, leaving);
                    moves_exactly_what_changed(&ring, &after, &change, &probes)?;
                }
            }
        }
    }
}
