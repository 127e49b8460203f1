//! Per-peer simulated state.

use rdht_core::kts::KtsNode;
use rdht_overlay::PeerStore;

use crate::algo::Algorithm;

/// Everything one simulated peer stores, for the three algorithm universes
/// that share the same overlay and churn history.
///
/// Keeping the universes separate (instead of re-running the whole simulation
/// once per algorithm) means every algorithm sees exactly the same joins,
/// leaves, failures and update times — the comparison in each figure is
/// paired, which reduces variance, and one simulation run produces all three
/// series.
#[derive(Debug, Default)]
pub struct PeerState {
    /// Replica store of the UMS-Direct universe (stamps are KTS timestamps).
    pub store_direct: PeerStore,
    /// Replica store of the UMS-Indirect universe.
    pub store_indirect: PeerStore,
    /// Replica store of the BRK universe (stamps are version numbers).
    pub store_brk: PeerStore,
    /// KTS state of the UMS-Direct universe.
    pub kts_direct: KtsNode,
    /// KTS state of the UMS-Indirect universe.
    pub kts_indirect: KtsNode,
}

impl PeerState {
    /// Fresh state for a peer that just joined (empty stores, empty VCS —
    /// KTS Rule 1).
    pub fn new() -> Self {
        PeerState {
            store_direct: PeerStore::new(),
            store_indirect: PeerStore::new(),
            store_brk: PeerStore::new(),
            kts_direct: KtsNode::new(),
            kts_indirect: KtsNode::new(),
        }
    }

    /// The replica store used by `algorithm`.
    pub fn store(&self, algorithm: Algorithm) -> &PeerStore {
        match algorithm {
            Algorithm::UmsDirect => &self.store_direct,
            Algorithm::UmsIndirect => &self.store_indirect,
            Algorithm::Brk => &self.store_brk,
        }
    }

    /// Mutable access to the replica store used by `algorithm`.
    pub fn store_mut(&mut self, algorithm: Algorithm) -> &mut PeerStore {
        match algorithm {
            Algorithm::UmsDirect => &mut self.store_direct,
            Algorithm::UmsIndirect => &mut self.store_indirect,
            Algorithm::Brk => &mut self.store_brk,
        }
    }

    /// The KTS node used by `algorithm` (`None` for BRK, which has no
    /// timestamping service).
    pub fn kts(&self, algorithm: Algorithm) -> Option<&KtsNode> {
        match algorithm {
            Algorithm::UmsDirect => Some(&self.kts_direct),
            Algorithm::UmsIndirect => Some(&self.kts_indirect),
            Algorithm::Brk => None,
        }
    }

    /// Mutable access to the KTS node used by `algorithm`.
    pub fn kts_mut(&mut self, algorithm: Algorithm) -> Option<&mut KtsNode> {
        match algorithm {
            Algorithm::UmsDirect => Some(&mut self.kts_direct),
            Algorithm::UmsIndirect => Some(&mut self.kts_indirect),
            Algorithm::Brk => None,
        }
    }

    /// The replica store and the KTS node of `algorithm`'s universe,
    /// borrowed together (BRK has no KTS node).
    pub fn universe_mut(&mut self, algorithm: Algorithm) -> (&mut PeerStore, Option<&mut KtsNode>) {
        match algorithm {
            Algorithm::UmsDirect => (&mut self.store_direct, Some(&mut self.kts_direct)),
            Algorithm::UmsIndirect => (&mut self.store_indirect, Some(&mut self.kts_indirect)),
            Algorithm::Brk => (&mut self.store_brk, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_hashing::{HashId, Key};
    use rdht_overlay::{Record, WritePolicy};

    #[test]
    fn stores_are_per_algorithm() {
        let mut peer = PeerState::new();
        peer.store_mut(Algorithm::UmsDirect).put(
            HashId(0),
            Key::new("k"),
            Record {
                payload: b"x".to_vec(),
                stamp: 1,
                position: 7,
            },
            WritePolicy::KeepNewest,
        );
        assert_eq!(peer.store(Algorithm::UmsDirect).len(), 1);
        assert_eq!(peer.store(Algorithm::UmsIndirect).len(), 0);
        assert_eq!(peer.store(Algorithm::Brk).len(), 0);
    }

    #[test]
    fn brk_has_no_kts() {
        let mut peer = PeerState::new();
        assert!(peer.kts(Algorithm::Brk).is_none());
        assert!(peer.kts_mut(Algorithm::Brk).is_none());
        assert!(peer.kts(Algorithm::UmsDirect).is_some());
        assert!(peer.kts(Algorithm::UmsIndirect).is_some());
    }

    #[test]
    fn new_peer_starts_empty() {
        let peer = PeerState::new();
        assert!(Algorithm::ALL
            .iter()
            .all(|&algorithm| peer.store(algorithm).is_empty()));
        assert!(peer.kts_direct.vcs().is_empty());
        assert!(peer.kts_indirect.vcs().is_empty());
    }
}
