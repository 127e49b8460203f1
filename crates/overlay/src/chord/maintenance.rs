//! Chord membership changes and stabilization.

use super::{ChordNetwork, ChordNode};
use crate::cost::{MembershipEventKind, MembershipOutcome, ResponsibilityChange, StabilizeOutcome};
use crate::id::NodeId;

impl ChordNetwork {
    /// Rebuilds successor lists, predecessors and fingers of *every* node from
    /// ground truth. Used by [`ChordNetwork::bootstrap`] to start from a
    /// converged ring.
    pub(super) fn rebuild_all_routing_state(&mut self) {
        for id in self.ring.clone().ids() {
            self.rebuild_node_routing_state(NodeId(*id));
        }
    }

    /// Rebuilds one node's routing state from ground truth (perfect
    /// stabilization of that node).
    pub(super) fn rebuild_node_routing_state(&mut self, id: NodeId) {
        let succ_list = self
            .truth_successor_list(id, self.config.successor_list_len)
            .collect();
        let predecessor = self.ring.predecessor(id.0).map(NodeId);
        let fingers = self.compute_fingers(id);
        if let Some(node) = self.nodes.get_mut(&id) {
            node.successors = succ_list;
            node.predecessor = predecessor;
            node.fingers = fingers;
        }
    }

    fn compute_fingers(&self, id: NodeId) -> Vec<Option<NodeId>> {
        (0..self.config.finger_bits)
            .map(|i| self.ring.successor(id.finger_start(i)).map(NodeId))
            .collect()
    }

    /// Protocol join: the new node locates its successor, takes over the keys
    /// in `(predecessor, new_id]` from it, and links itself into the ring.
    pub fn join(&mut self, id: NodeId) -> MembershipOutcome {
        if self.nodes.contains_key(&id) {
            // Duplicate identifier: nothing changes. Identifiers are 64-bit
            // fingerprints so this only happens in adversarial tests.
            return MembershipOutcome::default();
        }

        // Only an empty ring has no range to split: the first member is its
        // own successor and owns the whole ring.
        let Ok(change) = self.ring.join(id.0) else {
            let mut node = ChordNode::new(id);
            node.successors = vec![id];
            node.predecessor = Some(id);
            node.fingers = vec![Some(id); self.config.finger_bits as usize];
            self.nodes.insert(id, node);
            self.ring.insert(id.0);
            return MembershipOutcome {
                changes: Vec::new(),
                messages: 0,
            };
        };

        // The successor the new node will sit in front of, and the current
        // predecessor of that successor (ground truth; the join lookup cost is
        // approximated below since maintenance traffic is not part of the
        // paper's reported query costs).
        let successor = change.from;
        let predecessor = NodeId(change.range_start);

        self.ring.insert(id.0);
        self.nodes.insert(id, ChordNode::new(id));
        self.rebuild_node_routing_state(id);

        // The successor learns about its new predecessor immediately (it is
        // contacted for the key hand-off); the old predecessor's successor
        // pointer is patched when it next stabilizes, but we patch its
        // immediate successor here because the hand-off converstion reveals
        // the new node to it as well.
        if let Some(succ_node) = self.nodes.get_mut(&successor) {
            succ_node.predecessor = Some(id);
        }
        if let Some(pred_node) = self.nodes.get_mut(&predecessor) {
            if pred_node.successors.first() == Some(&successor) || pred_node.successors.is_empty() {
                pred_node.successors.insert(0, id);
                pred_node
                    .successors
                    .truncate(self.config.successor_list_len);
            }
        }

        // Approximate join cost: one lookup (~log2 n hops) plus the transfer
        // round-trip and the successor-list copy.
        let lookup_cost = usize::BITS - self.ring.len().leading_zeros();
        let messages = lookup_cost + 2 + self.config.successor_list_len as u32;

        MembershipOutcome {
            changes: vec![change],
            messages,
        }
    }

    /// Graceful leave: the departing node notifies its neighbors and hands its
    /// keys (and, at the KTS layer, its counters — the direct algorithm) to
    /// its successor before disappearing.
    pub fn leave(&mut self, id: NodeId) -> MembershipOutcome {
        if !self.nodes.contains_key(&id) {
            return MembershipOutcome::default();
        }
        let change = self.ring.leave(id.0);
        self.ring.remove(id.0);
        self.nodes.remove(&id);

        // A last member's data simply disappears with it.
        let Ok(change) = change else {
            return MembershipOutcome::default();
        };
        let (successor, predecessor) = (change.to, NodeId(change.range_start));
        // Patch the two neighbors that the departing node notified.
        if let Some(succ_node) = self.nodes.get_mut(&successor) {
            if succ_node.predecessor == Some(id) {
                succ_node.predecessor = Some(predecessor);
            }
            succ_node.purge_reference(id);
        }
        if predecessor != successor {
            if let Some(pred_node) = self.nodes.get_mut(&predecessor) {
                pred_node.purge_reference(id);
                if pred_node.successors.first() != Some(&successor) {
                    pred_node.successors.insert(0, successor);
                    pred_node
                        .successors
                        .truncate(self.config.successor_list_len);
                }
            }
        }
        MembershipOutcome {
            changes: vec![change],
            messages: 3, // leave notification to pred + succ, hand-off ack
        }
    }

    /// Fail-stop failure: the node vanishes without notifying anyone. Its
    /// keys are lost, other nodes keep stale references to it, and the next
    /// responsible (its successor) will have to use the *indirect* counter
    /// initialization for the keys it inherits.
    pub fn fail(&mut self, id: NodeId) -> MembershipOutcome {
        if !self.nodes.contains_key(&id) {
            return MembershipOutcome::default();
        }
        let change = self.ring.leave(id.0);
        self.ring.remove(id.0);
        self.nodes.remove(&id);

        MembershipOutcome {
            changes: change
                .map(|change| ResponsibilityChange {
                    handover_possible: false,
                    kind: MembershipEventKind::Fail,
                    ..change
                })
                .into_iter()
                .collect(),
            messages: 0,
        }
    }

    /// One stabilization round across every live node: verify successors
    /// (purging dead ones), refresh the successor list and predecessor via the
    /// successor exchange, and refresh a few fingers (round-robin), as Chord's
    /// periodic `stabilize` + `fix_fingers` do.
    pub fn stabilize(&mut self) -> StabilizeOutcome {
        let mut outcome = StabilizeOutcome::default();
        // One memcpy snapshot of the membership (nodes may join/leave midway
        // through a real round, so each node acts on the round's population).
        let ring = self.ring.clone();
        let succ_len = self.config.successor_list_len;
        let per_round = self.config.fingers_fixed_per_round.max(1);
        let finger_bits = self.config.finger_bits as usize;
        // Scratch buffers shared by every node in the round: stabilization is
        // O(n) nodes per round, so per-node allocations dominate without
        // these.
        let mut succ_scratch: Vec<NodeId> = Vec::with_capacity(succ_len);
        let mut refreshed: Vec<(usize, Option<NodeId>)> = Vec::with_capacity(per_round);

        for id in ring.ids().iter().copied().map(NodeId) {
            // Successor verification: count how many known successors are dead.
            let (dead_successors, had_dead_pred) = {
                let node = match self.nodes.get(&id) {
                    Some(n) => n,
                    None => continue,
                };
                let dead = node
                    .successors
                    .iter()
                    .filter(|s| !self.nodes.contains_key(*s))
                    .count() as u32;
                let dead_pred = node
                    .predecessor
                    .map(|p| !self.nodes.contains_key(&p))
                    .unwrap_or(false);
                (dead, dead_pred)
            };
            outcome.repaired_successors += dead_successors + u32::from(had_dead_pred);
            // The stabilize exchange with the (first live) successor refreshes
            // the whole list and the predecessor pointer.
            succ_scratch.clear();
            succ_scratch.extend(self.truth_successor_list(id, succ_len));
            let pred = self.ring.predecessor(id.0).map(NodeId);
            outcome.messages += 2 + dead_successors; // request/response + one timeout probe per dead entry

            // fix_fingers: refresh `per_round` entries round-robin.
            refreshed.clear();
            let start_index = self
                .nodes
                .get(&id)
                .map(|n| n.next_finger_to_fix)
                .unwrap_or(0);
            for offset in 0..per_round.min(finger_bits) {
                let idx = (start_index + offset) % finger_bits;
                let target = id.finger_start(idx as u32);
                refreshed.push((idx, self.ring.successor(target).map(NodeId)));
            }
            outcome.refreshed_fingers += refreshed.len() as u32;
            outcome.messages += refreshed.len() as u32;

            if let Some(node) = self.nodes.get_mut(&id) {
                node.successors.clear();
                node.successors.extend_from_slice(&succ_scratch);
                node.predecessor = pred;
                if node.fingers.len() < finger_bits {
                    node.fingers.resize(finger_bits, None);
                }
                for &(idx, value) in &refreshed {
                    node.fingers[idx] = value;
                }
                node.next_finger_to_fix = (start_index + per_round) % finger_bits;
            }
        }
        outcome
    }
}
