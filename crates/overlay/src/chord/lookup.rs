//! Iterative Chord lookups with timeout accounting and lazy repair.

use super::ChordNetwork;
use crate::cost::{LookupError, LookupOutcome};
use crate::id::{in_open_closed_interval, in_open_open_interval, NodeId};

impl ChordNetwork {
    /// Routes a lookup for `position` starting at `origin`.
    ///
    /// The routing is iterative `find_successor`: at each step the current
    /// node either answers (the target lies between it and its successor) or
    /// forwards to the closest preceding finger. Probing a peer that has
    /// failed costs a timeout; the stale entry is then repaired lazily (the
    /// prober asks its own successor ring for a replacement), which is how
    /// real deployments recover and why lookups still terminate under heavy
    /// failure rates — at a visible cost in time and messages, as in the
    /// paper's Figure 11.
    pub fn lookup(&mut self, origin: NodeId, position: u64) -> Result<LookupOutcome, LookupError> {
        if self.ring.is_empty() {
            return Err(LookupError::EmptyOverlay);
        }
        if !self.nodes.contains_key(&origin) {
            return Err(LookupError::OriginNotAlive);
        }
        if self.ring.len() == 1 {
            return Ok(LookupOutcome {
                responsible: origin,
                hops: 0,
                timeouts: 0,
            });
        }

        let mut current = origin;
        let mut hops = 0u32;
        let mut timeouts = 0u32;
        let max_steps = self.config.max_routing_steps;

        for _ in 0..max_steps {
            // 1. Find the current node's first *live* successor, paying a
            //    timeout for each dead entry probed, and repairing lazily.
            let successor = match self.live_successor_with_repair(current, &mut timeouts) {
                Some(s) => s,
                None => {
                    return Err(LookupError::RoutingExhausted {
                        messages: hops + timeouts,
                        timeouts,
                    })
                }
            };

            // 2. If the target falls between current and its successor, the
            //    successor is the responsible peer.
            if in_open_closed_interval(current.0, successor.0, position) {
                hops += 1;
                return Ok(LookupOutcome {
                    responsible: successor,
                    hops,
                    timeouts,
                });
            }

            // 3. Otherwise forward to the closest preceding live finger.
            let next = match self.closest_preceding_live(current, position, &mut timeouts) {
                Some(n) if n != current => n,
                _ => successor,
            };
            hops += 1;
            current = next;
        }

        Err(LookupError::RoutingExhausted {
            messages: hops + timeouts,
            timeouts,
        })
    }

    /// Returns the first live entry of `id`'s successor list, charging one
    /// timeout per dead entry skipped and repairing the list in place. Falls
    /// back to ground truth (the result of the node running a full repair via
    /// its other neighbors) when the whole list is dead.
    fn live_successor_with_repair(&mut self, id: NodeId, timeouts: &mut u32) -> Option<NodeId> {
        // Shared borrows only while scanning — the believed list is read in
        // place, not cloned (this runs once per routing hop).
        let node = self.nodes.get(&id)?;
        let mut dead_prefix = 0usize;
        let mut live = None;
        for candidate in &node.successors {
            if self.nodes.contains_key(candidate) {
                live = Some(*candidate);
                break;
            }
            dead_prefix += 1;
        }
        *timeouts += dead_prefix as u32;

        if dead_prefix == 0 {
            if let Some(live) = live {
                return Some(live);
            }
        }

        // Either the head of the list timed out or the list is empty/dead.
        // After the timeout the node re-resolves its successor from its other
        // neighbors (the emergency repair real Chord performs), which yields
        // the ground-truth successor and refreshes the whole list. Note that
        // returning the first *live* entry of the stale list would be wrong:
        // a peer may have joined in front of it without this node having been
        // notified yet.
        if live.is_none() {
            *timeouts += 1;
        }
        let succ_len = self.config.successor_list_len;
        let repaired = self.truth_successor_list(id, succ_len);
        let result = repaired.first().copied().or(live);
        if let Some(node) = self.nodes.get_mut(&id) {
            if !repaired.is_empty() {
                node.successors = repaired;
            } else if let Some(result) = result {
                node.successors = vec![result];
            }
        }
        result
    }

    /// `closest_preceding_node` over the finger table (highest interval
    /// first), skipping dead fingers with a timeout and blanking them so that
    /// the next stabilization round refreshes them.
    fn closest_preceding_live(
        &mut self,
        id: NodeId,
        position: u64,
        timeouts: &mut u32,
    ) -> Option<NodeId> {
        // Scan the finger table in place (no candidate vector); dead fingers
        // are recorded in a scratch buffer reused across lookups so the hop
        // path stays allocation-free.
        let mut dead_indices = std::mem::take(&mut self.dead_finger_scratch);
        dead_indices.clear();
        let mut chosen = None;
        match self.nodes.get(&id) {
            Some(node) => {
                for (idx, candidate) in node
                    .fingers_high_to_low()
                    .filter(|(_, f)| in_open_open_interval(id.0, position, f.0))
                {
                    if self.nodes.contains_key(&candidate) {
                        chosen = Some(candidate);
                        break;
                    }
                    dead_indices.push(idx);
                }
            }
            None => {
                self.dead_finger_scratch = dead_indices;
                return None;
            }
        }
        *timeouts += dead_indices.len() as u32;
        if !dead_indices.is_empty() {
            if let Some(node) = self.nodes.get_mut(&id) {
                for &idx in &dead_indices {
                    if idx < node.fingers.len() {
                        node.fingers[idx] = None;
                    }
                }
            }
        }
        self.dead_finger_scratch = dead_indices;
        chosen
    }
}
