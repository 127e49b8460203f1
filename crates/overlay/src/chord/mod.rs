//! A from-scratch Chord implementation (Stoica et al., SIGCOMM 2001).
//!
//! The paper's evaluation runs UMS and KTS over a Chord implementation the
//! authors wrote themselves (Section 5.1). This module reproduces the parts
//! of Chord that matter for the paper:
//!
//! * an m = 64-bit identifier ring with one successor pointer, a successor
//!   list for fault tolerance, a predecessor pointer and a finger table;
//! * iterative `find_successor` lookups in `O(log n)` hops
//!   ([`ChordNetwork::lookup`]);
//! * protocol-accurate joins (the new node takes over part of its successor's
//!   keys — which is the RLA "loss of responsibility" detection point used by
//!   KTS), graceful leaves (state handed to the successor, which is how the
//!   *direct* counter-transfer algorithm ships counters), and fail-stop
//!   failures (no hand-off; stale routing state lingers until stabilization);
//! * periodic stabilization that repairs successor lists and refreshes a
//!   configurable number of fingers per round, so that higher failure rates
//!   translate into more lookup timeouts exactly as in the paper's Figure 11.

mod lookup;
mod maintenance;
mod node;

#[cfg(test)]
mod tests;

pub use node::ChordNode;

use std::collections::HashMap;

use crate::id::NodeId;
use crate::ring::Ring;

/// Tuning parameters of the Chord overlay.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Length of the successor list each node maintains (`r` in the Chord
    /// paper). Longer lists survive more simultaneous failures.
    pub successor_list_len: usize,
    /// Number of finger-table entries (m). 64 covers the whole identifier
    /// space; smaller values are useful in tests.
    pub finger_bits: u32,
    /// How many finger entries each node refreshes per stabilization round.
    /// Smaller values leave more stale fingers between rounds, increasing
    /// lookup timeouts under churn.
    pub fingers_fixed_per_round: usize,
    /// Upper bound on routing steps before a lookup is declared exhausted.
    pub max_routing_steps: u32,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list_len: 8,
            finger_bits: 64,
            fingers_fixed_per_round: 8,
            max_routing_steps: 256,
        }
    }
}

/// A complete Chord overlay: the set of live nodes plus their (possibly
/// stale) routing state.
///
/// The structure is *network-global* — it owns every node's state — because
/// the discrete-event simulator drives the overlay from a single place. Staleness is still modelled faithfully: each
/// node only "knows" what is in its own successor list / finger table, and
/// those are only updated by joins, graceful leaves, stabilization rounds and
/// lazy repair after timeouts.
#[derive(Clone, Debug)]
pub struct ChordNetwork {
    config: ChordConfig,
    nodes: HashMap<NodeId, ChordNode>,
    /// Ground truth: the live node ids, which the node map's keys mirror.
    ring: Ring,
    /// Reused by [`ChordNetwork::lookup`] to record dead finger slots
    /// without allocating per hop.
    dead_finger_scratch: Vec<usize>,
}

impl ChordNetwork {
    /// Creates an empty overlay.
    pub fn new(config: ChordConfig) -> Self {
        ChordNetwork {
            config,
            nodes: HashMap::new(),
            ring: Ring::default(),
            dead_finger_scratch: Vec::new(),
        }
    }

    /// Creates an overlay that already contains `ids`, with fully stabilized
    /// routing state (perfect successors, predecessors and fingers).
    ///
    /// This models a ring that has been running long enough to converge, and
    /// is how experiments bootstrap their initial population before churn
    /// starts (protocol-accurate joins are used for every later arrival).
    pub fn bootstrap(ids: impl IntoIterator<Item = NodeId>, config: ChordConfig) -> Self {
        let mut network = ChordNetwork::new(config);
        network.ring = ids.into_iter().map(|id| id.0).collect();
        network.nodes = network
            .ring
            .ids()
            .iter()
            .map(|&id| (NodeId(id), ChordNode::new(NodeId(id))))
            .collect();
        network.rebuild_all_routing_state();
        network
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChordConfig {
        &self.config
    }

    /// Immutable access to a node's state (None if dead/unknown).
    pub fn node(&self, id: NodeId) -> Option<&ChordNode> {
        self.nodes.get(&id)
    }

    /// The first `count` ground-truth successors of `id` (excluding `id`
    /// unless the ring is smaller than `count + 1`).
    fn truth_successor_list(&self, id: NodeId, count: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.ring.successors(id.0).take(count).map(NodeId)
    }

    /// Checks internal consistency of the ground-truth structures; used by
    /// tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.ring.len() != self.nodes.len() {
            return Err(format!(
                "ring has {} entries but node map has {}",
                self.ring.len(),
                self.nodes.len()
            ));
        }
        for &id in self.ring.ids() {
            if !self.nodes.contains_key(&NodeId(id)) {
                return Err(format!("ring member {} missing from node map", NodeId(id)));
            }
        }
        Ok(())
    }
}

/// The lookup-service surface UMS/KTS need from the DHT: the paper's mapping
/// function `m(k, h, t)` (Definition 1) is [`ChordNetwork::responsible_for`];
/// routing and membership changes are [`ChordNetwork::lookup`],
/// [`ChordNetwork::join`], [`ChordNetwork::leave`], [`ChordNetwork::fail`]
/// and [`ChordNetwork::stabilize`].
impl ChordNetwork {
    /// Number of live peers.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when the overlay has no live peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `node` is currently a live member.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    /// All live members in ring order. Allocates; hot paths should use
    /// [`ChordNetwork::alive_count`] + [`ChordNetwork::sample_alive`]
    /// instead. Kept for tests and diagnostics.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.ring.ids().iter().copied().map(NodeId).collect()
    }

    /// Number of live members that [`ChordNetwork::sample_alive`] can index
    /// into. Equals [`ChordNetwork::len`].
    pub fn alive_count(&self) -> usize {
        self.len()
    }

    /// The live member at `index` (in `0..alive_count()`), in the same order
    /// as [`ChordNetwork::alive_ids`], so callers can pick a uniformly random
    /// peer without materializing a `Vec`. Returns `None` when `index` is out
    /// of range.
    pub fn sample_alive(&self, index: usize) -> Option<NodeId> {
        self.ring.get(index).map(NodeId)
    }

    /// Ground-truth responsible peer for an identifier-space position — the
    /// value of the mapping function `m(k, h, now)`. Returns `None` for an
    /// empty overlay.
    pub fn responsible_for(&self, position: u64) -> Option<NodeId> {
        self.ring.successor(position).map(NodeId)
    }

    /// The peers `id` currently knows as neighbors (successor list +
    /// predecessor). Empty if `id` is dead.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        match self.nodes.get(&id) {
            None => Vec::new(),
            Some(node) => {
                let mut out: Vec<NodeId> = node.successors.clone();
                if let Some(pred) = node.predecessor {
                    if !out.contains(&pred) {
                        out.push(pred);
                    }
                }
                out.retain(|n| *n != id);
                out
            }
        }
    }
}
