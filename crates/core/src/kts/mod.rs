//! KTS — the Key-based Timestamping Service (Section 4 of the paper).
//!
//! For every key `k` the peer `rsp(k, h_ts)` is the *responsible of
//! timestamping*: it owns a local counter `c_{p,k}` and serves two requests:
//!
//! * `gen_ts(k)` — increments the counter and returns its value; at most one
//!   timestamp is generated per key at a time and timestamps for the same key
//!   are monotonically increasing (Definition 2 / Theorem 2);
//! * `last_ts(k)` — returns the counter value without incrementing it.
//!
//! Counters live in a **Valid Counter Set** ([`ValidCounterSet`]) governed by
//! the paper's three rules: it is empty when a peer (re)joins, a counter is
//! added when it is initialized, and a counter is removed when the peer loses
//! responsibility for its key.
//!
//! A fourth rule saves the initialization of keys nobody has stamped yet,
//! the **founding rule** ([`KtsNode`]): a peer that founds an empty ring
//! keeps its founding arc `(pred, id]`, less every range it hands away. A key
//! timestamped there without a valid counter was never stamped, so its
//! counter starts at 0 ([`KtsNode::initialize_unstamped`]) — what the
//! observation of an empty DHT would give — without observing. Only a live
//! cluster spawned over empty disks founds arcs. The simulator's peers never
//! do: its figures keep Figure 5's cost model, in which the initial load pays
//! the observation. Nor does a stand-alone TCP peer: its own empty disk
//! cannot prove that the whole ring is empty.
//!
//! When responsibility moves, the new responsible initializes its counter:
//!
//! * **directly** — the departing responsible hands the counters for the
//!   moved keys to its neighbour
//!   ([`KtsNode::export_counters_in_range`] → [`KtsNode::receive_transferred_counters`]),
//!   an O(1)-message transfer possible because in Chord and CAN the next
//!   responsible is always a neighbour of the current one (Section 4.2.1.1);
//! * **indirectly** — after a failure, by scanning the replicas stored in the
//!   DHT under the replication hash functions and taking the largest
//!   timestamp observed ([`IndirectObservation::from_probes`], the one fold
//!   of the probe outcomes, Section 4.2.2), backed by
//!   the **recovery** and **periodic inspection** strategies
//!   ([`KtsNode::reconcile_with_recovered_counters`], [`KtsNode::inspect_key`])
//!   for the rare cases where no current replica was reachable.

mod node;
mod recovery;
mod vcs;

pub use node::{GenTsOutcome, IndirectObservation, KtsNode, KtsStats, LastTsOutcome, Probe};
pub use recovery::CounterCorrection;
pub use vcs::ValidCounterSet;
