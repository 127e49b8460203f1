//! The Chord structured overlay and the per-peer replica store of the
//! replicated-DHT currency stack.
//!
//! The paper's Update Management Service and Key-based Timestamping Service
//! sit on top of a plain DHT offering a lookup service plus `put_h`/`get_h`
//! operations (Section 2.1). The authors implemented Chord themselves for the
//! evaluation (Section 5.1), and so does this crate:
//! [`chord::ChordNetwork`] is an m=64-bit Chord ring with successor lists,
//! finger tables, protocol-accurate joins, graceful leaves, fail-stop
//! failures, periodic stabilization and iterative lookups that account for
//! hops and timeouts. It is what the simulator routes over.
//!
//! [`Ring`] is the responsibility rule both worlds execute: the sorted live
//! ids, the successor of a position (`rsp(k, h)`, Definition 1) and the
//! range a join or a graceful leave moves. Chord keeps its ground truth in
//! one; the live cluster's directory routes every request and plans every
//! hand-off from one. [`PeerStore`] is the one replica table: simulated
//! peers, live peers (through `rdht_storage`) and hand-off bundles all hold
//! their replicas in it.
//!
//! Routing returns [`LookupOutcome`] cost records; membership changes return
//! [`MembershipOutcome`] records whose [`ResponsibilityChange`] entries drive
//! replica transfer (normal DHT key hand-off) and the direct counter-transfer
//! algorithm of KTS.
//!
//! The overlay models *stale routing state*: failed peers are only purged from
//! successor lists and finger tables by later stabilization rounds (or lazily
//! when a lookup times out on them), which is what degrades lookup cost as the
//! failure rate grows in the paper's Figure 11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
mod cost;
mod id;
mod ring;
mod store;

#[cfg(test)]
mod proptests;

pub use cost::{
    LookupError, LookupOutcome, MembershipEventKind, MembershipOutcome, ResponsibilityChange,
    StabilizeOutcome,
};
pub use id::{in_open_closed_interval, in_open_open_interval, NodeId};
pub use ring::{Ring, RingError};
pub use store::{PeerStore, Record, RecordRef, WritePolicy};
