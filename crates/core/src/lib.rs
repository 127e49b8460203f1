//! The paper's primary contribution: **UMS** (Update Management Service) and
//! **KTS** (Key-based Timestamping Service) for data currency in replicated
//! DHTs (Akbarinia, Pacitti, Valduriez — SIGMOD 2007).
//!
//! # Overview
//!
//! A DHT replicates each `(k, data)` pair at the peers responsible for `k`
//! under a set `Hr` of replication hash functions. Replicas drift apart when
//! peers miss updates (they were offline) or when updates race. UMS restores
//! a *currency* guarantee — `retrieve(k)` returns the latest replica — by
//! stamping every replica with a per-key, monotonically increasing logical
//! timestamp obtained from KTS:
//!
//! * [`ums::insert`] asks KTS for a fresh timestamp and writes
//!   `{data, ts}` to `rsp(k, h)` for every `h ∈ Hr`; receivers only keep the
//!   write if its timestamp is newer than what they hold, so concurrent
//!   inserts resolve deterministically to the one holding the latest
//!   timestamp.
//! * [`ums::retrieve`] asks KTS for the *last* timestamp generated for `k`
//!   and probes replicas one at a time, returning the first whose timestamp
//!   matches — on average fewer than `1/p_t` probes (Theorem 1, see
//!   [`analysis`]) — and falling back to the most recent replica seen when no
//!   current one is reachable.
//!
//! KTS generates the timestamps at the peer `rsp(k, h_ts)` using a local
//! counter per key, kept in a *Valid Counter Set* ([`kts::ValidCounterSet`]).
//! When responsibility for a key moves, the counter is re-initialized either
//! **directly** (the departing responsible hands its counters to its
//! neighbour — [`kts::KtsNode::export_counters_in_range`] /
//! [`kts::KtsNode::receive_transferred_counters`]) or **indirectly** (the new
//! responsible scans the replicas stored in the DHT —
//! [`kts::IndirectObservation`]), with recovery and periodic-inspection
//! fallbacks for the rare cases the indirect scan misses the latest
//! timestamp.
//!
//! This crate is *environment-agnostic*: it contains the full client- and
//! node-side logic but no networking. The discrete-event simulator
//! (`rdht-sim`) and the threaded deployment (`rdht-net`) both drive it
//! through the [`UmsAccess`] trait.
//!
//! [`brk`] is the paper's baseline (BRICKS-style version counters, fetch-all
//! retrieve), run over the same [`UmsAccess`] environments without KTS.
//!
//! # Quick example (in-memory access)
//!
//! ```
//! use rdht_core::{ums, InMemoryDht};
//! use rdht_hashing::Key;
//!
//! let mut dht = InMemoryDht::new(10, 42);
//! let key = Key::new("agenda:room-42");
//! ums::insert(&mut dht, &key, b"meeting at 10:00".to_vec()).unwrap();
//! ums::insert(&mut dht, &key, b"meeting moved to 11:00".to_vec()).unwrap();
//! let got = ums::retrieve(&mut dht, &key).unwrap();
//! assert!(got.is_current);
//! assert_eq!(got.data.unwrap(), b"meeting moved to 11:00".to_vec());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
pub mod analysis;
pub mod brk;
pub mod durability;
mod error;
pub mod kts;
mod memory;
mod types;
pub mod ums;

pub use access::{PutReplicasOutcome, ReplicationIds, UmsAccess};
pub use durability::{DurableState, NoDurability};
pub use error::UmsError;
pub use memory::InMemoryDht;
pub use types::{ReplicaValue, Timestamp};

#[cfg(test)]
mod proptests;
