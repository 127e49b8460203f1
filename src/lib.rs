//! **rdht** — data currency in replicated DHTs.
//!
//! A from-scratch Rust reproduction of *"Data Currency in Replicated DHTs"*
//! (Akbarinia, Pacitti, Valduriez — SIGMOD 2007): an Update Management
//! Service (UMS) and a Key-based Timestamping Service (KTS) that let a
//! replicated DHT return the **latest** replica of a key despite churn and
//! concurrent updates, together with everything needed to evaluate them —
//! a Chord overlay, the BRK baseline, a discrete-event simulator with
//! the paper's workload, a threaded in-process deployment, and an experiment
//! harness regenerating every figure of the paper.
//!
//! This facade crate re-exports the individual crates under stable paths:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`hashing`] | `rdht-hashing` | keys, pairwise-independent hash families |
//! | [`overlay`] | `rdht-overlay` | Chord overlay (routing, churn) and the per-peer replica store |
//! | [`core`] | `rdht-core` | UMS + KTS + the probabilistic analysis; the BRK baseline ([`core::brk`]) |
//! | [`sim`] | `rdht-sim` | discrete-event simulator and workloads |
//! | [`net`] | `rdht-net` | threaded in-process cluster deployment; the journaled join/leave hand-off ([`net::handoff`]) the simulator runs too |
//! | [`storage`] | `rdht-storage` | durable peer state: WAL, snapshots, recovery |
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ```
//! use rdht::core::{ums, InMemoryDht};
//! use rdht::hashing::Key;
//!
//! let mut dht = InMemoryDht::new(10, 1);
//! let key = Key::new("quickstart");
//! ums::insert(&mut dht, &key, b"hello".to_vec()).unwrap();
//! assert!(ums::retrieve(&mut dht, &key).unwrap().is_current);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rdht_core as core;
pub use rdht_hashing as hashing;
pub use rdht_net as net;
pub use rdht_overlay as overlay;
pub use rdht_sim as sim;
pub use rdht_storage as storage;

pub use rdht_core::{ums, InMemoryDht, ReplicaValue, Timestamp, UmsAccess, UmsError};
pub use rdht_hashing::{HashFamily, HashId, Key};
pub use rdht_sim::{Algorithm, SimConfig, Simulation};
