//! Ring membership for the replicated-DHT currency stack: **live joins** and
//! **graceful leaves** as a crash-recoverable transfer protocol.
//!
//! The paper's availability analysis (Section 4.2) distinguishes two ways a
//! timestamping responsible can stop serving a key:
//!
//! * a **graceful departure** runs the *direct* algorithm of Section 4.2.1 —
//!   the leaving peer hands the counters of the keys it is responsible for
//!   straight to its successor, so the successor keeps generating monotonic
//!   timestamps with **zero** indirect re-initializations;
//! * a **crash** loses the in-memory counters and forces the expensive
//!   *indirect* re-initialization of Section 4.2.2 (`|Hr|` replica reads per
//!   key) the next time each key is touched.
//!
//! This crate implements the machinery that makes the cheap path real in a
//! running deployment:
//!
//! * [`transfer`] — the hand-off itself: export → install → commit, with
//!   every phase journaled through `rdht-storage` so that a crash at **any**
//!   point either rolls the transfer back (the source still holds every
//!   replica; the invalidated counters re-initialize indirectly, which is
//!   always safe) or completes it (the destination's journal already holds
//!   the state).
//! * [`metrics`] — what each phase of a transfer costs.
//!
//! Which `(start, end]` interval moves, and between which peers, is not
//! decided here: [`rdht_overlay::Ring::join`] and
//! [`rdht_overlay::Ring::leave`] answer it from the same ring the live
//! cluster routes requests by and the simulator's Chord keeps as ground
//! truth.
//!
//! The crate is transport-agnostic: `rdht-net` drives the same
//! [`export_handoff`] / [`install_handoff`] / [`commit_handoff`] functions
//! from two peer threads exchanging messages, and tests drive them against
//! two [`rdht_storage::StorageEngine`]s in one thread. Either way the
//! journaled op sequence — counter removes at the source, replica puts and
//! counter sets at the destination, one `TransferRange` commit record at the
//! source — is identical, which is what the crash-recovery property tests
//! exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod metrics;
pub mod transfer;

pub use error::MembershipError;
pub use metrics::TransferMetrics;
pub use transfer::{commit_handoff, export_handoff, install_handoff, HandoffBundle, InstallReport};

#[cfg(test)]
mod proptests;
