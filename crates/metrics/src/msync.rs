//! Sync-type aliases for the crate's atomic instruments.
//!
//! Normally these re-export the std types (zero cost). Under
//! `RUSTFLAGS='--cfg rdht_model'` they swap in the instrumented
//! `rdht-check` equivalents, so the model tests in
//! [`crate::model_tests`] can drive [`crate::Counter`], [`crate::Gauge`],
//! [`crate::Histogram`] and [`crate::next_span_id`] through every bounded
//! interleaving with weak-memory semantics. Production builds never pay
//! for the instrumentation; the *same* source is what gets checked.
//!
//! Only the modules holding shared atomics (`instruments`, `span`) use
//! these aliases; the rest of the crate sticks with `std::sync`.

#[cfg(not(rdht_model))]
mod imp {
    pub use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    pub use std::sync::Arc;
}

#[cfg(rdht_model)]
mod imp {
    pub use rdht_check::sync::{Arc, AtomicI64, AtomicU64, Ordering};
}

pub(crate) use imp::*;
