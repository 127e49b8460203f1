//! `rdht-check` — the workspace's project-invariant linter, in the house
//! shim idiom (stable std, zero external deps).
//!
//! `rdht-check lint` walks the workspace source line-by-line and enforces
//! project rules clippy cannot express (logging discipline, function
//! length, virtual time in the simulator, justified relaxed orderings).
//! See the [`lint`] module's rule table and the README's "Correctness
//! tooling" section.

#![deny(missing_docs)]

pub mod lint;
