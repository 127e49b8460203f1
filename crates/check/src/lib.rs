//! `rdht-check` — correctness tooling for the workspace, in the house
//! shim idiom (stable std, zero external deps). Two engines:
//!
//! 1. **Model checker** ([`model`], [`model_with`], [`model_expect_violation`]):
//!    a loom-style bounded exhaustive scheduler over instrumented
//!    [`sync`]/[`cell`]/[`thread`] types. Consuming crates alias these in
//!    under `cfg(rdht_model)` and write model tests that the scheduler
//!    drives through every interleaving (bounded by a preemption budget,
//!    pruned by a DPOR-lite sleep set), with C11-lite weak-memory
//!    semantics for atomics and vector-clock race detection for
//!    [`cell::UnsafeCell`]. Violations replay deterministically and print
//!    the failing interleaving.
//!
//! 2. **Invariant linter** ([`lint`]): `rdht-check lint` walks the
//!    workspace source line-by-line and enforces project rules clippy
//!    cannot express (logging discipline, function length, virtual time
//!    in the simulator, justified relaxed orderings). See the [`lint`]
//!    module's rule table and the README's "Correctness tooling" section.

#![deny(missing_docs)]

pub mod cell;
mod exec;
pub mod lazy;
pub mod lint;
pub mod sync;
pub mod thread;

pub use exec::{Config, Report};

/// Exhaustively explores every schedule of `f` under the default
/// [`Config`] (preemption bound 3). Panics — printing the failing
/// interleaving — if any schedule panics, deadlocks, or races.
///
/// `f` runs once per schedule, from scratch, on a fresh model state; it
/// must be deterministic apart from the modeled concurrency (no wall
/// clock, no process-global mutable state outside [`lazy::Lazy`]).
pub fn model(f: impl Fn()) {
    model_with(Config::default(), f);
}

/// [`model`] with an explicit [`Config`]; returns exploration statistics.
pub fn model_with(cfg: Config, f: impl Fn()) -> Report {
    let (report, failure) = exec::explore(cfg, f);
    if let Some(message) = failure {
        panic!("{message}");
    }
    report
}

/// Explores and returns the violation (if any) without panicking either
/// way — for tests probing coverage/bound trade-offs.
pub fn exec_probe(cfg: Config, f: impl Fn()) -> Option<String> {
    exec::explore(cfg, f).1
}

/// Runs the exploration *expecting* a violation and returns its report
/// (reason plus interleaving). Panics if every schedule passes — this is
/// the mutation-test entry point proving the checker can fail.
pub fn model_expect_violation(cfg: Config, f: impl Fn()) -> String {
    let (report, failure) = exec::explore(cfg, f);
    failure.unwrap_or_else(|| {
        panic!(
            "expected a model violation, but all {} schedule(s) ({} ops) passed",
            report.schedules, report.ops
        )
    })
}
