//! A discrete-event simulator for UMS/KTS over Chord — the analogue of the
//! SimJava simulation the paper uses to scale its evaluation to 10,000 peers
//! (Section 5.1).
//!
//! The simulator owns:
//!
//! * a Chord overlay (`rdht-overlay`) whose routing state degrades under
//!   churn and is repaired by periodic stabilization;
//! * per-peer state (`rdht-core` KTS nodes and `rdht-overlay` replica
//!   stores) for **three parallel algorithm universes** sharing the same
//!   churn and update history: UMS with direct counter initialization, UMS
//!   with indirect counter initialization, and the BRK baseline;
//! * a network model pricing every message with a normally distributed
//!   latency plus a bandwidth term (Table 1: latency ~ N(200 ms, 100),
//!   bandwidth ~ N(56 kbps, 32)), and a timeout penalty for probes sent to
//!   failed peers;
//! * Poisson processes for peer departures (λ = 1/s, each departure is a
//!   failure with probability `failure_rate`, and is immediately compensated
//!   by a fresh join so the population stays constant) and for updates on
//!   each data item (λ = 1/hour by default);
//! * a query workload issuing `retrieve` operations at uniformly random
//!   times from random peers, measuring response time and message count for
//!   each algorithm — the two metrics every figure of the paper reports.
//!
//! The measured operations run the *real* library code: queries call
//! [`rdht_core::ums::retrieve`] and [`rdht_core::brk::retrieve`]; updates call
//! [`rdht_core::ums::insert`] and [`rdht_core::brk::insert`] — all through
//! [`SimAccess`], the one [`rdht_core::UmsAccess`] of the simulator, which
//! executes lookups against the simulated overlay and accumulates simulated
//! time and messages.
//!
//! # Example
//!
//! ```
//! use rdht_sim::{Algorithm, SimConfig, Simulation};
//!
//! let config = SimConfig::small_test(64, 7);
//! let mut sim = Simulation::new(config);
//! let report = sim.run();
//! let ums = report.summary(Algorithm::UmsDirect);
//! let brk = report.summary(Algorithm::Brk);
//! assert!(ums.mean_response_time <= brk.mean_response_time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod algo;
mod config;
mod membership;
pub mod metrics;
mod network;
pub mod peer;
pub mod rng;
mod scheduler;
mod simulation;

pub use access::SimAccess;
pub use algo::Algorithm;
pub use config::{NetworkProfile, SimConfig};
pub use metrics::{QuerySample, RunStats, SimulationReport, SummaryStatistics};
pub use network::NetworkModel;
pub use peer::PeerState;
pub use scheduler::{Event, EventQueue};
pub use simulation::Simulation;

#[cfg(test)]
mod tests;
