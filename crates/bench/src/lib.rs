//! The experiment harness: one module per table/figure of the paper's
//! evaluation (Section 5), plus shared result types and rendering.
//!
//! Each experiment builds the workload described in the paper (Table 1 as the
//! base configuration, one parameter swept per figure), runs the simulator,
//! and reports the same series the paper plots:
//!
//! | Experiment | Paper | Swept parameter | Metric |
//! |---|---|---|---|
//! | [`experiments::table1`] | Table 1 | — | simulation parameters |
//! | [`experiments::fig6`] | Figure 6 | peers 10–64 (cluster) | response time |
//! | [`experiments::fig7_fig8`] | Figures 7–8 | peers 2,000–10,000 | response time, messages |
//! | [`experiments::fig9_fig10`] | Figures 9–10 | replicas 5–40 | response time, messages |
//! | [`experiments::fig11`] | Figure 11 | failure rate 5–90 % | response time |
//! | [`experiments::fig12`] | Figure 12 | update frequency 1/16–4 per hour | response time |
//! | [`experiments::theorem1`] | Theorem 1 / Eq. 1–5 | churn (⇒ p_t) | probes vs bound |
//!
//! Every experiment accepts a [`Scale`]: `Quick` shrinks peer counts and
//! durations so the whole suite runs in seconds (CI), `Paper`
//! uses the paper's sizes (10,000 peers). The absolute times differ from the
//! published numbers — the network model is a simulator, not the authors'
//! 2007 testbed — but the orderings, growth trends and crossovers are the
//! comparison targets, recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod experiments;
pub mod parallel;
mod result;

pub use result::{BenchMeta, ExperimentResult, Series};

/// How large an experiment run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small populations and short durations — the full suite runs in seconds.
    Quick,
    /// The paper's populations (up to 10,000 peers) and longer simulated
    /// durations. A full suite run takes a few minutes.
    Paper,
}

impl Scale {
    /// Parses a command-line flag.
    pub fn from_flag(paper: bool) -> Self {
        if paper {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }
}
