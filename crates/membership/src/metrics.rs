//! Hand-off phase instruments.
//!
//! [`TransferMetrics`] bundles one latency histogram per phase of the
//! journaled hand-off (export → install → commit).
//! The crate itself never observes into them — it is transport-agnostic and
//! has no clock of the exchange — the *driver* does: `rdht-net`'s peer loop
//! times [`crate::export_handoff`], the install round trips, and
//! [`crate::commit_handoff`] around its calls and observes the wall time
//! here, so a scrape shows where a slow membership change spent its time.

use rdht_metrics::{Histogram, Registry};

/// Canonical instrument names, also listed in the README's catalog.
pub mod names {
    /// Wall time of the export phase (copying replicas, draining counters,
    /// syncing the removals), in nanoseconds.
    pub const EXPORT_NS: &str = "membership_handoff_export_ns";
    /// Wall time of the install phase — shipping the bundle and waiting for
    /// the target's durable ack, including re-sends — in nanoseconds.
    pub const INSTALL_NS: &str = "membership_handoff_install_ns";
    /// Wall time of the commit phase (directory flip, journal prune, commit
    /// sync), in nanoseconds.
    pub const COMMIT_NS: &str = "membership_handoff_commit_ns";
}

/// Per-phase duration histograms of one peer's hand-offs. Create with
/// [`TransferMetrics::register`]; the driver observes a duration into each
/// phase's histogram as the transfer passes through it.
#[derive(Clone, Debug)]
pub struct TransferMetrics {
    /// Export-phase wall time, nanoseconds.
    pub export_ns: Histogram,
    /// Install-phase wall time (ship + durable ack, with re-sends),
    /// nanoseconds.
    pub install_ns: Histogram,
    /// Commit-phase wall time, nanoseconds.
    pub commit_ns: Histogram,
}

impl TransferMetrics {
    /// Registers (get-or-create) the phase histograms into `registry` under
    /// `labels`.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        TransferMetrics {
            export_ns: registry.histogram(
                names::EXPORT_NS,
                "hand-off export phase wall time, nanoseconds",
                labels,
            ),
            install_ns: registry.histogram(
                names::INSTALL_NS,
                "hand-off install phase wall time (ship + durable ack), nanoseconds",
                labels,
            ),
            commit_ns: registry.histogram(
                names::COMMIT_NS,
                "hand-off commit phase wall time, nanoseconds",
                labels,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_register_and_expose() {
        let registry = Registry::new();
        let metrics = TransferMetrics::register(&registry, &[("peer", "3")]);
        metrics.export_ns.observe(1_000);
        metrics.install_ns.observe(2_000_000);
        metrics.commit_ns.observe(500);
        let text = rdht_metrics::encode(&registry);
        assert!(text.contains("membership_handoff_export_ns_count{peer=\"3\"} 1"));
        assert!(text.contains("membership_handoff_install_ns_sum{peer=\"3\"} 2000000"));
        assert!(text.contains("membership_handoff_commit_ns_count{peer=\"3\"} 1"));
    }
}
