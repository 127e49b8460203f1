//! Per-peer instruments of the cluster runtime.
//!
//! Every peer owns one `rdht_metrics::Registry` holding its whole
//! observable state: the request counters and service-time histograms
//! maintained by the peer loop, including the hand-off phase durations
//! (this module), and — registered as *shared
//! handles* — the storage engine's WAL/compaction instruments
//! (`rdht_storage::StorageMetrics`), the cluster-wide dedup totals and the
//! fault plan counters. A scrape ([`crate::Request::Metrics`], answered with the
//! Prometheus text exposition) or [`crate::Cluster::registry`] reads them
//! all from one place.
//!
//! Instruments are registered **eagerly** at peer start, so a series that
//! has seen no event yet (a peer that never drove a hand-off, a cluster
//! without faults) still appears in the exposition at zero — monitoring can
//! assert on presence, not just on values.

use rdht_metrics::{exponential_buckets, Counter, Histogram, Registry};

use crate::message::{Request, RequestKind};

/// Canonical instrument names, also listed in the README's catalog.
pub mod names {
    /// Requests processed by the peer loop, labeled by `kind`.
    pub const REQUESTS: &str = "net_requests_total";
    /// Distribution of drained batch sizes — the group-commit batch depth
    /// as the peer loop sees it.
    pub const DRAIN_BATCH: &str = "net_drain_batch_depth";
    /// Service time of one transport message (routing, dedup, apply), in
    /// nanoseconds, excluding the covering batch fsync.
    pub const SERVICE_NS: &str = "net_request_service_ns";
    /// Identified mutations applied exactly once (cluster-wide; every
    /// peer's exposition mirrors the same shared counter).
    pub const DEDUP_APPLIED: &str = "net_dedup_applied_total";
    /// Retried or duplicated mutations answered from the dedup cache
    /// (cluster-wide, shared like [`DEDUP_APPLIED`]).
    pub const DEDUP_SUPPRESSED: &str = "net_dedup_suppressed_total";
    /// Nanoseconds the peer loop stalled waiting for hand-off install acks:
    /// the time a join or leave keeps the source from serving anything.
    pub const HANDOFF_STALL_NS: &str = "net_handoff_stall_ns_total";
    /// Indirect counter initializations served by this peer (a timestamp
    /// request that had to be answered from a gathered observation instead
    /// of a valid live counter — the Section 4.2.2 recovery path).
    pub const INDIRECT_INITS: &str = "net_indirect_initializations_total";
    /// Messages a client handle exchanged (requests and replies counted
    /// separately). Client-side; see [`crate::ClusterClient::attach_metrics`].
    pub const CLIENT_MESSAGES: &str = "net_client_messages_total";
    /// Retry attempts a client made beyond each call's first attempt.
    pub const CLIENT_RETRIES: &str = "net_client_retries_total";
    /// Calls that spent their whole retry budget without a usable reply.
    pub const CLIENT_RETRY_EXHAUSTIONS: &str = "net_client_retry_exhaustions_total";
    /// Indirect initializations this client ran (gathered the replicas'
    /// maximum timestamp after a `NeedsInitialization`).
    pub const CLIENT_INDIRECT_INITS: &str = "net_client_indirect_initializations_total";
    /// Frames the fault plan passed through to the real transport.
    pub const FAULT_DELIVERED: &str = "net_fault_frames_delivered_total";
    /// Frames the fault plan silently dropped (including partitions).
    pub const FAULT_DROPPED: &str = "net_fault_frames_dropped_total";
    /// Frames the fault plan held back before delivery.
    pub const FAULT_DELAYED: &str = "net_fault_frames_delayed_total";
    /// Frames the fault plan delivered a second time.
    pub const FAULT_DUPLICATED: &str = "net_fault_frames_duplicated_total";
    /// Wall time of a hand-off's export phase (copying replicas, draining
    /// counters, syncing the removals), in nanoseconds.
    pub const HANDOFF_EXPORT_NS: &str = "membership_handoff_export_ns";
    /// Wall time of a hand-off's install phase — shipping the bundle and
    /// waiting for the target's durable ack, including re-sends — in
    /// nanoseconds.
    pub const HANDOFF_INSTALL_NS: &str = "membership_handoff_install_ns";
    /// Wall time of a hand-off's commit phase (directory flip, journal
    /// prune, commit sync), in nanoseconds.
    pub const HANDOFF_COMMIT_NS: &str = "membership_handoff_commit_ns";
}

/// Per-kind request counters, registered eagerly so every kind appears in
/// the exposition from the first scrape.
#[derive(Clone, Debug)]
pub struct RequestCounters {
    /// One counter per request kind, in kind-table order. Kinds that share
    /// a label hold the same series: registration is get-or-create.
    by_kind: Vec<Counter>,
}

impl RequestCounters {
    fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        let by_kind = RequestKind::ALL
            .iter()
            .map(|kind| {
                let mut with_kind: Vec<(&str, &str)> = labels.to_vec();
                with_kind.push(("kind", kind.row().label));
                registry.counter(
                    names::REQUESTS,
                    "requests processed by the peer loop, by kind",
                    &with_kind,
                )
            })
            .collect();
        RequestCounters { by_kind }
    }

    /// The counter of `request`'s kind. A frame counts once, under its own
    /// kind: the constituents of a `Batch` (like those of a `PutReplicas`)
    /// are not counted again.
    pub fn of(&self, request: &Request) -> &Counter {
        &self.by_kind[request.kind() as usize]
    }
}

/// The instrument bundle one peer thread carries: everything it observes
/// into, plus the [`Registry`] it answers scrapes from.
#[derive(Clone, Debug)]
pub struct PeerMetrics {
    registry: Registry,
    /// Requests processed, by kind.
    pub requests: RequestCounters,
    /// Drained batch sizes.
    pub drain_batch: Histogram,
    /// Per-message service time, nanoseconds.
    pub service_ns: Histogram,
    /// Nanoseconds stalled waiting for install acks.
    pub handoff_stall_ns: Counter,
    /// Indirect initializations served by this peer.
    pub indirect_initializations: Counter,
    /// Hand-off export-phase wall time, nanoseconds. The phase functions
    /// ([`crate::handoff`]) have no clock; the peer loop times each phase
    /// around its call.
    pub handoff_export_ns: Histogram,
    /// Hand-off install-phase wall time (ship + durable ack, with
    /// re-sends), nanoseconds.
    pub handoff_install_ns: Histogram,
    /// Hand-off commit-phase wall time, nanoseconds.
    pub handoff_commit_ns: Histogram,
}

impl PeerMetrics {
    /// Registers the peer-loop instruments (and the hand-off phase
    /// histograms) into `registry` under `labels`, eagerly.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        PeerMetrics {
            requests: RequestCounters::register(registry, labels),
            drain_batch: registry.histogram_with_buckets(
                names::DRAIN_BATCH,
                "drained group-commit batch sizes",
                labels,
                exponential_buckets(1, 2, 11),
            ),
            service_ns: registry.histogram(
                names::SERVICE_NS,
                "per-message service time (routing, dedup, apply), nanoseconds",
                labels,
            ),
            handoff_stall_ns: registry.counter(
                names::HANDOFF_STALL_NS,
                "nanoseconds stalled waiting for hand-off install acks",
                labels,
            ),
            indirect_initializations: registry.counter(
                names::INDIRECT_INITS,
                "indirect counter initializations served (Section 4.2.2 path)",
                labels,
            ),
            handoff_export_ns: registry.histogram(
                names::HANDOFF_EXPORT_NS,
                "hand-off export phase wall time, nanoseconds",
                labels,
            ),
            handoff_install_ns: registry.histogram(
                names::HANDOFF_INSTALL_NS,
                "hand-off install phase wall time (ship + durable ack), nanoseconds",
                labels,
            ),
            handoff_commit_ns: registry.histogram(
                names::HANDOFF_COMMIT_NS,
                "hand-off commit phase wall time, nanoseconds",
                labels,
            ),
            registry: registry.clone(),
        }
    }

    /// The registry the instruments live in — what a
    /// [`crate::Request::Metrics`] scrape encodes.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rdht_hashing::{HashId, Key};
    use rdht_metrics::Registry;

    use super::{names, PeerMetrics};
    use crate::message::Request;

    #[test]
    fn phases_register_and_expose() {
        let registry = Registry::new();
        let metrics = PeerMetrics::register(&registry, &[("peer", "3")]);
        metrics.handoff_export_ns.observe(1_000);
        metrics.handoff_install_ns.observe(2_000_000);
        metrics.handoff_commit_ns.observe(500);
        let text = rdht_metrics::encode(&registry);
        assert!(text.contains("membership_handoff_export_ns_count{peer=\"3\"} 1"));
        assert!(text.contains("membership_handoff_install_ns_sum{peer=\"3\"} 2000000"));
        assert!(text.contains("membership_handoff_commit_ns_count{peer=\"3\"} 1"));
    }

    /// The `net_requests_total` series of `registry`, by `kind` label.
    fn request_series(registry: &Registry) -> BTreeMap<String, f64> {
        let exposition =
            rdht_metrics::parse::parse(&rdht_metrics::encode(registry)).expect("exposition parses");
        exposition
            .samples
            .iter()
            .filter(|sample| sample.name == names::REQUESTS)
            .map(|sample| {
                let (_, kind) = sample
                    .labels
                    .iter()
                    .find(|(name, _)| name == "kind")
                    .expect("every request series has a kind");
                (kind.clone(), sample.value)
            })
            .collect()
    }

    /// A fresh peer exposes exactly the nine request series at zero, and
    /// each request counts under its kind's series: variants that share a
    /// kind, or kinds that share a label, share the series.
    #[test]
    fn request_series_are_nine_labels_and_shared_kinds_share_one() {
        let registry = Registry::new();
        let metrics = PeerMetrics::register(&registry, &[("peer", "p")]);
        let labels = [
            "put",
            "puts",
            "get",
            "timestamp",
            "handoff",
            "install",
            "metrics",
            "batch",
            "lifecycle",
        ];
        let fresh: BTreeMap<String, f64> = labels.map(|label| (label.to_string(), 0.0)).into();
        assert_eq!(request_series(&registry), fresh);

        let key = Key::new("pinned");
        let requests = [
            (
                Request::GetReplica {
                    hash: HashId(1),
                    key: key.clone(),
                },
                "get",
            ),
            (
                Request::StampAndPut {
                    op: None,
                    key,
                    observation_hint: None,
                    hashes: vec![HashId(1), HashId(2)],
                    payload: b"v".to_vec(),
                },
                "timestamp",
            ),
            (Request::Metrics, "metrics"),
            (Request::SlowRequests { k: 4 }, "metrics"),
            (Request::Batch(Vec::new()), "batch"),
            (Request::Crash, "lifecycle"),
            (Request::Shutdown, "lifecycle"),
        ];
        for (request, label) in requests {
            let before = request_series(&registry);
            metrics.requests.of(&request).inc();
            let after = request_series(&registry);
            assert_eq!(after.len(), labels.len(), "{request:?} added a series");
            for (kind, value) in &after {
                let moved = if kind == label { 1.0 } else { 0.0 };
                assert_eq!(value - before[kind], moved, "{request:?} under {kind}");
            }
        }
    }
}
