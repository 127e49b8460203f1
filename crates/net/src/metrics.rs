//! Per-peer instruments of the cluster runtime.
//!
//! Every peer owns one `rdht_metrics::Registry` holding its whole
//! observable state: the request counters and service-time histograms
//! maintained by the peer loop (this module), the hand-off phase durations
//! (`rdht_membership::TransferMetrics`), and — registered as *shared
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

use rdht_membership::TransferMetrics;
use rdht_metrics::{exponential_buckets, Counter, Histogram, Registry};

use crate::message::Request;

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
    /// Nanoseconds the peer loop stalled waiting for hand-off install acks
    /// — the hand-off stall time of ROADMAP item 5.
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
}

/// Per-kind request counters, registered eagerly so every kind appears in
/// the exposition from the first scrape.
#[derive(Clone, Debug)]
pub struct RequestCounters {
    put: Counter,
    puts: Counter,
    get: Counter,
    timestamp: Counter,
    handoff: Counter,
    install: Counter,
    metrics: Counter,
    batch: Counter,
    lifecycle: Counter,
}

impl RequestCounters {
    fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        let kind = |kind: &str| -> Counter {
            let mut with_kind: Vec<(&str, &str)> = labels.to_vec();
            with_kind.push(("kind", kind));
            registry.counter(
                names::REQUESTS,
                "requests processed by the peer loop, by kind",
                &with_kind,
            )
        };
        RequestCounters {
            put: kind("put"),
            puts: kind("puts"),
            get: kind("get"),
            timestamp: kind("timestamp"),
            handoff: kind("handoff"),
            install: kind("install"),
            metrics: kind("metrics"),
            batch: kind("batch"),
            lifecycle: kind("lifecycle"),
        }
    }

    /// The counter of `request`'s kind. A frame counts once, under its own
    /// kind: the constituents of a `Batch` (like those of a `PutReplicas`)
    /// are not counted again.
    pub fn of(&self, request: &Request) -> &Counter {
        match request {
            Request::PutReplica { .. } => &self.put,
            Request::PutReplicas { .. } => &self.puts,
            Request::GetReplica { .. } => &self.get,
            Request::Timestamp { .. } | Request::StampAndPut { .. } => &self.timestamp,
            Request::HandoffRange { .. } => &self.handoff,
            Request::InstallState { .. } => &self.install,
            Request::Metrics | Request::SlowRequests { .. } => &self.metrics,
            Request::Batch(_) => &self.batch,
            Request::Shutdown | Request::Crash => &self.lifecycle,
        }
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
    /// Hand-off phase durations (driven by the peer loop).
    pub transfer: TransferMetrics,
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
            transfer: TransferMetrics::register(registry, labels),
            registry: registry.clone(),
        }
    }

    /// The registry the instruments live in — what a
    /// [`crate::Request::Metrics`] scrape encodes.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}
