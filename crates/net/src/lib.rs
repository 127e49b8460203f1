//! A threaded, message-passing deployment of UMS/KTS — the in-process
//! analogue of the paper's 64-node cluster experiment (Section 5.2).
//!
//! Every peer of a [`Cluster`] is a real OS thread with a [`Mailbox`], and
//! everything that reaches a mailbox travels through a pluggable
//! [`Transport`]. Clients ([`ClusterClient`]) talk to peers only by sending
//! messages: replica reads and writes go to the peer currently responsible
//! for the key, timestamp requests go to the responsible of timestamping,
//! and network latency is modelled by a [`FaultPlan`] on the transport.
//! Unlike the discrete-event simulator, nothing here is virtual time:
//! concurrency, interleavings and races are real, which is what this crate
//! is for — validating that the UMS/KTS logic (which is the *same*
//! `rdht-core` code the simulator runs) behaves correctly when updates and
//! retrievals genuinely race and when the timestamping responsible genuinely
//! crashes mid-workload.
//!
//! ## Which file owns what
//!
//! * `peer.rs` — one peer: its state, the drain → apply → covering sync →
//!   reply loop, one handler per request kind, one path that takes a frame
//!   of several requests apart, and the one definition of each protocol
//!   rule (exactly-once, routing, ack-after-sync, hand-off).
//! * `cluster.rs` — the coordinator: [`ClusterConfig`], the membership
//!   directory, and spawn / crash / restart / join / leave.
//! * `client.rs` — [`ClusterClient`]: `UmsAccess` over messages, with
//!   deadlines, retries and overlapped calls, one frame per peer per round.
//! * `transport.rs`, `tcp.rs`, `wire.rs`, `fault.rs` — how messages travel;
//!   `message.rs`, `metrics.rs` — what they say and what a peer counts.
//!
//! ## Transports
//!
//! The peer loop, re-sends, hand-offs and crash/restart are written once
//! against the [`Transport`] trait (bind a peer to get its [`Mailbox`],
//! resolve a [`PeerEndpoint`] to send and await replies). Two backends
//! implement it:
//!
//! * [`ChannelTransport`] — an in-process mailbox mesh over channels: no
//!   serialization, no sockets, deterministic and fast. The default
//!   ([`TransportKind::Channel`]).
//! * [`TcpTransport`] — length-framed TCP ([`wire`], a deterministic
//!   versioned binary codec) over loopback or the network: per-peer
//!   acceptor threads, replies read by the thread that waits for them (on
//!   its own connections, see `tcp.rs`), and typed rejection of garbage or
//!   oversized frames ([`WireError`]) — a hostile client costs one dropped
//!   connection, never a peer. Select it with
//!   [`ClusterConfig::with_transport`], or run real multi-process
//!   deployments via [`serve_tcp_peer`] + [`ClusterClient::connect_tcp`]
//!   (see `examples/tcp_cluster.rs`).
//!
//! The transport conformance suite (`tests/conformance.rs`) asserts the
//! same behavioural contract — pipelined request/reply matching, concurrent
//! clients, typed failures on crash and after a graceful leave, re-sends by
//! a join source — against both backends.
//!
//! ## Deployment model
//!
//! The cluster uses a shared membership directory (all peers know the sorted
//! peer identifiers, as on a real 64-node cluster) with
//! successor-on-the-ring responsibility, i.e. a one-hop DHT: clients resolve
//! `rsp(k, h)` locally and send one message. The full multi-hop Chord
//! routing is exercised by `rdht-overlay` and `rdht-sim`; this crate focuses
//! on real concurrency. When the KTS responsible finds no valid counter for
//! a key it cannot prove never stamped (one outside its founding arc, see
//! [`Cluster::spawn_with`]), it answers `NeedsInitialization` and the
//! *client* gathers the indirect observation (reading the replicas) before
//! retrying — functionally the indirect algorithm of Section 4.2.2,
//! restructured so that peer threads never block on each other.
//!
//! Requests that do not need each other's answers are overlapped: the
//! client sends them all, then blocks once on a countdown latch until the
//! last reply (or the per-attempt deadline) releases it. A `retrieve` asks
//! KTS for `last_ts` and probes the first replica in the same round trip
//! (two one-way delays to a current answer, not four), the indirect
//! observation reads its `|Hr|` replicas in one, and so does an insert's
//! put round. The requests are the sequential algorithm's; what changes is
//! their timing and their packing: a round costs **one frame per
//! destination peer**. Requests of a round that resolve to the same peer
//! travel as one [`Request::Batch`], answered by one [`Reply::Batch`] — or,
//! when they are one insert's puts, as one [`Request::PutReplicas`]
//! carrying the payload once, answered by one [`Reply::PutsAck`]. The peer
//! takes either apart, and the puts a [`Request::StampAndPut`] carries,
//! along one path: each unit routes, deduplicates and traces as if it had
//! come alone, and one reply is assembled from theirs in request order
//! ([`ReplySink::collect`]). Figure 2
//! leaves the probe order open, so a `retrieve` probes first a replica that
//! lives on the timestamping peer whenever there is one
//! (`UmsAccess::first_probe`) — its opening is then one frame each way.
//! [`ClusterClient::messages`] counts frames: one per request frame the
//! transport accepted, one per reply frame that answered. An `insert` pays
//! `gen_ts` *then* the puts — the puts carry the stamp — except on the peer
//! that generates it: when that peer holds replicas, the `gen_ts` request
//! carries the payload ([`Request::StampAndPut`]) and the peer stores them
//! with the fresh stamp, so the put round only reaches the other holders
//! (and is skipped when there are none).
//!
//! ## Elastic membership
//!
//! The ring is not a fixed deployment: [`Cluster::join_peer`] adds a live
//! peer (its successor splits its range and ships the covered replicas and
//! counters through the journaled hand-off of [`handoff`]) and
//! [`Cluster::leave_peer`] runs the **direct algorithm** of Section 4.2.1 —
//! the departing peer hands every counter straight to its successor, so the
//! graceful path causes **zero** indirect re-initializations. The commit
//! point of either hand-off flips the shared directory inside the peer's
//! serial request loop. The directory is the only routing state: a peer
//! that has handed a range away re-sends a request routed to it under the
//! old view to whoever the directory names now, and drops its reply path —
//! a typed failure the client retries — when that peer cannot be reached;
//! it never serves the range from its own pruned store. A departed peer
//! re-sends what is already queued and exits at its leave, as after a
//! crash. A peer killed mid-transfer restarts from its journal and the
//! transfer either rolls back (nothing shipped: the source still holds every
//! replica) or completes (the target already journaled the bundle; a
//! retried join/leave converges).
//!
//! ## Durability and crash/restart
//!
//! With [`ClusterConfig::storage`] set, every peer journals its replicas and
//! counter mutations to its own `rdht-storage` directory (write-ahead log +
//! snapshot compaction). [`Cluster::crash_peer`] fail-stops a peer thread
//! with no final flush; [`Cluster::restart_peer`] recovers the peer's
//! durable state from disk (tolerating a torn WAL tail) and respawns it. The
//! restarted peer serves its recovered replicas immediately, but — per the
//! paper's Rule 1 — its live Valid Counter Set starts empty: the durable
//! counter images may be stale (another peer may have generated newer
//! timestamps while it was down), so the first timestamp request per key
//! takes the observable indirect-initialization path of Section 4.2.2
//! against the (durable) replicas.
//!
//! Under `FsyncPolicy::Always`, the default, every peer runs its request
//! loop in **drain-apply-sync-reply** mode (group commit): the queued data
//! requests (at most [`rdht_storage::MAX_BATCH`]) are drained, applied and
//! journaled, made durable by a single covering fsync, and only then
//! acknowledged. N concurrent writers share one fsync instead of paying one
//! each; the `storage` bench bin's `*_always_w*` rows sweep the writer
//! count. Under `FsyncPolicy::Never` a peer serves one request at a time
//! and leaves flushing to the OS.
//!
//! ## Observability
//!
//! Every peer carries an `rdht-metrics` registry
//! ([`metrics::PeerMetrics`]): request counts by kind, drained batch sizes
//! of the group-commit loop, per-message service-time histograms, hand-off
//! phase durations and stall time, indirect counter initializations, and —
//! as shared handles — the storage engine's WAL instruments, the
//! cluster-wide dedup totals and the fault-plan counters. Scrape
//! a peer in-process with [`Cluster::scrape`], or over the wire (either
//! transport) with [`ClusterClient::scrape_metrics`], which sends
//! [`Request::Metrics`] and returns the Prometheus text exposition (see
//! `examples/metrics.rs`).
//!
//! ```
//! use rdht_core::ums;
//! use rdht_hashing::Key;
//! use rdht_net::Cluster;
//!
//! let cluster = Cluster::spawn(8, 5, 42);
//! let mut client = cluster.client();
//! let key = Key::new("agenda:kickoff");
//! ums::insert(&mut client, &key, b"10:00".to_vec()).unwrap();
//! ums::insert(&mut client, &key, b"11:00".to_vec()).unwrap();
//! let got = ums::retrieve(&mut client, &key).unwrap();
//! assert!(got.is_current);
//! assert_eq!(got.data.unwrap(), b"11:00");
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{LockResult, PoisonError};

mod client;
mod cluster;
mod error;
pub mod fault;
pub mod handoff;
mod message;
pub mod metrics;
mod peer;
mod tcp;
mod transport;
pub mod wire;

pub use client::{ClusterClient, RetryPolicy};
pub use cluster::{
    serve_tcp_peer, Cluster, ClusterConfig, ClusterStorage, DedupCounters, JoinReport, LeaveReport,
    PeerId, RestartReport, TcpPeerConfig, TransportKind,
};
pub use error::MembershipError;
pub use fault::{End, FaultCounters, FaultPlan, FaultyTransport, LinkFaults};
pub use message::{HandoffFault, HandoffKind, OpId, Reply, Request};
pub use metrics::{PeerMetrics, RequestCounters};
pub use rdht_metrics::{
    merge_chrome_trace_files, RequestTree, TraceConfig, TraceContext, TraceSink,
};
pub use tcp::TcpTransport;
pub use transport::{
    CallError, ChannelTransport, EndpointImpl, Incoming, Mailbox, PeerEndpoint, PendingReply,
    ReplyHook, ReplySink, ReplyWriter, SendRejected, Transport, TransportError,
};
pub use wire::{WireError, MAX_FRAME_LEN, WIRE_VERSION};

/// The crate's one poison rule: a lock whose holder panicked is taken over
/// as it stands. Each critical section here leaves its state coherent at
/// every step (one insert, take, assignment or decrement at a time), so the
/// guard of a poisoned lock is as good as any other, and a thread that
/// panicked must not take every thread sharing the lock down with it.
pub(crate) fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod wire_proptests;
