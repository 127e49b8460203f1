//! Protocol messages exchanged between clients and peers.
//!
//! Since the transport redesign these are **pure data**: a request names
//! peers by [`PeerId`] and carries no channels, so the same value can travel
//! over an in-process mailbox or be encoded onto a TCP stream by the wire
//! codec ([`crate::wire`]). The reply path travels *next to* the request as
//! a [`crate::ReplySink`] (in-process) or as the request id of the framed
//! envelope (on the wire).
//!
//! One frame carries one [`Request`] and is answered by one [`Reply`]. Two
//! requests are containers the receiving peer takes apart: a
//! [`Request::PutReplicas`] is the same payload for several hashes, answered
//! by a count; a [`Request::Batch`] is any data requests bound for one peer,
//! answered by their replies in order ([`Reply::Batch`]).

use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};
use rdht_membership::HandoffBundle;
use rdht_metrics::TraceContext;

use crate::cluster::PeerId;

/// Identity of one logical mutating operation, carried by the request (and
/// every retry of it) so the receiving peer can deduplicate: a retried or
/// duplicated mutation is applied once and re-acknowledged from a cached
/// reply. Clients and coordinating peers each own a `client` namespace and
/// allocate `seq` monotonically; a *new* logical operation always gets a
/// fresh `seq`, while every re-send of the *same* operation repeats it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpId {
    /// The issuing actor (a client handle, or a peer driving a hand-off).
    pub client: u64,
    /// Sequence number of the operation within that actor.
    pub seq: u64,
}

/// Which membership operation a [`Request::HandoffRange`] implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffKind {
    /// A join: the receiving peer (the joiner's successor) splits its range,
    /// ships the counter-clockwise half to the joiner, and registers the
    /// joiner in the directory at the commit point.
    Join,
    /// A graceful leave: the receiving peer (the one departing) ships its
    /// whole range to its successor, unregisters itself at the commit point
    /// and lingers as a forwarder until the cluster shuts down.
    Leave,
}

/// Fault injection for crash-recovery tests: fail-stop the peer driving a
/// hand-off at a chosen phase boundary, exactly as if it crashed there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffFault {
    /// Crash after exporting the bundle (counters durably drained, replicas
    /// still in place, nothing shipped): the transfer must roll back.
    CrashAfterExport,
    /// Crash after the target acknowledged the install but before the
    /// commit: the target's journal already holds the state and the
    /// transfer must complete on retry.
    CrashAfterInstall,
}

/// A request sent to a peer. Every in-flight request has an associated reply
/// path — a [`crate::ReplySink`] delivered alongside it by the transport.
///
/// Data requests (`PutReplica`, `PutReplicas`, `GetReplica`, `Timestamp`)
/// may be drained into a group-commit batch when the peer's storage runs
/// `FsyncPolicy::GroupCommit`: the peer applies and journals the whole
/// batch, issues one covering fsync, and only then sends the replies — so
/// an acknowledgement always means "durable", regardless of how many
/// requests shared the fsync. Protocol and lifecycle messages never batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Store a stamped replica; the peer keeps it only if the stamp is newer
    /// than what it already holds (UMS `put_h` semantics).
    PutReplica {
        /// Dedup identity of the logical put; `None` for fire-and-forget
        /// senders that never retry.
        op: Option<OpId>,
        /// Replication hash function the replica is stored under.
        hash: HashId,
        /// The application key.
        key: Key,
        /// Replica payload.
        payload: Vec<u8>,
        /// KTS timestamp of the payload.
        timestamp: Timestamp,
    },
    /// Store the same stamped payload under several replication hash
    /// functions in **one** request — the batched fan-out half of a UMS
    /// insert. The client groups the `|Hr|` replica puts of an insert by
    /// responsible peer and ships one `PutReplicas` per peer; the receiving
    /// peer answers a single [`Reply::PutsAck`] once every constituent put
    /// was applied (or forwarded and acknowledged by the peer now
    /// responsible for it).
    PutReplicas {
        /// Dedup identity of the logical batched put. The constituent
        /// per-hash puts inherit it, each disambiguated by its hash — so a
        /// retried batch that is *regrouped* under a changed directory view
        /// still deduplicates per constituent.
        op: Option<OpId>,
        /// The replication hash functions to store the payload under.
        hashes: Vec<HashId>,
        /// The application key.
        key: Key,
        /// Replica payload (shared by every constituent put).
        payload: Vec<u8>,
        /// KTS timestamp of the payload.
        timestamp: Timestamp,
    },
    /// Read the replica stored under `(hash, key)`.
    GetReplica {
        /// Replication hash function to read under.
        hash: HashId,
        /// The application key.
        key: Key,
    },
    /// KTS `gen_ts` / `last_ts` request. If the peer has no valid counter for
    /// the key it answers [`Reply::NeedsInitialization`] and the client
    /// gathers the indirect observation before retrying with
    /// `observation_hint`.
    Timestamp {
        /// Dedup identity of a `gen_ts` (set only when `generate` — a
        /// counter increment must not be re-applied on a retry; the cached
        /// reply returns the *same* timestamp instead). `last_ts` is a pure
        /// read and carries `None`.
        op: Option<OpId>,
        /// The application key.
        key: Key,
        /// True for `gen_ts`, false for `last_ts`.
        generate: bool,
        /// Largest timestamp the client observed among the key's replicas
        /// (the indirect initialization of Section 4.2.2), if it already
        /// gathered one.
        observation_hint: Option<Timestamp>,
    },
    /// Drive a membership hand-off: the receiving peer exports the replicas
    /// and counters of the ring interval `(start, end]`, ships them to
    /// `target_id` with [`Request::InstallState`], waits for the ack, and
    /// then commits — flipping the shared directory and pruning its own
    /// journal in one serially-processed step, so traffic never observes a
    /// half-moved range. The target is addressed by peer id and resolved
    /// through the transport (it may not be in the directory yet: a joiner
    /// is registered only at the commit point).
    HandoffRange {
        /// Dedup identity of the hand-off, repeated by every coordinator
        /// re-send: a source that already committed re-acknowledges from its
        /// cached [`Reply::HandoffComplete`] instead of driving a second
        /// transfer, which is what makes bounded coordinator deadlines safe.
        op: Option<OpId>,
        /// Exclusive start of the moved interval.
        start: u64,
        /// Inclusive end of the moved interval.
        end: u64,
        /// Ring identifier of the peer receiving the state.
        target_id: PeerId,
        /// Join or graceful leave.
        kind: HandoffKind,
        /// Fault injection for crash-recovery tests; `None` in production.
        fault: Option<HandoffFault>,
    },
    /// Install the state bundle of an in-flight hand-off (sent by the
    /// exporting peer to the target). Every accepted replica and counter is
    /// journaled **and fsynced** at the target before the ack (under any
    /// fsync policy, including deferred-sync group commit), which is what
    /// makes a crash from this point on completable: the source treats the
    /// ack as licence to prune its own copy at commit.
    InstallState {
        /// Dedup identity of this install attempt. The source re-sends the
        /// bundle under the *same* id when an install ack is lost; the
        /// target must not re-apply an old bundle after interleaved counter
        /// activity, so the cached [`Reply::InstallAck`] answers instead.
        op: Option<OpId>,
        /// Exclusive start of the interval the bundle covers.
        start: u64,
        /// Inclusive end of the interval the bundle covers.
        end: u64,
        /// Replicas and counters moving in.
        bundle: HandoffBundle,
    },
    /// Scrape the peer's metrics registry: the peer answers
    /// [`Reply::Metrics`] carrying its full Prometheus text exposition.
    /// Never batched (a scrape must not wait out a group-commit drain) and
    /// never forwarded (it is addressed to a specific peer, not a ring
    /// position). A peer running without a registry answers
    /// [`Reply::Error`].
    Metrics,
    /// Ask the peer for its slowest recently-completed requests: the peer
    /// answers [`Reply::SlowRequests`] with up to `k` request trees from its
    /// span-log ring, each broken down into named phases (queue-wait, apply,
    /// fsync, ...). Like [`Request::Metrics`] it is addressed to a specific
    /// peer, never batched, never forwarded, and — together with the other
    /// introspection and lifecycle messages — bypasses the tracing sampler
    /// itself, so scraping the slow log never pollutes it.
    SlowRequests {
        /// Maximum number of request trees to return.
        k: u32,
    },
    /// Several data requests for one peer in **one frame**: what a client
    /// round sends when two or more of its requests resolve to the same peer
    /// (a retrieve's `last_ts` and a probe of a replica that lives on the
    /// timestamping peer; the co-located probes of an indirect observation).
    /// The receiving peer explodes the batch into its constituents, exactly
    /// as it explodes a [`Request::PutReplicas`]: each one routes, forwards
    /// under churn, deduplicates and traces on its own, under the trace
    /// context it carries here (the frame itself carries none). One
    /// [`Reply::Batch`] answers, holding the constituents' replies in
    /// request order. Only data requests may ride in a batch — never another
    /// batch, a protocol or a lifecycle message: the wire decoder refuses
    /// such a frame and a peer handed one in-process answers
    /// [`Reply::Error`].
    Batch(Vec<(Request, Option<TraceContext>)>),
    /// Ask the peer to stop gracefully: it flushes its journal to stable
    /// storage before exiting. No reply is sent.
    Shutdown,
    /// Fail-stop the peer: the thread exits immediately, without any final
    /// journal flush — simulating a crash. Only what the fsync policy
    /// already pushed to disk survives. No reply is sent.
    Crash,
}

impl Request {
    /// Whether this is one of the four data requests (`PutReplica`,
    /// `PutReplicas`, `GetReplica`, `Timestamp`) — the ones that are routed
    /// by ring position, may share a group-commit drain, and may ride in a
    /// [`Request::Batch`].
    pub(crate) fn is_data(&self) -> bool {
        matches!(
            self,
            Request::PutReplica { .. }
                | Request::PutReplicas { .. }
                | Request::GetReplica { .. }
                | Request::Timestamp { .. }
        )
    }
}

/// A peer's answer to a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Write acknowledged (whether or not it overwrote existing state).
    PutAck,
    /// All constituent puts of a [`Request::PutReplicas`] ran to completion.
    PutsAck {
        /// Puts applied (locally or by the peer they were forwarded to).
        written: u32,
        /// Puts that could not be delivered to any responsible peer.
        failed: u32,
    },
    /// Result of a read: the stored payload and timestamp, if any.
    Replica(Option<(Vec<u8>, Timestamp)>),
    /// A timestamp, from `gen_ts` or `last_ts`.
    Timestamp(Timestamp),
    /// The peer has no valid counter for the key and needs the client to run
    /// the indirect initialization first.
    NeedsInitialization,
    /// A hand-off committed: the directory is flipped and the moved state
    /// pruned from the sender's journal.
    HandoffComplete {
        /// Replicas shipped to the target.
        replicas_moved: usize,
        /// Counters handed over directly (Section 4.2.1).
        counters_moved: usize,
    },
    /// A hand-off aborted before its commit point (the target died or never
    /// acknowledged); the directory is unchanged and the transfer rolled
    /// back.
    HandoffFailed {
        /// What went wrong.
        reason: String,
    },
    /// The target journaled the hand-off bundle.
    InstallAck {
        /// Replicas accepted (stale duplicates are skipped).
        replicas_installed: usize,
        /// Counters received through the direct transfer.
        counters_received: usize,
    },
    /// The request was received but will never be answered properly — the
    /// peer dropped it (e.g. it was in flight towards a peer that died, or a
    /// forward target disappeared). Clients treat this as a failed call
    /// rather than waiting out their reply timeout.
    Error {
        /// What went wrong.
        reason: String,
    },
    /// Answer to a [`Request::Metrics`] scrape: the peer's registry rendered
    /// as Prometheus text exposition (`rdht_metrics::encode`), parseable by
    /// `rdht_metrics::parse`.
    Metrics(String),
    /// Answer to a [`Request::SlowRequests`] scrape: the peer's slowest
    /// recently-completed request trees, slowest first, with per-phase
    /// durations for tail-latency attribution.
    SlowRequests(Vec<rdht_metrics::RequestTree>),
    /// Answer to a [`Request::Batch`]: one reply per constituent, in request
    /// order. A constituent that was dropped unanswered (the peer it was
    /// forwarded to died) reads [`Reply::Error`] in its place, so the others
    /// still arrive.
    Batch(Vec<Reply>),
}
