//! Protocol messages exchanged between clients and peers.
//!
//! Since the transport redesign these are **pure data**: a request names
//! peers by [`PeerId`] and carries no channels, so the same value can travel
//! over an in-process mailbox or be encoded onto a TCP stream by the wire
//! codec ([`crate::wire`]). The reply path travels *next to* the request as
//! a [`crate::ReplySink`] (in-process) or as the request id of the framed
//! envelope (on the wire).
//!
//! One frame carries one [`Request`] and is answered by one [`Reply`]. Three
//! requests are frames of several requests: a [`Request::PutReplicas`] is
//! the same payload for several hashes, a [`Request::StampAndPut`] is a
//! `gen_ts` followed by such puts, and a [`Request::Batch`] is any data
//! requests bound for one peer. The receiving peer takes each apart the same
//! way: its units are served one by one, each with a reply slot, and once
//! every slot is filled one reply is assembled from them in request order —
//! a count of the puts ([`Reply::PutsAck`]), the stamp and that count
//! ([`Reply::Stamped`]), or the replies themselves ([`Reply::Batch`]).
//!
//! Each request kind and each reply kind is declared once, in the two kind
//! tables at the end of this module: its wire tag, its counter label, and
//! whether it is data, traced, or a lifecycle message. The codec, the peer
//! loop, the client and the instruments read those rows. The compiler keeps
//! the rest in step: `Request::kind` and `Reply::kind` match every variant,
//! the encoder matches every variant and the decoder every kind, and the
//! request counters are registered from the table.

use crate::handoff::HandoffBundle;
use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};
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
    /// whole range to its successor, unregisters itself at the commit point,
    /// re-sends whatever is already queued to the successor and exits.
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
/// Data requests (the `data` column of the request kind table at the end of
/// this module) may be drained into a group-commit batch when the peer's
/// storage runs `FsyncPolicy::Always`: the peer applies and journals the
/// whole batch, issues one covering fsync, and only then sends the replies —
/// so an acknowledgement always means "durable", regardless of how many
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
    /// insert. When two or more of an insert's replica puts resolve to one
    /// peer in a client round, they travel as one `PutReplicas` (a lone put
    /// travels as a bare [`Request::PutReplica`]); the receiving peer
    /// answers a single [`Reply::PutsAck`] once every constituent put was
    /// applied (or re-sent to and acknowledged by the peer now responsible
    /// for it).
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
    /// `observation_hint`. A `gen_ts` that also stores replicas on the
    /// stamping peer is a [`Request::StampAndPut`].
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
    /// KTS `gen_ts` carrying a store: the first half of an insert when the
    /// timestamping peer `rsp(k, h_ts)` also holds replicas of the key. The
    /// peer generates the timestamp exactly as for a
    /// [`Request::Timestamp`], then stores `payload` with it under each of
    /// `hashes`, splitting them into per-hash puts the way it splits a
    /// [`Request::PutReplicas`] (each routes on its own; the hash is its
    /// dedup sub-key under `op`). One [`Reply::Stamped`] answers after the
    /// sync covering the counter and every put. A
    /// [`Reply::NeedsInitialization`] answer stores nothing; the
    /// hint-carrying retry carries the store again.
    ///
    /// On the wire this is a `Timestamp` frame whose store is present: the
    /// store rides only on a `gen_ts` (a `last_ts` carrying one is refused by
    /// the decoder), and the request counts as `kind="timestamp"`.
    StampAndPut {
        /// Dedup identity of the `gen_ts` and of every put it carries.
        op: Option<OpId>,
        /// The application key.
        key: Key,
        /// As for [`Request::Timestamp`]: the gathered indirect observation.
        observation_hint: Option<Timestamp>,
        /// The replication hash functions whose replica the stamping peer
        /// holds.
        hashes: Vec<HashId>,
        /// Replica payload, stored under every hash with the new stamp.
        payload: Vec<u8>,
    },
    /// Drive a membership hand-off: the receiving peer exports the replicas
    /// and counters of the ring interval `(start, end]`, ships them to
    /// `target_id` in bounded bundles, one [`Request::InstallState`] at a
    /// time, waits for each ack, and after the last commits — flipping the shared directory and pruning its own
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
    /// Install one state bundle of an in-flight hand-off (sent by the
    /// exporting peer to the target; the counters ride in the transfer's
    /// last bundle, and the restart's batched observation sends counters
    /// alone). Every accepted replica and counter is journaled **and
    /// fsynced** at the target before the ack (under either fsync policy),
    /// which is what makes a crash after the last bundle's ack completable:
    /// the source treats that ack as licence to prune its own copy at
    /// commit.
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
    /// never re-sent (it is addressed to a specific peer, not a ring
    /// position).
    Metrics,
    /// Ask the peer for its slowest recently-completed requests: the peer
    /// answers [`Reply::SlowRequests`] with up to `k` request trees from its
    /// span-log ring, each broken down into named phases (queue-wait, apply,
    /// fsync, ...). Like [`Request::Metrics`] it is addressed to a specific
    /// peer, never batched, never re-sent, and — together with the other
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
    /// as it explodes a [`Request::PutReplicas`]: each one routes, is re-sent
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
    /// The request's kind: its row of [`RequestKind`]'s table.
    pub(crate) fn kind(&self) -> RequestKind {
        match self {
            Request::PutReplica { .. } => RequestKind::Put,
            Request::PutReplicas { .. } => RequestKind::Puts,
            Request::GetReplica { .. } => RequestKind::Get,
            Request::Timestamp { .. } | Request::StampAndPut { .. } => RequestKind::Timestamp,
            Request::HandoffRange { .. } => RequestKind::Handoff,
            Request::InstallState { .. } => RequestKind::Install,
            Request::Shutdown => RequestKind::Shutdown,
            Request::Crash => RequestKind::Crash,
            Request::Metrics => RequestKind::Metrics,
            Request::SlowRequests { .. } => RequestKind::SlowRequests,
            Request::Batch(_) => RequestKind::Batch,
        }
    }
}

/// A peer's answer to a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Write acknowledged (whether or not it overwrote existing state).
    PutAck,
    /// All constituent puts of a [`Request::PutReplicas`] ran to completion.
    PutsAck {
        /// Puts applied (locally or by the peer they were re-sent to).
        written: u32,
        /// Puts that reached no responsible peer.
        failed: u32,
    },
    /// Result of a read: the stored payload and timestamp, if any.
    Replica(Option<(Vec<u8>, Timestamp)>),
    /// A timestamp, from `gen_ts` or `last_ts`.
    Timestamp(Timestamp),
    /// Answer to a [`Request::StampAndPut`]: the generated timestamp, and
    /// how its carried puts ended, counted as in [`Reply::PutsAck`].
    Stamped {
        /// The timestamp `gen_ts` generated.
        timestamp: Timestamp,
        /// Carried puts applied (locally or by the peer they were re-sent
        /// to).
        written: u32,
        /// Carried puts that reached no responsible peer.
        failed: u32,
    },
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
    /// peer dropped it (e.g. it was in flight towards a peer that died, or
    /// the peer it was re-sent to could not be reached). Clients treat this
    /// as a failed call rather than waiting out their reply timeout.
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
    /// re-sent to could not be reached) reads [`Reply::Error`] in its place,
    /// so the others still arrive.
    Batch(Vec<Reply>),
}

impl Reply {
    /// The reply's kind: its row of [`ReplyKind`]'s table.
    pub(crate) fn kind(&self) -> ReplyKind {
        match self {
            Reply::PutAck => ReplyKind::PutAck,
            Reply::PutsAck { .. } => ReplyKind::PutsAck,
            Reply::Replica(_) => ReplyKind::Replica,
            Reply::Timestamp(_) => ReplyKind::Timestamp,
            Reply::Stamped { .. } => ReplyKind::Stamped,
            Reply::NeedsInitialization => ReplyKind::NeedsInitialization,
            Reply::HandoffComplete { .. } => ReplyKind::HandoffComplete,
            Reply::HandoffFailed { .. } => ReplyKind::HandoffFailed,
            Reply::InstallAck { .. } => ReplyKind::InstallAck,
            Reply::Error { .. } => ReplyKind::Error,
            Reply::Metrics(_) => ReplyKind::Metrics,
            Reply::SlowRequests(_) => ReplyKind::SlowRequests,
            Reply::Batch(_) => ReplyKind::Batch,
        }
    }
}

/// Declares a kind enum from a table of one row per kind: the variant, its
/// wire tag, and the rest of its row as a `$Row` literal. The enum gets
/// `ALL` (every kind, in table order — the order `kind as usize` counts),
/// `tag`, `from_tag` and `row`; a tag used twice fails to compile, as an
/// unreachable pattern of `from_tag`.
macro_rules! kind_table {
    (
        $(#[$meta:meta])*
        enum $Kind:ident: $Row:ident {
            $($kind:ident = $tag:literal $row:tt,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum $Kind {
            $($kind,)*
        }

        impl $Kind {
            /// Every kind, in table order.
            #[cfg_attr(not(test), allow(dead_code))]
            pub(crate) const ALL: &'static [$Kind] = &[$($Kind::$kind),*];

            /// The kind's tag byte on the wire.
            pub(crate) const fn tag(self) -> u8 {
                match self {
                    $($Kind::$kind => $tag,)*
                }
            }

            /// The kind a tag byte names, if any.
            #[deny(unreachable_patterns)]
            pub(crate) const fn from_tag(tag: u8) -> Option<$Kind> {
                match tag {
                    $($tag => Some($Kind::$kind),)*
                    _ => None,
                }
            }

            /// The kind's row of the table.
            pub(crate) const fn row(self) -> &'static $Row {
                match self {
                    $($Kind::$kind => &$Row $row,)*
                }
            }
        }
    };
}

/// What the peer loop, the codec and the instruments know about a request
/// kind: one row of [`RequestKind`]'s table.
pub(crate) struct RequestRow {
    /// The `kind` label of `net_requests_total` (kinds that share a label
    /// share the series), the slowlog tree name and the `kind` span arg.
    pub(crate) label: &'static str,
    /// A data request: routed by ring position, may share a group-commit
    /// drain, and may ride in a [`Request::Batch`].
    pub(crate) data: bool,
    /// A sampled trace context on it produces spans. Introspection and
    /// lifecycle kinds bypass the tracer: a scrape must never appear in the
    /// slowlog it reads, and shutting down is not an operation.
    pub(crate) traceable: bool,
    /// Ends the peer loop. An operator action, not a network frame: the
    /// fault plan passes it untouched, and TCP gives it no redial budget.
    pub(crate) lifecycle: bool,
}

kind_table! {
    /// The kinds of [`Request`], each declared once. A `Timestamp` and a
    /// `StampAndPut` are one kind: on the wire a `gen_ts` that stores is a
    /// timestamp frame whose store is present.
    enum RequestKind: RequestRow {
        Put = 0 { label: "put", data: true, traceable: true, lifecycle: false },
        Puts = 1 { label: "puts", data: true, traceable: true, lifecycle: false },
        Get = 2 { label: "get", data: true, traceable: true, lifecycle: false },
        Timestamp = 3 { label: "timestamp", data: true, traceable: true, lifecycle: false },
        Handoff = 4 { label: "handoff", data: false, traceable: true, lifecycle: false },
        Install = 5 { label: "install", data: false, traceable: true, lifecycle: false },
        Shutdown = 6 { label: "lifecycle", data: false, traceable: false, lifecycle: true },
        Crash = 7 { label: "lifecycle", data: false, traceable: false, lifecycle: true },
        Metrics = 8 { label: "metrics", data: false, traceable: false, lifecycle: false },
        SlowRequests = 9 { label: "metrics", data: false, traceable: false, lifecycle: false },
        Batch = 10 { label: "batch", data: false, traceable: true, lifecycle: false },
    }
}

/// What the codec knows about a reply kind: one row of [`ReplyKind`]'s
/// table.
pub(crate) struct ReplyRow {
    /// A data request may be answered with it, so it may ride in a
    /// [`Reply::Batch`].
    pub(crate) answers_data: bool,
}

kind_table! {
    /// The kinds of [`Reply`], each declared once.
    enum ReplyKind: ReplyRow {
        PutAck = 0 { answers_data: true },
        PutsAck = 1 { answers_data: true },
        Replica = 2 { answers_data: true },
        Timestamp = 3 { answers_data: true },
        NeedsInitialization = 4 { answers_data: true },
        HandoffComplete = 5 { answers_data: false },
        HandoffFailed = 6 { answers_data: false },
        InstallAck = 7 { answers_data: false },
        Error = 8 { answers_data: true },
        Metrics = 9 { answers_data: false },
        SlowRequests = 10 { answers_data: false },
        Batch = 11 { answers_data: false },
        Stamped = 12 { answers_data: true },
    }
}

#[cfg(test)]
mod tests {
    use super::{ReplyKind, RequestKind};

    /// Each kind's tag byte names that kind, and no other byte names any.
    #[test]
    fn every_kind_round_trips_its_tag_and_no_other_byte_names_one() {
        for byte in 0..=u8::MAX {
            let request = RequestKind::ALL.iter().find(|kind| kind.tag() == byte);
            assert_eq!(
                RequestKind::from_tag(byte).as_ref(),
                request,
                "request tag {byte}"
            );
            let reply = ReplyKind::ALL.iter().find(|kind| kind.tag() == byte);
            assert_eq!(
                ReplyKind::from_tag(byte).as_ref(),
                reply,
                "reply tag {byte}"
            );
        }
        for &kind in RequestKind::ALL {
            assert_eq!(RequestKind::from_tag(kind.tag()), Some(kind));
        }
        for &kind in ReplyKind::ALL {
            assert_eq!(ReplyKind::from_tag(kind.tag()), Some(kind));
        }
    }
}
