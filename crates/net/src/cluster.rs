//! The cluster: peer threads, the shared membership directory and lifecycle
//! management — including real crash/restart recovery when peers are backed
//! by `rdht-storage` directories.
//!
//! Since the transport redesign the peer loop, the forwarding rules and the
//! hand-off protocol are **transport-generic**: peers receive [`Incoming`]
//! work items from a [`Mailbox`] and answer through [`ReplySink`]s, and
//! everyone addresses everyone else through [`PeerEndpoint`] handles. The
//! backend is selected by [`ClusterConfig::with_transport`] — the in-process
//! [`ChannelTransport`] (deterministic, fast, the default) or the
//! length-framed [`TcpTransport`] over loopback sockets. Multi-process
//! deployments run one [`serve_tcp_peer`] per process and connect with
//! [`crate::ClusterClient::connect_tcp`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rdht_core::durability::DurableState;
use rdht_core::kts::{IndirectObservation, KtsNode};
use rdht_core::{LastTsInitPolicy, ReplicaValue, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_membership::{
    commit_handoff, export_handoff, install_handoff, plan_join, plan_leave, MembershipError,
};
use rdht_metrics::{encode, Counter, Registry, RequestTree, SpanLog, TraceContext, TraceSink};
use rdht_overlay::in_open_closed_interval;
use rdht_storage::{StorageEngine, StorageMetrics, StorageOptions};

use crate::client::{allocate_actor_id, ClusterClient};
use crate::fault::{set_thread_source, FaultPlan, FaultyTransport};
use crate::message::{HandoffFault, HandoffKind, OpId, Reply, Request};
use crate::metrics::{names, PeerMetrics};
use crate::tcp::TcpTransport;
use crate::transport::{
    CallError, ChannelTransport, Incoming, Mailbox, PeerEndpoint, ReplySink, Transport,
    TransportError,
};

/// How long the peer driving a hand-off waits for the target to journal the
/// shipped bundle before **re-sending** it. A lost install ack is the
/// textbook lossy-network hang: the target journaled the bundle but the ack
/// vanished, so the source re-ships under the same [`OpId`] and the target
/// re-acknowledges from its dedup cache without re-applying.
const INSTALL_ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// How many times a hand-off source re-ships a bundle whose install ack
/// never arrived before aborting the transfer.
const INSTALL_ATTEMPTS: u32 = 5;

/// Per-attempt deadline of the coordinator's hand-off wait. Long enough to
/// cover the source's full install retry budget
/// (`INSTALL_ATTEMPTS * INSTALL_ACK_TIMEOUT`), so a coordinator re-send can
/// only mean the request or the reply was lost — never that the source is
/// still working.
const COORDINATION_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(15);

/// How many bounded waits a join/leave coordinator makes before giving up
/// with [`MembershipError::CoordinationTimeout`]. Re-sends repeat the same
/// [`OpId`], so a source that already committed re-acknowledges from its
/// dedup cache instead of driving a second transfer.
const COORDINATION_ATTEMPTS: u32 = 4;

/// Default bounded-idle grace period after which a gracefully departed
/// peer's forwarder thread is reaped ([`ClusterConfig::forwarder_reap_idle`]).
/// Requests routed under the pre-departure directory view arrive within
/// transport latency, so anything still idle after this has nothing left to
/// forward; the directory serves the range from the successor either way.
pub(crate) const DEFAULT_FORWARDER_REAP_IDLE: Duration = Duration::from_secs(30);

/// Identifier of a peer on the cluster ring (the same 64-bit space keys are
/// hashed into).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u64);

/// Where (and how) a cluster persists its peers' state.
#[derive(Clone, Debug)]
pub struct ClusterStorage {
    /// Root directory; each peer owns the subdirectory
    /// `peer-<id:016x>` underneath it.
    pub root: PathBuf,
    /// Engine tuning (fsync policy, snapshot cadence) shared by every peer.
    pub options: StorageOptions,
}

impl ClusterStorage {
    /// Storage under `root` with default engine options (fsync `Always`).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ClusterStorage {
            root: root.into(),
            options: StorageOptions::default(),
        }
    }

    /// Storage under `root` with explicit engine options.
    pub fn with_options(root: impl Into<PathBuf>, options: StorageOptions) -> Self {
        ClusterStorage {
            root: root.into(),
            options,
        }
    }

    /// The on-disk directory of one peer.
    pub fn peer_dir(&self, peer: PeerId) -> PathBuf {
        self.root.join(format!("peer-{:016x}", peer.0))
    }
}

/// Which transport backend a cluster runs over
/// ([`ClusterConfig::with_transport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// The in-process mailbox mesh ([`ChannelTransport`]): no
    /// serialization, no sockets — deterministic and fast. The default.
    #[default]
    Channel,
    /// Length-framed TCP over loopback sockets ([`TcpTransport`]): every
    /// request crosses the wire codec and a real socket, so latency and
    /// framing costs are measured, not modelled.
    Tcp,
}

/// Tunables of a cluster deployment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of peer threads.
    pub num_peers: usize,
    /// Number of replication hash functions `|Hr|`.
    pub num_replicas: usize,
    /// Seed for peer identifiers and the hash family.
    pub seed: u64,
    /// Artificial delay injected before a peer processes each *data* message,
    /// modelling network latency. Zero by default so tests run fast.
    /// Lifecycle messages (`Shutdown`, `Crash`) are exempt: tearing a
    /// cluster down is a local operation, not a network exchange, so
    /// `Cluster::shutdown` stays prompt regardless of the modelled latency.
    pub message_delay: Duration,
    /// When set, every peer journals its replicas and counters to its own
    /// directory under `storage.root`, and [`Cluster::restart_peer`] can
    /// bring a crashed peer back with its durable state. With
    /// `FsyncPolicy::GroupCommit` in the storage options, every peer runs
    /// its request loop in drain-apply-sync-reply mode: all queued client
    /// requests (bounded by `max_batch`) are drained, applied and
    /// journaled, made durable by **one** covering fsync, and only then
    /// acknowledged — N concurrent writers share one fsync instead of
    /// paying N.
    pub storage: Option<ClusterStorage>,
    /// How long a gracefully departed peer lingers as a forwarder after its
    /// last message before its thread (and transport binding) is reaped.
    /// Requests reaching the peer after the reap are re-routed through the
    /// shared directory by whoever holds a stale forwarding rule, so the
    /// range keeps serving; the reap just returns the thread early on
    /// long-lived clusters.
    pub forwarder_reap_idle: Duration,
    /// The transport backend peers and clients communicate over.
    pub transport: TransportKind,
    /// When set, the transport is wrapped in a [`FaultyTransport`] applying
    /// this plan to every frame — drops, duplicates, latency and partitions
    /// per directed link. The cluster is expected to *survive* it: client
    /// retries, peer-side dedup and bounded coordinator waits turn a hostile
    /// network into latency, not lost updates.
    pub faults: Option<FaultPlan>,
    /// When true (the default), every peer carries a metrics registry
    /// ([`crate::PeerMetrics`]) and answers [`Request::Metrics`] scrapes
    /// with its Prometheus text exposition. Disable to measure the
    /// instrumentation's own overhead.
    pub metrics: bool,
    /// When set, every peer records distributed-tracing spans (queue wait,
    /// apply, covering fsync, reply send, hand-off phases) for requests
    /// that arrive with a sampled [`TraceContext`] into this shared sink.
    /// Sampling is decided by the *client*
    /// ([`crate::ClusterClient::attach_trace`]); with no sampled traffic
    /// the sink stays empty and the peer loop pays nothing.
    pub trace: Option<TraceSink>,
}

impl ClusterConfig {
    /// A configuration with `num_peers` peers, `num_replicas` replication
    /// functions, no artificial delay, no durability, and the in-process
    /// channel transport.
    pub fn new(num_peers: usize, num_replicas: usize, seed: u64) -> Self {
        ClusterConfig {
            num_peers,
            num_replicas,
            seed,
            message_delay: Duration::ZERO,
            storage: None,
            forwarder_reap_idle: DEFAULT_FORWARDER_REAP_IDLE,
            transport: TransportKind::Channel,
            faults: None,
            metrics: true,
            trace: None,
        }
    }

    /// Returns a copy with peer-state durability under `storage`.
    pub fn with_storage(mut self, storage: ClusterStorage) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Returns a copy with the given forwarder reap grace period.
    pub fn with_forwarder_reap_idle(mut self, idle: Duration) -> Self {
        self.forwarder_reap_idle = idle;
        self
    }

    /// Returns a copy running over the given transport backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Returns a copy whose transport is decorated with the given fault
    /// plan. Works over either backend.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Returns a copy with per-peer metrics registries switched on or off.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Returns a copy whose peers record spans for sampled requests into
    /// `sink`.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }
}

/// Shared totals of the peers' idempotency windows
/// ([`Cluster::dedup_stats`]), kept as registry-grade [`Counter`] handles:
/// the same atomics the stats snapshot reads are registered into every
/// peer's metrics registry, so the two surfaces can never disagree.
#[derive(Default)]
pub(crate) struct DedupCounters {
    pub(crate) applied: Counter,
    pub(crate) suppressed: Counter,
}

impl DedupCounters {
    /// Registers the shared counters into a peer's registry. The totals are
    /// cluster-wide — every peer's exposition mirrors the same values.
    pub(crate) fn register(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_counter(
            names::DEDUP_APPLIED,
            "identified mutations applied exactly once (cluster-wide)",
            labels,
            self.applied.clone(),
        );
        registry.register_counter(
            names::DEDUP_SUPPRESSED,
            "retried or duplicated mutations answered from the dedup cache (cluster-wide)",
            labels,
            self.suppressed.clone(),
        );
    }
}

/// Totals of the peers' request-dedup windows: how many identified
/// mutations were applied for the first time, and how many arrived again (a
/// client retry or a duplicated frame) and were answered from the cached
/// reply instead of being re-applied. `duplicates_suppressed > 0` under a
/// fault plan is the proof that the network misbehaved *and* that no
/// mutation ran twice because of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Identified mutations applied exactly once.
    pub mutations_applied: u64,
    /// Retried or duplicated mutations answered from the cache.
    pub duplicates_suppressed: u64,
}

/// Shared, read-mostly view of cluster membership: which peers exist, which
/// are alive, and how to reach them — plus the transport everything travels
/// over.
pub(crate) struct Directory {
    pub(crate) family: HashFamily,
    /// The transport the cluster runs over; peers resolve hand-off targets
    /// through it (a joiner is bound before it is a directory member).
    pub(crate) transport: Arc<dyn Transport>,
    /// Peer ring: id -> (endpoint, alive flag).
    pub(crate) peers: RwLock<BTreeMap<PeerId, (PeerEndpoint, bool)>>,
    pub(crate) message_delay: Duration,
    pub(crate) forwarder_reap_idle: Duration,
    /// Cluster-wide dedup totals, fed by every peer's idempotency window.
    pub(crate) dedup: DedupCounters,
}

impl Directory {
    /// The peer currently responsible for a position: the first *alive* peer
    /// clockwise from it (successor-on-the-ring responsibility).
    pub(crate) fn responsible_for(&self, position: u64) -> Option<(PeerId, PeerEndpoint)> {
        let peers = self.peers.read();
        peers
            .range(PeerId(position)..)
            .chain(peers.iter())
            .find(|(_, (_, alive))| *alive)
            .map(|(id, (endpoint, _))| (*id, endpoint.clone()))
    }

    /// Marks a peer as dead (its endpoint stays but is never selected
    /// again).
    pub(crate) fn mark_dead(&self, peer: PeerId) {
        if let Some(entry) = self.peers.write().get_mut(&peer) {
            entry.1 = false;
        }
    }

    /// Re-registers a (re)started peer under a fresh endpoint and marks it
    /// alive again.
    pub(crate) fn revive(&self, peer: PeerId, endpoint: PeerEndpoint) {
        self.peers.write().insert(peer, (endpoint, true));
    }

    /// Number of live peers.
    pub(crate) fn live_count(&self) -> usize {
        self.peers
            .read()
            .values()
            .filter(|(_, alive)| *alive)
            .count()
    }

    /// Sorted ring positions of the live peers — the input the membership
    /// planner works on.
    pub(crate) fn alive_ids_sorted(&self) -> Vec<u64> {
        self.peers
            .read()
            .iter()
            .filter(|(_, (_, alive))| *alive)
            .map(|(id, _)| id.0)
            .collect()
    }
}

/// What [`Cluster::restart_peer`] recovered from a peer's storage directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Replicas rebuilt from the snapshot + WAL and served again.
    pub recovered_replicas: usize,
    /// Durable counter images found on disk. Per the paper's Rule 1 these
    /// are **not** resurrected into the live Valid Counter Set (another peer
    /// may have generated newer timestamps while this one was down); they
    /// are seeded as *recovery floors* instead, so the indirect
    /// re-initialization of Section 4.2.2 takes `max(observed, recovered)`
    /// and the counter cannot regress even when every replica holder of a
    /// key crashed at once.
    pub recovered_counters: usize,
    /// Storage generation (snapshot/WAL pair) the state was recovered from.
    pub generation: u64,
    /// Whether recovery had to discard a torn WAL tail.
    pub torn_tail: bool,
}

/// What [`Cluster::join_peer`] moved to the freshly joined peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinReport {
    /// The peer that joined.
    pub peer: PeerId,
    /// The successor whose range was split (equals `peer` when the joiner
    /// bootstrapped an empty ring).
    pub source: PeerId,
    /// Exclusive start of the interval the joiner took over.
    pub range_start: u64,
    /// Inclusive end of the interval the joiner took over.
    pub range_end: u64,
    /// Replicas shipped from the source.
    pub replicas_moved: usize,
    /// Counters handed over directly (Section 4.2.1).
    pub counters_moved: usize,
}

/// What [`Cluster::leave_peer`] moved to the departing peer's successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaveReport {
    /// The peer that left gracefully.
    pub peer: PeerId,
    /// The successor that absorbed its range.
    pub target: PeerId,
    /// Exclusive start of the interval that moved.
    pub range_start: u64,
    /// Inclusive end of the interval that moved.
    pub range_end: u64,
    /// Replicas shipped to the successor.
    pub replicas_moved: usize,
    /// Counters handed over directly — the direct algorithm of Section
    /// 4.2.1, which is what makes the graceful path free of indirect
    /// re-initializations.
    pub counters_moved: usize,
}

/// A running cluster of peer threads.
pub struct Cluster {
    directory: Arc<Directory>,
    handles: BTreeMap<PeerId, JoinHandle<()>>,
    config: ClusterConfig,
    /// Dedup namespace of this coordinator's hand-off requests: every
    /// join/leave gets a fresh `seq`, every re-send repeats it.
    coordinator_client: u64,
    next_coordination_seq: u64,
    /// Each live peer's metrics registry (shared handles into the peer
    /// thread's instruments). Empty when `config.metrics` is off.
    registries: BTreeMap<PeerId, Registry>,
}

impl Cluster {
    /// Spawns a cluster with `num_peers` peers and `num_replicas` replication
    /// hash functions, with no artificial message delay, no durability, and
    /// the in-process channel transport.
    pub fn spawn(num_peers: usize, num_replicas: usize, seed: u64) -> Self {
        Cluster::spawn_with(ClusterConfig::new(num_peers, num_replicas, seed))
    }

    /// Spawns a cluster from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics when `num_peers` is zero, when durability is configured and a
    /// peer's storage directory cannot be opened, or when the transport
    /// cannot bind a peer.
    pub fn spawn_with(config: ClusterConfig) -> Self {
        assert!(config.num_peers > 0, "a cluster needs at least one peer");
        let base: Arc<dyn Transport> = match config.transport {
            TransportKind::Channel => Arc::new(ChannelTransport::new()),
            TransportKind::Tcp => Arc::new(TcpTransport::new()),
        };
        let transport: Arc<dyn Transport> = match &config.faults {
            Some(plan) => Arc::new(FaultyTransport::new(base, plan.clone())),
            None => base,
        };
        let family = HashFamily::new(config.num_replicas, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc1u64);
        let mut ring: BTreeMap<PeerId, (PeerEndpoint, bool)> = BTreeMap::new();
        let mut bound: Vec<(PeerId, Mailbox)> = Vec::new();
        while ring.len() < config.num_peers {
            let id = PeerId(rng.gen());
            if ring.contains_key(&id) {
                continue;
            }
            let mailbox = transport
                .bind(id)
                .unwrap_or_else(|error| panic!("cannot bind peer {:016x}: {error}", id.0));
            let endpoint = transport
                .endpoint(id)
                .expect("a just-bound peer resolves to an endpoint");
            ring.insert(id, (endpoint, true));
            bound.push((id, mailbox));
        }
        let directory = Arc::new(Directory {
            family,
            transport,
            peers: RwLock::new(ring),
            message_delay: config.message_delay,
            forwarder_reap_idle: config.forwarder_reap_idle,
            dedup: DedupCounters::default(),
        });
        let mut registries = BTreeMap::new();
        let handles = bound
            .into_iter()
            .map(|(id, mailbox)| {
                let mut engine = open_engine(&config.storage, id);
                let kts = kts_from_recovery(&mut engine);
                let metrics = config.metrics.then(|| {
                    let (registry, metrics) =
                        build_peer_metrics(id, &directory, config.faults.as_ref(), &mut engine);
                    registries.insert(id, registry);
                    metrics
                });
                let handle = spawn_peer_thread(
                    id,
                    mailbox,
                    Arc::clone(&directory),
                    engine,
                    kts,
                    metrics,
                    config.trace.clone(),
                );
                (id, handle)
            })
            .collect();
        Cluster {
            directory,
            handles,
            config,
            coordinator_client: allocate_actor_id(),
            next_coordination_seq: 0,
            registries,
        }
    }

    /// The configuration the cluster was spawned with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Totals of the peers' idempotency windows: mutations applied exactly
    /// once vs. retried/duplicated arrivals answered from the cache.
    pub fn dedup_stats(&self) -> DedupStats {
        DedupStats {
            mutations_applied: self.directory.dedup.applied.get(),
            duplicates_suppressed: self.directory.dedup.suppressed.get(),
        }
    }

    /// The metrics registry shared with `peer`'s thread, or `None` when
    /// metrics are disabled or the id is unknown. The returned handle reads
    /// the live instruments — encode it any time for a fresh snapshot.
    pub fn registry(&self, peer: PeerId) -> Option<Registry> {
        self.registries.get(&peer).cloned()
    }

    /// Renders `peer`'s registry as Prometheus text exposition without a
    /// message exchange — the in-process twin of a [`Request::Metrics`]
    /// scrape. `None` when metrics are disabled or the id is unknown.
    pub fn scrape(&self, peer: PeerId) -> Option<String> {
        self.registries.get(&peer).map(encode)
    }

    fn next_coordination_op(&mut self) -> OpId {
        let seq = self.next_coordination_seq;
        self.next_coordination_seq += 1;
        OpId {
            client: self.coordinator_client,
            seq,
        }
    }

    /// Creates a client handle. Clients are cheap; create one per thread that
    /// wants to issue operations.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::new(Arc::clone(&self.directory))
    }

    /// All peer identifiers, in ring order.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.directory.peers.read().keys().copied().collect()
    }

    /// Number of live peers.
    pub fn live_peers(&self) -> usize {
        self.directory.live_count()
    }

    /// Whether `peer`'s thread has exited — crashed, shut down, or reaped as
    /// an idle forwarder after a graceful leave. `true` for unknown ids and
    /// for peers whose handle was already joined.
    pub fn peer_thread_finished(&self, peer: PeerId) -> bool {
        self.handles
            .get(&peer)
            .map(|handle| handle.is_finished())
            .unwrap_or(true)
    }

    /// The transport endpoint of a peer. Requests sent through it bypass
    /// the directory — tests use this to model messages routed under a
    /// stale membership view (in flight across a hand-off commit); normal
    /// clients go through [`Cluster::client`]. `None` for unknown ids.
    pub fn peer_endpoint(&self, peer: PeerId) -> Option<PeerEndpoint> {
        self.directory
            .peers
            .read()
            .get(&peer)
            .map(|(endpoint, _)| endpoint.clone())
    }

    /// Whether `peer` is currently alive (`false` for dead or unknown ids).
    pub fn peer_is_alive(&self, peer: PeerId) -> bool {
        self.directory
            .peers
            .read()
            .get(&peer)
            .map(|(_, alive)| *alive)
            .unwrap_or(false)
    }

    /// The peer currently responsible for timestamping `key` — useful for
    /// tests that want to crash exactly that peer.
    pub fn timestamp_responsible(&self, key: &Key) -> Option<PeerId> {
        let position = self.directory.family.eval_timestamp(key);
        self.directory.responsible_for(position).map(|(id, _)| id)
    }

    /// The peer currently responsible for `key` under replication function
    /// `hash`.
    pub fn replica_responsible(&self, hash: HashId, key: &Key) -> Option<PeerId> {
        let position = self.directory.family.eval(hash, key);
        self.directory.responsible_for(position).map(|(id, _)| id)
    }

    /// Crashes a peer: it is marked dead in the directory (so it stops being
    /// responsible for anything) and its thread stops without any final
    /// flush — a fail-stop failure. Everything in the peer's memory (its
    /// live counters, and its replicas when the cluster has no storage) is
    /// lost; what its journal already holds survives on disk and
    /// [`Cluster::restart_peer`] can recover it.
    ///
    /// Errors with [`MembershipError::UnknownPeer`] for an id that was never
    /// a member and [`MembershipError::AlreadyDead`] for one that is already
    /// down — a crash that silently "succeeds" against the wrong id is how
    /// failover tests end up testing nothing.
    pub fn crash_peer(&self, peer: PeerId) -> Result<(), MembershipError> {
        let endpoint = {
            let peers = self.directory.peers.read();
            match peers.get(&peer) {
                None => return Err(MembershipError::UnknownPeer(peer.0)),
                Some((_, false)) => return Err(MembershipError::AlreadyDead(peer.0)),
                Some((endpoint, true)) => endpoint.clone(),
            }
        };
        self.directory.mark_dead(peer);
        let _ = endpoint.send_no_reply(Request::Crash);
        Ok(())
    }

    /// Restarts a crashed peer from its on-disk directory: joins the dead
    /// thread, recovers the storage generation (snapshot + WAL, tolerating a
    /// torn tail), re-registers the peer alive in the directory and respawns
    /// its thread over the recovered replicas. An alive peer is crashed
    /// first (a hard restart).
    ///
    /// The live Valid Counter Set starts **empty** (Rule 1) — the durable
    /// counter images are cleared from the journal and seeded as *recovery
    /// floors*: the first timestamp request per key still takes the indirect
    /// path of Section 4.2.2, but initializes at `max(observed, recovered)`
    /// so currency cannot regress when the observation misses replicas.
    ///
    /// On a cluster without storage the peer simply rejoins empty. Errors
    /// with [`MembershipError::UnknownPeer`] for an id that was never a
    /// member.
    pub fn restart_peer(&mut self, peer: PeerId) -> Result<RestartReport, MembershipError> {
        if !self.directory.peers.read().contains_key(&peer) {
            return Err(MembershipError::UnknownPeer(peer.0));
        }
        // Make sure the old thread is gone before touching its directory:
        // two threads must never share a WAL. The thread can still be
        // running even when the peer is marked dead — a gracefully departed
        // peer lingers as a forwarder — so send the stop signal directly
        // instead of going through crash_peer's liveness check (which would
        // skip it and leave handle.join() waiting forever). Joining the
        // handle also guarantees the old transport binding was torn down
        // (the thread unbinds on exit) before the id is bound again.
        let endpoint = self
            .directory
            .peers
            .read()
            .get(&peer)
            .map(|(endpoint, _)| endpoint.clone());
        self.directory.mark_dead(peer);
        if let Some(endpoint) = endpoint {
            let _ = endpoint.send_no_reply(Request::Crash);
        }
        if let Some(handle) = self.handles.remove(&peer) {
            let _ = handle.join();
        }

        let mut engine = open_engine(&self.config.storage, peer);
        let report = RestartReport {
            recovered_replicas: engine.replicas().len(),
            recovered_counters: engine.counters().len(),
            generation: engine.generation(),
            torn_tail: engine.stats().recovered_torn_tail,
        };
        let kts = kts_from_recovery(&mut engine);
        let metrics = self.config.metrics.then(|| {
            let (registry, metrics) = build_peer_metrics(
                peer,
                &self.directory,
                self.config.faults.as_ref(),
                &mut engine,
            );
            self.registries.insert(peer, registry);
            metrics
        });

        let mailbox = self
            .directory
            .transport
            .bind(peer)
            .unwrap_or_else(|error| panic!("cannot rebind peer {:016x}: {error}", peer.0));
        let endpoint = self
            .directory
            .transport
            .endpoint(peer)
            .expect("a just-bound peer resolves to an endpoint");
        let handle = spawn_peer_thread(
            peer,
            mailbox,
            Arc::clone(&self.directory),
            engine,
            kts,
            metrics,
            self.config.trace.clone(),
        );
        self.directory.revive(peer, endpoint);
        self.handles.insert(peer, handle);
        Ok(report)
    }

    /// Adds a live peer to the running cluster.
    ///
    /// The joiner's successor splits its responsibility range
    /// (`rdht_membership::plan_join`): replicas in `(pred, new_id]` and the
    /// counters of the keys timestamped there move to the joiner through the
    /// journaled hand-off protocol, and the successor registers the joiner
    /// in the shared directory at the commit point — requests that were
    /// routed to the successor meanwhile are forwarded, so clients never
    /// observe a half-moved range. On a storage-backed cluster every phase
    /// is journaled; a crash mid-transfer is recovered by
    /// [`Cluster::restart_peer`] + a retried `join_peer`.
    pub fn join_peer(&mut self, new_id: PeerId) -> Result<JoinReport, MembershipError> {
        self.join_peer_impl(new_id, None)
    }

    /// [`Cluster::join_peer`] with fault injection: the source peer
    /// fail-stops at the chosen phase boundary. Crash-recovery tests use
    /// this to exercise the rollback/completion guarantees of the transfer
    /// journal.
    pub fn join_peer_with_fault(
        &mut self,
        new_id: PeerId,
        fault: HandoffFault,
    ) -> Result<JoinReport, MembershipError> {
        self.join_peer_impl(new_id, Some(fault))
    }

    fn join_peer_impl(
        &mut self,
        new_id: PeerId,
        fault: Option<HandoffFault>,
    ) -> Result<JoinReport, MembershipError> {
        if self.directory.peers.read().contains_key(&new_id) {
            return Err(MembershipError::AlreadyMember(new_id.0));
        }
        let alive = self.directory.alive_ids_sorted();

        // Bind and spawn the joiner first, unregistered: it must be able to
        // process the InstallState message (the hand-off source resolves it
        // through the *transport*), but no client may route to it until the
        // hand-off commits and registers it in the directory. Reopening an
        // existing storage directory (a retry after a crash mid-transfer)
        // recovers what the previous attempt already journaled.
        let mut engine = open_engine(&self.config.storage, new_id);
        let replicas_recovered = engine.replicas().len();
        let kts = kts_from_recovery(&mut engine);
        let metrics = self.config.metrics.then(|| {
            let (registry, metrics) = build_peer_metrics(
                new_id,
                &self.directory,
                self.config.faults.as_ref(),
                &mut engine,
            );
            self.registries.insert(new_id, registry);
            metrics
        });
        let mailbox = match self.directory.transport.bind(new_id) {
            Ok(mailbox) => mailbox,
            Err(error) => {
                self.registries.remove(&new_id);
                return Err(MembershipError::TransferFailed(format!(
                    "cannot bind joiner: {error}"
                )));
            }
        };
        let joiner = self
            .directory
            .transport
            .endpoint(new_id)
            .expect("a just-bound peer resolves to an endpoint");
        let handle = spawn_peer_thread(
            new_id,
            mailbox,
            Arc::clone(&self.directory),
            engine,
            kts,
            metrics,
            self.config.trace.clone(),
        );

        if alive.is_empty() {
            // Bootstrapping an empty ring: nothing to split.
            self.directory.revive(new_id, joiner);
            self.handles.insert(new_id, handle);
            return Ok(JoinReport {
                peer: new_id,
                source: new_id,
                range_start: new_id.0,
                range_end: new_id.0,
                replicas_moved: replicas_recovered,
                counters_moved: 0,
            });
        }

        let plan = match plan_join(&alive, new_id.0) {
            Ok(plan) => plan,
            Err(error) => {
                let _ = joiner.send_no_reply(Request::Crash);
                let _ = handle.join();
                self.registries.remove(&new_id);
                return Err(error);
            }
        };
        let source = PeerId(plan.source);
        let source_endpoint = self
            .directory
            .peers
            .read()
            .get(&source)
            .map(|(endpoint, _)| endpoint.clone())
            .expect("the planned source is a live directory member");

        // Bounded waits with re-sends, not an unbounded wait: a lost
        // request (or a lost completion reply) is re-sent under the same
        // OpId, and a source that already committed answers again from its
        // dedup cache instead of driving a second transfer. A teardown of
        // the reply path (the source fail-stopped) still surfaces promptly
        // as `Dropped`.
        let outcome = coordinate_handoff(
            &source_endpoint,
            Request::HandoffRange {
                op: Some(self.next_coordination_op()),
                start: plan.range_start,
                end: plan.range_end,
                target_id: new_id,
                kind: HandoffKind::Join,
                fault,
            },
            self.config.trace.is_some(),
        );
        match outcome {
            Ok(Reply::HandoffComplete {
                replicas_moved,
                counters_moved,
            }) => {
                // The source registered the joiner at its commit point.
                self.handles.insert(new_id, handle);
                Ok(JoinReport {
                    peer: new_id,
                    source,
                    range_start: plan.range_start,
                    range_end: plan.range_end,
                    replicas_moved,
                    counters_moved,
                })
            }
            Err(CallError::Exhausted { attempts, .. })
                if self.peer_is_alive(new_id) && fault.is_none() =>
            {
                // Every bounded wait timed out, but the directory says the
                // joiner is registered: the hand-off *committed* and only
                // the completion replies were lost. The joiner is live and
                // owns its range — tearing it down now would corrupt the
                // ring, so report success (the moved counts are unknown;
                // the state itself is where it belongs).
                let _ = attempts;
                self.handles.insert(new_id, handle);
                Ok(JoinReport {
                    peer: new_id,
                    source,
                    range_start: plan.range_start,
                    range_end: plan.range_end,
                    replicas_moved: 0,
                    counters_moved: 0,
                })
            }
            other => {
                // The hand-off never committed (the source crashed, answered
                // a failure, or stayed silent through every bounded wait):
                // tear the unregistered joiner down. Whatever the joiner
                // already journaled survives in its directory; a retried
                // join_peer for the same id recovers it and completes the
                // transfer.
                let _ = joiner.send_no_reply(Request::Crash);
                let _ = handle.join();
                self.registries.remove(&new_id);
                Err(match other {
                    Err(CallError::Exhausted { attempts, .. }) => {
                        MembershipError::CoordinationTimeout {
                            peer: source.0,
                            attempts,
                        }
                    }
                    Ok(Reply::HandoffFailed { reason }) | Err(CallError::Rejected(reason)) => {
                        MembershipError::TransferFailed(reason)
                    }
                    Ok(reply) => MembershipError::TransferFailed(format!(
                        "unexpected hand-off reply: {reply:?}"
                    )),
                    Err(_) => MembershipError::TransferFailed(
                        "the source peer crashed mid-transfer".to_string(),
                    ),
                })
            }
        }
    }

    /// Gracefully removes a live peer: the direct algorithm of Section
    /// 4.2.1.
    ///
    /// The departing peer ships every replica and counter of its range
    /// `(pred, leaving]` to its live successor, unregisters itself at the
    /// commit point and keeps running as a pure forwarder (requests routed
    /// to it before the flip are re-sent to the successor) until the cluster
    /// shuts down. Because the counters move directly, subsequent timestamp
    /// requests at the successor are served from a valid counter — **zero**
    /// indirect re-initializations, in contrast to a crash.
    pub fn leave_peer(&mut self, leaving: PeerId) -> Result<LeaveReport, MembershipError> {
        self.leave_peer_impl(leaving, None)
    }

    /// [`Cluster::leave_peer`] with fault injection, for crash-recovery
    /// tests: the departing peer fail-stops at the chosen phase boundary
    /// instead of completing its hand-off.
    pub fn leave_peer_with_fault(
        &mut self,
        leaving: PeerId,
        fault: HandoffFault,
    ) -> Result<LeaveReport, MembershipError> {
        self.leave_peer_impl(leaving, Some(fault))
    }

    fn leave_peer_impl(
        &mut self,
        leaving: PeerId,
        fault: Option<HandoffFault>,
    ) -> Result<LeaveReport, MembershipError> {
        let leaving_endpoint = {
            let peers = self.directory.peers.read();
            match peers.get(&leaving) {
                None => return Err(MembershipError::UnknownPeer(leaving.0)),
                Some((_, false)) => return Err(MembershipError::AlreadyDead(leaving.0)),
                Some((endpoint, true)) => endpoint.clone(),
            }
        };
        let alive = self.directory.alive_ids_sorted();
        let plan = plan_leave(&alive, leaving.0)?;
        let target = PeerId(plan.target);

        // Bounded waits with re-sends, same reasoning as join_peer: the
        // departing peer's dedup cache re-acknowledges a committed hand-off,
        // so a lost completion reply costs a retry, not a hang.
        let outcome = coordinate_handoff(
            &leaving_endpoint,
            Request::HandoffRange {
                op: Some(self.next_coordination_op()),
                start: plan.range_start,
                end: plan.range_end,
                target_id: target,
                kind: HandoffKind::Leave,
                fault,
            },
            self.config.trace.is_some(),
        );
        match outcome {
            Ok(Reply::HandoffComplete {
                replicas_moved,
                counters_moved,
            }) => Ok(LeaveReport {
                peer: leaving,
                target,
                range_start: plan.range_start,
                range_end: plan.range_end,
                replicas_moved,
                counters_moved,
            }),
            Err(CallError::Exhausted { attempts, .. })
                if fault.is_none() && !self.peer_is_alive(leaving) =>
            {
                // Silent through every wait, but the directory already shows
                // the departure: the commit happened (it flips the directory
                // before the reply) and only the completions were lost. The
                // successor owns the range; report success with unknown
                // moved counts. Gated on `fault.is_none()` because injected
                // crashes also mark the peer dead without committing.
                let _ = attempts;
                Ok(LeaveReport {
                    peer: leaving,
                    target,
                    range_start: plan.range_start,
                    range_end: plan.range_end,
                    replicas_moved: 0,
                    counters_moved: 0,
                })
            }
            Err(CallError::Exhausted { attempts, .. }) => {
                Err(MembershipError::CoordinationTimeout {
                    peer: leaving.0,
                    attempts,
                })
            }
            other => {
                let reason = match other {
                    Ok(Reply::HandoffFailed { reason }) => reason,
                    Err(CallError::Rejected(reason)) => reason,
                    Ok(reply) => format!("unexpected hand-off reply: {reply:?}"),
                    Err(_) => "the departing peer crashed mid-transfer".to_string(),
                };
                Err(MembershipError::TransferFailed(reason))
            }
        }
    }

    /// Stops every peer thread (flushing their journals) and waits for them
    /// to finish.
    pub fn shutdown(self) {
        {
            let peers = self.directory.peers.read();
            for (endpoint, _) in peers.values() {
                let _ = endpoint.send_no_reply(Request::Shutdown);
            }
        }
        for (_, handle) in self.handles {
            let _ = handle.join();
        }
    }
}

/// Configuration of one stand-alone peer of a multi-process TCP deployment
/// ([`serve_tcp_peer`]): the peer's own id, the static address book the
/// whole deployment agrees on, and the cluster parameters every process
/// must share.
#[derive(Clone, Debug)]
pub struct TcpPeerConfig {
    /// This peer's ring identifier.
    pub id: PeerId,
    /// The full static membership: every peer's id and listen address,
    /// including this peer's own.
    pub peers: Vec<(PeerId, SocketAddr)>,
    /// Number of replication hash functions `|Hr|` (must match every other
    /// process of the deployment).
    pub num_replicas: usize,
    /// Seed of the hash family (must match every other process).
    pub seed: u64,
    /// Optional durable storage for this peer.
    pub storage: Option<ClusterStorage>,
    /// When set, the peer records spans for sampled requests and renders
    /// its chrome trace to this file on clean exit. Per-process files of a
    /// deployment are merged with
    /// [`rdht_metrics::merge_chrome_trace_files`]; spans correlate by the
    /// `trace_id` entry of their `args`.
    pub trace_out: Option<PathBuf>,
}

/// Runs one peer of a multi-process TCP deployment in the calling thread:
/// binds the peer's configured listen address, serves requests (including
/// forwarding and hand-offs, exactly as in-process peers do) until a
/// `Shutdown` or `Crash` message arrives, then tears the transport down.
///
/// Every process of the deployment must be configured with the same address
/// book, `num_replicas` and `seed`; clients connect with
/// [`crate::ClusterClient::connect_tcp`]. Errors when the configured
/// address cannot be bound (it would otherwise silently listen somewhere no
/// other process knows about).
pub fn serve_tcp_peer(config: TcpPeerConfig) -> Result<(), TransportError> {
    let configured = config
        .peers
        .iter()
        .find(|(peer, _)| *peer == config.id)
        .map(|(_, addr)| *addr)
        .ok_or(TransportError::UnknownPeer(config.id.0))?;
    let tcp = TcpTransport::with_peers(config.peers.iter().copied());
    let mailbox = tcp.bind(config.id)?;
    if tcp.addr_of(config.id) != Some(configured) {
        // bind() fell back to an ephemeral port: the configured one is
        // busy. In-process that is transparent (the shared book is updated)
        // but across processes nobody would learn the new address.
        tcp.unbind(config.id);
        return Err(TransportError::Io(format!(
            "configured address {configured} is busy"
        )));
    }
    let transport: Arc<dyn Transport> = Arc::new(tcp);
    let mut ring: BTreeMap<PeerId, (PeerEndpoint, bool)> = BTreeMap::new();
    for (peer, _) in &config.peers {
        let endpoint = transport
            .endpoint(*peer)
            .expect("every address-book entry resolves to an endpoint");
        ring.insert(*peer, (endpoint, true));
    }
    let directory = Arc::new(Directory {
        family: HashFamily::new(config.num_replicas, config.seed),
        transport,
        peers: RwLock::new(ring),
        message_delay: Duration::ZERO,
        forwarder_reap_idle: DEFAULT_FORWARDER_REAP_IDLE,
        dedup: DedupCounters::default(),
    });
    let mut engine = open_engine(&config.storage, config.id);
    let kts = kts_from_recovery(&mut engine);
    // Stand-alone TCP peers always carry metrics: a remote operator's only
    // window into the process is the wire scrape.
    let (_registry, metrics) = build_peer_metrics(config.id, &directory, None, &mut engine);
    let trace = config.trace_out.as_ref().map(|_| TraceSink::new());
    set_thread_source(config.id);
    peer_main(
        config.id,
        mailbox,
        Arc::clone(&directory),
        engine,
        kts,
        Some(metrics),
        trace.clone(),
    );
    directory.transport.unbind(config.id);
    if let (Some(path), Some(sink)) = (&config.trace_out, &trace) {
        sink.write_to(path)
            .map_err(|error| TransportError::Io(format!("cannot write trace file: {error}")))?;
    }
    Ok(())
}

/// One coordinator hand-off exchange under the bounded retry discipline:
/// send, wait [`COORDINATION_ATTEMPT_TIMEOUT`], and on a pure timeout
/// re-send the *same* request (same [`OpId`]) up to
/// [`COORDINATION_ATTEMPTS`] times. Anything other than a timeout — a
/// reply, a rejection, a reply-path teardown — is definitive and returned
/// as-is; spent budgets come back as [`CallError::Exhausted`].
///
/// On a `traced` cluster the exchange runs under one sampled root context
/// (re-sends included), so the source records its
/// `peer.handoff_{export,install,commit}` spans.
fn coordinate_handoff(
    endpoint: &PeerEndpoint,
    request: Request,
    traced: bool,
) -> Result<Reply, CallError> {
    let context = traced.then(|| TraceContext::sampled_root(rdht_metrics::next_span_id()));
    let mut last = CallError::Timeout;
    for _ in 0..COORDINATION_ATTEMPTS {
        let outcome = match endpoint.send_traced(request.clone(), context) {
            Ok(pending) => pending.wait(COORDINATION_ATTEMPT_TIMEOUT),
            Err(error) => Err(CallError::Transport(error)),
        };
        match outcome {
            Err(CallError::Timeout) => last = CallError::Timeout,
            other => return other,
        }
    }
    Err(CallError::Exhausted {
        attempts: COORDINATION_ATTEMPTS,
        last: Box::new(last),
    })
}

/// Spawns a peer thread that serves `peer_main` and tears its transport
/// binding down on exit — whichever way the loop ends (crash, shutdown,
/// forwarder reap), senders observe closure instead of silence.
fn spawn_peer_thread(
    id: PeerId,
    mailbox: Mailbox,
    directory: Arc<Directory>,
    engine: StorageEngine,
    kts: KtsNode,
    metrics: Option<PeerMetrics>,
    trace: Option<TraceSink>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Frames this thread originates (forwards, install bundles) are
        // attributed to this peer's directed links by the fault layer.
        set_thread_source(id);
        let transport = Arc::clone(&directory.transport);
        peer_main(id, mailbox, directory, engine, kts, metrics, trace);
        transport.unbind(id);
    })
}

/// Builds one peer's metrics registry: the peer-loop instruments, the
/// storage engine's WAL/compaction instruments, and — as shared handles —
/// the cluster-wide dedup totals and (when present) the fault plan
/// counters. Everything is labeled with the peer's ring id so expositions
/// from different peers can be concatenated without series collisions.
fn build_peer_metrics(
    id: PeerId,
    directory: &Directory,
    faults: Option<&FaultPlan>,
    engine: &mut StorageEngine,
) -> (Registry, PeerMetrics) {
    let registry = Registry::new();
    let peer_label = format!("{:016x}", id.0);
    let labels = [("peer", peer_label.as_str())];
    let metrics = PeerMetrics::register(&registry, &labels);
    directory.dedup.register(&registry, &labels);
    if let Some(plan) = faults {
        plan.register_metrics(&registry, &labels);
    }
    engine.attach_metrics(StorageMetrics::register(&registry, &labels));
    (registry, metrics)
}

/// Opens the storage engine backing one peer: a real journaled engine when
/// the cluster is configured with storage, an ephemeral in-memory one
/// otherwise.
fn open_engine(storage: &Option<ClusterStorage>, peer: PeerId) -> StorageEngine {
    match storage {
        Some(storage) => {
            let dir = storage.peer_dir(peer);
            StorageEngine::open(&dir, storage.options)
                .unwrap_or_else(|error| panic!("cannot open peer storage at {dir:?}: {error}"))
        }
        None => StorageEngine::ephemeral(),
    }
}

/// Reports a latched journal failure through the structured event log,
/// once per peer lifetime.
fn report_journal_poison(id: PeerId, engine: &StorageEngine, reported: &mut bool) {
    if *reported {
        return;
    }
    if let Some(error) = engine.poison_error() {
        rdht_metrics::log::global().error(
            "net.cluster",
            "journal failed; continuing WITHOUT durability — state written \
             from here on will not survive a crash",
            &[
                ("peer", &format!("{:016x}", id.0)),
                ("error", &error.to_string()),
            ],
        );
        *reported = true;
    }
}

/// Rule 1, durably: a (re)starting peer's live VCS is empty, so its durable
/// counter image must be cleared too — the recovered values may be stale
/// (another peer may have generated newer timestamps while this one was
/// down). They are not discarded though: each value is a safe *lower bound*
/// on the last timestamp this peer generated, so they seed the KTS node's
/// recovery floors and the next indirect initialization takes
/// `max(observed, recovered)`.
fn kts_from_recovery(engine: &mut StorageEngine) -> KtsNode {
    let mut kts = KtsNode::new(false);
    if !engine.counters().is_empty() {
        let floors: Vec<(Key, Timestamp)> = engine
            .counters()
            .iter()
            .map(|(key, value)| (key.clone(), value))
            .collect();
        kts.seed_recovery_floors(floors);
        engine.record_counters_cleared();
    }
    kts
}

/// A forwarding rule a peer installs at the commit point of a hand-off:
/// requests for positions it is no longer responsible for are re-sent to the
/// peer that took them over (the forward relays the original reply sink, so
/// forwarding is transparent to the requester on any transport).
/// `everything` is set by a graceful leave — anything still reaching a
/// departed peer was routed before the directory flip and belongs to its
/// successor.
struct Forwarding {
    start: u64,
    end: u64,
    everything: bool,
    target: PeerEndpoint,
}

impl Forwarding {
    fn covers(&self, position: u64) -> bool {
        self.everything || in_open_closed_interval(self.start, self.end, position)
    }
}

/// Whether two half-open ring intervals share any position (`start == end`
/// denotes the full ring).
fn ranges_intersect(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 == a.1
        || b.0 == b.1
        || in_open_closed_interval(b.0, b.1, a.1)
        || in_open_closed_interval(a.0, a.1, b.1)
}

/// The ring position a data request is routed by, `None` for protocol and
/// lifecycle messages (which are addressed to a specific peer and never
/// forwarded). A `PutReplicas` has no single position: it is exploded into
/// per-hash puts *before* routing, and each constituent put forwards
/// individually. A hash id outside the configured family (possible over
/// TCP, where any well-formed frame can arrive) also yields `None` — the
/// request is served locally instead of panicking the peer.
fn data_position(request: &Request, family: &HashFamily) -> Option<u64> {
    match request {
        Request::PutReplica { hash, key, .. } | Request::GetReplica { hash, key, .. } => {
            family.function(*hash).map(|function| function.eval(key))
        }
        Request::Timestamp { key, .. } => Some(family.eval_timestamp(key)),
        _ => None,
    }
}

/// Entries each identified client keeps in a peer's dedup window. Sized
/// far above any realistic number of in-flight operations per client (a
/// retry can only arrive while its op is in flight), so an evicted entry
/// means the op completed long ago.
const DEDUP_WINDOW_PER_CLIENT: usize = 256;

/// Client namespaces a peer tracks before evicting the least recently
/// active one.
const DEDUP_MAX_CLIENTS: usize = 1024;

/// Sub-key of a dedup entry for requests with one unit of effect. The
/// constituents of a batched put use their replication hash index instead,
/// which can never collide with this (a `PutReplica` whose hash is not in
/// the family — `TIMESTAMP_HASH_ID` is `u32::MAX` — is rejected before the
/// window is consulted).
const NO_SUB: u32 = u32::MAX;

struct ClientWindow {
    replies: HashMap<(u64, u32), Reply>,
    order: VecDeque<(u64, u32)>,
    last_used: u64,
}

/// A peer's idempotency window: the cached replies of recently applied
/// identified mutations, keyed by client namespace and `(seq, sub)`. A
/// retried or duplicated mutation that hits the window is answered from the
/// cache without being re-applied — this is what makes client retries and
/// frame duplication safe for non-idempotent operations (`gen_ts` counter
/// increments, hand-off installs).
///
/// The window is memory-only on purpose: it protects against *network*
/// duplication within a retry horizon. A peer that crashed lost its live
/// state anyway, and every protocol op it might re-apply after restart is
/// guarded by its own on-disk rules (puts by stamp comparison, installs by
/// the transfer journal).
#[derive(Default)]
struct DedupWindow {
    clients: HashMap<u64, ClientWindow>,
    tick: u64,
}

impl DedupWindow {
    /// The cached reply of `(op, sub)`, if this mutation was already
    /// applied.
    fn lookup(&mut self, op: OpId, sub: u32) -> Option<Reply> {
        self.tick += 1;
        let tick = self.tick;
        let window = self.clients.get_mut(&op.client)?;
        window.last_used = tick;
        window.replies.get(&(op.seq, sub)).cloned()
    }

    /// Records the reply of a freshly applied mutation, evicting the oldest
    /// entry of the client's window (and, when the client cap is hit, the
    /// least recently active client) as needed.
    fn record(&mut self, op: OpId, sub: u32, reply: Reply) {
        self.tick += 1;
        let tick = self.tick;
        if !self.clients.contains_key(&op.client) && self.clients.len() >= DEDUP_MAX_CLIENTS {
            if let Some(stalest) = self
                .clients
                .iter()
                .min_by_key(|(_, window)| window.last_used)
                .map(|(client, _)| *client)
            {
                self.clients.remove(&stalest);
            }
        }
        let window = self
            .clients
            .entry(op.client)
            .or_insert_with(|| ClientWindow {
                replies: HashMap::new(),
                order: VecDeque::new(),
                last_used: tick,
            });
        window.last_used = tick;
        if window.replies.insert((op.seq, sub), reply).is_none() {
            window.order.push_back((op.seq, sub));
            if window.order.len() > DEDUP_WINDOW_PER_CLIENT {
                if let Some(evicted) = window.order.pop_front() {
                    window.replies.remove(&evicted);
                }
            }
        }
    }
}

/// State owned by one peer thread: the storage engine (journaled or
/// ephemeral) holding its replicas, its KTS node whose counter mutations
/// are journaled through the engine, the forwarding rules installed by
/// committed hand-offs, and the idempotency window de-duplicating retried
/// and duplicated mutations.
struct PeerRuntime {
    engine: StorageEngine,
    kts: KtsNode,
    forwards: Vec<Forwarding>,
    dedup: DedupWindow,
    /// Seq allocator of the ops this peer originates (install bundles).
    local_seq: u64,
}

/// Whether a request may ride in a group-commit batch. Only plain data
/// requests batch; protocol and lifecycle messages are barriers — they are
/// processed alone so their own ack/sync ordering stays explicit.
fn batchable(request: &Request) -> bool {
    matches!(
        request,
        Request::PutReplica { .. }
            | Request::PutReplicas { .. }
            | Request::GetReplica { .. }
            | Request::Timestamp { .. }
    )
}

/// Ring capacity of the per-peer slow-request log: the last N completed
/// sampled request trees, scraped by [`Request::SlowRequests`].
const PEER_SLOWLOG_CAPACITY: usize = 128;

/// Short request-kind label, used as the slowlog tree name and in
/// chrome-trace span args.
pub(crate) fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::PutReplica { .. } => "put",
        Request::PutReplicas { .. } => "puts",
        Request::GetReplica { .. } => "get",
        Request::Timestamp { .. } => "timestamp",
        Request::HandoffRange { .. } => "handoff",
        Request::InstallState { .. } => "install",
        Request::Metrics => "metrics",
        Request::SlowRequests { .. } => "slow_requests",
        Request::Shutdown | Request::Crash => "lifecycle",
    }
}

/// Whether a sampled [`TraceContext`] on this request should produce spans
/// at all. Lifecycle and introspection requests bypass the tracer entirely
/// — a metrics or slowlog scrape must never appear in the slowlog it
/// reads, and shutdown is not an operation.
pub(crate) fn traceable(request: &Request) -> bool {
    !matches!(
        request,
        Request::Metrics | Request::SlowRequests { .. } | Request::Shutdown | Request::Crash
    )
}

/// Microseconds of a duration, saturating.
pub(crate) fn us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// The sink-relative timestamp of a past `Instant`, so spans measured with
/// monotonic clocks land on the sink's timeline.
pub(crate) fn sink_ts(sink: &TraceSink, at: Instant) -> u64 {
    sink.now_us().saturating_sub(us(at.elapsed()))
}

/// Records one completed phase span (started at `start`, ending now),
/// linked to its operation by the `trace_id` args entry.
fn emit_phase(sink: &TraceSink, pid: u64, tid: u64, name: &str, start: Instant, trace_id: u64) {
    sink.complete_with_args(
        name,
        pid,
        tid,
        sink_ts(sink, start),
        us(start.elapsed()),
        vec![("trace_id".to_string(), format!("{trace_id:016x}"))],
    );
}

/// Per-request bookkeeping of one sampled unit of the current batch,
/// finalized into a [`RequestTree`] at the batch boundary (after the
/// covering fsync and the reply send, so every phase is measured).
struct TracedUnit {
    context: TraceContext,
    name: &'static str,
    arrived: Instant,
    apply_start: Instant,
    apply_end: Instant,
    /// Index of this unit's deferred reply, to attribute its send time.
    deferred_at: usize,
    /// When the deferred reply had been sent.
    replied: Option<Instant>,
}

/// Finalizes the batch's traced units: one shared `peer.fsync` span linked
/// to every traced request of the group-commit batch, then per-request
/// phase spans and a [`RequestTree`] pushed into the peer's slowlog. The
/// phases partition the request's wall time exactly (queue wait → apply →
/// batch wait → fsync → reply): `reply` runs from the end of the covering
/// sync to the moment this unit's reply was sent, so it includes the sends
/// of the batch's earlier replies — on one core each of those can hand the
/// CPU to the client it wakes.
fn finish_traced_batch(
    traced: &mut Vec<TracedUnit>,
    slowlog: &SpanLog,
    sink: Option<&TraceSink>,
    pid: u64,
    tid: u64,
    sync_start: Instant,
    sync_end: Instant,
) {
    let fsync_us = us(sync_end.saturating_duration_since(sync_start));
    if let Some(sink) = sink {
        let ids = traced
            .iter()
            .map(|unit| format!("{:016x}", unit.context.trace_id))
            .collect::<Vec<_>>()
            .join(",");
        sink.complete_with_args(
            "peer.fsync",
            pid,
            tid,
            sink_ts(sink, sync_start),
            fsync_us,
            vec![("trace_id".to_string(), ids)],
        );
    }
    for unit in traced.drain(..) {
        let queue = unit.apply_start.saturating_duration_since(unit.arrived);
        let apply = unit.apply_end.saturating_duration_since(unit.apply_start);
        let batch_wait = sync_start.saturating_duration_since(unit.apply_end);
        let replied = unit.replied.unwrap_or(sync_end);
        let reply = replied.saturating_duration_since(sync_end);
        let total = replied.saturating_duration_since(unit.arrived);
        if let Some(sink) = sink {
            let args = |extra: bool| {
                let mut args = vec![(
                    "trace_id".to_string(),
                    format!("{:016x}", unit.context.trace_id),
                )];
                if extra {
                    args.push(("kind".to_string(), unit.name.to_string()));
                }
                args
            };
            sink.complete_with_args(
                "peer.queue_wait",
                pid,
                tid,
                sink_ts(sink, unit.arrived),
                us(queue),
                args(false),
            );
            sink.complete_with_args(
                "peer.apply",
                pid,
                tid,
                sink_ts(sink, unit.apply_start),
                us(apply),
                args(true),
            );
            sink.complete_with_args(
                "peer.reply",
                pid,
                tid,
                sink_ts(sink, sync_end),
                us(reply),
                args(false),
            );
        }
        slowlog.push(RequestTree {
            trace_id: unit.context.trace_id,
            name: unit.name.to_string(),
            total_us: us(total),
            phases: vec![
                ("queue_wait".to_string(), us(queue)),
                ("apply".to_string(), us(apply)),
                ("batch_wait".to_string(), us(batch_wait)),
                ("fsync".to_string(), fsync_us),
                ("reply".to_string(), us(reply)),
            ],
        });
    }
}

/// The peer thread main loop, in **drain-apply-sync-reply** form,
/// transport-generic: work arrives as [`Incoming`] items (request + reply
/// sink) and every answer goes through the sink, whether that resolves to
/// an in-process channel or a framed reply on a TCP connection.
///
/// Each iteration collects a batch: the first item blocks on the mailbox,
/// and — when the engine's fsync policy is `GroupCommit` — every further
/// queued data request is drained (up to `max_batch`, waiting at most
/// `max_delay` for stragglers). The whole batch is then applied and
/// journaled, made durable by **one** covering fsync at the batch boundary,
/// and only then acknowledged: N concurrent writers at `Always`-grade
/// durability share a single fsync instead of paying one each. Under every
/// other policy the batch is a single request and the loop behaves exactly
/// as the classic one-request-at-a-time server (appends sync themselves per
/// policy, the boundary sync is skipped).
///
/// A batched [`Request::PutReplicas`] is exploded here into its per-hash
/// constituent puts, each carrying a fan-in sink: the puts route (and
/// forward, under churn) individually, and the original requester gets one
/// [`Reply::PutsAck`] once the last of them completed.
///
/// Stops on `Shutdown` (with a final journal flush), on `Crash` (without
/// one), and — once the peer has gracefully departed and only forwards —
/// after a bounded idle period ([`ClusterConfig::forwarder_reap_idle`]),
/// returning the thread (and its transport binding) to the system.
fn peer_main(
    id: PeerId,
    mailbox: Mailbox,
    directory: Arc<Directory>,
    engine: StorageEngine,
    kts: KtsNode,
    metrics: Option<PeerMetrics>,
    trace: Option<TraceSink>,
) {
    let batching = engine.options().fsync.batching();
    // The distributed-tracing state: the ring of completed request trees
    // every peer keeps (scraped by `SlowRequests`), the per-batch traced
    // units, and the pid lane spans are recorded under. The slowlog only
    // fills when *sampled* requests arrive — the client decides sampling —
    // so an untraced workload pays nothing beyond a few nanoseconds of
    // batch-boundary clock reads.
    let slowlog = SpanLog::new(PEER_SLOWLOG_CAPACITY);
    let mut traced: Vec<TracedUnit> = Vec::new();
    let trace_pid = u64::from(std::process::id());
    let mut engine = engine;
    if let Some(sink) = &trace {
        // Hang a `storage.fsync` span on every WAL sync via the engine's
        // observer hook — the storage-level twin of the batch-covering
        // `peer.fsync` span (which additionally carries the trace ids).
        let sink = sink.clone();
        engine.set_sync_observer(rdht_storage::SyncObserver::new(move |elapsed| {
            let dur = us(elapsed);
            sink.complete_at(
                "storage.fsync",
                trace_pid,
                id.0,
                sink.now_us().saturating_sub(dur),
                dur,
            );
        }));
    }
    let mut runtime = PeerRuntime {
        engine,
        kts,
        forwards: Vec::new(),
        dedup: DedupWindow::default(),
        local_seq: 0,
    };
    // A journal I/O failure (disk full, directory removed, ...) is latched
    // inside the engine; the peer keeps serving its in-memory state —
    // availability over durability — but the degradation must not be
    // silent: report it once.
    let mut poison_reported = false;
    // Set at the commit point of a graceful leave: the peer is a pure
    // forwarder from here on and is reaped once idle.
    let mut departed = false;
    // Sticky: set once this peer departed or retired a forwarding rule
    // whose target died. From then on a data position no rule covers is
    // re-resolved through the directory before any local fallback —
    // retiring a rule must not silently turn the *next* stale request into
    // local service from a store that handed the range away.
    let mut reroute_uncovered = false;
    // A non-batchable request encountered while draining a batch: handled
    // (alone) on the next iteration, preserving arrival order.
    let mut carry: Option<Incoming> = None;
    let mut batch: Vec<Incoming> = Vec::new();
    // Replies owed for the current batch, sent only after the covering sync
    // — durability is acknowledged per op strictly after the fsync that
    // covers it.
    let mut deferred: Vec<(ReplySink, Reply)> = Vec::new();
    'peer: loop {
        let first = match carry.take() {
            Some(incoming) => incoming,
            None if departed => match mailbox.recv_timeout(directory.forwarder_reap_idle) {
                Some(incoming) => incoming,
                // Idle past the grace period (or the transport side is
                // gone): nothing routed under the old view is still in
                // flight — reap the forwarder. The directory already
                // resolves the range to the successor.
                None => break 'peer,
            },
            None => match mailbox.recv() {
                Some(incoming) => incoming,
                None => break 'peer,
            },
        };
        report_journal_poison(id, &runtime.engine, &mut poison_reported);
        match first.request {
            // Lifecycle messages are exempt from the artificial network
            // delay: shutting a cluster down is not a network exchange, and
            // a crash is by definition instantaneous.
            Request::Shutdown => {
                if let Some(m) = &metrics {
                    m.requests.of(&first.request).inc();
                }
                runtime.engine.sync_to_durable();
                report_journal_poison(id, &runtime.engine, &mut poison_reported);
                break 'peer;
            }
            Request::Crash => {
                if let Some(m) = &metrics {
                    m.requests.of(&first.request).inc();
                }
                break 'peer;
            }
            _ => {}
        }
        batch.clear();
        batch.push(first);
        if let Some((max_batch, max_delay)) = batching {
            if batchable(&batch[0].request) {
                // Group-commit drain: this peer is the commit leader for
                // whatever is queued right now. Followers arriving within
                // `max_delay` join the batch; a non-batchable request ends
                // the drain and is carried to the next iteration.
                let deadline = Instant::now() + max_delay;
                while (batch.len() as u64) < max_batch {
                    let now = Instant::now();
                    let next = if max_delay.is_zero() || now >= deadline {
                        mailbox.try_recv()
                    } else {
                        mailbox.recv_timeout(deadline - now)
                    };
                    match next {
                        Some(incoming) if batchable(&incoming.request) => batch.push(incoming),
                        Some(incoming) => {
                            carry = Some(incoming);
                            break;
                        }
                        None => break, // empty / timed out / disconnected
                    }
                }
            }
        }
        if let Some(m) = &metrics {
            m.queue_depth.set(batch.len() as i64);
            m.drain_batch.observe(batch.len() as u64);
        }
        for incoming in batch.drain(..) {
            if let Some(m) = &metrics {
                m.requests.of(&incoming.request).inc();
            }
            let service_started = metrics.is_some().then(Instant::now);
            // The artificial delay models the *network*: it is paid once
            // per message that arrived on the transport, not per
            // constituent put of an exploded batch.
            if !directory.message_delay.is_zero() {
                std::thread::sleep(directory.message_delay);
            }
            let mut units: VecDeque<Incoming> = VecDeque::new();
            units.push_back(incoming);
            while let Some(unit) = units.pop_front() {
                let Incoming {
                    request,
                    reply,
                    trace: unit_trace,
                    arrived,
                } = unit;
                // A sampled context makes this unit produce spans and a
                // slowlog tree at the batch boundary; introspection and
                // lifecycle kinds never trace.
                let sampled =
                    unit_trace.filter(|context| context.is_sampled() && traceable(&request));
                let kind_label = request_kind(&request);
                let apply_start = Instant::now();
                let deferred_mark = deferred.len();
                'unit: {
                    // A batched put fans out locally: one constituent put per
                    // replication hash, each with a fan-in sink that answers
                    // the original requester once all of them completed. The
                    // constituents route individually below — under churn some
                    // may forward to the peer now responsible for them.
                    if let Request::PutReplicas {
                        op,
                        hashes,
                        key,
                        payload,
                        timestamp,
                    } = request
                    {
                        // Constituents inherit the batch's op, disambiguated by
                        // their hash at the applying peer — a retried batch that
                        // was *regrouped* under a changed directory view still
                        // deduplicates per constituent. They also inherit the
                        // batch's trace context and *original* arrival instant,
                        // so queue-wait attribution survives the explosion.
                        let sinks = ReplySink::fanin(hashes.len(), reply);
                        for (hash, sink) in hashes.into_iter().zip(sinks) {
                            units.push_back(Incoming {
                                request: Request::PutReplica {
                                    op,
                                    hash,
                                    key: key.clone(),
                                    payload: payload.clone(),
                                    timestamp,
                                },
                                reply: sink,
                                trace: unit_trace,
                                arrived,
                            });
                        }
                        break 'unit;
                    }
                    // A request for a position this peer handed away is re-sent
                    // to the peer that took it over: it was routed here through
                    // a directory read that predates the hand-off's commit.
                    // Newest rule wins (the same interval can change hands more
                    // than once). A rule whose target is unreachable is
                    // retired; the request is then re-resolved through the
                    // *directory* — if the live responsible is another peer
                    // (the takeover peer departed onward and was reaped, so the
                    // range lives at its successor now) it is re-sent there,
                    // and only when this peer is the live successor again (the
                    // takeover peer crashed) is it served locally, which is
                    // exactly the failover the ring prescribes.
                    let (request, reply) = match data_position(&request, &directory.family) {
                        Some(position) => {
                            let mut pending = Some((request, reply));
                            while let Some(index) = runtime
                                .forwards
                                .iter()
                                .rposition(|rule| rule.covers(position))
                            {
                                let (request, sink) = pending.take().expect("present until sent");
                                match runtime.forwards[index]
                                    .target
                                    .send_with_sink_traced(request, sink, unit_trace)
                                {
                                    Ok(()) => break,
                                    Err(rejected) => {
                                        runtime.forwards.remove(index);
                                        reroute_uncovered = true;
                                        pending = Some((rejected.request, rejected.sink));
                                    }
                                }
                            }
                            if departed || reroute_uncovered {
                                if let Some((request, sink)) = pending.take() {
                                    match directory.responsible_for(position) {
                                        Some((responsible, endpoint)) if responsible != id => {
                                            if let Err(rejected) = endpoint
                                                .send_with_sink_traced(request, sink, unit_trace)
                                            {
                                                pending = Some((rejected.request, rejected.sink));
                                            }
                                        }
                                        _ => pending = Some((request, sink)),
                                    }
                                }
                            }
                            match pending {
                                Some(pair) => pair,
                                None => break 'unit, // forwarded
                            }
                        }
                        None => (request, reply),
                    };
                    match request {
                        Request::PutReplica {
                            op,
                            hash,
                            key,
                            payload,
                            timestamp,
                        } => {
                            // A hash outside the configured family has no ring
                            // position (and can arrive over TCP from any
                            // client): reject it typed instead of panicking.
                            let Some(function) = directory.family.function(hash) else {
                                deferred.push((
                                    reply,
                                    Reply::Error {
                                        reason: format!("unknown replication hash {hash:?}"),
                                    },
                                ));
                                break 'unit;
                            };
                            if let Some(op) = op {
                                if let Some(cached) = runtime.dedup.lookup(op, hash.0) {
                                    directory.dedup.suppressed.inc();
                                    deferred.push((reply, cached));
                                    break 'unit;
                                }
                            }
                            let accepted = match runtime.engine.replicas().get(hash, &key) {
                                Some(existing) => timestamp > existing.stamp,
                                None => true,
                            };
                            if accepted {
                                let position = function.eval(&key);
                                let value = ReplicaValue::new(payload, timestamp);
                                runtime
                                    .engine
                                    .record_replica_put(hash, &key, &value, position);
                            }
                            if let Some(op) = op {
                                runtime.dedup.record(op, hash.0, Reply::PutAck);
                                directory.dedup.applied.inc();
                            }
                            deferred.push((reply, Reply::PutAck));
                        }
                        Request::PutReplicas { .. } => {
                            unreachable!("batched puts are exploded before routing")
                        }
                        Request::GetReplica { hash, key } => {
                            let stored = runtime
                                .engine
                                .replicas()
                                .get(hash, &key)
                                .map(|replica| (replica.payload.clone(), replica.stamp));
                            deferred.push((reply, Reply::Replica(stored)));
                        }
                        Request::Timestamp {
                            op,
                            key,
                            generate,
                            observation_hint,
                        } => {
                            // A retried `gen_ts` must not increment the counter
                            // again: the cached reply returns the timestamp the
                            // first application generated. (A cached
                            // `NeedsInitialization` is safe too — the client
                            // allocates a fresh op for the hint-carrying call.)
                            if let Some(op) = op {
                                if let Some(cached) = runtime.dedup.lookup(op, NO_SUB) {
                                    directory.dedup.suppressed.inc();
                                    deferred.push((reply, cached));
                                    break 'unit;
                                }
                            }
                            let answer = if runtime.kts.has_counter(&key) {
                                let ts = if generate {
                                    runtime
                                        .kts
                                        .gen_ts_with(
                                            &key,
                                            IndirectObservation::nothing,
                                            &mut runtime.engine,
                                        )
                                        .timestamp
                                } else {
                                    runtime
                                        .kts
                                        .last_ts_with(
                                            &key,
                                            LastTsInitPolicy::ObservedMax,
                                            IndirectObservation::nothing,
                                            &mut runtime.engine,
                                        )
                                        .timestamp
                                };
                                Reply::Timestamp(ts)
                            } else {
                                match observation_hint {
                                    None => Reply::NeedsInitialization,
                                    Some(observed) => {
                                        // Section 4.2.2: the counter is (re)born
                                        // from a gathered observation instead of
                                        // a direct hand-over.
                                        if let Some(m) = &metrics {
                                            m.indirect_initializations.inc();
                                        }
                                        let observation = if observed.is_zero() {
                                            IndirectObservation::nothing()
                                        } else {
                                            IndirectObservation::observed(observed)
                                        };
                                        let ts = if generate {
                                            runtime
                                                .kts
                                                .gen_ts_with(
                                                    &key,
                                                    || observation,
                                                    &mut runtime.engine,
                                                )
                                                .timestamp
                                        } else {
                                            runtime
                                                .kts
                                                .last_ts_with(
                                                    &key,
                                                    LastTsInitPolicy::ObservedMax,
                                                    || observation,
                                                    &mut runtime.engine,
                                                )
                                                .timestamp
                                        };
                                        Reply::Timestamp(ts)
                                    }
                                }
                            };
                            if let Some(op) = op {
                                runtime.dedup.record(op, NO_SUB, answer.clone());
                                if matches!(answer, Reply::Timestamp(_)) {
                                    directory.dedup.applied.inc();
                                }
                            }
                            deferred.push((reply, answer));
                        }
                        Request::HandoffRange {
                            op,
                            start,
                            end,
                            target_id,
                            kind,
                            fault,
                        } => {
                            // A coordinator re-send of a hand-off this peer
                            // already resolved (committed *or* aborted) is
                            // answered from the cache: driving a second transfer
                            // for the same op would re-export a range that may
                            // already live elsewhere.
                            if let Some(op) = op {
                                if let Some(cached) = runtime.dedup.lookup(op, NO_SUB) {
                                    directory.dedup.suppressed.inc();
                                    reply.send(cached);
                                    break 'unit;
                                }
                            }
                            // The target is addressed by id and resolved through
                            // the transport: a joiner is bound there before it
                            // is a directory member.
                            let target = match directory.transport.endpoint(target_id) {
                                Ok(endpoint) => endpoint,
                                Err(error) => {
                                    let answer = Reply::HandoffFailed {
                                        reason: format!("cannot resolve hand-off target: {error}"),
                                    };
                                    if let Some(op) = op {
                                        runtime.dedup.record(op, NO_SUB, answer.clone());
                                    }
                                    reply.send(answer);
                                    break 'unit;
                                }
                            };
                            // Phase `Exported`: copy the replicas in range, drain
                            // the counters of the keys timestamped there. The
                            // removals are synced before the bundle ships — under a
                            // deferred-sync policy an unsynced removal could be
                            // resurrected by a crash *after* the counters moved,
                            // breaking Rule 3's "at most one live counter" durably.
                            let export_started = Instant::now();
                            let bundle = export_handoff(
                                &mut runtime.engine,
                                &mut runtime.kts,
                                &directory.family,
                                start,
                                end,
                            );
                            runtime.engine.sync_to_durable();
                            if let Some(m) = &metrics {
                                m.transfer
                                    .export_ns
                                    .observe_duration(export_started.elapsed());
                            }
                            if let (Some(sink), Some(context)) = (&trace, sampled) {
                                emit_phase(
                                    sink,
                                    trace_pid,
                                    id.0,
                                    "peer.handoff_export",
                                    export_started,
                                    context.trace_id,
                                );
                            }
                            let replicas_moved = bundle.replicas.len();
                            let counters_moved = bundle.counters.len();
                            if fault == Some(HandoffFault::CrashAfterExport) {
                                // Fail-stop mid-transfer: the bundle is lost in
                                // flight. Recovery rolls back — the journal still
                                // holds every replica, and the drained counters
                                // re-initialize indirectly.
                                directory.mark_dead(id);
                                break 'peer;
                            }
                            // Phase `Installed`: ship the bundle and wait for
                            // the target to journal it, re-sending on a pure
                            // timeout under the *same* install op — a target
                            // that journaled the bundle but whose ack was lost
                            // re-acknowledges from its dedup cache instead of
                            // re-applying a bundle that interleaved counter
                            // activity may have superseded.
                            let install_op = Some(OpId {
                                client: id.0,
                                seq: runtime.local_seq,
                            });
                            runtime.local_seq += 1;
                            let mut acked = false;
                            let install_started = Instant::now();
                            for _ in 0..INSTALL_ATTEMPTS {
                                let outcome = match target.send(Request::InstallState {
                                    op: install_op,
                                    start,
                                    end,
                                    bundle: bundle.clone(),
                                }) {
                                    Ok(pending) => pending.wait(INSTALL_ACK_TIMEOUT),
                                    Err(error) => Err(CallError::Transport(error)),
                                };
                                match outcome {
                                    Ok(Reply::InstallAck { .. }) => {
                                        acked = true;
                                        break;
                                    }
                                    // Only silence warrants a re-send; a
                                    // teardown or rejection means the target is
                                    // gone or refused — definitive either way.
                                    Err(CallError::Timeout) => continue,
                                    _ => break,
                                }
                            }
                            // Everything between the export and here is the
                            // hand-off stall of ROADMAP item 5: the peer loop
                            // serving nothing while the bundle ships.
                            let stalled = install_started.elapsed();
                            if let Some(m) = &metrics {
                                m.handoff_stall_ns
                                    .add(u64::try_from(stalled.as_nanos()).unwrap_or(u64::MAX));
                                m.transfer.install_ns.observe_duration(stalled);
                            }
                            if let (Some(sink), Some(context)) = (&trace, sampled) {
                                emit_phase(
                                    sink,
                                    trace_pid,
                                    id.0,
                                    "peer.handoff_install",
                                    install_started,
                                    context.trace_id,
                                );
                            }
                            if !acked {
                                // The target died (or stayed silent through the
                                // whole retry budget) before journaling the
                                // bundle: abort without committing. This peer
                                // keeps its replicas (the export only copied
                                // them) and keeps serving; the moved counters
                                // are gone, which only costs indirect re-inits.
                                let answer = Reply::HandoffFailed {
                                    reason: "hand-off target never acknowledged the install"
                                        .to_string(),
                                };
                                if let Some(op) = op {
                                    runtime.dedup.record(op, NO_SUB, answer.clone());
                                }
                                reply.send(answer);
                                break 'unit;
                            }
                            if fault == Some(HandoffFault::CrashAfterInstall) {
                                // Fail-stop between the target's ack and the commit:
                                // the target's journal holds the state, so a retried
                                // join/leave completes the transfer.
                                directory.mark_dead(id);
                                break 'peer;
                            }
                            // Commit point — all three steps inside one serially
                            // processed request, so no client request interleaves:
                            // flip the directory, prune the moved range from the
                            // journal, start forwarding.
                            let commit_started = Instant::now();
                            match kind {
                                HandoffKind::Join => directory.revive(target_id, target.clone()),
                                HandoffKind::Leave => directory.mark_dead(id),
                            }
                            commit_handoff(&mut runtime.engine, start, end);
                            runtime.forwards.push(Forwarding {
                                start,
                                end,
                                everything: kind == HandoffKind::Leave,
                                target,
                            });
                            // The commit record must be durable before the
                            // coordinator learns of the flip (a crash right after
                            // the reply must not replay the pruned range back in);
                            // for a departing peer this is also its final flush.
                            runtime.engine.sync_to_durable();
                            if let Some(m) = &metrics {
                                m.transfer
                                    .commit_ns
                                    .observe_duration(commit_started.elapsed());
                            }
                            if let (Some(sink), Some(context)) = (&trace, sampled) {
                                emit_phase(
                                    sink,
                                    trace_pid,
                                    id.0,
                                    "peer.handoff_commit",
                                    commit_started,
                                    context.trace_id,
                                );
                            }
                            if kind == HandoffKind::Leave {
                                departed = true;
                            }
                            let answer = Reply::HandoffComplete {
                                replicas_moved,
                                counters_moved,
                            };
                            if let Some(op) = op {
                                runtime.dedup.record(op, NO_SUB, answer.clone());
                                directory.dedup.applied.inc();
                            }
                            reply.send(answer);
                        }
                        Request::InstallState {
                            op,
                            start,
                            end,
                            bundle,
                        } => {
                            // A re-shipped bundle whose ack was lost must not be
                            // re-applied: interleaved counter activity may have
                            // advanced past the bundle's images, and re-installing
                            // would regress them. The cached ack answers instead.
                            if let Some(op) = op {
                                if let Some(cached) = runtime.dedup.lookup(op, NO_SUB) {
                                    directory.dedup.suppressed.inc();
                                    reply.send(cached);
                                    break 'unit;
                                }
                            }
                            let report =
                                install_handoff(&mut runtime.engine, &mut runtime.kts, bundle);
                            // This peer owns (start, end] again: retire any
                            // forwarding rule that overlaps it, or a former owner
                            // and its round-tripped successor would bounce requests
                            // forever.
                            runtime.forwards.retain(|rule| {
                                !ranges_intersect((rule.start, rule.end), (start, end))
                            });
                            // The bundle must be durable before the ack: the source
                            // treats the ack as licence to prune its own copy at
                            // commit, so an unsynced install journal would be the
                            // only holder of the moved state.
                            runtime.engine.sync_to_durable();
                            let answer = Reply::InstallAck {
                                replicas_installed: report.replicas_installed,
                                counters_received: report.counters_received,
                            };
                            if let Some(op) = op {
                                runtime.dedup.record(op, NO_SUB, answer.clone());
                                directory.dedup.applied.inc();
                            }
                            reply.send(answer);
                        }
                        Request::Metrics => {
                            // Served locally wherever it lands (a scrape targets
                            // a peer, not a key) and answered immediately:
                            // reading instruments has no durability ordering.
                            let answer = match &metrics {
                                Some(m) => Reply::Metrics(encode(m.registry())),
                                None => Reply::Error {
                                    reason: "metrics are disabled on this peer".to_string(),
                                },
                            };
                            reply.send(answer);
                        }
                        Request::SlowRequests { k } => {
                            // Introspection, like a metrics scrape: served
                            // wherever it lands, answered immediately, and —
                            // per the sampler-bypass rule — never traced and
                            // never entered into the slowlog it reads.
                            reply.send(Reply::SlowRequests(slowlog.slowest(k as usize)));
                        }
                        Request::Shutdown | Request::Crash => {
                            unreachable!("lifecycle requests never enter a batch")
                        }
                    }
                } // 'unit
                if let Some(context) = sampled {
                    // Only units that owe a deferred (post-fsync) reply get
                    // a slowlog tree: forwarded units belong to the peer
                    // that serves them, and inline-answered protocol
                    // requests record their own phase spans above.
                    if deferred.len() > deferred_mark {
                        traced.push(TracedUnit {
                            context,
                            name: kind_label,
                            arrived,
                            apply_start,
                            apply_end: Instant::now(),
                            deferred_at: deferred_mark,
                            replied: None,
                        });
                    }
                }
            }
            if let (Some(m), Some(started)) = (&metrics, service_started) {
                m.service_ns.observe_duration(started.elapsed());
            }
        }
        // The batch boundary: one covering fsync for everything the batch
        // journaled (free if the batch was read-only), then the
        // acknowledgements.
        let sync_start = Instant::now();
        if batching.is_some() {
            runtime.engine.sync_to_durable();
        }
        let sync_end = Instant::now();
        if traced.is_empty() {
            for (reply, answer) in deferred.drain(..) {
                reply.send(answer);
            }
        } else {
            // Traced units in the batch: time each owed reply's send, then
            // finalize the units into spans and slowlog trees — including
            // the one covering-fsync span the whole group-commit batch
            // shares.
            for (index, (reply, answer)) in deferred.drain(..).enumerate() {
                reply.send(answer);
                if let Some(unit) = traced.iter_mut().find(|unit| unit.deferred_at == index) {
                    unit.replied = Some(Instant::now());
                }
            }
            finish_traced_batch(
                &mut traced,
                &slowlog,
                trace.as_ref(),
                trace_pid,
                id.0,
                sync_start,
                sync_end,
            );
        }
    }
}
