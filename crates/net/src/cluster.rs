//! The cluster coordinator: configuration, the shared membership
//! [`Directory`], and the lifecycle of the peers it runs — spawn, crash,
//! restart from on-disk state, join and graceful leave.
//!
//! What a peer *does* with a request lives in `peer.rs` ([`Peer`]); this
//! file only decides which peers exist, starts them (one path:
//! `Cluster::start_peer`) and drives hand-offs between them
//! (`Cluster::drive_handoff`). Everything is transport-generic: the backend
//! is selected by [`ClusterConfig::with_transport`] — the in-process
//! [`ChannelTransport`] (deterministic, fast, the default) or the
//! length-framed [`TcpTransport`] over loopback sockets. Multi-process
//! deployments run one [`serve_tcp_peer`] per process and connect with
//! [`crate::ClusterClient::connect_tcp`].

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rdht_hashing::{HashFamily, HashId, Key};
use rdht_membership::{plan_join, plan_leave, MembershipError};
use rdht_metrics::{encode, Counter, Registry, TraceContext, TraceSink};
use rdht_storage::StorageOptions;

use crate::client::{allocate_actor_id, ClusterClient};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::message::{HandoffFault, HandoffKind, OpId, Reply, Request};
use crate::metrics::names;
use crate::peer::Peer;
use crate::tcp::TcpTransport;
use crate::transport::{CallError, ChannelTransport, PeerEndpoint, Transport, TransportError};

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
    /// functions, no durability, and the in-process channel transport.
    pub fn new(num_peers: usize, num_replicas: usize, seed: u64) -> Self {
        ClusterConfig {
            num_peers,
            num_replicas,
            seed,
            storage: None,
            forwarder_reap_idle: DEFAULT_FORWARDER_REAP_IDLE,
            transport: TransportKind::Channel,
            faults: None,
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
    pub(crate) forwarder_reap_idle: Duration,
    /// Cluster-wide dedup totals, fed by every peer's idempotency window.
    pub(crate) dedup: DedupCounters,
}

impl Directory {
    /// A directory over `transport` whose ring holds `members`, all alive,
    /// each reached through the endpoint the transport resolves it to.
    pub(crate) fn new(
        family: HashFamily,
        transport: Arc<dyn Transport>,
        members: impl IntoIterator<Item = PeerId>,
        forwarder_reap_idle: Duration,
    ) -> Self {
        let ring = members
            .into_iter()
            .map(|peer| {
                let endpoint = transport
                    .endpoint(peer)
                    .expect("every directory member resolves to an endpoint");
                (peer, (endpoint, true))
            })
            .collect();
        Directory {
            family,
            transport,
            peers: RwLock::new(ring),
            forwarder_reap_idle,
            dedup: DedupCounters::default(),
        }
    }

    /// Successor-on-the-ring responsibility over a locked ring: the first
    /// *alive* peer clockwise from `position`.
    fn successor(
        peers: &BTreeMap<PeerId, (PeerEndpoint, bool)>,
        position: u64,
    ) -> Option<(PeerId, &PeerEndpoint)> {
        peers
            .range(PeerId(position)..)
            .chain(peers.iter())
            .find(|(_, (_, alive))| *alive)
            .map(|(id, (endpoint, _))| (*id, endpoint))
    }

    /// The peer currently responsible for a position.
    pub(crate) fn responsible_for(&self, position: u64) -> Option<(PeerId, PeerEndpoint)> {
        Directory::successor(&self.peers.read(), position)
            .map(|(id, endpoint)| (id, endpoint.clone()))
    }

    /// Index of the first of `positions` whose responsible is also the
    /// responsible of `anchor`, under one read of the ring.
    pub(crate) fn first_sharing_peer(
        &self,
        anchor: u64,
        positions: impl IntoIterator<Item = u64>,
    ) -> Option<usize> {
        let peers = self.peers.read();
        let (anchor, _) = Directory::successor(&peers, anchor)?;
        positions.into_iter().position(|position| {
            Directory::successor(&peers, position).is_some_and(|(id, _)| id == anchor)
        })
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

    /// The endpoint and alive flag of a peer that is (or was) a member.
    pub(crate) fn member(&self, peer: PeerId) -> Option<(PeerEndpoint, bool)> {
        self.peers.read().get(&peer).cloned()
    }

    /// The endpoint of a *live* member — what a crash or a graceful leave
    /// acts on. Acting on an unknown or already dead id is an error, not a
    /// silent success: that is how failover tests end up testing nothing.
    pub(crate) fn live_member(&self, peer: PeerId) -> Result<PeerEndpoint, MembershipError> {
        match self.member(peer) {
            None => Err(MembershipError::UnknownPeer(peer.0)),
            Some((_, false)) => Err(MembershipError::AlreadyDead(peer.0)),
            Some((endpoint, true)) => Ok(endpoint),
        }
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
    /// thread's instruments).
    registries: BTreeMap<PeerId, Registry>,
}

impl Cluster {
    /// Spawns a cluster with `num_peers` peers and `num_replicas` replication
    /// hash functions, with no durability and the in-process channel
    /// transport.
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
        let directory = Directory::new(family, transport, [], config.forwarder_reap_idle);
        let mut cluster = Cluster {
            directory: Arc::new(directory),
            handles: BTreeMap::new(),
            coordinator_client: allocate_actor_id(),
            next_coordination_seq: 0,
            registries: BTreeMap::new(),
            config,
        };
        let mut rng = StdRng::seed_from_u64(cluster.config.seed ^ 0xc1u64);
        while cluster.handles.len() < cluster.config.num_peers {
            let id = PeerId(rng.gen());
            if cluster.handles.contains_key(&id) {
                continue;
            }
            let (endpoint, _) = cluster
                .start_peer(id)
                .unwrap_or_else(|error| panic!("cannot bind peer {:016x}: {error}", id.0));
            cluster.directory.revive(id, endpoint);
        }
        cluster
    }

    /// The one way a peer of this cluster comes up, whether at spawn, on
    /// restart or as a joiner: recover it from its storage directory
    /// ([`Peer::open`]), bind it on the transport and spawn its thread
    /// ([`Peer::start`]), and keep the handles on its thread and registry.
    /// The peer is *not* registered in the directory — the caller decides
    /// when it becomes routable.
    fn start_peer(&mut self, id: PeerId) -> Result<(PeerEndpoint, RestartReport), TransportError> {
        let (peer, recovered) = Peer::open(
            id,
            Arc::clone(&self.directory),
            &self.config.storage,
            self.config.faults.as_ref(),
            self.config.trace.clone(),
        );
        let registry = peer.registry();
        let (endpoint, handle) = peer.start()?;
        self.registries.insert(id, registry);
        self.handles.insert(id, handle);
        Ok((endpoint, recovered))
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

    /// The metrics registry shared with `peer`'s thread, or `None` when the
    /// id is unknown. The returned handle reads the live instruments —
    /// encode it any time for a fresh snapshot.
    pub fn registry(&self, peer: PeerId) -> Option<Registry> {
        self.registries.get(&peer).cloned()
    }

    /// Renders `peer`'s registry as Prometheus text exposition without a
    /// message exchange — the in-process twin of a [`Request::Metrics`]
    /// scrape. `None` when the id is unknown.
    pub fn scrape(&self, peer: PeerId) -> Option<String> {
        self.registries.get(&peer).map(encode)
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
        self.directory.alive_ids_sorted().len()
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
        self.directory.member(peer).map(|(endpoint, _)| endpoint)
    }

    /// Whether `peer` is currently alive (`false` for dead or unknown ids).
    pub fn peer_is_alive(&self, peer: PeerId) -> bool {
        self.directory.live_member(peer).is_ok()
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
    /// down.
    pub fn crash_peer(&self, peer: PeerId) -> Result<(), MembershipError> {
        let endpoint = self.directory.live_member(peer)?;
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
        let Some((endpoint, _)) = self.directory.member(peer) else {
            return Err(MembershipError::UnknownPeer(peer.0));
        };
        // Make sure the old thread is gone before touching its directory:
        // two threads must never share a WAL. The thread can still be
        // running even when the peer is marked dead — a gracefully departed
        // peer lingers as a forwarder — so send the stop signal directly
        // instead of going through crash_peer's liveness check (which would
        // skip it and leave handle.join() waiting forever). Joining the
        // handle also guarantees the old transport binding was torn down
        // (the thread unbinds on exit) before the id is bound again.
        self.directory.mark_dead(peer);
        let _ = endpoint.send_no_reply(Request::Crash);
        if let Some(handle) = self.handles.remove(&peer) {
            let _ = handle.join();
        }

        let (endpoint, report) = self
            .start_peer(peer)
            .unwrap_or_else(|error| panic!("cannot rebind peer {:016x}: {error}", peer.0));
        self.directory.revive(peer, endpoint);
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
        if self.directory.member(new_id).is_some() {
            return Err(MembershipError::AlreadyMember(new_id.0));
        }
        let alive = self.directory.alive_ids_sorted();

        // Bind and spawn the joiner first, unregistered: it must be able to
        // process the InstallState message (the hand-off source resolves it
        // through the *transport*), but no client may route to it until the
        // hand-off commits and registers it in the directory. Reopening an
        // existing storage directory (a retry after a crash mid-transfer)
        // recovers what the previous attempt already journaled.
        let (joiner, recovered) = self.start_peer(new_id).map_err(|error| {
            MembershipError::TransferFailed(format!("cannot bind joiner: {error}"))
        })?;

        if alive.is_empty() {
            // Bootstrapping an empty ring: nothing to split.
            self.directory.revive(new_id, joiner);
            return Ok(JoinReport {
                peer: new_id,
                source: new_id,
                range_start: new_id.0,
                range_end: new_id.0,
                replicas_moved: recovered.recovered_replicas,
                counters_moved: 0,
            });
        }

        let outcome = plan_join(&alive, new_id.0).and_then(|plan| {
            let range = (plan.range_start, plan.range_end);
            self.drive_handoff(PeerId(plan.source), range, new_id, HandoffKind::Join, fault)
                .map(|moved| (plan, moved))
        });
        match outcome {
            // The source registered the joiner at its commit point.
            Ok((plan, (replicas_moved, counters_moved))) => Ok(JoinReport {
                peer: new_id,
                source: PeerId(plan.source),
                range_start: plan.range_start,
                range_end: plan.range_end,
                replicas_moved,
                counters_moved,
            }),
            Err(error) => {
                // The hand-off never committed (no plan, the source crashed,
                // answered a failure, or stayed silent through every bounded
                // wait): tear the unregistered joiner down. Whatever the
                // joiner already journaled survives in its directory; a
                // retried join_peer for the same id recovers it and completes
                // the transfer.
                let _ = joiner.send_no_reply(Request::Crash);
                if let Some(handle) = self.handles.remove(&new_id) {
                    let _ = handle.join();
                }
                self.registries.remove(&new_id);
                Err(error)
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
        self.directory.live_member(leaving)?;
        let alive = self.directory.alive_ids_sorted();
        let plan = plan_leave(&alive, leaving.0)?;
        let target = PeerId(plan.target);
        let range = (plan.range_start, plan.range_end);
        let (replicas_moved, counters_moved) =
            self.drive_handoff(leaving, range, target, HandoffKind::Leave, fault)?;
        Ok(LeaveReport {
            peer: leaving,
            target,
            range_start: plan.range_start,
            range_end: plan.range_end,
            replicas_moved,
            counters_moved,
        })
    }

    /// Drives one hand-off — the split of a join or the departure of a leave
    /// — at `driver`, the live peer that owns the moving range, and returns
    /// how many replicas and counters moved.
    ///
    /// Bounded waits with re-sends, not an unbounded wait: a lost request
    /// (or a lost completion reply) is re-sent under the same [`OpId`], and
    /// a driver that already committed answers again from its dedup cache
    /// instead of driving a second transfer. A teardown of the reply path
    /// (the driver fail-stopped) still surfaces promptly as `Dropped`. On a
    /// traced cluster the exchange runs under one sampled root context
    /// (re-sends included), so the driver records its
    /// `peer.handoff_{export,install,commit}` spans.
    fn drive_handoff(
        &mut self,
        driver: PeerId,
        (start, end): (u64, u64),
        target_id: PeerId,
        kind: HandoffKind,
        fault: Option<HandoffFault>,
    ) -> Result<(usize, usize), MembershipError> {
        let endpoint = self
            .peer_endpoint(driver)
            .expect("the planned driver is a live directory member");
        let op = OpId {
            client: self.coordinator_client,
            seq: self.next_coordination_seq,
        };
        self.next_coordination_seq += 1;
        let request = Request::HandoffRange {
            op: Some(op),
            start,
            end,
            target_id,
            kind,
            fault,
        };
        let context = self
            .config
            .trace
            .is_some()
            .then(|| TraceContext::sampled_root(rdht_metrics::next_span_id()));
        let outcome = endpoint.call_resending(
            &request,
            context,
            COORDINATION_ATTEMPTS,
            COORDINATION_ATTEMPT_TIMEOUT,
        );
        // The commit point flips the directory *before* the reply: a joiner
        // that is registered, or a leaver that no longer is, means the
        // hand-off committed whatever became of the completion replies.
        // Injected crashes also mark the driver dead without committing, so
        // the directory only counts as evidence when no fault was injected.
        let (committed, role) = match kind {
            HandoffKind::Join => (self.peer_is_alive(target_id), "source"),
            HandoffKind::Leave => (!self.peer_is_alive(driver), "departing"),
        };
        match outcome {
            Ok(Reply::HandoffComplete {
                replicas_moved,
                counters_moved,
            }) => Ok((replicas_moved, counters_moved)),
            // Every bounded wait timed out, but the hand-off committed and
            // only the completion replies were lost. The target owns the
            // range — tearing a joiner down now would corrupt the ring — so
            // report success (the moved counts are unknown; the state itself
            // is where it belongs).
            Err(CallError::Exhausted { .. }) if committed && fault.is_none() => Ok((0, 0)),
            Err(CallError::Exhausted { attempts, .. }) => {
                Err(MembershipError::CoordinationTimeout {
                    peer: driver.0,
                    attempts,
                })
            }
            Ok(Reply::HandoffFailed { reason }) | Err(CallError::Rejected(reason)) => {
                Err(MembershipError::TransferFailed(reason))
            }
            Ok(reply) => Err(MembershipError::TransferFailed(format!(
                "unexpected hand-off reply: {reply:?}"
            ))),
            Err(_) => Err(MembershipError::TransferFailed(format!(
                "the {role} peer crashed mid-transfer"
            ))),
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
    let directory = Arc::new(Directory::new(
        HashFamily::new(config.num_replicas, config.seed),
        transport,
        config.peers.iter().map(|(peer, _)| *peer),
        DEFAULT_FORWARDER_REAP_IDLE,
    ));
    let trace = config.trace_out.as_ref().map(|_| TraceSink::new());
    let (peer, _) = Peer::open(config.id, directory, &config.storage, None, trace.clone());
    peer.serve(mailbox);
    if let (Some(path), Some(sink)) = (&config.trace_out, &trace) {
        sink.write_to(path)
            .map_err(|error| TransportError::Io(format!("cannot write trace file: {error}")))?;
    }
    Ok(())
}
