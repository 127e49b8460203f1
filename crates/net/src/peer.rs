//! One peer: the state a peer thread owns and the protocol rules it applies.
//!
//! [`Peer::open`] recovers a peer, [`Peer::start`] binds it and spawns its
//! thread, and [`Peer::run`] is the **drain → apply → covering sync → reply**
//! loop over a [`Mailbox`] — transport-generic, so a test can run it without
//! a thread. Each request kind is one method, and each ordering rule the
//! paper's promise rests on has one address:
//!
//! * *exactly-once* — [`Peer::once`]: dedup lookup, apply, record;
//! * *forward, never serve a range handed away* — [`Peer::route`];
//! * *acknowledge only after the covering sync* — handlers push into
//!   `deferred`, and only [`Peer::sync_and_reply`] sends from it;
//! * *Rule 3 durably, and the directory flip at the commit point* —
//!   [`Peer::handoff_export`], [`Peer::handoff_install`] and
//!   [`Peer::handoff_commit`], each ending in its own sync;
//! * *Rule 1 durably* — `kts_from_recovery`, called by [`Peer::open`] only.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rdht_core::durability::DurableState;
use rdht_core::kts::{IndirectObservation, KtsNode};
use rdht_core::{LastTsInitPolicy, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_membership::{commit_handoff, export_handoff, install_handoff, HandoffBundle};
use rdht_metrics::{encode, Histogram, Registry, RequestTree, SpanLog, TraceContext, TraceSink};
use rdht_overlay::in_open_closed_interval;
use rdht_storage::{StorageEngine, StorageMetrics, StorageOp, SyncObserver};

use crate::cluster::{ClusterStorage, Directory, PeerId, RestartReport};
use crate::fault::{set_thread_source, FaultPlan};
use crate::message::{HandoffFault, HandoffKind, OpId, Reply, Request};
use crate::metrics::PeerMetrics;
use crate::transport::{Incoming, Mailbox, PeerEndpoint, ReplySink, TransportError};

/// How long the peer driving a hand-off waits for the target to journal the
/// shipped bundle before **re-sending** it. A lost install ack is the
/// textbook lossy-network hang: the target journaled the bundle but the ack
/// vanished, so the source re-ships under the same [`OpId`] and the target
/// re-acknowledges from its dedup cache without re-applying.
const INSTALL_ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// How many times a hand-off source re-ships a bundle whose install ack
/// never arrived before aborting the transfer.
const INSTALL_ATTEMPTS: u32 = 5;

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

/// Ring capacity of the per-peer slow-request log: the last N completed
/// sampled request trees, scraped by [`Request::SlowRequests`].
const PEER_SLOWLOG_CAPACITY: usize = 128;

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
/// per-hash puts, and each constituent put routes (and forwards)
/// individually; so does each constituent of a `Batch`. A hash id outside the configured family (possible over
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

/// Whether a request may ride in a group-commit batch. Only plain data
/// requests (alone, or several to a frame) batch; protocol and lifecycle
/// messages are barriers — they are processed alone so their own ack/sync
/// ordering stays explicit.
fn batchable(request: &Request) -> bool {
    request.is_data() || matches!(request, Request::Batch(_))
}

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
        Request::Batch(_) => "batch",
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

/// The peer fail-stopped in the middle of a request (an injected hand-off
/// crash): the request is never answered and the loop ends without a flush.
struct Stopped;

/// The [`Request::HandoffRange`] a peer is driving, named once for the
/// phases that share it.
struct Handoff {
    op: Option<OpId>,
    start: u64,
    end: u64,
    target_id: PeerId,
    kind: HandoffKind,
    fault: Option<HandoffFault>,
    /// The context the phases' spans are recorded under, when sampled.
    sampled: Option<TraceContext>,
}

/// State owned by one peer thread: the storage engine (journaled or
/// ephemeral) holding its replicas, its KTS node whose counter mutations
/// are journaled through the engine, the forwarding rules installed by
/// committed hand-offs, the idempotency window de-duplicating retried and
/// duplicated mutations, and the buffers of the batch being served.
pub(crate) struct Peer {
    id: PeerId,
    directory: Arc<Directory>,
    engine: StorageEngine,
    kts: KtsNode,
    forwards: Vec<Forwarding>,
    dedup: DedupWindow,
    /// Seq allocator of the ops this peer originates (install bundles).
    local_seq: u64,
    /// Group-commit parameters (`max_batch`, `max_delay`) when the engine's
    /// fsync policy batches; `None` makes every batch a single request.
    batching: Option<(u64, Duration)>,
    /// A journal I/O failure (disk full, directory removed, ...) is latched
    /// inside the engine; the peer keeps serving its in-memory state —
    /// availability over durability — but the degradation must not be
    /// silent: it is reported once.
    poison_reported: bool,
    /// Set at the commit point of a graceful leave: the peer is a pure
    /// forwarder from here on and is reaped once idle.
    departed: bool,
    /// Sticky: set once this peer departed or retired a forwarding rule
    /// whose target died. From then on a data position no rule covers is
    /// re-resolved through the directory before any local fallback —
    /// retiring a rule must not silently turn the *next* stale request into
    /// local service from a store that handed the range away.
    reroute_uncovered: bool,
    /// The units of the message being served: the message itself, or the
    /// constituent puts a `PutReplicas` was exploded into.
    units: VecDeque<Incoming>,
    /// Replies owed for the current batch, sent only after the covering sync
    /// — durability is acknowledged per op strictly after the fsync that
    /// covers it.
    deferred: Vec<(ReplySink, Reply)>,
    /// The sampled units of the current batch.
    traced: Vec<TracedUnit>,
    /// The ring of completed request trees every peer keeps (scraped by
    /// `SlowRequests`). It only fills when *sampled* requests arrive — the
    /// client decides sampling — and an unsampled request reads the clock
    /// for its service-time observation only.
    slowlog: SpanLog,
    metrics: PeerMetrics,
    trace: Option<TraceSink>,
    /// The pid lane spans are recorded under.
    trace_pid: u64,
}

impl Peer {
    /// Recovers peer `id`: opens its engine (journaled under `storage`,
    /// ephemeral without), applies Rule 1 to the recovered counters, and
    /// builds its metrics registry — the peer-loop instruments, the storage
    /// engine's WAL/compaction instruments, and — as shared handles — the
    /// cluster-wide dedup totals and (when present) the fault plan counters.
    /// Everything is labeled with the peer's ring id so expositions from
    /// different peers can be concatenated without series collisions.
    /// Returns the peer and what recovery found on disk.
    pub(crate) fn open(
        id: PeerId,
        directory: Arc<Directory>,
        storage: &Option<ClusterStorage>,
        faults: Option<&FaultPlan>,
        trace: Option<TraceSink>,
    ) -> (Peer, RestartReport) {
        let mut engine = open_engine(storage, id);
        let recovered = RestartReport {
            recovered_replicas: engine.replicas().len(),
            recovered_counters: engine.counters().len(),
            generation: engine.generation(),
            torn_tail: engine.stats().recovered_torn_tail,
        };
        let kts = kts_from_recovery(&mut engine);

        let registry = Registry::new();
        let peer_label = format!("{:016x}", id.0);
        let labels = [("peer", peer_label.as_str())];
        let metrics = PeerMetrics::register(&registry, &labels);
        directory.dedup.register(&registry, &labels);
        if let Some(plan) = faults {
            plan.register_metrics(&registry, &labels);
        }
        engine.attach_metrics(StorageMetrics::register(&registry, &labels));

        let trace_pid = u64::from(std::process::id());
        if let Some(sink) = &trace {
            // Hang a `storage.fsync` span on every WAL sync via the engine's
            // observer hook — the storage-level twin of the batch-covering
            // `peer.fsync` span (which additionally carries the trace ids).
            let sink = sink.clone();
            engine.set_sync_observer(SyncObserver::new(move |elapsed| {
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
        let peer = Peer {
            id,
            directory,
            batching: engine.options().fsync.batching(),
            engine,
            kts,
            forwards: Vec::new(),
            dedup: DedupWindow::default(),
            local_seq: 0,
            poison_reported: false,
            departed: false,
            reroute_uncovered: false,
            units: VecDeque::new(),
            deferred: Vec::new(),
            traced: Vec::new(),
            slowlog: SpanLog::new(PEER_SLOWLOG_CAPACITY),
            metrics,
            trace,
            trace_pid,
        };
        (peer, recovered)
    }

    /// A handle on the registry this peer observes into and answers
    /// [`Request::Metrics`] scrapes from.
    pub(crate) fn registry(&self) -> Registry {
        self.metrics.registry().clone()
    }

    /// Binds the peer on the directory's transport and spawns its thread.
    /// Returns the endpoint that reaches it and the thread's handle.
    pub(crate) fn start(self) -> Result<(PeerEndpoint, JoinHandle<()>), TransportError> {
        let transport = &self.directory.transport;
        let mailbox = transport.bind(self.id)?;
        let endpoint = transport
            .endpoint(self.id)
            .expect("a just-bound peer resolves to an endpoint");
        Ok((endpoint, std::thread::spawn(move || self.serve(mailbox))))
    }

    /// Runs the loop on the calling thread and tears the peer's transport
    /// binding down when it ends — whichever way it ends (crash, shutdown,
    /// forwarder reap), senders observe closure instead of silence.
    pub(crate) fn serve(mut self, mailbox: Mailbox) {
        // Frames this thread originates (forwards, install bundles) are
        // attributed to this peer's directed links by the fault layer.
        set_thread_source(self.id);
        self.run(&mailbox);
        let (id, directory) = (self.id, Arc::clone(&self.directory));
        // State and queue go before the binding does: whatever is still
        // queued fails its requester now, and the engine's files are closed
        // by the time the id can be bound again.
        drop((self, mailbox));
        directory.transport.unbind(id);
    }

    /// The peer loop, in **drain-apply-sync-reply** form.
    ///
    /// Each iteration collects a batch: the first item blocks on the mailbox,
    /// and — when the engine's fsync policy is `GroupCommit` — every further
    /// queued data request is drained (up to `max_batch`, waiting at most
    /// `max_delay` for stragglers). The whole batch is then applied and
    /// journaled, made durable by **one** covering fsync at the batch
    /// boundary, and only then acknowledged: N concurrent writers at
    /// `Always`-grade durability share a single fsync instead of paying one
    /// each. Under every other policy the batch is a single request and the
    /// loop behaves exactly as the classic one-request-at-a-time server
    /// (appends sync themselves per policy, the boundary sync is skipped).
    ///
    /// Stops on `Shutdown` (with a final journal flush), on `Crash` (without
    /// one), and — once the peer has gracefully departed and only forwards —
    /// after a bounded idle period (`ClusterConfig::forwarder_reap_idle`),
    /// returning the thread (and its transport binding) to the system.
    pub(crate) fn run(&mut self, mailbox: &Mailbox) {
        // A non-batchable request encountered while draining a batch: handled
        // (alone) on the next iteration, preserving arrival order.
        let mut carry: Option<Incoming> = None;
        let mut batch: Vec<Incoming> = Vec::new();
        loop {
            let next = match carry.take() {
                Some(incoming) => Some(incoming),
                None if self.departed => mailbox.recv_timeout(self.directory.forwarder_reap_idle),
                None => mailbox.recv(),
            };
            // Nothing came: the transport side is gone, or a departed peer
            // sat idle past the grace period — nothing routed under the old
            // view is still in flight, so the forwarder is reaped. The
            // directory already resolves the range to the successor.
            let Some(first) = next else { return };
            self.report_journal_poison();
            // Lifecycle messages never enter a batch: shutting a cluster
            // down is not an operation, and a crash is by definition
            // instantaneous.
            match first.request {
                Request::Shutdown => {
                    self.metrics.requests.of(&first.request).inc();
                    self.engine.sync_to_durable();
                    self.report_journal_poison();
                    return;
                }
                Request::Crash => {
                    self.metrics.requests.of(&first.request).inc();
                    return;
                }
                _ => {}
            }
            batch.push(first);
            if let Some((max_batch, max_delay)) = self.batching {
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
            self.metrics.queue_depth.set(batch.len() as i64);
            self.metrics.drain_batch.observe(batch.len() as u64);
            for incoming in batch.drain(..) {
                if self.message(incoming).is_err() {
                    return;
                }
            }
            self.sync_and_reply();
        }
    }

    /// Serves one message that arrived on the transport: counts it, serves
    /// its units (itself, or the constituent puts it explodes into) and
    /// observes its service time.
    fn message(&mut self, incoming: Incoming) -> Result<(), Stopped> {
        self.metrics.requests.of(&incoming.request).inc();
        let service_started = Instant::now();
        self.units.push_back(incoming);
        while let Some(unit) = self.units.pop_front() {
            // A sampled context makes this unit produce spans and a slowlog
            // tree at the batch boundary; introspection and lifecycle kinds
            // never trace. Everything else is served untimed.
            let sampled = unit
                .trace
                .filter(|context| context.is_sampled() && traceable(&unit.request));
            let Some(context) = sampled else {
                self.unit(unit, None)?;
                continue;
            };
            let name = request_kind(&unit.request);
            let apply_start = Instant::now();
            let arrived = unit.arrived.unwrap_or(apply_start);
            let deferred_at = self.deferred.len();
            self.unit(unit, sampled)?;
            // Only units that owe a deferred (post-fsync) reply get a
            // slowlog tree: forwarded units belong to the peer that serves
            // them, and inline-answered protocol requests record their own
            // phase spans.
            if self.deferred.len() > deferred_at {
                self.traced.push(TracedUnit {
                    context,
                    name,
                    arrived,
                    apply_start,
                    apply_end: Instant::now(),
                    deferred_at,
                    replied: None,
                });
            }
        }
        self.metrics
            .service_ns
            .observe_duration(service_started.elapsed());
        Ok(())
    }

    /// Serves one unit: forwards what this peer handed away and hands
    /// everything else to its kind's handler.
    fn unit(&mut self, unit: Incoming, sampled: Option<TraceContext>) -> Result<(), Stopped> {
        let Incoming {
            request,
            reply,
            trace,
            arrived,
        } = unit;
        let Some((request, reply)) = self.route(request, reply, trace) else {
            return Ok(()); // forwarded
        };
        match request {
            Request::PutReplica {
                op,
                hash,
                key,
                payload,
                timestamp,
            } => self.put(op, hash, key, payload, timestamp, reply)?,
            // A batched put fans out locally: one constituent put per
            // replication hash, each with a fan-in sink that answers the
            // original requester with one `PutsAck` once all of them
            // completed. The constituents route individually — under churn
            // some may forward to the peer now responsible for them.
            Request::PutReplicas {
                op,
                hashes,
                key,
                payload,
                timestamp,
            } => {
                // Constituents inherit the batch's op, disambiguated by their
                // hash at the applying peer — a retried batch that was
                // *regrouped* under a changed directory view still
                // deduplicates per constituent. They also inherit the batch's
                // trace context and *original* arrival instant, so queue-wait
                // attribution survives the explosion.
                let sinks = ReplySink::fanin(hashes.len(), reply);
                for (hash, sink) in hashes.into_iter().zip(sinks) {
                    self.units.push_back(Incoming {
                        request: Request::PutReplica {
                            op,
                            hash,
                            key: key.clone(),
                            // The one copy of this replica's payload: `put`
                            // hands it on to the store by value.
                            payload: payload.clone(),
                            timestamp,
                        },
                        reply: sink,
                        trace,
                        arrived,
                    });
                }
            }
            Request::Batch(items) => self.explode_batch(items, reply, arrived),
            Request::GetReplica { hash, key } => self.get(hash, &key, reply),
            Request::Timestamp {
                op,
                key,
                generate,
                observation_hint,
            } => self.timestamp(op, &key, generate, observation_hint, reply)?,
            Request::HandoffRange {
                op,
                start,
                end,
                target_id,
                kind,
                fault,
            } => {
                let handoff = Handoff {
                    op,
                    start,
                    end,
                    target_id,
                    kind,
                    fault,
                    sampled,
                };
                self.handoff(&handoff, reply)?
            }
            Request::InstallState {
                op,
                start,
                end,
                bundle,
            } => self.install(op, (start, end), bundle, reply)?,
            // Introspection is served locally wherever it lands (a scrape
            // targets a peer, not a key) and answered immediately: reading
            // instruments has no durability ordering. Per the sampler-bypass
            // rule it is never traced and never entered into the slowlog it
            // reads.
            Request::Metrics => reply.send(Reply::Metrics(encode(self.metrics.registry()))),
            Request::SlowRequests { k } => {
                reply.send(Reply::SlowRequests(self.slowlog.slowest(k as usize)))
            }
            Request::Shutdown | Request::Crash => {
                unreachable!("lifecycle requests never enter a batch")
            }
        }
        Ok(())
    }

    /// A batch fans out locally, like a batched put: one unit per
    /// constituent, under the trace context the constituent carries and the
    /// frame's arrival instant, each with a collecting sink that answers the
    /// requester with one [`Reply::Batch`] — in request order — once all of
    /// them completed. The constituents route individually, so under churn
    /// some may be answered by another peer. Over TCP the decoder already
    /// refused a batch holding anything but data requests; one handed over
    /// in-process is refused here, whole, before any constituent runs.
    fn explode_batch(
        &mut self,
        items: Vec<(Request, Option<TraceContext>)>,
        reply: ReplySink,
        arrived: Option<Instant>,
    ) {
        if let Some((intruder, _)) = items.iter().find(|(request, _)| !request.is_data()) {
            reply.send(Reply::Error {
                reason: format!(
                    "a {} request cannot ride in a batch",
                    request_kind(intruder)
                ),
            });
            return;
        }
        let sinks = ReplySink::collect(items.len(), reply);
        for ((request, trace), sink) in items.into_iter().zip(sinks) {
            self.units.push_back(Incoming {
                request,
                reply: sink,
                trace,
                arrived,
            });
        }
    }

    /// Forwarding: hands back the request (and its reply path) when this
    /// peer is the one to serve it, `None` once it was re-sent elsewhere.
    ///
    /// A request for a position this peer handed away is re-sent to the peer
    /// that took it over: it was routed here through a directory read that
    /// predates the hand-off's commit. Newest rule wins (the same interval
    /// can change hands more than once). A rule whose target is unreachable
    /// is retired; the request is then re-resolved through the *directory* —
    /// if the live responsible is another peer (the takeover peer departed
    /// onward and was reaped, so the range lives at its successor now) it is
    /// re-sent there, and only when this peer is the live successor again
    /// (the takeover peer crashed) is it served locally, which is exactly
    /// the failover the ring prescribes.
    fn route(
        &mut self,
        request: Request,
        reply: ReplySink,
        trace: Option<TraceContext>,
    ) -> Option<(Request, ReplySink)> {
        let Some(position) = data_position(&request, &self.directory.family) else {
            return Some((request, reply));
        };
        let mut unit = (request, reply);
        while let Some(index) = self.forwards.iter().rposition(|rule| rule.covers(position)) {
            match self.forwards[index]
                .target
                .send_with_sink_traced(unit.0, unit.1, trace)
            {
                Ok(()) => return None,
                Err(rejected) => {
                    self.forwards.remove(index);
                    self.reroute_uncovered = true;
                    unit = (rejected.request, rejected.sink);
                }
            }
        }
        if self.departed || self.reroute_uncovered {
            if let Some((responsible, endpoint)) = self.directory.responsible_for(position) {
                if responsible != self.id {
                    match endpoint.send_with_sink_traced(unit.0, unit.1, trace) {
                        Ok(()) => return None,
                        Err(rejected) => unit = (rejected.request, rejected.sink),
                    }
                }
            }
        }
        Some(unit)
    }

    /// Exactly-once: an identified mutation (`op` present) that already ran
    /// here is answered from the dedup window without running again;
    /// otherwise `apply` runs and its reply is remembered under
    /// `(op, sub)`. A remembered reply counts as *applied* when the mutation
    /// took effect — a `NeedsInitialization` or `HandoffFailed` is cached
    /// (the retry must read the same answer) but changed nothing.
    fn once(
        &mut self,
        op: Option<OpId>,
        sub: u32,
        apply: impl FnOnce(&mut Self) -> Result<Reply, Stopped>,
    ) -> Result<Reply, Stopped> {
        if let Some(op) = op {
            if let Some(cached) = self.dedup.lookup(op, sub) {
                self.directory.dedup.suppressed.inc();
                return Ok(cached);
            }
        }
        let answer = apply(self)?;
        if let Some(op) = op {
            self.dedup.record(op, sub, answer.clone());
            if !matches!(
                answer,
                Reply::NeedsInitialization | Reply::HandoffFailed { .. }
            ) {
                self.directory.dedup.applied.inc();
            }
        }
        Ok(answer)
    }

    /// `put_h`: keeps the replica only if its stamp is newer than the stored
    /// one, acknowledges either way — after the covering sync.
    fn put(
        &mut self,
        op: Option<OpId>,
        hash: HashId,
        key: Key,
        payload: Vec<u8>,
        timestamp: Timestamp,
        reply: ReplySink,
    ) -> Result<(), Stopped> {
        // A hash outside the configured family has no ring position (and can
        // arrive over TCP from any client): reject it typed instead of
        // panicking.
        if self.directory.family.function(hash).is_none() {
            self.deferred.push((
                reply,
                Reply::Error {
                    reason: format!("unknown replication hash {hash:?}"),
                },
            ));
            return Ok(());
        }
        let answer = self.once(op, hash.0, |peer| {
            let accepted = match peer.engine.replicas().get(hash, &key) {
                Some(existing) => timestamp > existing.stamp,
                None => true,
            };
            if accepted {
                let position = peer.directory.family.eval(hash, &key);
                peer.engine.apply_latching(StorageOp::PutReplica {
                    hash,
                    key,
                    payload,
                    stamp: timestamp,
                    position,
                });
            }
            Ok(Reply::PutAck)
        })?;
        self.deferred.push((reply, answer));
        Ok(())
    }

    /// `get_h`: the stored replica and its stamp, if any.
    fn get(&mut self, hash: HashId, key: &Key, reply: ReplySink) {
        let stored = self
            .engine
            .replicas()
            .get(hash, key)
            .map(|replica| (replica.payload.clone(), replica.stamp));
        self.deferred.push((reply, Reply::Replica(stored)));
    }

    /// KTS `gen_ts` / `last_ts`. A retried `gen_ts` must not increment the
    /// counter again: the cached reply returns the timestamp the first
    /// application generated. (A cached `NeedsInitialization` is safe too —
    /// the client allocates a fresh op for the hint-carrying call.)
    fn timestamp(
        &mut self,
        op: Option<OpId>,
        key: &Key,
        generate: bool,
        observation_hint: Option<Timestamp>,
        reply: ReplySink,
    ) -> Result<(), Stopped> {
        let answer = self.once(op, NO_SUB, |peer| {
            let observation = if peer.kts.has_counter(key) {
                IndirectObservation::nothing()
            } else {
                let Some(observed) = observation_hint else {
                    return Ok(Reply::NeedsInitialization);
                };
                // Section 4.2.2: the counter is (re)born from a gathered
                // observation instead of a direct hand-over.
                peer.metrics.indirect_initializations.inc();
                if observed.is_zero() {
                    IndirectObservation::nothing()
                } else {
                    IndirectObservation::observed(observed)
                }
            };
            let (kts, engine) = (&mut peer.kts, &mut peer.engine);
            Ok(Reply::Timestamp(if generate {
                kts.gen_ts_with(key, || observation, engine).timestamp
            } else {
                let policy = LastTsInitPolicy::ObservedMax;
                kts.last_ts_with(key, policy, || observation, engine)
                    .timestamp
            }))
        })?;
        self.deferred.push((reply, answer));
        Ok(())
    }

    /// Drives a hand-off as its source. A coordinator re-send of a hand-off
    /// this peer already resolved (committed *or* aborted) is answered from
    /// the cache: driving a second transfer for the same op would re-export
    /// a range that may already live elsewhere.
    fn handoff(&mut self, handoff: &Handoff, reply: ReplySink) -> Result<(), Stopped> {
        let answer = self.once(handoff.op, NO_SUB, |peer| {
            // The target is addressed by id and resolved through the
            // transport: a joiner is bound there before it is a directory
            // member.
            let target = match peer.directory.transport.endpoint(handoff.target_id) {
                Ok(endpoint) => endpoint,
                Err(error) => {
                    return Ok(Reply::HandoffFailed {
                        reason: format!("cannot resolve hand-off target: {error}"),
                    })
                }
            };
            let bundle = peer.handoff_export(handoff);
            let replicas_moved = bundle.replicas.len();
            let counters_moved = bundle.counters.len();
            if handoff.fault == Some(HandoffFault::CrashAfterExport) {
                // Fail-stop mid-transfer: the bundle is lost in flight.
                // Recovery rolls back — the journal still holds every
                // replica, and the drained counters re-initialize indirectly.
                return Err(peer.fail_stop());
            }
            if !peer.handoff_install(handoff, &target, bundle) {
                // The target died (or stayed silent through the whole retry
                // budget) before journaling the bundle: abort without
                // committing. This peer keeps its replicas (the export only
                // copied them) and keeps serving; the moved counters are
                // gone, which only costs indirect re-inits.
                return Ok(Reply::HandoffFailed {
                    reason: "hand-off target never acknowledged the install".to_string(),
                });
            }
            if handoff.fault == Some(HandoffFault::CrashAfterInstall) {
                // Fail-stop between the target's ack and the commit: the
                // target's journal holds the state, so a retried join/leave
                // completes the transfer.
                return Err(peer.fail_stop());
            }
            peer.handoff_commit(handoff, target);
            Ok(Reply::HandoffComplete {
                replicas_moved,
                counters_moved,
            })
        })?;
        reply.send(answer);
        Ok(())
    }

    /// An injected fail-stop: the peer is dead to the directory at once and
    /// its loop ends without answering or flushing.
    fn fail_stop(&self) -> Stopped {
        self.directory.mark_dead(self.id);
        Stopped
    }

    /// Phase `Exported`: copy the replicas in range, drain the counters of
    /// the keys timestamped there. The removals are synced before the bundle
    /// ships — under a deferred-sync policy an unsynced removal could be
    /// resurrected by a crash *after* the counters moved, breaking Rule 3's
    /// "at most one live counter" durably.
    fn handoff_export(&mut self, handoff: &Handoff) -> HandoffBundle {
        let started = Instant::now();
        let bundle = export_handoff(
            &mut self.engine,
            &mut self.kts,
            &self.directory.family,
            handoff.start,
            handoff.end,
        );
        self.engine.sync_to_durable();
        self.end_phase(
            &self.metrics.transfer.export_ns,
            "peer.handoff_export",
            started,
            handoff.sampled,
        );
        bundle
    }

    /// Phase `Installed`: ship the bundle and wait for the target to journal
    /// it, re-sending on a pure timeout under the *same* install op — a
    /// target that journaled the bundle but whose ack was lost
    /// re-acknowledges from its dedup cache instead of re-applying a bundle
    /// that interleaved counter activity may have superseded. Only silence
    /// warrants a re-send; a teardown or rejection means the target is gone
    /// or refused — definitive either way. Says whether the target
    /// acknowledged.
    fn handoff_install(
        &mut self,
        handoff: &Handoff,
        target: &PeerEndpoint,
        bundle: HandoffBundle,
    ) -> bool {
        let install = Request::InstallState {
            op: Some(OpId {
                client: self.id.0,
                seq: self.local_seq,
            }),
            start: handoff.start,
            end: handoff.end,
            bundle,
        };
        self.local_seq += 1;
        let started = Instant::now();
        let outcome = target.call_resending(&install, None, INSTALL_ATTEMPTS, INSTALL_ACK_TIMEOUT);
        // Everything between the export and here is the hand-off stall of
        // ROADMAP item 5: the peer loop serving nothing while the bundle
        // ships.
        let stalled = self.end_phase(
            &self.metrics.transfer.install_ns,
            "peer.handoff_install",
            started,
            handoff.sampled,
        );
        self.metrics
            .handoff_stall_ns
            .add(u64::try_from(stalled.as_nanos()).unwrap_or(u64::MAX));
        matches!(outcome, Ok(Reply::InstallAck { .. }))
    }

    /// Commit point — all three steps inside one serially processed request,
    /// so no client request interleaves: flip the directory, prune the moved
    /// range from the journal, start forwarding.
    fn handoff_commit(&mut self, handoff: &Handoff, target: PeerEndpoint) {
        let started = Instant::now();
        let leaving = handoff.kind == HandoffKind::Leave;
        match handoff.kind {
            HandoffKind::Join => self.directory.revive(handoff.target_id, target.clone()),
            HandoffKind::Leave => self.directory.mark_dead(self.id),
        }
        commit_handoff(&mut self.engine, handoff.start, handoff.end);
        self.forwards.push(Forwarding {
            start: handoff.start,
            end: handoff.end,
            everything: leaving,
            target,
        });
        // The commit record must be durable before the coordinator learns of
        // the flip (a crash right after the reply must not replay the pruned
        // range back in); for a departing peer this is also its final flush.
        self.engine.sync_to_durable();
        self.end_phase(
            &self.metrics.transfer.commit_ns,
            "peer.handoff_commit",
            started,
            handoff.sampled,
        );
        self.departed |= leaving;
    }

    /// Measures the hand-off phase that began at `started`: observes its
    /// duration into the phase's histogram and, for a sampled hand-off on a
    /// traced cluster, records its span, linked to the operation by the
    /// `trace_id` args entry. Returns the duration.
    fn end_phase(
        &self,
        histogram: &Histogram,
        span: &str,
        started: Instant,
        sampled: Option<TraceContext>,
    ) -> Duration {
        let elapsed = started.elapsed();
        histogram.observe_duration(elapsed);
        if let (Some(sink), Some(context)) = (&self.trace, sampled) {
            sink.complete_with_args(
                span,
                self.trace_pid,
                self.id.0,
                sink_ts(sink, started),
                us(elapsed),
                vec![("trace_id".to_string(), format!("{:016x}", context.trace_id))],
            );
        }
        elapsed
    }

    /// Journals a shipped bundle as the hand-off's target. A re-shipped
    /// bundle whose ack was lost must not be re-applied: interleaved counter
    /// activity may have advanced past the bundle's images, and
    /// re-installing would regress them. The cached ack answers instead.
    fn install(
        &mut self,
        op: Option<OpId>,
        (start, end): (u64, u64),
        bundle: HandoffBundle,
        reply: ReplySink,
    ) -> Result<(), Stopped> {
        let answer = self.once(op, NO_SUB, |peer| {
            let report = install_handoff(&mut peer.engine, &mut peer.kts, bundle);
            // This peer owns (start, end] again: retire any forwarding rule
            // that overlaps it, or a former owner and its round-tripped
            // successor would bounce requests forever.
            peer.forwards
                .retain(|rule| !ranges_intersect((rule.start, rule.end), (start, end)));
            // The bundle must be durable before the ack: the source treats
            // the ack as licence to prune its own copy at commit, so an
            // unsynced install journal would be the only holder of the moved
            // state.
            peer.engine.sync_to_durable();
            Ok(Reply::InstallAck {
                replicas_installed: report.replicas_installed,
                counters_received: report.counters_received,
            })
        })?;
        reply.send(answer);
        Ok(())
    }

    /// The batch boundary: one covering fsync for everything the batch
    /// journaled (free if the batch was read-only), then the
    /// acknowledgements.
    fn sync_and_reply(&mut self) {
        // Only a batch with traced units (usually none) is timed: the sync,
        // then each owed reply's send; the units are then finalized into
        // spans and slowlog trees — including the one covering-fsync span
        // the whole group-commit batch shares.
        let timed = !self.traced.is_empty();
        let sync_start = timed.then(Instant::now);
        if self.batching.is_some() {
            self.engine.sync_to_durable();
        }
        let sync_end = timed.then(Instant::now);
        for (index, (reply, answer)) in self.deferred.drain(..).enumerate() {
            reply.send(answer);
            if let Some(unit) = self
                .traced
                .iter_mut()
                .find(|unit| unit.deferred_at == index)
            {
                unit.replied = Some(Instant::now());
            }
        }
        if let (Some(sync_start), Some(sync_end)) = (sync_start, sync_end) {
            self.finish_traced_batch(sync_start, sync_end);
        }
    }

    /// Finalizes the batch's traced units: one shared `peer.fsync` span
    /// linked to every traced request of the group-commit batch, then
    /// per-request phase spans and a [`RequestTree`] pushed into the peer's
    /// slowlog. The phases partition the request's wall time exactly (queue
    /// wait → apply → batch wait → fsync → reply): `reply` runs from the end
    /// of the covering sync to the moment this unit's reply was sent, so it
    /// includes the sends of the batch's earlier replies — on one core each
    /// of those can hand the CPU to the client it wakes.
    fn finish_traced_batch(&mut self, sync_start: Instant, sync_end: Instant) {
        let (pid, tid) = (self.trace_pid, self.id.0);
        let sink = self.trace.as_ref();
        let fsync_us = us(sync_end.saturating_duration_since(sync_start));
        if let Some(sink) = sink {
            let ids = self
                .traced
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
        for unit in self.traced.drain(..) {
            let queue = unit.apply_start.saturating_duration_since(unit.arrived);
            let apply = unit.apply_end.saturating_duration_since(unit.apply_start);
            let batch_wait = sync_start.saturating_duration_since(unit.apply_end);
            let replied = unit.replied.unwrap_or(sync_end);
            let reply = replied.saturating_duration_since(sync_end);
            let total = replied.saturating_duration_since(unit.arrived);
            if let Some(sink) = sink {
                let trace_id = format!("{:016x}", unit.context.trace_id);
                let span = |name, start, duration, kind: Option<&str>| {
                    let mut args = vec![("trace_id".to_string(), trace_id.clone())];
                    args.extend(kind.map(|kind| ("kind".to_string(), kind.to_string())));
                    sink.complete_with_args(
                        name,
                        pid,
                        tid,
                        sink_ts(sink, start),
                        us(duration),
                        args,
                    );
                };
                span("peer.queue_wait", unit.arrived, queue, None);
                span("peer.apply", unit.apply_start, apply, Some(unit.name));
                span("peer.reply", sync_end, reply, None);
            }
            self.slowlog.push(RequestTree {
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

    /// Reports a latched journal failure through the structured event log,
    /// once per peer lifetime.
    fn report_journal_poison(&mut self) {
        if self.poison_reported {
            return;
        }
        if let Some(error) = self.engine.poison_error() {
            rdht_metrics::log::global().error(
                "net.cluster",
                "journal failed; continuing WITHOUT durability — state written \
                 from here on will not survive a crash",
                &[
                    ("peer", &format!("{:016x}", self.id.0)),
                    ("error", &error.to_string()),
                ],
            );
            self.poison_reported = true;
        }
    }
}

#[cfg(test)]
#[path = "peer_tests.rs"]
mod tests;
