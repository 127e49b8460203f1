//! The client handle: implements [`UmsAccess`] over real message exchange,
//! with deadline + retry + backoff on every call so a lossy network costs
//! latency instead of failed operations.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rdht_core::{PutReplicasOutcome, ReplicaValue, Timestamp, UmsAccess, UmsError};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_metrics::{Counter, Registry, RequestTree, SpanLog, TraceConfig, TraceContext, TraceSink};

use crate::cluster::{Directory, PeerId, DEFAULT_FORWARDER_REAP_IDLE};
use crate::message::{OpId, Reply, Request};
use crate::metrics::names;
use crate::peer::{request_kind, sink_ts, traceable, us};
use crate::tcp::TcpTransport;
use crate::transport::{answered, CallError, Gather, Gathered, PeerEndpoint, Transport};

/// How a client retries a call that produced no usable reply: `attempts`
/// tries, each waiting `try_timeout` for the reply, with truncated
/// exponential backoff (± `jitter`) between them. Replaces the old single
/// hard-coded reply timeout — one lost frame used to be a failed operation;
/// now it is a re-send, made safe by the peers' dedup windows (every retry
/// repeats the operation's [`OpId`], so mutations apply exactly once).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (1 = the old no-retry behaviour).
    pub attempts: u32,
    /// Per-attempt reply deadline.
    pub try_timeout: Duration,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Uniform jitter fraction applied to each backoff: the actual sleep is
    /// `backoff * (1 ± jitter)`. Keeps a fleet of retrying clients from
    /// re-converging on the same instant.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            try_timeout: Duration::from_secs(5),
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy tuned for fault-plan tests: many quick attempts with short
    /// deadlines, so a seeded lossy link is ridden out in milliseconds.
    pub fn aggressive() -> Self {
        RetryPolicy {
            attempts: 8,
            try_timeout: Duration::from_millis(300),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(80),
            jitter: 0.25,
        }
    }

    fn backoff_for(&self, retry_index: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32 << retry_index.min(16));
        doubled.min(self.max_backoff)
    }
}

static NEXT_ACTOR: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique (and with high probability deployment-unique)
/// actor id — the `client` half of the [`OpId`]s an actor issues. Mixes a
/// process-local counter with wall-clock nanos and the pid so two processes
/// of a TCP deployment do not collide in the peers' dedup windows.
pub(crate) fn allocate_actor_id() -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    // relaxed: uniqueness needs only RMW atomicity, no ordering.
    let counter = NEXT_ACTOR.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|since| since.as_nanos() as u64)
        .unwrap_or(0);
    let pid = u64::from(std::process::id());
    mix(counter
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(nanos.rotate_left(17))
        .wrapping_add(pid << 48))
}

/// A client of a [`crate::Cluster`]: resolves responsibilities from the
/// shared directory and exchanges request/reply messages with peers through
/// their [`PeerEndpoint`]s — the same code path whether the peers are
/// threads in this process (channel transport) or processes across TCP
/// ([`ClusterClient::connect_tcp`]).
///
/// `ClusterClient` implements [`UmsAccess`], so the *same* `rdht_core::ums`
/// insert/retrieve code that runs in the simulator runs here — against real
/// threads (or sockets) and real races. Every call runs under the client's
/// [`RetryPolicy`]: responsibility is re-resolved per attempt (churn may
/// have moved the range between retries) and every retry of a mutation
/// repeats its [`OpId`], so the peers' dedup windows keep re-sends
/// exactly-once.
pub struct ClusterClient {
    directory: Arc<Directory>,
    retry: RetryPolicy,
    /// The `client` namespace of this handle's [`OpId`]s.
    client_id: u64,
    /// Next fresh `seq`; every *logical* operation gets one, every re-send
    /// of it repeats it.
    next_seq: u64,
    /// Backoff jitter source (seeded from the client id; jitter needs
    /// decorrelation, not reproducibility).
    rng: StdRng,
    /// Frames exchanged by this client (request + reply counted separately),
    /// the cluster analogue of the simulator's message metric. A
    /// registry-grade handle so [`ClusterClient::attach_metrics`] exposes
    /// the same atomic the accessor reads.
    messages: Counter,
    /// How many times a timestamp request came back `NeedsInitialization`
    /// and this client ran the indirect initialization (gathered the
    /// replicas' maximum timestamp) before retrying.
    indirect_initializations: Counter,
    /// Retry attempts beyond each call's first attempt.
    retries: Counter,
    /// Calls that spent their whole retry budget without a usable reply.
    retry_exhaustions: Counter,
    /// Distributed tracing, when attached ([`ClusterClient::attach_trace`]).
    tracing: Option<ClientTracing>,
}

/// Where a [`Call`] goes. Resolved against the directory on *every* attempt:
/// churn may have moved a range, a restart may have replaced an endpoint.
enum Target {
    /// Whichever peer is responsible for this ring position right now.
    Position(u64),
    /// One named peer — introspection targets a peer, not a key.
    Peer(PeerId),
}

/// One independent request of a [`ClusterClient::call_all`].
struct Call {
    target: Target,
    request: Request,
}

/// One request of a round, resolved: the peer it goes to and the trace
/// context it travels under.
struct Outgoing {
    peer: PeerId,
    endpoint: PeerEndpoint,
    request: Request,
    trace: Option<TraceContext>,
}

/// One frame of a round: the requests that resolved to one peer.
struct Frame {
    peer: PeerId,
    endpoint: PeerEndpoint,
    items: Vec<(Request, Option<TraceContext>)>,
}

/// Groups the requests of a round into one frame per destination peer, in
/// order of first appearance, and says for each request which frame carries
/// it. Only data requests share a frame ([`Request::Batch`] admits nothing
/// else); anything else travels alone.
fn group_by_peer(sends: Vec<Outgoing>) -> (Vec<Frame>, Vec<usize>) {
    let mut frames: Vec<Frame> = Vec::with_capacity(sends.len());
    let mut frame_of = Vec::with_capacity(sends.len());
    for send in sends {
        let shared = frames.iter().position(|frame| {
            frame.peer == send.peer && frame.items[0].0.is_data() && send.request.is_data()
        });
        match shared {
            Some(frame) => {
                frames[frame].items.push((send.request, send.trace));
                frame_of.push(frame);
            }
            None => {
                frame_of.push(frames.len());
                frames.push(Frame {
                    peer: send.peer,
                    endpoint: send.endpoint,
                    items: vec![(send.request, send.trace)],
                });
            }
        }
    }
    (frames, frame_of)
}

/// What the exchange of one frame means to each of its `size` requests. A
/// request that travelled alone owns the outcome. The constituents of a
/// batch each take their own reply out of the [`Reply::Batch`] (a
/// [`Reply::Error`] among them is that constituent's rejection, not the
/// frame's) and share the frame's failure when there is no such reply.
fn scatter_back(frame: Gathered, size: usize) -> Vec<Gathered> {
    if size == 1 {
        return vec![frame];
    }
    let landed = frame.landed;
    let outcomes = match frame.outcome {
        Ok(Reply::Batch(replies)) if replies.len() == size => {
            replies.into_iter().map(answered).collect()
        }
        Ok(other) => {
            let reason = format!("unexpected reply to a batch of {size}: {other:?}");
            vec![Err(CallError::Rejected(reason)); size]
        }
        Err(error) => vec![Err(error); size],
    };
    outcomes
        .into_iter()
        .map(|outcome| Gathered { outcome, landed })
        .collect()
}

/// Ring capacity of the client-side slowlog ([`ClusterClient::slow_calls`]).
const CLIENT_SLOWLOG_CAPACITY: usize = 64;

/// The client half of distributed tracing: the sampling knobs, the sink
/// client-side spans land in, and a local ring of the slowest calls.
struct ClientTracing {
    sink: TraceSink,
    config: TraceConfig,
    slowlog: SpanLog,
}

/// Short label of a transport-level attempt outcome, recorded in the
/// `client.attempt` span args.
fn outcome_label(error: &CallError) -> &'static str {
    match error {
        CallError::Timeout => "timeout",
        CallError::Dropped => "dropped",
        CallError::Rejected(_) => "rejected",
        CallError::Transport(_) => "transport",
        CallError::Exhausted { .. } => "exhausted",
    }
}

/// Maps a transport-level call failure onto the client's [`UmsError`].
fn call_failed(error: CallError) -> UmsError {
    match error {
        CallError::Timeout => UmsError::lookup("responsible peer did not reply in time"),
        CallError::Dropped => {
            UmsError::lookup("responsible peer dropped the request (crashed mid-request)")
        }
        CallError::Rejected(reason) => {
            UmsError::lookup(format!("the request was rejected: {reason}"))
        }
        CallError::Transport(error) => {
            UmsError::lookup(format!("responsible peer is unreachable: {error}"))
        }
        CallError::Exhausted { attempts, last } => {
            UmsError::lookup(format!("all {attempts} attempts failed; last: {last}"))
        }
    }
}

impl ClusterClient {
    pub(crate) fn new(directory: Arc<Directory>) -> Self {
        let client_id = allocate_actor_id();
        ClusterClient {
            directory,
            retry: RetryPolicy::default(),
            client_id,
            next_seq: 0,
            rng: StdRng::seed_from_u64(client_id),
            messages: Counter::new(),
            indirect_initializations: Counter::new(),
            retries: Counter::new(),
            retry_exhaustions: Counter::new(),
            tracing: None,
        }
    }

    /// Connects to a multi-process TCP deployment: `peers` is the static
    /// address book every [`crate::serve_tcp_peer`] process was configured
    /// with, and `num_replicas` / `seed` must match the peers' configuration
    /// too (they determine the hash family, and therefore routing).
    pub fn connect_tcp(
        peers: impl IntoIterator<Item = (PeerId, SocketAddr)>,
        num_replicas: usize,
        seed: u64,
    ) -> ClusterClient {
        let peers: Vec<(PeerId, SocketAddr)> = peers.into_iter().collect();
        let transport: Arc<dyn Transport> =
            Arc::new(TcpTransport::with_peers(peers.iter().copied()));
        let directory = Arc::new(Directory::new(
            HashFamily::new(num_replicas, seed),
            transport,
            peers.iter().map(|(peer, _)| *peer),
            DEFAULT_FORWARDER_REAP_IDLE,
        ));
        ClusterClient::new(directory)
    }

    /// Returns this client with the given retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Replaces this client's retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The retry policy calls run under.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of messages this client has exchanged so far: one per request
    /// frame the transport accepted, one per reply frame that answered. A
    /// [`Request::Batch`] and its [`Reply::Batch`] are one frame each.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Number of indirect counter initializations this client performed —
    /// the observable footprint of the Section 4.2.2 recovery path (a
    /// responsible serving from a valid in-memory counter never triggers
    /// one).
    pub fn indirect_initializations(&self) -> u64 {
        self.indirect_initializations.get()
    }

    /// Retry attempts this client made beyond each call's first attempt.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Calls that spent their whole retry budget without a usable reply.
    pub fn retry_exhaustions(&self) -> u64 {
        self.retry_exhaustions.get()
    }

    /// Registers this client's counters into `registry` as shared handles:
    /// the accessors ([`ClusterClient::messages`], ...) and the registry
    /// read the same atomics. `labels` distinguish handles when several
    /// clients share one registry (e.g. `&[("client", "writer-0")]`).
    pub fn attach_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_counter(
            names::CLIENT_MESSAGES,
            "messages this client exchanged (requests and replies counted separately)",
            labels,
            self.messages.clone(),
        );
        registry.register_counter(
            names::CLIENT_RETRIES,
            "retry attempts beyond each call's first attempt",
            labels,
            self.retries.clone(),
        );
        registry.register_counter(
            names::CLIENT_RETRY_EXHAUSTIONS,
            "calls that spent their whole retry budget without a usable reply",
            labels,
            self.retry_exhaustions.clone(),
        );
        registry.register_counter(
            names::CLIENT_INDIRECT_INITS,
            "indirect counter initializations this client ran (Section 4.2.2)",
            labels,
            self.indirect_initializations.clone(),
        );
    }

    /// Attaches distributed tracing to this handle: each logical call rolls
    /// the sampler ([`TraceConfig::sample_rate`]); sampled calls carry a
    /// [`TraceContext`] on the wire (the peers record their own span trees
    /// under the same trace id) and record `client.call` / `client.attempt`
    /// spans into `sink`. Calls slower than [`TraceConfig::slow_threshold`]
    /// are recorded even when the sampler skipped them, so an unlucky tail
    /// is never invisible. Introspection requests (metrics and slowlog
    /// scrapes) and lifecycle messages bypass the sampler entirely.
    pub fn attach_trace(&mut self, sink: TraceSink, config: TraceConfig) {
        self.tracing = Some(ClientTracing {
            sink,
            config,
            slowlog: SpanLog::new(CLIENT_SLOWLOG_CAPACITY),
        });
    }

    /// The sink [`ClusterClient::attach_trace`] installed, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.tracing.as_ref().map(|tracing| &tracing.sink)
    }

    /// The `k` slowest calls this handle recorded client-side (sampled
    /// ones, plus anything over the slow threshold), slowest first. Empty
    /// without [`ClusterClient::attach_trace`].
    pub fn slow_calls(&self, k: usize) -> Vec<RequestTree> {
        self.tracing
            .as_ref()
            .map(|tracing| tracing.slowlog.slowest(k))
            .unwrap_or_default()
    }

    /// Scrapes `peer`'s slow-request log over the wire: sends
    /// [`Request::SlowRequests`] and returns the `k` slowest request trees
    /// the peer completed recently, slowest first, each with its per-phase
    /// breakdown (queue wait, apply, batch wait, fsync, reply). Runs under
    /// the same retry policy as every other call; the scrape itself
    /// bypasses the sampler, so it never appears in the log it reads.
    pub fn slow_requests(&mut self, peer: PeerId, k: u32) -> Result<Vec<RequestTree>, UmsError> {
        match self.call(Call {
            target: Target::Peer(peer),
            request: Request::SlowRequests { k },
        })? {
            Reply::SlowRequests(trees) => Ok(trees),
            other => Err(UmsError::lookup(format!(
                "unexpected reply to slowlog scrape: {other:?}"
            ))),
        }
    }

    /// Rolls the sampler for one logical call of a traceable kind: `Some`
    /// when tracing is attached and the dice say record.
    fn sample(&mut self) -> Option<TraceContext> {
        let rate = self.tracing.as_ref()?.config.sample_rate;
        if rate <= 0.0 {
            return None;
        }
        if rate < 1.0 && self.rng.gen::<f64>() >= rate {
            return None;
        }
        // Trace ids come from the jitter rng (seeded per client), so two
        // client processes of a deployment do not collide.
        Some(TraceContext::sampled_root(self.rng.gen::<u64>() | 1))
    }

    /// Records one finished attempt (`start` to `end`) as a `client.attempt`
    /// span, tagged with the attempt index, the preceding backoff and the
    /// outcome.
    fn emit_attempt(
        &self,
        context: Option<TraceContext>,
        attempt: u32,
        (start, end): (Instant, Instant),
        backoff: Duration,
        outcome: &str,
    ) {
        let Some(tracing) = &self.tracing else { return };
        let Some(context) = context else { return };
        tracing.sink.complete_with_args(
            "client.attempt",
            u64::from(std::process::id()),
            0,
            sink_ts(&tracing.sink, start),
            us(end.saturating_duration_since(start)),
            vec![
                ("trace_id".to_string(), format!("{:016x}", context.trace_id)),
                ("attempt".to_string(), attempt.to_string()),
                ("backoff_us".to_string(), us(backoff).to_string()),
                ("outcome".to_string(), outcome.to_string()),
            ],
        );
    }

    /// Finalizes one logical call that ran over `span` (start, end; `None`
    /// for a call that was not timed): records the root `client.call` span
    /// and a client-side [`RequestTree`] when the call was sampled — or when
    /// it crossed the slow threshold, so unsampled tail calls still surface.
    fn finish_trace(
        &self,
        kind: &'static str,
        context: Option<TraceContext>,
        span: Option<(Instant, Instant)>,
        phases: Vec<(String, u64)>,
        outcome: &str,
    ) {
        let Some((started, ended)) = span else { return };
        let Some(tracing) = &self.tracing else { return };
        let total = ended.saturating_duration_since(started);
        let slow = total >= tracing.config.slow_threshold;
        if context.is_none() && !slow {
            return;
        }
        let trace_id = context
            .map(|context| context.trace_id)
            .unwrap_or_else(rdht_metrics::next_span_id);
        tracing.sink.complete_with_args(
            "client.call",
            u64::from(std::process::id()),
            0,
            sink_ts(&tracing.sink, started),
            us(total),
            vec![
                ("trace_id".to_string(), format!("{trace_id:016x}")),
                ("kind".to_string(), kind.to_string()),
                ("outcome".to_string(), outcome.to_string()),
            ],
        );
        tracing.slowlog.push(RequestTree {
            trace_id,
            name: format!("client.{kind}"),
            total_us: us(total),
            phases,
        });
    }

    /// Scrapes `peer`'s metrics over the wire: sends [`Request::Metrics`]
    /// and returns the peer's Prometheus text exposition, under the same
    /// retry policy as every other call. Errors when the peer is unknown or
    /// stays unreachable through the retry budget.
    pub fn scrape_metrics(&mut self, peer: PeerId) -> Result<String, UmsError> {
        match self.call(Call {
            target: Target::Peer(peer),
            request: Request::Metrics,
        })? {
            Reply::Metrics(exposition) => Ok(exposition),
            other => Err(UmsError::lookup(format!(
                "unexpected reply to metrics scrape: {other:?}"
            ))),
        }
    }

    /// A fresh [`OpId`] for one logical operation; its retries repeat it.
    fn next_op(&mut self) -> OpId {
        let seq = self.next_seq;
        self.next_seq += 1;
        OpId {
            client: self.client_id,
            seq,
        }
    }

    /// Opens retry number `attempt` (1-based) of `legs` logical calls:
    /// counts one retry per call, then sleeps the truncated-exponential,
    /// jittered backoff. Returns the time slept.
    fn back_off(&mut self, attempt: u32, legs: usize) -> Duration {
        self.retries.add(legs as u64);
        let backoff = self.retry.backoff_for(attempt - 1);
        if backoff.is_zero() {
            return Duration::ZERO;
        }
        let spread = 1.0 + self.retry.jitter * (self.rng.gen::<f64>() * 2.0 - 1.0);
        let slept = Instant::now();
        std::thread::sleep(backoff.mul_f64(spread.max(0.0)));
        slept.elapsed()
    }

    /// The peer `target` currently resolves to, and its endpoint.
    fn resolve(&self, target: &Target) -> Result<(PeerId, PeerEndpoint), UmsError> {
        match *target {
            Target::Position(position) => self
                .directory
                .responsible_for(position)
                .ok_or(UmsError::EmptyOverlay),
            Target::Peer(peer) => self
                .directory
                .member(peer)
                .map(|(endpoint, _)| (peer, endpoint))
                .ok_or_else(|| UmsError::lookup(format!("unknown peer {:016x}", peer.0))),
        }
    }

    /// One scatter-gather round, **one frame per destination peer**: the
    /// requests are grouped by the peer they resolved to
    /// ([`group_by_peer`]), every frame goes out before anything is awaited
    /// ([`ClusterClient::exchange`]), and each request reads its outcome
    /// back out of its frame's ([`scatter_back`]). Outcomes come back in
    /// `sends` order.
    fn round(&mut self, sends: Vec<Outgoing>) -> Vec<Gathered> {
        let (frames, frame_of) = group_by_peer(sends);
        let mut outcomes = self.exchange(frames);
        frame_of
            .into_iter()
            .map(|frame| {
                outcomes[frame]
                    .next()
                    .expect("a frame yields one outcome per request it carried")
            })
            .collect()
    }

    /// Sends every frame — a group of one bare, exactly as it would travel
    /// alone, a larger one as a [`Request::Batch`] whose constituents keep
    /// their trace contexts — then sleeps **once**, until the last reply
    /// landed or `try_timeout` passed, however many frames there are.
    /// Messages are counted here: one per request frame the transport
    /// accepted, one per reply frame that answered. Returns, per frame, the
    /// outcomes of the requests it carried.
    fn exchange(&mut self, frames: Vec<Frame>) -> Vec<std::vec::IntoIter<Gathered>> {
        // Only a client that turns calls into spans needs landing times.
        let gather = Gather::new(frames.len(), self.tracing.is_some());
        let mut sizes = Vec::with_capacity(frames.len());
        for (slot, mut frame) in frames.into_iter().enumerate() {
            sizes.push(frame.items.len());
            let (request, trace) = if frame.items.len() == 1 {
                frame.items.pop().expect("a frame carries a request")
            } else {
                (Request::Batch(frame.items), None)
            };
            if gather.send(slot, &frame.endpoint, request, trace) {
                self.messages.inc();
            }
        }
        let landed = gather.wait(self.retry.try_timeout);
        let replies = landed.iter().filter(|frame| frame.outcome.is_ok()).count();
        self.messages.add(replies as u64);
        landed
            .into_iter()
            .zip(sizes)
            .map(|(frame, size)| scatter_back(frame, size).into_iter())
            .collect()
    }

    /// Runs independent calls under the retry policy, overlapped: attempt 0
    /// of **every** call is sent before any reply is awaited and the client
    /// blocks once for all of them ([`ClusterClient::round`]), so `n` calls
    /// cost one round trip, one sleep and one deadline instead of `n`. Only
    /// the calls that failed go on to attempt 1, 2, … — each round again one
    /// backoff, one scatter and one wait for whatever is still unsettled.
    /// Replies come back in `calls` order.
    ///
    /// Calls that resolve to the same peer share a frame, each round anew
    /// ([`ClusterClient::round`]). Otherwise nothing differs per call from a
    /// call made alone: the target is re-resolved every attempt (churn may
    /// have moved it between retries — the frames regroup accordingly),
    /// every re-send repeats the request — and so its [`OpId`] — verbatim,
    /// each retry of each call counts once in `retries`, a call that spends
    /// the budget counts once in `retry_exhaustions`, and a sampled call
    /// gets its own `client.call` span with one `client.attempt` per
    /// attempt, ended when *its* reply landed. *Every* failure kind is
    /// retried — a timeout may be loss, a teardown may be a crash another
    /// peer already failed over, a rejection may be a forward that raced a
    /// reap; re-resolving and re-sending is the answer to all of them, and
    /// the dedup windows make it safe for mutations.
    fn call_all(&mut self, calls: Vec<Call>) -> Vec<Result<Reply, UmsError>> {
        struct Leg {
            call: Call,
            kind: &'static str,
            context: Option<TraceContext>,
            started: Option<Instant>,
            phases: Vec<(String, u64)>,
            last: Option<(CallError, Option<Instant>)>,
            settled: Option<Result<Reply, UmsError>>,
        }
        let mut legs: Vec<Leg> = calls
            .into_iter()
            .map(|call| {
                // Timing is captured whenever tracing is attached (not only
                // when sampled), so the slow-threshold fallback can surface
                // unsampled tail calls; introspection kinds bypass tracing
                // altogether, and without tracing a call pays nothing.
                let traced = self.tracing.is_some() && traceable(&call.request);
                Leg {
                    kind: request_kind(&call.request),
                    context: if traced { self.sample() } else { None },
                    started: traced.then(Instant::now),
                    phases: Vec::new(),
                    last: None,
                    settled: None,
                    call,
                }
            })
            .collect();
        let attempts = self.retry.attempts.max(1);
        for attempt in 0..attempts {
            let unsettled = legs.iter().filter(|leg| leg.settled.is_none()).count();
            if unsettled == 0 {
                break;
            }
            let backoff = if attempt > 0 {
                self.back_off(attempt, unsettled)
            } else {
                Duration::ZERO
            };
            // The legs this round sends, by index, and their requests.
            let mut in_flight: Vec<usize> = Vec::with_capacity(unsettled);
            let mut sends = Vec::with_capacity(unsettled);
            for (index, leg) in legs.iter_mut().enumerate() {
                if leg.settled.is_some() {
                    continue;
                }
                if attempt > 0 && leg.started.is_some() {
                    leg.phases.push((format!("backoff{attempt}"), us(backoff)));
                }
                match self.resolve(&leg.call.target) {
                    Ok((peer, endpoint)) => {
                        // Every attempt carries the same trace id; the
                        // attempt span is the wire parent, so peer spans
                        // nest under the attempt that reached them.
                        let trace = leg
                            .context
                            .map(|root| root.child_of(rdht_metrics::next_span_id()));
                        sends.push(Outgoing {
                            peer,
                            endpoint,
                            request: leg.call.request.clone(),
                            trace,
                        });
                        in_flight.push(index);
                    }
                    // No route is not a network failure: nothing to retry.
                    Err(error) => {
                        let phases = std::mem::take(&mut leg.phases);
                        let span = leg.started.map(|started| (started, Instant::now()));
                        self.finish_trace(leg.kind, leg.context, span, phases, "unroutable");
                        leg.settled = Some(Err(error));
                    }
                }
            }
            let sent = self.tracing.as_ref().map(|_| Instant::now());
            for (index, gathered) in in_flight.into_iter().zip(self.round(sends)) {
                let leg = &mut legs[index];
                // A timed leg's attempt ran from the scatter to the moment
                // its own reply landed.
                if let (Some(_), Some(sent), Some(landed)) = (leg.started, sent, gathered.landed) {
                    let took = landed.saturating_duration_since(sent);
                    leg.phases.push((format!("attempt{attempt}"), us(took)));
                    let label = gathered
                        .outcome
                        .as_ref()
                        .map_or_else(outcome_label, |_| "ok");
                    self.emit_attempt(leg.context, attempt, (sent, landed), backoff, label);
                }
                match gathered.outcome {
                    Ok(reply) => {
                        let phases = std::mem::take(&mut leg.phases);
                        let span = leg.started.zip(gathered.landed);
                        self.finish_trace(leg.kind, leg.context, span, phases, "ok");
                        leg.settled = Some(Ok(reply));
                    }
                    Err(error) => leg.last = Some((error, gathered.landed)),
                }
            }
        }
        legs.into_iter()
            .map(|leg| {
                if let Some(settled) = leg.settled {
                    return settled;
                }
                self.retry_exhaustions.inc();
                let (last, ended) = leg.last.expect("an unsettled leg failed every attempt");
                self.finish_trace(
                    leg.kind,
                    leg.context,
                    leg.started.zip(ended),
                    leg.phases,
                    outcome_label(&last),
                );
                Err(call_failed(if attempts == 1 {
                    last
                } else {
                    CallError::Exhausted {
                        attempts,
                        last: Box::new(last),
                    }
                }))
            })
            .collect()
    }

    /// One call under the retry policy: a [`ClusterClient::call_all`] of one.
    fn call(&mut self, call: Call) -> Result<Reply, UmsError> {
        self.call_all(vec![call])
            .pop()
            .expect("call_all answers every call")
    }

    /// The `get_h` request for `key` under `hash`.
    fn get_call(&self, hash: HashId, key: &Key) -> Call {
        Call {
            target: Target::Position(self.directory.family.eval(hash, key)),
            request: Request::GetReplica {
                hash,
                key: key.clone(),
            },
        }
    }

    /// The KTS request for `key`. Only a `gen_ts` is a mutation and gets a
    /// dedup identity; `last_ts` is a pure read and needs none.
    fn timestamp_call(
        &mut self,
        key: &Key,
        generate: bool,
        observation_hint: Option<Timestamp>,
    ) -> Call {
        Call {
            target: Target::Position(self.directory.family.eval_timestamp(key)),
            request: Request::Timestamp {
                op: generate.then(|| self.next_op()),
                key: key.clone(),
                generate,
                observation_hint,
            },
        }
    }

    /// Gathers the indirect observation for a key: reads every replica —
    /// all `|Hr|` probes in one overlapped [`ClusterClient::call_all`] — and
    /// returns the largest timestamp seen (Section 4.2.2), or
    /// [`Timestamp::ZERO`] when no replica answered with data.
    fn gather_observation(&mut self, key: &Key) -> Timestamp {
        let probes = self
            .replication_ids()
            .map(|hash| self.get_call(hash, key))
            .collect();
        self.call_all(probes)
            .into_iter()
            .filter_map(|reply| match reply {
                Ok(Reply::Replica(Some((_payload, timestamp)))) => Some(timestamp),
                _ => None,
            })
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Turns the reply to a hint-less timestamp request into the timestamp,
    /// running the indirect initialization when the responsible asks for it.
    fn finish_timestamp(
        &mut self,
        key: &Key,
        generate: bool,
        first: Reply,
    ) -> Result<Timestamp, UmsError> {
        match first {
            Reply::Timestamp(ts) => Ok(ts),
            Reply::NeedsInitialization => {
                // The responsible has no valid counter (it took over after a
                // crash): run the indirect initialization and retry. The
                // hint-carrying call is a *new* logical operation and MUST
                // get a fresh op — reusing the first op would be answered
                // from the cached `NeedsInitialization` forever.
                self.indirect_initializations.inc();
                let observed = self.gather_observation(key);
                let second = self.timestamp_call(key, generate, Some(observed));
                match self.call(second)? {
                    Reply::Timestamp(ts) => Ok(ts),
                    other => Err(UmsError::kts(format!(
                        "unexpected reply to initialized timestamp request: {other:?}"
                    ))),
                }
            }
            other => Err(UmsError::kts(format!(
                "unexpected reply to timestamp request: {other:?}"
            ))),
        }
    }

    fn timestamp_request(&mut self, key: &Key, generate: bool) -> Result<Timestamp, UmsError> {
        let first = self.timestamp_call(key, generate, None);
        let first = self.call(first)?;
        self.finish_timestamp(key, generate, first)
    }
}

/// The replica a `get_h` reply carries.
fn replica_of(reply: Reply) -> Result<Option<ReplicaValue>, UmsError> {
    match reply {
        Reply::Replica(stored) => {
            Ok(stored.map(|(payload, timestamp)| ReplicaValue::new(payload, timestamp)))
        }
        other => Err(UmsError::lookup(format!(
            "unexpected reply to get: {other:?}"
        ))),
    }
}

impl UmsAccess for ClusterClient {
    fn kts_gen_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        self.timestamp_request(key, true)
    }

    fn kts_last_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        self.timestamp_request(key, false)
    }

    /// The first replica of `Hr` that lives on `rsp(k, h_ts)` right now, so
    /// that the opening of `retrieve` — `last_ts` and this probe — is one
    /// frame to one peer; `HashId(0)` when none does. Resolved under one read
    /// of the directory; a view that changes before the round is sent costs
    /// a frame, nothing else (the round groups by what it resolves then).
    fn first_probe(&self, key: &Key) -> HashId {
        let family = &self.directory.family;
        let replicas = self.replication_ids().map(|hash| family.eval(hash, key));
        self.directory
            .first_sharing_peer(family.eval_timestamp(key), replicas)
            .map_or(HashId(0), |index| HashId(index as u32))
    }

    /// The overlapped opening of `retrieve`: the `last_ts` request and the
    /// probe of `hash` are one two-leg `call_all` — one round trip where the
    /// sequential default pays two, and one frame when both resolve to the
    /// same peer ([`UmsAccess::first_probe`] picks `hash` so that they do
    /// whenever a replica lives there). The requests are the ones the
    /// sequential algorithm sends (the probe is one it would have sent,
    /// whatever KTS answers), each leg retries on its own, and a
    /// `NeedsInitialization` answer runs the indirect initialization exactly
    /// as [`UmsAccess::kts_last_ts`] does.
    fn kts_last_ts_and_probe(
        &mut self,
        key: &Key,
        hash: HashId,
    ) -> (
        Result<Timestamp, UmsError>,
        Result<Option<ReplicaValue>, UmsError>,
    ) {
        let calls = vec![
            self.timestamp_call(key, false, None),
            self.get_call(hash, key),
        ];
        let mut replies = self.call_all(calls);
        let probe = replies.pop().expect("call_all answers every call");
        let last = replies.pop().expect("call_all answers every call");
        (
            last.and_then(|first| self.finish_timestamp(key, false, first)),
            probe.and_then(replica_of),
        )
    }

    fn put_replica(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &ReplicaValue,
    ) -> Result<(), UmsError> {
        let put = Call {
            target: Target::Position(self.directory.family.eval(hash, key)),
            request: Request::PutReplica {
                op: Some(self.next_op()),
                hash,
                key: key.clone(),
                payload: value.data.clone(),
                timestamp: value.timestamp,
            },
        };
        match self.call(put)? {
            Reply::PutAck => Ok(()),
            other => Err(UmsError::lookup(format!(
                "unexpected reply to put: {other:?}"
            ))),
        }
    }

    /// The batched fan-out: the `|Hr|` puts of one insert are grouped by
    /// responsible peer and shipped as one [`Request::PutReplicas`] per
    /// peer — over TCP that is one round trip per peer instead of one per
    /// hash. The groups go out and are awaited as one scatter-gather round
    /// (`round`): the peers work in parallel, the client
    /// sleeps once, and the whole fan-out shares one `try_timeout` deadline.
    /// Each peer answers one [`Reply::PutsAck`] once its last constituent
    /// put (including any it had to forward under churn) completed.
    ///
    /// Under the retry policy, a group whose ack was lost (or that reported
    /// partial failure) is re-grouped against the *current* directory view
    /// and re-sent under the same [`OpId`] — the applying peers re-ack
    /// already-applied constituents from their dedup caches, so the final
    /// attempt's counts are correct without double-crediting. Only clean
    /// acks (`failed == 0`) are credited early; a partially failed group is
    /// re-queued whole and credited solely by its last attempt. The
    /// re-grouping is why this is not a `call_all`: what a
    /// retry sends depends on where the directory puts each hash *then*.
    fn put_replicas(&mut self, key: &Key, value: &ReplicaValue) -> PutReplicasOutcome {
        let op = Some(self.next_op());
        let context = self.sample();
        let started = self.tracing.as_ref().map(|_| Instant::now());
        let mut phases: Vec<(String, u64)> = Vec::new();
        let mut outcome = PutReplicasOutcome::default();
        let mut remaining: Vec<HashId> = self.replication_ids().collect();
        let attempts = self.retry.attempts.max(1);
        for attempt in 0..attempts {
            let mut backoff = Duration::ZERO;
            if attempt > 0 {
                backoff = self.back_off(attempt, 1);
                if started.is_some() {
                    phases.push((format!("backoff{attempt}"), us(backoff)));
                }
            }
            let attempt_started = started.map(|_| Instant::now());
            let final_attempt = attempt + 1 == attempts;
            let mut groups: BTreeMap<PeerId, (PeerEndpoint, Vec<HashId>)> = BTreeMap::new();
            let mut unroutable: Vec<HashId> = Vec::new();
            for hash in remaining.drain(..) {
                let position = self.directory.family.eval(hash, key);
                match self.directory.responsible_for(position) {
                    Some((peer, endpoint)) => {
                        groups
                            .entry(peer)
                            .or_insert_with(|| (endpoint, Vec::new()))
                            .1
                            .push(hash);
                    }
                    None => unroutable.push(hash),
                }
            }
            let mut sent: Vec<Vec<HashId>> = Vec::with_capacity(groups.len());
            let mut sends = Vec::with_capacity(groups.len());
            for (peer, (endpoint, hashes)) in groups {
                let request = Request::PutReplicas {
                    op,
                    hashes: hashes.clone(),
                    key: key.clone(),
                    payload: value.data.clone(),
                    timestamp: value.timestamp,
                };
                // Every per-peer group of the fan-out carries the same
                // trace id, so the applying peers' span trees (one per
                // constituent put) correlate back to this logical insert.
                let trace = context.map(|root| root.child_of(rdht_metrics::next_span_id()));
                sends.push(Outgoing {
                    peer,
                    endpoint,
                    request,
                    trace,
                });
                sent.push(hashes);
            }
            for (hashes, group) in sent.into_iter().zip(self.round(sends)) {
                match group.outcome {
                    Ok(Reply::PutsAck { written, failed: 0 }) => {
                        outcome.written += written as usize;
                    }
                    Ok(Reply::PutsAck { written, failed }) if final_attempt => {
                        outcome.written += written as usize;
                        outcome.failed += failed as usize;
                    }
                    // An undeliverable group, a lost ack, or partial failure
                    // mid-budget: re-queue the whole group uncredited — the
                    // retry's cached re-acks make the final count correct
                    // without double-crediting.
                    _ if final_attempt => outcome.failed += hashes.len(),
                    _ => remaining.extend(hashes),
                }
            }
            if final_attempt {
                outcome.failed += unroutable.len();
            } else {
                remaining.extend(unroutable);
            }
            if let Some(attempt_started) = attempt_started {
                let attempt_ended = Instant::now();
                phases.push((
                    format!("attempt{attempt}"),
                    us(attempt_ended.saturating_duration_since(attempt_started)),
                ));
                let label = if remaining.is_empty() { "ok" } else { "retry" };
                self.emit_attempt(
                    context,
                    attempt,
                    (attempt_started, attempt_ended),
                    backoff,
                    label,
                );
            }
            if remaining.is_empty() {
                break;
            }
        }
        let label = if outcome.failed == 0 { "ok" } else { "partial" };
        let span = started.map(|started| (started, Instant::now()));
        self.finish_trace("puts", context, span, phases, label);
        outcome
    }

    fn get_replica(&mut self, hash: HashId, key: &Key) -> Result<Option<ReplicaValue>, UmsError> {
        let get = self.get_call(hash, key);
        self.call(get).and_then(replica_of)
    }

    fn replication_count(&self) -> usize {
        self.directory.family.num_replication()
    }
}
