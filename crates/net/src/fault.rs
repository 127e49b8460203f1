//! Fault-injecting transport middleware: [`FaultyTransport`] wraps any
//! [`Transport`] backend and applies a deterministic, seeded [`FaultPlan`]
//! per **directed link** — drop probability, added latency (fixed +
//! jittered), duplication, and named partitions that can be healed mid-run.
//!
//! The decorator sits on the *send* path: every frame (a request towards a
//! peer, and — through a [`ReplyHook`] — the reply travelling back) rolls
//! the link's faults before it reaches the real transport. The hook does not
//! change who reads a reply: over TCP a reply the sending thread waits for
//! is still read by that thread, which hands it to the hook.
//!
//! * A **dropped** frame vanishes silently: its reply sink is parked in a
//!   bounded black hole instead of being dropped, so the sender observes a
//!   *timeout* (exactly what a lossy network produces), never the prompt
//!   teardown signal an honest crash produces.
//! * A **delayed** frame is handed to a timer thread and delivered when its
//!   deadline passes; the sender returns immediately, as a real kernel send
//!   buffer would.
//! * A **duplicated** frame is delivered a second time with a null reply
//!   sink — on a real wire the duplicate carries the same request id and
//!   its reply is discarded by the requester, which is what the null sink
//!   models (over TCP the duplicate travels on the pooled connection, as
//!   nobody waits for its reply). Duplicates are what the peers' dedup
//!   window exists for.
//! * A **partition** separates two named sets of ends in both directions
//!   until [`FaultPlan::heal`] is called; partitioned frames count as drops.
//!
//! Every directed link owns its own [`rand::rngs::StdRng`] seeded from the
//! plan seed and the link identity, so a single-threaded workload replays
//! the exact same fault sequence for a given seed, and per-link counters
//! ([`LinkCounters`]) make loss observable for assertions.
//!
//! Lifecycle requests ([`Request::Shutdown`], [`Request::Crash`]) are
//! exempt: they model operator actions on the process, not network frames —
//! dropping a `Shutdown` would hang cluster teardown forever without
//! exercising any protocol path.

use std::cell::Cell;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdht_metrics::{Counter, Registry};

use crate::cluster::PeerId;
use crate::message::{Reply, Request};
use crate::transport::{
    Mailbox, PeerEndpoint, ReplyHook, ReplySink, SendRejected, Transport, TransportError,
};

/// How many black-holed reply sinks are parked before the oldest is let go.
/// A released sink signals `Dropped` to a caller that timed out long ago —
/// harmless — while the bound keeps an unbounded-loss run from leaking one
/// sink per dropped frame.
const BLACK_HOLE_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Link identity
// ---------------------------------------------------------------------------

thread_local! {
    /// The peer id the current thread sends *as*. Peer threads register
    /// themselves on spawn; anything unregistered (test harnesses, client
    /// threads) sends as [`End::Client`].
    static LINK_SOURCE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Marks the calling thread as sending on behalf of `peer`: frames it
/// originates are attributed to the directed link `Peer(peer) -> dst`.
pub fn set_thread_source(peer: PeerId) {
    LINK_SOURCE.with(|source| source.set(Some(peer.0)));
}

fn current_source() -> End {
    LINK_SOURCE
        .with(|source| source.get())
        .map(End::Peer)
        .unwrap_or(End::Client)
}

/// One end of a directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum End {
    /// Any client handle (clients are not ring members and share one end).
    Client,
    /// The peer with this ring id.
    Peer(u64),
}

impl fmt::Display for End {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            End::Client => write!(f, "client"),
            End::Peer(id) => write!(f, "peer {id:016x}"),
        }
    }
}

fn link_seed(plan_seed: u64, from: End, to: End) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    fn end_word(end: End) -> u64 {
        match end {
            End::Client => 0x434c_4945_4e54_0000,
            End::Peer(id) => id,
        }
    }
    mix(plan_seed ^ mix(end_word(from)).rotate_left(17) ^ mix(end_word(to)))
}

// ---------------------------------------------------------------------------
// Fault configuration
// ---------------------------------------------------------------------------

/// The faults applied to one directed link (or, as the plan default, to
/// every link without an override).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a frame is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a frame is delivered twice.
    pub duplicate_probability: f64,
    /// Fixed latency added to every frame.
    pub delay: Duration,
    /// Extra uniformly-jittered latency in `[0, jitter)` on top of `delay`.
    pub jitter: Duration,
}

impl LinkFaults {
    /// A link that drops each frame with probability `p`.
    pub fn lossy(p: f64) -> Self {
        LinkFaults {
            drop_probability: p,
            ..LinkFaults::default()
        }
    }

    /// A link that duplicates each frame with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        LinkFaults {
            duplicate_probability: p,
            ..LinkFaults::default()
        }
    }

    /// A link adding `delay` plus up to `jitter` of uniform extra latency.
    pub fn delayed(delay: Duration, jitter: Duration) -> Self {
        LinkFaults {
            delay,
            jitter,
            ..LinkFaults::default()
        }
    }

    fn is_clean(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.delay.is_zero()
            && self.jitter.is_zero()
    }
}

/// Per-directed-link delivery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames passed through to the real transport (delayed and duplicated
    /// frames count here too once they go out).
    pub frames_delivered: u64,
    /// Frames silently dropped (including partitioned frames).
    pub frames_dropped: u64,
    /// Frames held back by the latency model before delivery.
    pub frames_delayed: u64,
    /// Frames delivered a second time.
    pub frames_duplicated: u64,
}

/// A snapshot of everything the plan has done so far.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// Totals across every link.
    pub totals: LinkCounters,
    /// Per-directed-link counters, sorted by link for determinism.
    pub per_link: Vec<((End, End), LinkCounters)>,
}

struct PartitionState {
    a: Vec<End>,
    b: Vec<End>,
    active: bool,
}

impl PartitionState {
    fn separates(&self, from: End, to: End) -> bool {
        self.active
            && ((self.a.contains(&from) && self.b.contains(&to))
                || (self.b.contains(&from) && self.a.contains(&to)))
    }
}

enum Decision {
    Drop,
    Deliver {
        delay: Option<Duration>,
        duplicate: bool,
    },
}

struct PlanState {
    default_link: LinkFaults,
    links: HashMap<(End, End), LinkFaults>,
    partitions: HashMap<String, PartitionState>,
    rngs: HashMap<(End, End), StdRng>,
    counters: HashMap<(End, End), LinkCounters>,
    /// Sinks of dropped frames, parked so their senders time out instead of
    /// observing a prompt (and dishonest) teardown signal.
    black_hole: VecDeque<ReplySink>,
}

/// The plan-wide totals, kept as registry-grade [`Counter`] handles: the
/// same atomics [`FaultPlan::stats`] snapshots can be registered into a
/// peer's metrics registry ([`FaultPlan::register_metrics`]) — one storage
/// location, whichever way it is read.
struct Totals {
    delivered: Counter,
    dropped: Counter,
    delayed: Counter,
    duplicated: Counter,
}

struct PlanInner {
    seed: u64,
    state: Mutex<PlanState>,
    totals: Totals,
    scheduler: Scheduler,
}

/// A deterministic, seeded fault schedule shared by every endpoint of a
/// [`FaultyTransport`]. Cloning is cheap and shares the plan (and its
/// counters); the simulator reuses the same type to model message loss.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("FaultPlan")
            .field("seed", &self.inner.seed)
            .field("default_link", &state.default_link)
            .field("link_overrides", &state.links.len())
            .field("partitions", &state.partitions.len())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan (no faults anywhere) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                state: Mutex::new(PlanState {
                    default_link: LinkFaults::default(),
                    links: HashMap::new(),
                    partitions: HashMap::new(),
                    rngs: HashMap::new(),
                    counters: HashMap::new(),
                    black_hole: VecDeque::new(),
                }),
                totals: Totals {
                    delivered: Counter::new(),
                    dropped: Counter::new(),
                    delayed: Counter::new(),
                    duplicated: Counter::new(),
                },
                scheduler: Scheduler::new(),
            }),
        }
    }

    /// Applies `faults` to every link without a per-link override.
    pub fn with_all_links(self, faults: LinkFaults) -> Self {
        self.inner.state.lock().default_link = faults;
        self
    }

    /// Overrides the faults of one directed link.
    pub fn with_link(self, from: End, to: End, faults: LinkFaults) -> Self {
        self.inner.state.lock().links.insert((from, to), faults);
        self
    }

    /// Canned plan: every link drops each frame with probability `p`.
    pub fn lossy(seed: u64, p: f64) -> Self {
        FaultPlan::new(seed).with_all_links(LinkFaults::lossy(p))
    }

    /// Canned plan: every link duplicates frames aggressively (30%).
    pub fn dup_heavy(seed: u64) -> Self {
        FaultPlan::new(seed).with_all_links(LinkFaults::duplicating(0.3))
    }

    /// Canned plan: every link adds `delay` with up to the same amount of
    /// uniform jitter on top.
    pub fn jittered_latency(seed: u64, delay: Duration) -> Self {
        FaultPlan::new(seed).with_all_links(LinkFaults::delayed(delay, delay))
    }

    /// Installs (and activates) a named partition separating the ends in
    /// `a` from the ends in `b`, both directions. Frames crossing an active
    /// partition are dropped. Re-installing a name replaces it.
    pub fn partition(&self, name: impl Into<String>, a: Vec<End>, b: Vec<End>) {
        self.inner
            .state
            .lock()
            .partitions
            .insert(name.into(), PartitionState { a, b, active: true });
    }

    /// Heals a named partition mid-run: frames cross again from now on.
    /// Unknown names are a no-op.
    pub fn heal(&self, name: &str) {
        if let Some(partition) = self.inner.state.lock().partitions.get_mut(name) {
            partition.active = false;
        }
    }

    /// Whether an active partition currently separates `from` and `to`.
    pub fn is_partitioned(&self, from: End, to: End) -> bool {
        self.inner
            .state
            .lock()
            .partitions
            .values()
            .any(|partition| partition.separates(from, to))
    }

    /// Rolls only the drop fault of the directed link `from -> to`. This is
    /// the hook the simulator uses: it models loss as a failed operation
    /// (latency is priced by its own network model), so only the drop
    /// decision matters. Counters are updated exactly as for a real frame.
    pub fn roll_drop(&self, from: End, to: End) -> bool {
        matches!(self.decide(from, to), Decision::Drop)
    }

    /// A snapshot of the per-link and total counters.
    pub fn stats(&self) -> FaultStats {
        let state = self.inner.state.lock();
        let mut per_link: Vec<((End, End), LinkCounters)> = state
            .counters
            .iter()
            .map(|(link, counters)| (*link, *counters))
            .collect();
        per_link.sort_by_key(|(link, _)| *link);
        FaultStats {
            totals: LinkCounters {
                frames_delivered: self.inner.totals.delivered.get(),
                frames_dropped: self.inner.totals.dropped.get(),
                frames_delayed: self.inner.totals.delayed.get(),
                frames_duplicated: self.inner.totals.duplicated.get(),
            },
            per_link,
        }
    }

    /// Registers the plan-wide totals into a metrics registry as shared
    /// handles: the registry series and [`FaultPlan::stats`] read the same
    /// atomics, so the two surfaces can never disagree. Totals are
    /// plan-wide — on a cluster with one plan, every peer's exposition
    /// mirrors the same values.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        use crate::metrics::names;
        registry.register_counter(
            names::FAULT_DELIVERED,
            "frames the fault plan passed through to the real transport",
            labels,
            self.inner.totals.delivered.clone(),
        );
        registry.register_counter(
            names::FAULT_DROPPED,
            "frames the fault plan silently dropped (including partitions)",
            labels,
            self.inner.totals.dropped.clone(),
        );
        registry.register_counter(
            names::FAULT_DELAYED,
            "frames the fault plan held back before delivery",
            labels,
            self.inner.totals.delayed.clone(),
        );
        registry.register_counter(
            names::FAULT_DUPLICATED,
            "frames the fault plan delivered a second time",
            labels,
            self.inner.totals.duplicated.clone(),
        );
    }

    fn decide(&self, from: End, to: End) -> Decision {
        let mut state = self.inner.state.lock();
        let link = (from, to);
        if state
            .partitions
            .values()
            .any(|partition| partition.separates(from, to))
        {
            state.counters.entry(link).or_default().frames_dropped += 1;
            self.inner.totals.dropped.inc();
            return Decision::Drop;
        }
        let faults = *state.links.get(&link).unwrap_or(&state.default_link);
        if faults.is_clean() {
            state.counters.entry(link).or_default().frames_delivered += 1;
            self.inner.totals.delivered.inc();
            return Decision::Deliver {
                delay: None,
                duplicate: false,
            };
        }
        let seed = link_seed(self.inner.seed, from, to);
        let rng = state
            .rngs
            .entry(link)
            .or_insert_with(|| StdRng::seed_from_u64(seed));
        if faults.drop_probability > 0.0 && rng.gen_bool(faults.drop_probability.min(1.0)) {
            state.counters.entry(link).or_default().frames_dropped += 1;
            self.inner.totals.dropped.inc();
            return Decision::Drop;
        }
        let duplicate = faults.duplicate_probability > 0.0
            && rng.gen_bool(faults.duplicate_probability.min(1.0));
        let delay = if faults.delay.is_zero() && faults.jitter.is_zero() {
            None
        } else {
            let jitter = faults.jitter.mul_f64(rng.gen::<f64>());
            Some(faults.delay + jitter)
        };
        let counters = state.counters.entry(link).or_default();
        counters.frames_delivered += 1;
        self.inner.totals.delivered.inc();
        if duplicate {
            counters.frames_duplicated += 1;
            self.inner.totals.duplicated.inc();
        }
        if delay.is_some() {
            counters.frames_delayed += 1;
            self.inner.totals.delayed.inc();
        }
        Decision::Deliver { delay, duplicate }
    }

    /// Parks the sink of a dropped frame so its sender observes silence
    /// (then a timeout), not the prompt teardown a real crash produces.
    fn black_hole(&self, sink: ReplySink) {
        let evicted = {
            let mut state = self.inner.state.lock();
            state.black_hole.push_back(sink);
            if state.black_hole.len() > BLACK_HOLE_CAPACITY {
                state.black_hole.pop_front()
            } else {
                None
            }
        };
        // The evicted sink is dropped *outside* the lock: its drop path may
        // complete a fan-in whose outer sink re-enters this plan.
        drop(evicted);
    }

    fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }
}

// ---------------------------------------------------------------------------
// Delay scheduler
// ---------------------------------------------------------------------------

struct Delayed {
    at: Instant,
    seq: u64,
    action: Box<dyn FnOnce() + Send>,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // on top.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct SchedulerQueue {
    items: BinaryHeap<Delayed>,
    next_seq: u64,
    running: bool,
    stop: bool,
}

struct SchedulerShared {
    queue: StdMutex<SchedulerQueue>,
    wake: Condvar,
}

/// A single lazily-started timer thread delivering delayed frames when
/// their deadline passes. Std primitives (not `parking_lot`) because the
/// loop needs a condition variable with timeouts.
struct Scheduler {
    shared: Arc<SchedulerShared>,
}

/// Scheduler lock with poison recovery. Actions run outside the lock, so
/// poison means a panic mid-push or mid-pop; the queue state itself is
/// still coherent (BinaryHeap operations are panic-safe). Recover and log
/// instead of cascading the panic through every delivery thread.
fn recover_poison<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(|poisoned| {
        rdht_metrics::log::global().warn("net.fault", "scheduler mutex poisoned; recovering", &[]);
        poisoned.into_inner()
    })
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            shared: Arc::new(SchedulerShared {
                queue: StdMutex::new(SchedulerQueue::default()),
                wake: Condvar::new(),
            }),
        }
    }

    fn schedule(&self, delay: Duration, action: Box<dyn FnOnce() + Send>) {
        let at = Instant::now() + delay;
        let mut queue = recover_poison(self.shared.queue.lock());
        if queue.stop {
            // Teardown raced a late frame: the frame is lost, its sink's
            // drop signals the sender.
            return;
        }
        let seq = queue.next_seq;
        queue.next_seq += 1;
        queue.items.push(Delayed { at, seq, action });
        if !queue.running {
            queue.running = true;
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || Scheduler::run(shared));
        }
        drop(queue);
        self.shared.wake.notify_one();
    }

    fn run(shared: Arc<SchedulerShared>) {
        loop {
            let action = {
                let mut queue = recover_poison(shared.queue.lock());
                loop {
                    if queue.stop {
                        return;
                    }
                    let now = Instant::now();
                    match queue.items.peek() {
                        None => {
                            queue = recover_poison(shared.wake.wait(queue));
                        }
                        Some(head) if head.at <= now => {
                            break queue.items.pop().expect("peeked item").action;
                        }
                        Some(head) => {
                            let wait = head.at - now;
                            queue = recover_poison(
                                shared
                                    .wake
                                    .wait_timeout(queue, wait)
                                    .map(|(guard, _timeout)| guard)
                                    .map_err(|p| {
                                        let (guard, _timeout) = p.into_inner();
                                        std::sync::PoisonError::new(guard)
                                    }),
                            );
                        }
                    }
                }
            };
            // Delivery runs outside the lock: it may itself roll faults.
            action();
        }
    }
}

impl Drop for PlanInner {
    fn drop(&mut self) {
        if let Ok(mut queue) = self.scheduler.shared.queue.lock() {
            queue.stop = true;
            queue.items.clear();
        }
        self.scheduler.shared.wake.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The transport decorator
// ---------------------------------------------------------------------------

/// A [`Transport`] decorator applying a [`FaultPlan`] to every frame sent
/// through endpoints it resolves. The receive side (`bind`) is untouched —
/// faults happen on the wire, not in the mailbox.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport { inner, plan }
    }

    /// The plan frames are rolled against (shared: counters and partitions
    /// observed through this handle reflect live traffic).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

// Delegation for trait objects and smart pointers, so a dynamically
// selected backend (`Arc<dyn Transport>`) can be decorated too.
impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn bind(&self, peer: PeerId) -> Result<Mailbox, TransportError> {
        (**self).bind(peer)
    }
    fn endpoint(&self, peer: PeerId) -> Result<PeerEndpoint, TransportError> {
        (**self).endpoint(peer)
    }
    fn unbind(&self, peer: PeerId) {
        (**self).unbind(peer)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn bind(&self, peer: PeerId) -> Result<Mailbox, TransportError> {
        self.inner.bind(peer)
    }

    fn endpoint(&self, peer: PeerId) -> Result<PeerEndpoint, TransportError> {
        let inner = self.inner.endpoint(peer)?;
        Ok(PeerEndpoint::new(Arc::new(FaultyEndpoint {
            inner,
            dst: peer.0,
            plan: self.plan.clone(),
        })))
    }

    fn unbind(&self, peer: PeerId) {
        self.inner.unbind(peer)
    }
}

struct FaultyEndpoint {
    inner: PeerEndpoint,
    dst: u64,
    plan: FaultPlan,
}

impl crate::transport::EndpointImpl for FaultyEndpoint {
    fn deliver(
        &self,
        request: Request,
        sink: ReplySink,
        trace: Option<rdht_metrics::TraceContext>,
    ) -> Result<(), SendRejected> {
        // Lifecycle messages are operator actions, not network frames.
        if matches!(request, Request::Shutdown | Request::Crash) {
            return self.inner.send_with_sink_traced(request, sink, trace);
        }
        let from = current_source();
        let to = End::Peer(self.dst);
        // The reply crosses the reverse link: wrap the sink so the peer's
        // answer rolls `to -> from` faults on its way back.
        let sink = ReplySink::hooked(Box::new(FaultReplyHook {
            sink: Some(sink),
            plan: self.plan.clone(),
            from: to,
            to: from,
        }));
        match self.plan.decide(from, to) {
            Decision::Drop => {
                self.plan.black_hole(sink);
                Ok(())
            }
            Decision::Deliver { delay, duplicate } => {
                if duplicate {
                    // The duplicate carries the same frame (trace context
                    // included); its reply is discarded by the request-id
                    // demux, modelled by a null sink. Best effort: a dead
                    // peer loses the duplicate.
                    let _ =
                        self.inner
                            .send_with_sink_traced(request.clone(), ReplySink::null(), trace);
                }
                match delay {
                    None => self.inner.send_with_sink_traced(request, sink, trace),
                    Some(wait) => {
                        let target = self.inner.clone();
                        self.plan.scheduler().schedule(
                            wait,
                            Box::new(move || {
                                // A rejection at fire time drops the sink:
                                // the sender gets the prompt teardown it
                                // would have got from an immediate send.
                                let _ = target.send_with_sink_traced(request, sink, trace);
                            }),
                        );
                        Ok(())
                    }
                }
            }
        }
    }
}

struct FaultReplyHook {
    sink: Option<ReplySink>,
    plan: FaultPlan,
    from: End,
    to: End,
}

impl ReplyHook for FaultReplyHook {
    fn deliver(mut self: Box<Self>, reply: Reply) {
        let sink = self.sink.take().expect("hook consumed once");
        match self.plan.decide(self.from, self.to) {
            Decision::Drop => self.plan.black_hole(sink),
            Decision::Deliver { delay, .. } => {
                // A duplicated reply frame is counted by decide() but cannot
                // be delivered twice — the requester's slot takes the first
                // reply and discards the rest, so there is nothing more to
                // model.
                match delay {
                    None => sink.send(reply),
                    Some(wait) => self
                        .plan
                        .scheduler()
                        .schedule(wait, Box::new(move || sink.send(reply))),
                }
            }
        }
    }

    fn dropped(mut self: Box<Self>) {
        // Teardown is a local signal (the peer unbound / crashed), not a
        // frame: propagate promptly so callers see the honest `Dropped`.
        drop(self.sink.take());
    }

    /// The hooked sink: over TCP, a reply its waiter reads itself passes
    /// through this hook in the waiter's hands, so loss, duplication and
    /// delay of replies apply on the production path.
    fn wrapped(&self) -> Option<&ReplySink> {
        self.sink.as_ref()
    }
}
