//! The [`Transport`] abstraction: how requests reach peers and how replies
//! find their way back, independent of whether the peers share a process.
//!
//! Three pieces make the peer loop transport-generic:
//!
//! * [`Mailbox`] — the receive side of a bound peer: a queue of
//!   [`Incoming`] work items, each a [`Request`] paired with the
//!   [`ReplySink`] its answer must be sent into. Over the channel transport
//!   the sink is the caller's reply slot itself; over TCP it writes a framed
//!   reply envelope back onto the connection the request arrived on, tagged
//!   with the request id.
//! * [`PeerEndpoint`] — the send side: a cheap, cloneable handle addressing
//!   one peer. `send` registers a one-slot wait and returns it as a
//!   [`PendingReply`]; `send_with_sink` relays an existing sink (this is
//!   what makes request *forwarding* transparent — the forwarded request
//!   carries the original reply path, whatever transport it came in on). A
//!   caller with several independent requests sends them through one
//!   `Gather` (crate-internal) instead and waits once for all of their
//!   replies. Either way the thread that sends is the thread that waits,
//!   which lets the TCP transport leave a reply on the waiter's own
//!   connection for the waiter to read.
//! * [`Transport`] — the factory tying both together with per-peer
//!   addressing: `bind` (accept side), `endpoint` (connect side) and
//!   `unbind` (teardown).
//!
//! Implementations: [`ChannelTransport`] (this module) wraps the in-process
//! mailbox mesh — deterministic, allocation-light, what every test and the
//! simulator use; [`crate::TcpTransport`] speaks the length-framed wire
//! codec over real sockets.

use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rdht_metrics::TraceContext;

use crate::cluster::PeerId;
use crate::message::{Reply, Request};

/// A typed transport failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The transport has no peer registered under this id.
    UnknownPeer(u64),
    /// The peer's mailbox, listener or connection is closed — the peer
    /// crashed, shut down or was unbound.
    Closed,
    /// The underlying socket failed (TCP only).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(id) => {
                write!(f, "no peer {id:016x} is registered with the transport")
            }
            TransportError::Closed => write!(f, "the peer is no longer reachable"),
            TransportError::Io(message) => write!(f, "transport I/O failure: {message}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Why a [`PeerEndpoint::call`] produced no usable reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallError {
    /// The request could not be delivered at all.
    Transport(TransportError),
    /// The request was delivered but its reply path was torn down before an
    /// answer arrived — the peer crashed mid-request or dropped it.
    Dropped,
    /// No reply arrived within the deadline.
    Timeout,
    /// The peer (or a forwarder on the path) answered [`Reply::Error`].
    Rejected(String),
    /// Every attempt of a retrying call failed — the retry budget of a
    /// [`crate::RetryPolicy`] is spent. `last` is the final attempt's
    /// failure.
    Exhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The failure of the last attempt.
        last: Box<CallError>,
    },
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Transport(error) => write!(f, "send failed: {error}"),
            CallError::Dropped => {
                write!(f, "the peer dropped the request before answering (crash?)")
            }
            CallError::Timeout => write!(f, "the peer did not reply in time"),
            CallError::Rejected(reason) => write!(f, "the request was rejected: {reason}"),
            CallError::Exhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last: {last}")
            }
        }
    }
}

impl std::error::Error for CallError {}

/// Where a reply crosses back from in-process representation onto a wire.
/// Implemented by the TCP transport's per-connection writers; the channel
/// transport never needs it.
pub trait ReplyWriter: Send + Sync {
    /// Writes `reply` for the request `request_id` back to the requester.
    /// Delivery is best effort: the connection may already be gone.
    fn write_reply(&self, request_id: u64, reply: &Reply);
}

/// Shared state of a fan-in sink: counts the acknowledgements of the
/// constituent puts of a [`Request::PutReplicas`] and answers the original
/// requester once all of them completed (or were dropped).
struct FaninState {
    remaining: usize,
    written: u32,
    failed: u32,
    out: Option<ReplySink>,
}

impl FaninState {
    fn absorb(state: &Arc<Mutex<FaninState>>, ok: bool) {
        let completed = {
            let mut guard = state.lock();
            debug_assert!(guard.remaining > 0, "fan-in over-completed");
            guard.remaining -= 1;
            if ok {
                guard.written += 1;
            } else {
                guard.failed += 1;
            }
            if guard.remaining == 0 {
                guard
                    .out
                    .take()
                    .map(|out| (out, guard.written, guard.failed))
            } else {
                None
            }
        };
        // The final send runs outside the lock: it may itself be a fan-in
        // (or a socket write) and must not re-enter.
        if let Some((out, written, failed)) = completed {
            out.send(Reply::PutsAck { written, failed });
        }
    }
}

/// Shared state of a collecting sink: the replies of the constituents of a
/// [`Request::Batch`], kept in request order, and the requester's own sink,
/// answered once the last of them is in.
struct CollectState {
    replies: Vec<Option<Reply>>,
    remaining: usize,
    out: Option<ReplySink>,
}

impl CollectState {
    fn absorb(state: &Arc<Mutex<CollectState>>, index: usize, reply: Reply) {
        let completed = {
            let mut guard = state.lock();
            debug_assert!(guard.replies[index].is_none(), "collect slot filled twice");
            guard.replies[index] = Some(reply);
            guard.remaining -= 1;
            if guard.remaining == 0 {
                let replies = std::mem::take(&mut guard.replies);
                guard.out.take().map(|out| (out, replies))
            } else {
                None
            }
        };
        // Sent outside the lock, for the reason `FaninState::absorb` gives.
        if let Some((out, replies)) = completed {
            let replies = replies
                .into_iter()
                .map(|reply| reply.expect("every collect slot was filled"))
                .collect();
            out.send(Reply::Batch(replies));
        }
    }
}

/// What a reply path that was torn down unsent tells a requester that can be
/// told anything: a remote one, and the slot of a collecting sink.
fn dropped_unanswered() -> Reply {
    Reply::Error {
        reason: "the request was dropped before being answered".to_string(),
    }
}

/// Interceptor of one reply path, consumed exactly once — either
/// [`ReplyHook::deliver`] fires with the peer's answer or
/// [`ReplyHook::dropped`] fires when the sink is torn down unsent.
/// Middleware (the fault-injecting decorator) uses this to apply faults on
/// the *reverse* link of a request without the peer loop knowing.
pub trait ReplyHook: Send {
    /// The peer answered; the hook decides what happens to the reply.
    fn deliver(self: Box<Self>, reply: Reply);
    /// The sink was dropped unsent — a teardown signal (crash, reap), not a
    /// network frame; hooks are expected to propagate it promptly.
    fn dropped(self: Box<Self>);
    /// The sink this hook ends up delivering into, if it wraps one. A
    /// transport looks through the hook to find who waits for the reply: if
    /// it is the sending thread, that thread reads the reply itself and
    /// hands it to the hook. A hook answering `None` has its reply read by
    /// a transport thread instead.
    fn wrapped(&self) -> Option<&ReplySink> {
        None
    }
}

enum SinkInner {
    /// No one is waiting (lifecycle messages).
    Null,
    /// A remote requester: the reply is framed back onto the connection the
    /// request arrived on, tagged with its request id.
    Remote {
        writer: Arc<dyn ReplyWriter>,
        request_id: u64,
    },
    /// One constituent put of a batched [`Request::PutReplicas`].
    Fanin(Arc<Mutex<FaninState>>),
    /// One constituent of a [`Request::Batch`].
    Collect {
        state: Arc<Mutex<CollectState>>,
        index: usize,
    },
    /// A middleware interceptor wrapping another sink.
    Hooked(Box<dyn ReplyHook>),
    /// One slot of a scatter-gather exchange (`Gather`).
    Slot {
        gather: Arc<GatherShared>,
        index: usize,
    },
}

/// The reply path of one in-flight request. Consume it with
/// [`ReplySink::send`]; a sink dropped unsent signals failure instead of
/// leaving the requester to time out (a remote requester receives
/// [`Reply::Error`], a fan-in counts a failed put, a collecting sink records
/// [`Reply::Error`] in the constituent's place, a waiter's slot reads
/// [`CallError::Dropped`]).
///
/// Whoever delivers the reply consumes the sink: the peer loop over the
/// channel transport; over TCP the thread waiting for it when that thread
/// sent the request, and otherwise (a forward, a request re-sent by the
/// fault layer's timer) the reader thread of the connection it went out on.
pub struct ReplySink {
    inner: SinkInner,
}

impl fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.inner {
            SinkInner::Null => "Null",
            SinkInner::Remote { .. } => "Remote",
            SinkInner::Fanin(_) => "Fanin",
            SinkInner::Collect { .. } => "Collect",
            SinkInner::Hooked(_) => "Hooked",
            SinkInner::Slot { .. } => "Slot",
        };
        write!(f, "ReplySink::{kind}")
    }
}

impl ReplySink {
    /// A sink that discards the reply (for requests that answer no one,
    /// like `Shutdown` and `Crash`).
    pub fn null() -> Self {
        ReplySink {
            inner: SinkInner::Null,
        }
    }

    /// A sink framing the reply back to a remote requester.
    pub fn remote(writer: Arc<dyn ReplyWriter>, request_id: u64) -> Self {
        ReplySink {
            inner: SinkInner::Remote { writer, request_id },
        }
    }

    /// A sink routing the reply (or the teardown signal) through a
    /// middleware hook.
    pub fn hooked(hook: Box<dyn ReplyHook>) -> Self {
        ReplySink {
            inner: SinkInner::Hooked(hook),
        }
    }

    /// Splits `out` into `count` constituent sinks: each receives the
    /// acknowledgement of one put, and once all have completed (a
    /// [`Reply::PutAck`] counts as written, anything else — including being
    /// dropped — as failed) `out` receives one [`Reply::PutsAck`] totalling
    /// them. `count == 0` answers `out` immediately.
    pub fn fanin(count: usize, out: ReplySink) -> Vec<ReplySink> {
        if count == 0 {
            out.send(Reply::PutsAck {
                written: 0,
                failed: 0,
            });
            return Vec::new();
        }
        let state = Arc::new(Mutex::new(FaninState {
            remaining: count,
            written: 0,
            failed: 0,
            out: Some(out),
        }));
        (0..count)
            .map(|_| ReplySink {
                inner: SinkInner::Fanin(Arc::clone(&state)),
            })
            .collect()
    }

    /// Splits `out` into `count` constituent sinks, the ordered sibling of
    /// [`ReplySink::fanin`]: each keeps the reply it is sent — a sink dropped
    /// unsent keeps a [`Reply::Error`] — and once all have completed `out`
    /// receives one [`Reply::Batch`] holding them in sink order, whatever
    /// order they completed in. `count == 0` answers `out` immediately.
    pub fn collect(count: usize, out: ReplySink) -> Vec<ReplySink> {
        if count == 0 {
            out.send(Reply::Batch(Vec::new()));
            return Vec::new();
        }
        let state = Arc::new(Mutex::new(CollectState {
            replies: vec![None; count],
            remaining: count,
            out: Some(out),
        }));
        (0..count)
            .map(|index| ReplySink {
                inner: SinkInner::Collect {
                    state: Arc::clone(&state),
                    index,
                },
            })
            .collect()
    }

    /// The waiter of this reply — looking through middleware hooks — when
    /// it is a [`Gather`] of the calling thread: a transport sending the
    /// request from here can leave the reply for that thread to read.
    pub(crate) fn waiter_here(&self) -> Option<WaiterId> {
        match &self.inner {
            SinkInner::Slot { gather, .. } => {
                (gather.thread == thread_token()).then(|| gather.waiter())
            }
            SinkInner::Hooked(hook) => hook.wrapped()?.waiter_here(),
            _ => None,
        }
    }

    /// Delivers the reply, consuming the sink.
    pub fn send(mut self, reply: Reply) {
        match std::mem::replace(&mut self.inner, SinkInner::Null) {
            SinkInner::Null => {}
            SinkInner::Remote { writer, request_id } => {
                writer.write_reply(request_id, &reply);
            }
            SinkInner::Fanin(state) => {
                let ok = matches!(reply, Reply::PutAck);
                FaninState::absorb(&state, ok);
            }
            SinkInner::Collect { state, index } => CollectState::absorb(&state, index, reply),
            SinkInner::Hooked(hook) => hook.deliver(reply),
            SinkInner::Slot { gather, index } => gather.fill(index, answered(reply)),
        }
    }
}

impl Drop for ReplySink {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.inner, SinkInner::Null) {
            SinkInner::Null => {}
            SinkInner::Remote { writer, request_id } => {
                writer.write_reply(request_id, &dropped_unanswered());
            }
            SinkInner::Fanin(state) => FaninState::absorb(&state, false),
            SinkInner::Collect { state, index } => {
                CollectState::absorb(&state, index, dropped_unanswered())
            }
            SinkInner::Hooked(hook) => hook.dropped(),
            SinkInner::Slot { gather, index } => gather.fill(index, Err(CallError::Dropped)),
        }
    }
}

/// One unit of work delivered to a bound peer: the request, the sink its
/// reply belongs in, and — when the caller sampled the call — the trace
/// context its spans continue under.
#[derive(Debug)]
pub struct Incoming {
    /// The decoded (or in-process) request.
    pub request: Request,
    /// Where the answer must go.
    pub reply: ReplySink,
    /// Distributed-tracing context the request arrived with, if any.
    pub trace: Option<TraceContext>,
    /// When the transport enqueued the request — the start of its
    /// queue-wait span (drain time minus `arrived`). Stamped only for a
    /// request that carries a sampled context (its own, or — a
    /// [`Request::Batch`] — a constituent's): nothing reads it otherwise.
    pub arrived: Option<Instant>,
}

impl Incoming {
    /// Packages a request for a peer's mailbox, stamping the arrival time
    /// when the request is sampled.
    pub fn new(request: Request, reply: ReplySink, trace: Option<TraceContext>) -> Self {
        let sampled = |trace: &Option<TraceContext>| trace.is_some_and(|c| c.is_sampled());
        let timed = sampled(&trace)
            || matches!(&request, Request::Batch(items) if items.iter().any(|(_, t)| sampled(t)));
        Incoming {
            request,
            reply,
            trace,
            arrived: timed.then(Instant::now),
        }
    }
}

/// The receive side of a bound peer: a queue of [`Incoming`] work items fed
/// by the transport (mailbox sends, or decoded TCP frames).
#[derive(Debug)]
pub struct Mailbox {
    receiver: Receiver<Incoming>,
}

impl Mailbox {
    /// Wraps a raw receiver (used by transport implementations).
    pub fn new(receiver: Receiver<Incoming>) -> Self {
        Mailbox { receiver }
    }

    /// Blocks for the next work item; `None` when the transport side is
    /// gone (every sender dropped — the peer was unbound).
    pub fn recv(&self) -> Option<Incoming> {
        self.receiver.recv().ok()
    }

    /// Waits up to `timeout` for the next work item; `None` on timeout *or*
    /// closure (a peer that only waits bounded time treats both as "nothing
    /// left to do").
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Incoming> {
        self.receiver.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Incoming> {
        self.receiver.try_recv().ok()
    }
}

/// A send failure that hands the undelivered request (and its reply sink)
/// back to the caller, so forwarding logic can re-route instead of losing
/// the message.
#[derive(Debug)]
pub struct SendRejected {
    /// Why delivery failed.
    pub error: TransportError,
    /// The request that was not delivered.
    pub request: Request,
    /// Its reply path, still unconsumed.
    pub sink: ReplySink,
}

/// Object-safe delivery half of an endpoint; wrapped by [`PeerEndpoint`].
pub trait EndpointImpl: Send + Sync {
    /// Delivers `request`, attaching `sink` as its reply path and `trace`
    /// as the context its spans continue under (propagated on the wire by
    /// the TCP transport, carried in-process by the channel transport).
    ///
    /// The `Err` variant is large on purpose: it carries the undelivered
    /// request and its sink back so forwarding can re-route without
    /// cloning every message on the happy path (`TraceContext` is `Copy`,
    /// so the caller still holds the trace on rejection).
    #[allow(clippy::result_large_err)]
    fn deliver(
        &self,
        request: Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
    ) -> Result<(), SendRejected>;
}

/// A reply being awaited: a one-slot `Gather`. Produced by
/// [`PeerEndpoint::send`]; redeemed with [`PendingReply::wait`], which over
/// TCP reads the reply off the waiting thread's own connection. Dropping it
/// abandons the request (a late reply is discarded).
///
/// The thread that sent the request is the one that waits for it, so a
/// pending reply cannot move to another thread:
///
/// ```compile_fail
/// fn sendable<T: Send>() {}
/// sendable::<rdht_net::PendingReply>();
/// ```
pub struct PendingReply {
    gather: Gather,
}

impl fmt::Debug for PendingReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PendingReply")
    }
}

/// What a delivered reply means to its caller: [`Reply::Error`] is the
/// peer (or a forwarder) refusing the request, anything else is the answer.
pub(crate) fn answered(reply: Reply) -> Result<Reply, CallError> {
    match reply {
        Reply::Error { reason } => Err(CallError::Rejected(reason)),
        reply => Ok(reply),
    }
}

impl PendingReply {
    /// Blocks until the reply arrives, the reply path is torn down, or
    /// `timeout` elapses.
    pub fn wait(self, timeout: Duration) -> Result<Reply, CallError> {
        let mut landed = self.gather.wait(timeout);
        landed.pop().expect("a pending reply has one slot").outcome
    }
}

/// What one slot of a [`Gather`] ended up holding.
#[derive(Debug)]
pub(crate) struct Gathered {
    /// The reply, or why there is none ([`CallError::Timeout`] for a slot
    /// still empty when the waiter collected).
    pub(crate) outcome: Result<Reply, CallError>,
    /// When *this* slot's outcome landed (collection time for an empty one),
    /// so a leg that answered early is not billed for the slowest one. Only
    /// a timed [`Gather`] reads the clock for it.
    pub(crate) landed: Option<Instant>,
}

/// A number no two live threads share, naming the thread a [`Gather`] was
/// made on.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // relaxed: the token only has to be unique, which the RMW ensures.
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|token| *token)
}

/// Which [`Gather`] a reply slot belongs to: a transport that leaves replies
/// for their waiter to read files them under this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WaiterId(usize);

struct GatherState {
    slots: Vec<Option<Gathered>>,
    /// Slots still empty; the fill that takes this to zero wakes the waiter.
    remaining: usize,
    /// Set by [`Gather::wait`] before it sleeps on the latch: a fill that
    /// lands while the waiter is still reading its own replies has no one to
    /// wake.
    parked: bool,
    /// Set by [`Gather::wait`] when it collects: whatever lands afterwards
    /// belongs to an exchange its caller already gave up on.
    closed: bool,
}

struct GatherShared {
    state: StdMutex<GatherState>,
    all_landed: Condvar,
    /// Whether slots record when they landed.
    timed: bool,
    /// The [`thread_token`] of the thread that waits.
    thread: u64,
}

impl GatherShared {
    /// Every update leaves the slots coherent (one assignment and one
    /// decrement under the lock), so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, GatherState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This gather's identity. A reply still owed to it holds a sink that
    /// holds this allocation, so no other gather can take the address over
    /// while the transport files anything under it.
    fn waiter(&self) -> WaiterId {
        WaiterId(self as *const GatherShared as usize)
    }

    /// Fills slot `index` unless it is already filled or the waiter already
    /// collected — each slot takes exactly one outcome, the first.
    fn fill(&self, index: usize, outcome: Result<Reply, CallError>) {
        let mut state = self.lock();
        if state.closed || state.slots[index].is_some() {
            return;
        }
        state.slots[index] = Some(Gathered {
            outcome,
            landed: self.timed.then(Instant::now),
        });
        state.remaining -= 1;
        if state.remaining == 0 && state.parked {
            drop(state);
            self.all_landed.notify_one();
        }
    }
}

/// The receive side of a scatter-gather exchange: `n` reply slots behind a
/// countdown latch. The caller sends every request of the exchange with
/// [`Gather::send`], then blocks **once** in [`Gather::wait`]. Over TCP the
/// requests went out on the waiting thread's own connections and `wait`
/// reads their replies itself; every other reply path (a peer loop over the
/// channel transport, the fault layer's timer, a reader thread for a request
/// another thread sent) fills its slot from the thread that delivers it, and
/// the fill that empties the countdown — or the deadline — releases the
/// waiter. One wait for the whole exchange instead of one per request.
///
/// A slot takes the first outcome offered to it and nothing after the waiter
/// collected: a reply that lands late (its sink was parked by a lossy link,
/// or the peer was slow) is discarded, exactly as a dropped [`PendingReply`]
/// discards it. A gather stays on the thread that made it — the thread that
/// sends is the thread that waits — which the compiler checks: it is not
/// `Send`.
pub(crate) struct Gather {
    shared: Arc<GatherShared>,
    _same_thread: PhantomData<*const ()>,
}

impl Gather {
    /// A gather of `slots` empty slots. A `timed` one records when each
    /// slot's outcome landed — for a caller that turns the exchange into
    /// spans; nobody else pays the clock reads.
    pub(crate) fn new(slots: usize, timed: bool) -> Self {
        Gather {
            shared: Arc::new(GatherShared {
                state: StdMutex::new(GatherState {
                    slots: (0..slots).map(|_| None).collect(),
                    remaining: slots,
                    parked: false,
                    closed: false,
                }),
                all_landed: Condvar::new(),
                timed,
                thread: thread_token(),
            }),
            _same_thread: PhantomData,
        }
    }

    /// The reply path of slot `index`: `send` fills it with the reply
    /// ([`Reply::Error`] as [`CallError::Rejected`]), dropping it unsent
    /// fills it with [`CallError::Dropped`].
    pub(crate) fn sink(&self, index: usize) -> ReplySink {
        ReplySink {
            inner: SinkInner::Slot {
                gather: Arc::clone(&self.shared),
                index,
            },
        }
    }

    /// Sends `request` to `endpoint` with slot `index` as its reply path and
    /// says whether the transport took it. A request it could not deliver
    /// fills the slot with the typed [`CallError::Transport`] at once.
    pub(crate) fn send(
        &self,
        index: usize,
        endpoint: &PeerEndpoint,
        request: Request,
        trace: Option<TraceContext>,
    ) -> bool {
        match endpoint.send_with_sink_traced(request, self.sink(index), trace) {
            Ok(()) => true,
            Err(rejected) => {
                // Filled before `rejected` (and the sink inside it) drops,
                // so the slot reports the transport error, not `Dropped`.
                self.shared
                    .fill(index, Err(CallError::Transport(rejected.error)));
                false
            }
        }
    }

    /// Reads this gather's replies off the thread's own TCP connections,
    /// then blocks until every slot is filled or `timeout` (both phases
    /// together) elapses, closes the gather and returns the slots in index
    /// order; a slot still empty reads [`CallError::Timeout`].
    pub(crate) fn wait(self, timeout: Duration) -> Vec<Gathered> {
        let timeout = crate::tcp::read_own_replies(self.shared.waiter(), timeout);
        let mut state = self.shared.lock();
        if state.remaining > 0 {
            state.parked = true;
            (state, _) = self
                .shared
                .all_landed
                .wait_timeout_while(state, timeout, |state| state.remaining > 0)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.closed = true;
        let timed = self.shared.timed;
        std::mem::take(&mut state.slots)
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| Gathered {
                    outcome: Err(CallError::Timeout),
                    landed: timed.then(Instant::now),
                })
            })
            .collect()
    }
}

/// A cheap, cloneable handle for sending requests to one peer and awaiting
/// replies matched by request id — identical over channels and TCP. This is
/// the **only** way to talk to a peer; the pre-transport direct-mailbox
/// plumbing (`Sender<Request>` with an embedded reply channel) is gone.
#[derive(Clone)]
pub struct PeerEndpoint {
    inner: Arc<dyn EndpointImpl>,
}

impl fmt::Debug for PeerEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PeerEndpoint")
    }
}

impl PeerEndpoint {
    /// Wraps a transport-specific delivery implementation.
    pub fn new(inner: Arc<dyn EndpointImpl>) -> Self {
        PeerEndpoint { inner }
    }

    /// Delivers `request` with an explicit reply sink — the relay primitive
    /// forwarding is built on. On failure the request and sink come back in
    /// the [`SendRejected`] (a deliberately large `Err`: returning the
    /// message avoids cloning it on every successful send).
    #[allow(clippy::result_large_err)]
    pub fn send_with_sink(&self, request: Request, sink: ReplySink) -> Result<(), SendRejected> {
        self.inner.deliver(request, sink, None)
    }

    /// [`PeerEndpoint::send_with_sink`] with a trace context propagated to
    /// the receiving peer.
    #[allow(clippy::result_large_err)]
    pub fn send_with_sink_traced(
        &self,
        request: Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
    ) -> Result<(), SendRejected> {
        self.inner.deliver(request, sink, trace)
    }

    /// Sends `request` and returns a handle on the awaited reply.
    pub fn send(&self, request: Request) -> Result<PendingReply, TransportError> {
        self.send_traced(request, None)
    }

    /// [`PeerEndpoint::send`] with a trace context propagated to the
    /// receiving peer.
    pub fn send_traced(
        &self,
        request: Request,
        trace: Option<TraceContext>,
    ) -> Result<PendingReply, TransportError> {
        let gather = Gather::new(1, false);
        self.send_with_sink_traced(request, gather.sink(0), trace)
            .map_err(|rejected| rejected.error)?;
        Ok(PendingReply { gather })
    }

    /// Sends a request that expects no answer (`Shutdown`, `Crash`).
    pub fn send_no_reply(&self, request: Request) -> Result<(), TransportError> {
        self.send_with_sink(request, ReplySink::null())
            .map_err(|rejected| rejected.error)
    }

    /// Sends `request` and waits up to `timeout` for its reply.
    pub fn call(&self, request: Request, timeout: Duration) -> Result<Reply, CallError> {
        self.call_traced(request, timeout, None)
    }

    /// [`PeerEndpoint::call`] with a trace context propagated to the
    /// receiving peer.
    pub fn call_traced(
        &self,
        request: Request,
        timeout: Duration,
        trace: Option<TraceContext>,
    ) -> Result<Reply, CallError> {
        let pending = self
            .send_traced(request, trace)
            .map_err(CallError::Transport)?;
        pending.wait(timeout)
    }

    /// Bounded re-send on silence — the one retry discipline of the
    /// hand-off protocol (coordinator → source, source → target): send,
    /// wait `timeout`, and on a pure timeout re-send the *same* request
    /// (same [`crate::OpId`], so a receiver that already applied it answers
    /// again from its dedup cache) up to `attempts` times. Anything other
    /// than a timeout — a reply, a rejection, a reply-path teardown — is
    /// definitive and returned as-is; a spent budget comes back as
    /// [`CallError::Exhausted`].
    pub(crate) fn call_resending(
        &self,
        request: &Request,
        trace: Option<TraceContext>,
        attempts: u32,
        timeout: Duration,
    ) -> Result<Reply, CallError> {
        for _ in 0..attempts {
            match self.call_traced(request.clone(), timeout, trace) {
                Err(CallError::Timeout) => continue,
                other => return other,
            }
        }
        Err(CallError::Exhausted {
            attempts,
            last: Box::new(CallError::Timeout),
        })
    }
}

/// How requests travel between peers: per-peer addressing with a bind /
/// connect split (the trait's `bind`/`endpoint` are the accept/connect
/// halves; [`Mailbox::recv`] and [`PeerEndpoint::send`] are recv/send).
pub trait Transport: Send + Sync + 'static {
    /// Binds the receive side of `peer`: registers it with the transport
    /// and returns the queue its requests arrive on. Binding an id again
    /// (a restart) replaces the previous registration.
    fn bind(&self, peer: PeerId) -> Result<Mailbox, TransportError>;

    /// An endpoint addressing `peer`. Resolution only requires the peer to
    /// be *registered* (bound, or address-configured for TCP) — liveness is
    /// discovered by sending.
    fn endpoint(&self, peer: PeerId) -> Result<PeerEndpoint, TransportError>;

    /// Tears down `peer`'s receive side: closes its listener/connections so
    /// senders observe failure instead of silence. Called by the peer
    /// thread on exit (crash, shutdown or forwarder reap).
    fn unbind(&self, peer: PeerId);
}

// ---------------------------------------------------------------------------
// ChannelTransport
// ---------------------------------------------------------------------------

struct ChannelEndpoint {
    sender: Sender<Incoming>,
}

impl EndpointImpl for ChannelEndpoint {
    fn deliver(
        &self,
        request: Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
    ) -> Result<(), SendRejected> {
        self.sender
            .send(Incoming::new(request, sink, trace))
            .map_err(|failed| {
                let incoming = failed.0;
                SendRejected {
                    error: TransportError::Closed,
                    request: incoming.request,
                    sink: incoming.reply,
                }
            })
    }
}

/// The in-process transport: every bound peer is a mailbox in a shared
/// registry, endpoints are channel senders, and delivery is a lock-free
/// queue push. Keeps the whole existing test suite and the simulator
/// deterministic and fast — no serialization, no sockets, no threads beyond
/// the peers themselves.
#[derive(Default)]
pub struct ChannelTransport {
    registry: Mutex<HashMap<u64, Sender<Incoming>>>,
}

impl ChannelTransport {
    /// An empty mesh.
    pub fn new() -> Self {
        ChannelTransport::default()
    }
}

impl Transport for ChannelTransport {
    fn bind(&self, peer: PeerId) -> Result<Mailbox, TransportError> {
        let (sender, receiver) = unbounded();
        self.registry.lock().insert(peer.0, sender);
        Ok(Mailbox::new(receiver))
    }

    fn endpoint(&self, peer: PeerId) -> Result<PeerEndpoint, TransportError> {
        let sender = self
            .registry
            .lock()
            .get(&peer.0)
            .cloned()
            .ok_or(TransportError::UnknownPeer(peer.0))?;
        Ok(PeerEndpoint::new(Arc::new(ChannelEndpoint { sender })))
    }

    fn unbind(&self, peer: PeerId) {
        self.registry.lock().remove(&peer.0);
    }
}
