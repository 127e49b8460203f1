//! [`TcpTransport`]: the wire codec over real sockets.
//!
//! # Who reads which reply
//!
//! Every bound peer owns a `TcpListener` plus an acceptor thread; each
//! accepted connection is read by a reader thread of its own, which decodes
//! length-framed request envelopes ([`crate::wire`]) and queues them on the
//! peer's [`Mailbox`], with a [`ReplySink`] that frames the reply back onto
//! the same connection tagged with the request id — so one connection
//! carries any number of interleaved in-flight requests (replies need not
//! come back in order; the id does the matching). That reader stays: a peer
//! serves many connections at once, and waiting on all of them from one
//! thread takes readiness multiplexing, which `std` does not offer. A reader
//! whose connection closed serves the next accepted one rather than exit.
//!
//! On the sending side, who reads a reply depends on who waits for it:
//!
//! * **A reply the sending thread waits for** — a [`PendingReply`], or a
//!   slot of a client round, also behind the fault layer's hook — goes out
//!   on that thread's **own connection** to the peer: dialled on first use,
//!   kept in a thread-local table (one per peer id, tagged with the address
//!   and book incarnation it was dialled under) and read by nobody else. The
//!   waiter reads its replies itself, inside its wait, and hands each frame
//!   to the sink filed under its request id until none of the frames it
//!   waits for is still on the wire or its deadline passes; only then does
//!   it sleep on its latch, for what other threads deliver (a reply the
//!   fault layer holds back). From the peer's reply `write` to the waiter
//!   no thread sits in between.
//! * **A reply no sending thread waits for** — a peer forwarding a request
//!   with someone else's reply path, a request the fault layer's timer
//!   sends late, lifecycle messages — goes out on a **pooled connection**
//!   shared by every endpoint of the transport, one per destination
//!   address, whose demultiplexing reader thread hands each reply to its
//!   sink by request id. The sender has moved on, so a thread has to be
//!   there to read the reply when it comes.
//!
//! Every reader pulls frames through a [`FrameReader`]: one `read` per frame
//! the sender wrote whole. A read that hits the waiter's deadline keeps the
//! bytes of a partly received frame buffered, so the connection keeps its
//! framing: the next wait finishes the frame, and a late reply is read in
//! full and discarded because its wait is over. A connection that fails is
//! evicted and re-dialled (one free retry, then capped backoff until a
//! deadline); replies pending on it complete with a typed
//! [`crate::CallError::Dropped`] instead of a timeout.
//!
//! Addresses live in an address **book** (`PeerId -> SocketAddr`). In a
//! single process [`Transport::bind`] fills it with OS-assigned loopback
//! ports; across processes ([`crate::serve_tcp_peer`] /
//! [`crate::ClusterClient::connect_tcp`]) every process is configured with
//! the same static book. Endpoints resolve the book at *send* time, so a
//! peer that restarts on a new port keeps working without re-creating
//! endpoints. Every registration of an address (`bind`, `set_addr`) starts
//! a new incarnation of the peer's book entry, so an own connection dialled
//! before a restart is replaced by the next send rather than written into.
//!
//! A connection that sends garbage — an oversized length prefix, an unknown
//! version or tag, a truncated body — is dropped at the first bad frame
//! (the error is typed all the way: see [`crate::WireError`]); the peer and
//! every other connection stay live.
//!
//! [`PendingReply`]: crate::PendingReply

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rdht_metrics::TraceContext;

use crate::cluster::PeerId;
use crate::message::Reply;
use crate::transport::{
    EndpointImpl, Incoming, Mailbox, PeerEndpoint, ReplySink, ReplyWriter, SendRejected, Transport,
    TransportError, WaiterId,
};
use crate::wire::{
    decode_payload, encode_reply, encode_request, Envelope, FrameError, FrameReader, WireError,
};
use crate::Request;

/// How long a dial may take before the send is failed. Loopback dials to a
/// dead port fail immediately (connection refused); this bounds dials that
/// hang (e.g. a firewalled address).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Total redial budget of one delivery: after the free retry against a
/// fresh connection, further dials (with capped exponential backoff,
/// re-resolving the address book each time) run until this deadline. Long
/// enough to ride out a peer restarting mid-stream — even onto a new port —
/// short enough that a send to a peer that is really gone still fails as a
/// prompt typed error rather than a client-timeout-sized hang.
const REDIAL_DEADLINE: Duration = Duration::from_secs(2);

/// First redial backoff; doubles per redial up to [`REDIAL_BACKOFF_CAP`].
const REDIAL_BACKOFF_START: Duration = Duration::from_millis(5);

/// Cap on the redial backoff.
const REDIAL_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Longest wait a deadline is computed for; a longer timeout is as good as
/// none and must not overflow the clock.
const LONGEST_WAIT: Duration = Duration::from_secs(365 * 24 * 3600);

/// Where a peer listens, and which incarnation of its book entry that is.
/// Every registration (`bind`, `set_addr`) starts a new incarnation, so a
/// connection dialled before the peer restarted no longer matches, even on
/// the same port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Booked {
    addr: SocketAddr,
    incarnation: u64,
}

impl Booked {
    fn new(addr: SocketAddr) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Booked {
            addr,
            // relaxed: an incarnation only has to be unique, which the RMW
            // ensures.
            incarnation: NEXT.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Spawns one of the transport's threads under `name`, which is what a
/// per-thread CPU profile of the process shows for it.
fn spawn_named(name: &str, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .expect("failed to spawn a transport thread")
}

/// Dials `addr`, bounded by `connect_timeout`.
fn dial(addr: SocketAddr, connect_timeout: Duration) -> Result<TcpStream, TransportError> {
    let stream = TcpStream::connect_timeout(&addr, connect_timeout)
        .map_err(|error| TransportError::Io(format!("dial {addr}: {error}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Logs a connection dropped on a frame that does not decode.
fn warn_bad_frame(message: &str, peer: &str, error: &WireError) {
    rdht_metrics::log::global().warn(
        "net.tcp",
        message,
        &[
            ("peer", peer),
            ("error", error.variant()),
            ("detail", &error.to_string()),
        ],
    );
}

/// The write half of an accepted connection, shared by every in-flight
/// request that arrived on it. Replies are framed under the lock so
/// concurrent repliers (batch acknowledgements, forwarded requests
/// completing out of order) never interleave bytes.
struct ServerConnWriter {
    stream: Mutex<TcpStream>,
}

impl ReplyWriter for ServerConnWriter {
    fn write_reply(&self, request_id: u64, reply: &Reply) {
        let frame = encode_reply(request_id, reply);
        let mut stream = self.stream.lock();
        // Best effort: the requester may already be gone. A failed reply
        // write is indistinguishable from a requester that disconnected —
        // it is *their* reply, no one else's state is affected.
        let _ = stream.write_all(&frame);
    }
}

/// One pooled outgoing connection: a locked writer, the request-id
/// allocator and the table of reply sinks awaiting matching reply frames.
struct Connection {
    stream: Mutex<TcpStream>,
    next_id: AtomicU64,
    /// `None` once the connection died and its pending sinks were drained.
    pending: Mutex<Option<HashMap<u64, ReplySink>>>,
    dead: AtomicBool,
}

impl Connection {
    /// Marks the connection dead and completes every pending reply with a
    /// drop (each sink's drop path signals the caller promptly).
    fn fail_pending(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let drained = self.pending.lock().take();
        // Sinks are dropped outside the lock: a drop may itself write (a
        // relayed reply) or lock another connection.
        drop(drained);
    }
}

/// A bound peer's accept side.
struct ListenerState {
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    /// Accepted connections, kept so unbind can shut them down and unblock
    /// their reader threads.
    conns: Arc<Mutex<Vec<TcpStream>>>,
    /// The acceptor thread, which owns the `TcpListener`: joining it is how
    /// unbind knows the socket is closed.
    acceptor: JoinHandle<()>,
}

#[derive(Default)]
struct TcpInner {
    /// Per-peer addresses; filled by `bind` (OS-assigned ports) or
    /// preconfigured for multi-process deployments.
    book: Mutex<HashMap<u64, Booked>>,
    listeners: Mutex<HashMap<u64, ListenerState>>,
    /// Outgoing connections for replies no sending thread waits for, shared
    /// by every endpoint of this transport.
    pool: Mutex<HashMap<SocketAddr, Arc<Connection>>>,
}

/// The socket transport. See the module docs for the threading and
/// connection model. Cloning shares the address book, listeners and
/// connection pool.
#[derive(Clone, Default)]
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl TcpTransport {
    /// A transport with an empty address book: `bind` assigns loopback
    /// ports, `endpoint` works for every peer bound or registered since.
    pub fn new() -> Self {
        TcpTransport::default()
    }

    /// A transport preloaded with a static address book — the
    /// multi-process deployment form, where every process must agree on
    /// where each peer listens.
    pub fn with_peers(peers: impl IntoIterator<Item = (PeerId, SocketAddr)>) -> Self {
        let transport = TcpTransport::new();
        {
            let mut book = transport.inner.book.lock();
            for (peer, addr) in peers {
                book.insert(peer.0, Booked::new(addr));
            }
        }
        transport
    }

    /// Registers (or overrides) the address of one peer.
    pub fn set_addr(&self, peer: PeerId, addr: SocketAddr) {
        self.inner.book.lock().insert(peer.0, Booked::new(addr));
    }

    /// The address `peer` is known under, if any.
    pub fn addr_of(&self, peer: PeerId) -> Option<SocketAddr> {
        self.booked(peer).map(|booked| booked.addr)
    }

    fn booked(&self, peer: PeerId) -> Option<Booked> {
        self.inner.book.lock().get(&peer.0).copied()
    }

    /// Dials `addr` (bounded by `connect_timeout`), or reuses the pooled
    /// connection to it.
    fn connection_to(
        &self,
        addr: SocketAddr,
        connect_timeout: Duration,
    ) -> Result<Arc<Connection>, TransportError> {
        {
            let pool = self.inner.pool.lock();
            if let Some(conn) = pool.get(&addr) {
                if !conn.dead.load(Ordering::SeqCst) {
                    return Ok(Arc::clone(conn));
                }
            }
        }
        let stream = dial(addr, connect_timeout)?;
        let reader = stream
            .try_clone()
            .map_err(|error| TransportError::Io(format!("clone stream to {addr}: {error}")))?;
        let conn = Arc::new(Connection {
            stream: Mutex::new(stream),
            next_id: AtomicU64::new(1),
            pending: Mutex::new(Some(HashMap::new())),
            dead: AtomicBool::new(false),
        });
        {
            let mut pool = self.inner.pool.lock();
            // Another thread may have raced us here; last-in wins and the
            // loser's connection simply serves the requests already bound
            // to it until it idles out with the process.
            pool.insert(addr, Arc::clone(&conn));
        }
        let inner = Arc::clone(&self.inner);
        let demux = Arc::clone(&conn);
        spawn_named("tcp-demux", move || {
            let mut frames = FrameReader::new();
            let mut source = &reader;
            while let Ok(Some(payload)) = frames.next_frame(&mut source) {
                match decode_payload(payload) {
                    Ok(Envelope::Reply { request_id, reply }) => {
                        let sink = demux
                            .pending
                            .lock()
                            .as_mut()
                            .and_then(|pending| pending.remove(&request_id));
                        if let Some(sink) = sink {
                            sink.send(reply);
                        }
                    }
                    // A request on a connection we dialled is protocol
                    // misuse; drop the connection.
                    Ok(Envelope::Request { .. }) => break,
                    Err(error) => {
                        warn_bad_frame(
                            "dropping dialled connection on a bad frame",
                            &addr.to_string(),
                            &error,
                        );
                        break;
                    }
                }
            }
            demux.fail_pending();
            let mut pool = inner.pool.lock();
            if let Some(current) = pool.get(&addr) {
                if Arc::ptr_eq(current, &demux) {
                    pool.remove(&addr);
                }
            }
        });
        Ok(conn)
    }

    /// One delivery attempt over `conn`. On failure the sink is recovered
    /// from the pending table (unless the reader already drained it, in
    /// which case its drop has signalled the caller).
    fn try_send(
        conn: &Arc<Connection>,
        request: &Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
    ) -> Result<(), Option<ReplySink>> {
        // relaxed: the id needs only RMW uniqueness; the pending-table
        // mutex below is what orders the insert against the reader.
        let request_id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut pending = conn.pending.lock();
            match pending.as_mut() {
                Some(pending) => {
                    pending.insert(request_id, sink);
                }
                // Already torn down.
                None => return Err(Some(sink)),
            }
        }
        let frame = encode_request(request_id, request, trace);
        let wrote = {
            let mut stream = conn.stream.lock();
            stream.write_all(&frame)
        };
        match wrote {
            Ok(()) => Ok(()),
            Err(_) => {
                conn.dead.store(true, Ordering::SeqCst);
                let sink = conn
                    .pending
                    .lock()
                    .as_mut()
                    .and_then(|pending| pending.remove(&request_id));
                Err(sink)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Own connections: the waiter reads its replies
// ---------------------------------------------------------------------------

/// A reply slot filed on an own connection, under the request id it waits
/// for.
struct Awaited {
    sink: ReplySink,
    waiter: WaiterId,
}

/// One thread's connection to one peer, written and read by that thread
/// only.
struct OwnConnection {
    stream: TcpStream,
    /// Where, and under which incarnation of the book entry, it was dialled.
    booked: Booked,
    /// The transport it belongs to; once that is gone, so is the connection.
    transport: Weak<TcpInner>,
    frames: FrameReader,
    /// The receive timeout currently armed on `stream` ([`Deadlined`]).
    armed: Option<Duration>,
    awaited: HashMap<u64, Awaited>,
}

thread_local! {
    /// The calling thread's own connections, at most one per peer id.
    static OWN: RefCell<HashMap<u64, OwnConnection>> = RefCell::new(HashMap::new());
    /// The request id of the thread's next request on an own connection:
    /// one sequence across all of them, so ids order requests as they were
    /// sent.
    static NEXT_ID: Cell<u64> = const { Cell::new(1) };
}

impl OwnConnection {
    fn new(stream: TcpStream, booked: Booked, transport: Weak<TcpInner>) -> Self {
        OwnConnection {
            stream,
            booked,
            transport,
            frames: FrameReader::new(),
            armed: None,
            awaited: HashMap::new(),
        }
    }

    /// The request id of the earliest request sent here whose reply
    /// `waiter` waits for.
    fn first_owed(&self, waiter: WaiterId) -> Option<u64> {
        self.awaited
            .iter()
            .filter(|(_, awaited)| awaited.waiter == waiter)
            .map(|(&request_id, _)| request_id)
            .min()
    }

    /// Reads frames until one answers a filed request and returns it with
    /// the sink filed for it; `Ok(None)` when `deadline` passed first, `Err`
    /// when the connection is finished (EOF, I/O error, bad frame).
    fn read_reply(&mut self, deadline: Instant) -> Result<Option<(ReplySink, Reply)>, ()> {
        loop {
            let mut source = Deadlined {
                stream: &self.stream,
                deadline,
                armed: &mut self.armed,
            };
            match self.frames.next_frame(&mut source) {
                Ok(Some(payload)) => match decode_payload(payload) {
                    Ok(Envelope::Reply { request_id, reply }) => {
                        // A reply to an id nobody filed answers nothing.
                        if let Some(awaited) = self.awaited.remove(&request_id) {
                            return Ok(Some((awaited.sink, reply)));
                        }
                    }
                    Ok(Envelope::Request { .. }) => return Err(()),
                    Err(error) => {
                        let peer = self.booked.addr.to_string();
                        warn_bad_frame("dropping own connection on a bad frame", &peer, &error);
                        return Err(());
                    }
                },
                Err(FrameError::Io(error))
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                Ok(None) | Err(_) => return Err(()),
            }
        }
    }
}

/// An own connection's stream as a reader that gives up at `deadline`.
/// Before a `read` it arms the socket's receive timeout to the time left —
/// only when the one already armed could block past the deadline, and
/// rounded down to whole milliseconds, so that waits of one length reuse
/// one setting (a timeout that fires early is re-armed on the next read) —
/// and once the deadline has passed it reports `TimedOut` without reading.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    armed: &'a mut Option<Duration>,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        if self.armed.is_none_or(|armed| armed > left) {
            let whole_ms = Duration::from_millis(left.as_millis() as u64);
            let arm = if whole_ms.is_zero() { left } else { whole_ms };
            self.stream.set_read_timeout(Some(arm))?;
            *self.armed = Some(arm);
        }
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// One step of [`read_own_replies`].
enum OwnRead {
    /// A reply and the sink filed for it. Not necessarily the waiter's: a
    /// reply in front of its own (another pending reply of the thread, a
    /// late one to an attempt that gave up) is handed on as well.
    Reply(ReplySink, Reply),
    /// A connection that failed, out of the table; dropping it drops the
    /// sinks still filed on it, whose waiters read `Dropped`.
    Closed(OwnConnection),
    /// Nothing on the wire is owed to the waiter, or its deadline passed.
    Done,
}

/// Reads, on the calling thread's own connections, the replies `waiter`
/// waits for — handing every frame read to the sink filed under its request
/// id — until none is owed to it any more or `timeout` has passed. Returns
/// what is left of `timeout`. A thread with nothing filed for `waiter`
/// (every wait over the channel transport) only looks at its table: no
/// clock read, no socket touched.
pub(crate) fn read_own_replies(waiter: WaiterId, timeout: Duration) -> Duration {
    let mut deadline = None;
    loop {
        // Sinks are consumed outside the table's borrow: delivering or
        // dropping one may run a middleware hook.
        let step =
            OWN.with(|own| next_own_reply(&mut own.borrow_mut(), waiter, timeout, &mut deadline));
        match step {
            OwnRead::Reply(sink, reply) => sink.send(reply),
            OwnRead::Closed(conn) => drop(conn),
            OwnRead::Done => break,
        }
    }
    deadline.map_or(timeout, |deadline| {
        deadline.saturating_duration_since(Instant::now())
    })
}

fn next_own_reply(
    own: &mut HashMap<u64, OwnConnection>,
    waiter: WaiterId,
    timeout: Duration,
    deadline: &mut Option<Instant>,
) -> OwnRead {
    // Replies are read in the order their requests went out — the order
    // they tend to come back in — so a reply is read about when it lands.
    let Some((_, peer, conn)) = own
        .iter_mut()
        .filter_map(|(&peer, conn)| Some((conn.first_owed(waiter)?, peer, conn)))
        .min_by_key(|(first, ..)| *first)
    else {
        return OwnRead::Done;
    };
    let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout.min(LONGEST_WAIT));
    match conn.read_reply(deadline) {
        Ok(Some((sink, reply))) => OwnRead::Reply(sink, reply),
        Ok(None) => OwnRead::Done,
        Err(()) => OwnRead::Closed(own.remove(&peer).expect("the connection just read")),
    }
}

struct TcpEndpoint {
    transport: TcpTransport,
    peer: u64,
}

impl TcpEndpoint {
    /// One delivery attempt on the calling thread's own connection, for a
    /// reply `waiter` (a gather of this thread) reads: dial unless a
    /// connection dialled under `booked` is open, write the frame, file the
    /// sink under its request id. A failed write closes the connection and
    /// hands the sink back for the retry.
    fn send_own(
        &self,
        booked: Booked,
        request: &Request,
        sink: ReplySink,
        waiter: WaiterId,
        trace: Option<TraceContext>,
        connect_timeout: Duration,
    ) -> Result<(), (TransportError, Option<ReplySink>)> {
        // Connections replaced or failed here are closed once the table is
        // released: closing one drops the sinks still filed on it.
        let mut closed = Vec::new();
        let sent = OWN.with(|own| {
            let mut own = own.borrow_mut();
            if own.get(&self.peer).is_none_or(|conn| conn.booked != booked) {
                closed.extend(own.remove(&self.peer));
                // Own connections of transports that are gone go with them.
                closed.extend(
                    own.extract_if(|_, conn| conn.transport.strong_count() == 0)
                        .map(|(_, conn)| conn),
                );
                match dial(booked.addr, connect_timeout) {
                    Ok(stream) => {
                        let transport = Arc::downgrade(&self.transport.inner);
                        own.insert(self.peer, OwnConnection::new(stream, booked, transport));
                    }
                    Err(error) => return Err((error, sink)),
                }
            }
            let conn = own.get_mut(&self.peer).expect("dialled above");
            let request_id = NEXT_ID.replace(NEXT_ID.get() + 1);
            match (&conn.stream).write_all(&encode_request(request_id, request, trace)) {
                Ok(()) => {
                    conn.awaited.insert(request_id, Awaited { sink, waiter });
                    Ok(())
                }
                Err(_) => {
                    closed.extend(own.remove(&self.peer));
                    Err((TransportError::Closed, sink))
                }
            }
        });
        drop(closed);
        sent.map_err(|(error, sink)| (error, Some(sink)))
    }

    /// One delivery attempt on the pooled connection to `addr`. A failed
    /// write evicts the connection so the retry dials fresh; the sink comes
    /// back unless the connection's reader already drained it (its drop has
    /// then signalled the caller).
    fn send_pooled(
        &self,
        addr: SocketAddr,
        request: &Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
        connect_timeout: Duration,
    ) -> Result<(), (TransportError, Option<ReplySink>)> {
        let conn = match self.transport.connection_to(addr, connect_timeout) {
            Ok(conn) => conn,
            Err(error) => return Err((error, Some(sink))),
        };
        TcpTransport::try_send(&conn, request, sink, trace).map_err(|recovered| {
            if recovered.is_some() {
                let mut pool = self.transport.inner.pool.lock();
                if pool
                    .get(&addr)
                    .is_some_and(|current| Arc::ptr_eq(current, &conn))
                {
                    pool.remove(&addr);
                }
            }
            (TransportError::Closed, recovered)
        })
    }
}

impl EndpointImpl for TcpEndpoint {
    fn deliver(
        &self,
        request: Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
    ) -> Result<(), SendRejected> {
        // Lifecycle messages get the classic two attempts (a connection may
        // be stale) but no redial budget: a shutdown fanning out to peers
        // that are already gone must not pay a deadline each.
        let budget = if matches!(request, Request::Shutdown | Request::Crash) {
            Duration::ZERO
        } else {
            REDIAL_DEADLINE
        };
        let deadline = Instant::now() + budget;
        let mut backoff = REDIAL_BACKOFF_START;
        let mut sink = sink;
        // A reply the sending thread waits for goes out on its own
        // connection, every attempt; any other on the pooled one.
        let waiter = sink.waiter_here();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // The address book is re-resolved every attempt: a peer that
            // restarted on a *new* port publishes it there, and the redial
            // loop picks it up mid-stream without re-creating endpoints.
            let Some(booked) = self.transport.booked(PeerId(self.peer)) else {
                return Err(SendRejected {
                    error: TransportError::UnknownPeer(self.peer),
                    request,
                    sink,
                });
            };
            // Redials must not dial past the deadline they serve.
            let connect_timeout = if attempt == 1 {
                CONNECT_TIMEOUT
            } else {
                CONNECT_TIMEOUT
                    .min(deadline.saturating_duration_since(Instant::now()))
                    .max(Duration::from_millis(25))
            };
            let sent = match waiter {
                Some(waiter) => {
                    self.send_own(booked, &request, sink, waiter, trace, connect_timeout)
                }
                None => self.send_pooled(booked.addr, &request, sink, trace, connect_timeout),
            };
            let failure = match sent {
                Ok(()) => return Ok(()),
                Err((error, Some(recovered))) => {
                    sink = recovered;
                    error
                }
                // The reader drained the pending table concurrently: the
                // sink already signalled its caller, nothing to retry with.
                Err((_, None)) => return Ok(()),
            };
            // The second attempt (fresh dial after evicting a stale
            // connection) is always free; from there on, redial with capped
            // backoff until the deadline.
            if attempt >= 2 {
                let now = Instant::now();
                if now >= deadline {
                    return Err(SendRejected {
                        error: failure,
                        request,
                        sink,
                    });
                }
                std::thread::sleep(backoff.min(deadline.saturating_duration_since(now)));
                backoff = (backoff * 2).min(REDIAL_BACKOFF_CAP);
            }
        }
    }
}

/// The reader threads of one listener. A reader whose connection closed
/// waits for the next connection the acceptor accepts instead of exiting,
/// so a peer runs as many readers as it ever had connections open at once,
/// not one per connection it ever accepted: the own connections of a client
/// thread close with the thread, and the next client's are read by the same
/// threads — whose allocations, which the peer keeps as replicas, stay in
/// the same heaps.
struct Readers {
    queue: Sender<Incoming>,
    /// Readers waiting for a connection that none has been handed yet.
    idle: Arc<AtomicUsize>,
    handoff: Sender<TcpStream>,
    waiting: Arc<Mutex<Receiver<TcpStream>>>,
}

impl Readers {
    fn new(queue: Sender<Incoming>) -> Self {
        let (handoff, waiting) = unbounded();
        Readers {
            queue,
            idle: Arc::new(AtomicUsize::new(0)),
            handoff,
            waiting: Arc::new(Mutex::new(waiting)),
        }
    }

    /// Hands `stream` to an idle reader, or starts a reader for it.
    fn read(&self, stream: TcpStream) {
        let claimed = self
            .idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |idle| {
                idle.checked_sub(1)
            });
        if claimed.is_ok() {
            let _ = self.handoff.send(stream);
            return;
        }
        let queue = self.queue.clone();
        let idle = Arc::clone(&self.idle);
        let waiting = Arc::clone(&self.waiting);
        spawn_named("tcp-serve", move || {
            let mut stream = stream;
            loop {
                serve_connection(stream, &queue);
                idle.fetch_add(1, Ordering::SeqCst);
                // The hand-off closes when the acceptor exits (unbind).
                let Ok(next) = waiting.lock().recv() else {
                    return;
                };
                stream = next;
            }
        });
    }
}

/// Serves one accepted connection: decode request frames, queue them on the
/// peer's mailbox, frame replies back. Returns when the connection closes,
/// sends garbage, or the peer stops receiving.
fn serve_connection(stream: TcpStream, queue: &Sender<Incoming>) {
    let peer_desc = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer: Arc<dyn ReplyWriter> = Arc::new(ServerConnWriter {
        stream: Mutex::new(write_half),
    });
    let mut frames = FrameReader::new();
    let mut source = &stream;
    loop {
        match frames.next_frame(&mut source) {
            Ok(Some(payload)) => match decode_payload(payload) {
                Ok(Envelope::Request {
                    request_id,
                    request,
                    trace,
                }) => {
                    let incoming = Incoming::new(
                        request,
                        ReplySink::remote(Arc::clone(&writer), request_id),
                        trace,
                    );
                    if queue.send(incoming).is_err() {
                        // The peer stopped receiving (crash/shutdown).
                        break;
                    }
                }
                // A reply frame on the accept side is protocol misuse.
                Ok(Envelope::Reply { .. }) => break,
                Err(error) => {
                    // Garbage in, typed error out, connection dropped —
                    // the peer stays live for everyone else.
                    warn_bad_frame(
                        "dropping accepted connection on a bad frame",
                        &peer_desc,
                        &error,
                    );
                    break;
                }
            },
            Ok(None) => break, // clean EOF
            Err(error) => {
                if let FrameError::Wire(wire) = error {
                    warn_bad_frame(
                        "dropping accepted connection on a bad length prefix",
                        &peer_desc,
                        &wire,
                    );
                }
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

impl Transport for TcpTransport {
    fn bind(&self, peer: PeerId) -> Result<Mailbox, TransportError> {
        // Re-binding an id (a restart) first tears the old accept side
        // down, so at most one listener serves a peer id at any time.
        self.unbind(peer);
        let preferred = self.addr_of(peer);
        let listener = match preferred {
            Some(addr) => TcpListener::bind(addr).or_else(|_| {
                // The old port may linger in TIME_WAIT after a restart;
                // take a fresh one — endpoints resolve the book per send,
                // so the new address is picked up transparently.
                TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
            }),
            None => TcpListener::bind((Ipv4Addr::LOCALHOST, 0)),
        }
        .map_err(|error| TransportError::Io(format!("bind peer {:016x}: {error}", peer.0)))?;
        let addr = listener
            .local_addr()
            .map_err(|error| TransportError::Io(format!("local addr: {error}")))?;
        self.set_addr(peer, addr);

        let (queue, mailbox) = unbounded();
        let closing = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor_closing = Arc::clone(&closing);
        let acceptor_conns = Arc::clone(&conns);
        let acceptor = spawn_named("tcp-accept", move || {
            let readers = Readers::new(queue);
            for accepted in listener.incoming() {
                if acceptor_closing.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = accepted else { continue };
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    let mut conns = acceptor_conns.lock();
                    // Keep the teardown list from growing with closed
                    // connections on long-lived peers.
                    conns.retain(|c| c.take_error().is_ok());
                    conns.push(clone);
                }
                readers.read(stream);
            }
        });
        self.inner.listeners.lock().insert(
            peer.0,
            ListenerState {
                addr,
                closing,
                conns,
                acceptor,
            },
        );
        Ok(Mailbox::new(mailbox))
    }

    fn endpoint(&self, peer: PeerId) -> Result<PeerEndpoint, TransportError> {
        if self.addr_of(peer).is_none() {
            return Err(TransportError::UnknownPeer(peer.0));
        }
        Ok(PeerEndpoint::new(Arc::new(TcpEndpoint {
            transport: self.clone(),
            peer: peer.0,
        })))
    }

    fn unbind(&self, peer: PeerId) {
        let Some(state) = self.inner.listeners.lock().remove(&peer.0) else {
            return;
        };
        state.closing.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway dial; it observes the flag
        // and exits, closing the listener. Wait for that only when the dial
        // got through: without the wake-up the acceptor may stay in `accept`
        // and is left detached rather than waited on forever.
        if TcpStream::connect_timeout(&state.addr, Duration::from_millis(200)).is_ok() {
            let _ = state.acceptor.join();
        }
        // Shut every accepted connection down so reader threads unblock and
        // requesters observe closure instead of silence.
        for conn in state.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
#[path = "tcp_tests.rs"]
mod tests;
