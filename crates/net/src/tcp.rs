//! [`TcpTransport`]: the wire codec over real sockets.
//!
//! Every bound peer owns a `TcpListener` plus an acceptor thread; each
//! accepted connection gets a reader thread that decodes length-framed
//! request envelopes ([`crate::wire`]) and queues them on the peer's
//! [`Mailbox`], with a [`ReplySink`] that frames the reply back onto the
//! same connection tagged with the request id — so one connection carries
//! any number of interleaved in-flight requests (replies need not come back
//! in order; the id does the matching).
//!
//! The connect side keeps a **connection pool** keyed by remote address:
//! every endpoint created from one transport instance shares it, so a
//! client (or a forwarding peer) reuses one TCP connection per destination
//! instead of dialling per request. A pooled connection that fails is
//! evicted and re-dialled once per send; replies pending on it complete
//! with a typed error instead of a timeout.
//!
//! Addresses live in an address **book** (`PeerId -> SocketAddr`). In a
//! single process [`Transport::bind`] fills it with OS-assigned loopback
//! ports; across processes ([`crate::serve_tcp_peer`] /
//! [`crate::ClusterClient::connect_tcp`]) every process is configured with
//! the same static book. Endpoints resolve the book at *send* time, so a
//! peer that restarts on a new port keeps working without re-creating
//! endpoints.
//!
//! A connection that sends garbage — an oversized length prefix, an unknown
//! version or tag, a truncated body — is dropped at the first bad frame
//! (the error is typed all the way: see [`crate::WireError`]); the peer and
//! every other connection stay live.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use rdht_metrics::TraceContext;

use crate::cluster::PeerId;
use crate::message::Reply;
use crate::transport::{
    EndpointImpl, Incoming, Mailbox, PeerEndpoint, ReplySink, ReplyWriter, SendRejected, Transport,
    TransportError,
};
use crate::wire::{decode_payload, encode_reply, encode_request, read_frame, Envelope, FrameError};
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
    book: Mutex<HashMap<u64, SocketAddr>>,
    listeners: Mutex<HashMap<u64, ListenerState>>,
    /// Outgoing connections shared by every endpoint of this transport.
    pool: Mutex<HashMap<SocketAddr, Arc<Connection>>>,
}

/// The socket transport. See the module docs for the threading and pooling
/// model. Cloning shares the address book, listeners and connection pool.
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
                book.insert(peer.0, addr);
            }
        }
        transport
    }

    /// Registers (or overrides) the address of one peer.
    pub fn set_addr(&self, peer: PeerId, addr: SocketAddr) {
        self.inner.book.lock().insert(peer.0, addr);
    }

    /// The address `peer` is known under, if any.
    pub fn addr_of(&self, peer: PeerId) -> Option<SocketAddr> {
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
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)
            .map_err(|error| TransportError::Io(format!("dial {addr}: {error}")))?;
        let _ = stream.set_nodelay(true);
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
        std::thread::spawn(move || {
            let mut reader = reader;
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                match decode_payload(&payload) {
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
                        rdht_metrics::log::global().warn(
                            "net.tcp",
                            "dropping dialled connection on a bad frame",
                            &[
                                ("peer", &addr.to_string()),
                                ("error", error.variant()),
                                ("detail", &error.to_string()),
                            ],
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

struct TcpEndpoint {
    transport: TcpTransport,
    peer: u64,
}

impl EndpointImpl for TcpEndpoint {
    fn deliver(
        &self,
        request: Request,
        sink: ReplySink,
        trace: Option<TraceContext>,
    ) -> Result<(), SendRejected> {
        // Lifecycle messages get the classic two attempts (a pooled
        // connection may be stale) but no redial budget: a shutdown fanning
        // out to peers that are already gone must not pay a deadline each.
        let budget = if matches!(request, Request::Shutdown | Request::Crash) {
            Duration::ZERO
        } else {
            REDIAL_DEADLINE
        };
        let deadline = Instant::now() + budget;
        let mut backoff = REDIAL_BACKOFF_START;
        let mut sink = sink;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // The address book is re-resolved every attempt: a peer that
            // restarted on a *new* port publishes it there, and the redial
            // loop picks it up mid-stream without re-creating endpoints.
            let Some(addr) = self.transport.addr_of(PeerId(self.peer)) else {
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
            let failure = match self.transport.connection_to(addr, connect_timeout) {
                Ok(conn) => match TcpTransport::try_send(&conn, &request, sink, trace) {
                    Ok(()) => return Ok(()),
                    Err(Some(recovered)) => {
                        // Evict the dead connection so the retry dials fresh.
                        let mut pool = self.transport.inner.pool.lock();
                        if let Some(current) = pool.get(&addr) {
                            if Arc::ptr_eq(current, &conn) {
                                pool.remove(&addr);
                            }
                        }
                        drop(pool);
                        sink = recovered;
                        TransportError::Closed
                    }
                    // The reader drained the pending table concurrently: the
                    // sink already signalled its caller, nothing to retry
                    // with.
                    Err(None) => return Ok(()),
                },
                Err(error) => error,
            };
            // The second attempt (fresh dial after evicting a stale pooled
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

/// Serves one accepted connection: decode request frames, queue them on the
/// peer's mailbox, frame replies back. Returns when the connection closes,
/// sends garbage, or the peer stops receiving.
fn serve_connection(stream: TcpStream, queue: Sender<Incoming>) {
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
    let mut reader = stream;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => match decode_payload(&payload) {
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
                    rdht_metrics::log::global().warn(
                        "net.tcp",
                        "dropping accepted connection on a bad frame",
                        &[
                            ("peer", &peer_desc),
                            ("error", error.variant()),
                            ("detail", &error.to_string()),
                        ],
                    );
                    break;
                }
            },
            Ok(None) => break, // clean EOF
            Err(error) => {
                if let FrameError::Wire(wire) = error {
                    rdht_metrics::log::global().warn(
                        "net.tcp",
                        "dropping accepted connection on a bad length prefix",
                        &[
                            ("peer", &peer_desc),
                            ("error", wire.variant()),
                            ("detail", &wire.to_string()),
                        ],
                    );
                }
                break;
            }
        }
    }
    let _ = reader.shutdown(Shutdown::Both);
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

        let (tx, rx) = unbounded();
        let closing = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor_closing = Arc::clone(&closing);
        let acceptor_conns = Arc::clone(&conns);
        let acceptor = std::thread::spawn(move || {
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
                let queue = tx.clone();
                std::thread::spawn(move || serve_connection(stream, queue));
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
        Ok(Mailbox::new(rx))
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
