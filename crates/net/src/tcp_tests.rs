//! Who reads which reply, on real loopback sockets: the waiter reads its own
//! connection (through timeouts, late frames, restarts and crashes), a client
//! round dials no pooled connection, and the fault layer's hooks apply in
//! the waiter's hands.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rdht_core::ums;
use rdht_hashing::{HashFamily, Key};

use super::*;
use crate::cluster::{serve_tcp_peer, Directory, TcpPeerConfig};
use crate::fault::{End, FaultPlan, FaultyTransport, LinkFaults};
use crate::transport::{CallError, Gather};
use crate::ClusterClient;

const WAIT: Duration = Duration::from_secs(5);

/// A loopback address nothing listens on (yet).
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// The own connections of this thread dialled through `transport`.
fn own_connections(transport: &TcpTransport) -> usize {
    let inner = Arc::downgrade(&transport.inner);
    OWN.with(|own| {
        own.borrow()
            .values()
            .filter(|conn| conn.transport.ptr_eq(&inner))
            .count()
    })
}

/// The address this thread's own connection to `peer` was dialled at.
fn own_connection_addr(peer: PeerId) -> Option<SocketAddr> {
    OWN.with(|own| own.borrow().get(&peer.0).map(|conn| conn.booked.addr))
}

fn metrics(text: &str) -> Reply {
    Reply::Metrics(text.to_string())
}

/// A peer that answers every request with `metrics("up")` until its
/// mailbox closes.
fn echo(mailbox: Mailbox) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        while let Some(incoming) = mailbox.recv() {
            incoming.reply.send(metrics("up"));
        }
    })
}

/// A peer played by the test on one accepted connection: it reads two
/// requests and answers the first after `stall` (writing `split` bytes of
/// its frame up front), then the second at once.
fn scripted_peer(listener: TcpListener, split: usize, stall: Duration) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut frames = FrameReader::new();
        let mut source = &stream;
        let mut next_id = || match decode_payload(frames.next_frame(&mut source).unwrap().unwrap())
        {
            Ok(Envelope::Request { request_id, .. }) => request_id,
            other => panic!("expected a request, got {other:?}"),
        };
        let first = encode_reply(next_id(), &metrics("first"));
        let mut writer = &stream;
        writer.write_all(&first[..split]).unwrap();
        thread::sleep(stall);
        writer.write_all(&first[split..]).unwrap();
        let second = encode_reply(next_id(), &metrics("second"));
        writer.write_all(&second).unwrap();
    })
}

/// The attempt that gives up on a half-read frame reads `Timeout`; the
/// connection keeps the half, so the next call finishes the late frame,
/// discards it and is answered by its own, matched by request id.
#[test]
fn a_half_read_reply_times_out_and_the_next_call_is_matched_by_id() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = PeerId(0x7c9_0001);
    let transport = TcpTransport::with_peers([(peer, listener.local_addr().unwrap())]);
    let endpoint = transport.endpoint(peer).unwrap();
    let server = scripted_peer(listener, 7, Duration::from_millis(300));
    assert_eq!(
        endpoint.call(Request::Metrics, Duration::from_millis(100)),
        Err(CallError::Timeout)
    );
    assert_eq!(endpoint.call(Request::Metrics, WAIT), Ok(metrics("second")));
    server.join().unwrap();
    assert_eq!(own_connections(&transport), 1);
}

/// A reply that arrives whole after its attempt gave up is discarded: the
/// next wait on the connection reads it first and hands it to a slot that
/// takes nothing any more.
#[test]
fn a_late_reply_to_a_timed_out_attempt_is_discarded() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = PeerId(0x7c9_0002);
    let transport = TcpTransport::with_peers([(peer, listener.local_addr().unwrap())]);
    let endpoint = transport.endpoint(peer).unwrap();
    let server = scripted_peer(listener, 0, Duration::from_millis(150));
    let late = endpoint.send(Request::Metrics).unwrap();
    assert_eq!(
        late.wait(Duration::from_millis(50)),
        Err(CallError::Timeout)
    );
    // Let the late frame land in full before anything reads it.
    thread::sleep(Duration::from_millis(300));
    assert_eq!(endpoint.call(Request::Metrics, WAIT), Ok(metrics("second")));
    server.join().unwrap();
}

/// A client round over TCP sends every request on the client thread's own
/// connections: the transport's pool stays empty — no connection was
/// dialled for a reader thread to demultiplex.
#[test]
fn a_client_round_over_tcp_dials_no_pooled_connection() {
    let ids = [PeerId(0x7c9_1000), PeerId(0x7c9_2000), PeerId(0x7c9_3000)];
    let book: Vec<(PeerId, SocketAddr)> = ids.iter().map(|&id| (id, free_addr())).collect();
    let servers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let peers = book.clone();
            thread::spawn(move || {
                serve_tcp_peer(TcpPeerConfig {
                    id,
                    peers,
                    num_replicas: 3,
                    seed: 0x7c9,
                    storage: None,
                    trace_out: None,
                })
            })
        })
        .collect();
    for (_, addr) in &book {
        let deadline = Instant::now() + Duration::from_secs(10);
        while TcpStream::connect(addr).is_err() {
            assert!(Instant::now() < deadline, "peer at {addr} never came up");
            thread::sleep(Duration::from_millis(5));
        }
    }
    let transport = TcpTransport::with_peers(book.iter().copied());
    let directory = Directory::new(HashFamily::new(3, 0x7c9), Arc::new(transport.clone()), ids);
    let mut client = ClusterClient::new(Arc::new(directory));
    for i in 0..8 {
        let key = Key::new(format!("own:{i}"));
        ums::insert(&mut client, &key, vec![i]).unwrap();
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current);
        assert_eq!(got.data.unwrap(), vec![i]);
    }
    assert!(
        unpoison(transport.inner.pool.lock()).is_empty(),
        "a client round dialled a pooled connection"
    );
    let owned = own_connections(&transport);
    assert!(owned > 0 && owned <= ids.len(), "{owned} own connections");
    for &id in &ids {
        transport
            .endpoint(id)
            .unwrap()
            .send_no_reply(Request::Shutdown)
            .unwrap();
    }
    for server in servers {
        server.join().unwrap().unwrap();
    }
}

/// A restarted peer gets the caller's own connection replaced, not written
/// into after the old incarnation closed it, nor joined by a second one —
/// whether it comes back on its old port or on another.
#[test]
fn a_restarted_peer_replaces_the_own_connection() {
    let peer = PeerId(0x7c9_0003);
    let transport = TcpTransport::new();
    let server = echo(transport.bind(peer).unwrap());
    let endpoint = transport.endpoint(peer).unwrap();
    assert_eq!(endpoint.call(Request::Metrics, WAIT), Ok(metrics("up")));
    assert_eq!(own_connection_addr(peer), transport.addr_of(peer));

    // Back on the port it had (binding prefers the booked address).
    transport.unbind(peer);
    server.join().unwrap();
    let server = echo(transport.bind(peer).unwrap());
    assert_eq!(endpoint.call(Request::Metrics, WAIT), Ok(metrics("up")));
    assert_eq!(own_connection_addr(peer), transport.addr_of(peer));
    assert_eq!(own_connections(&transport), 1);

    transport.unbind(peer);
    server.join().unwrap();
    let elsewhere = free_addr();
    transport.set_addr(peer, elsewhere);
    let server = echo(transport.bind(peer).unwrap());
    assert_eq!(transport.addr_of(peer), Some(elsewhere));
    assert_eq!(endpoint.call(Request::Metrics, WAIT), Ok(metrics("up")));
    assert_eq!(own_connection_addr(peer), Some(elsewhere));
    assert_eq!(own_connections(&transport), 1);

    transport.unbind(peer);
    server.join().unwrap();
}

/// A peer that crashes holding requests sent on an own connection closes
/// it: every slot waiting on it reads `Dropped` at once, not `Timeout`, and
/// the connection leaves the table.
#[test]
fn a_crash_with_replies_pending_on_an_own_connection_reads_dropped_promptly() {
    let peer = PeerId(0x7c9_0004);
    let transport = TcpTransport::new();
    let mailbox = transport.bind(peer).unwrap();
    let endpoint = transport.endpoint(peer).unwrap();
    let gather = Gather::new(2, false);
    assert!(gather.send(0, &endpoint, Request::Metrics, None));
    assert!(gather.send(1, &endpoint, Request::Metrics, None));
    let crashing = transport.clone();
    let crash = thread::spawn(move || {
        let held = (mailbox.recv().unwrap(), mailbox.recv().unwrap());
        // What a crash does: the accept side goes, the requests die unanswered.
        crashing.unbind(peer);
        drop(held);
    });
    let started = Instant::now();
    let landed = gather.wait(Duration::from_secs(30));
    assert!(started.elapsed() < WAIT, "the crash surfaced late");
    for slot in landed {
        assert_eq!(slot.outcome, Err(CallError::Dropped));
    }
    assert_eq!(own_connection_addr(peer), None);
    crash.join().unwrap();
}

/// Behind the fault layer a reply is still read by its waiter, and the
/// hook applies the reverse link's faults in its hands: a delayed reply
/// arrives late through the latch, a dropped one leaves the waiter to its
/// deadline — not blocked on a socket that owes it nothing more.
#[test]
fn the_fault_layer_applies_reply_faults_in_the_waiters_hands() {
    let peer = PeerId(0x7c9_0005);
    let transport = TcpTransport::new();
    let server = echo(transport.bind(peer).unwrap());
    let reverse = |faults| FaultPlan::new(5).with_link(End::Peer(peer.0), End::Client, faults);

    let delayed = reverse(LinkFaults::delayed(
        Duration::from_millis(50),
        Duration::ZERO,
    ));
    let endpoint = FaultyTransport::new(transport.clone(), delayed.clone())
        .endpoint(peer)
        .unwrap();
    let started = Instant::now();
    assert_eq!(endpoint.call(Request::Metrics, WAIT), Ok(metrics("up")));
    assert!(started.elapsed() >= Duration::from_millis(50));
    assert_eq!(delayed.counters().delayed.get(), 1);

    let lossy = reverse(LinkFaults::lossy(1.0));
    let endpoint = FaultyTransport::new(transport.clone(), lossy.clone())
        .endpoint(peer)
        .unwrap();
    let started = Instant::now();
    assert_eq!(
        endpoint.call(Request::Metrics, Duration::from_millis(200)),
        Err(CallError::Timeout)
    );
    assert!(started.elapsed() < Duration::from_secs(2));
    assert_eq!(lossy.counters().dropped.get(), 1);

    assert!(
        unpoison(transport.inner.pool.lock()).is_empty(),
        "the requests went out on the caller's own connection"
    );
    assert_eq!(own_connections(&transport), 1);
    OWN.with(|own| {
        let own = own.borrow();
        assert!(
            own[&peer.0].awaited.is_empty(),
            "every reply frame was read"
        );
    });
    transport.unbind(peer);
    server.join().unwrap();
}
