//! Transport conformance suite: the same behavioural contract, asserted
//! against **both** transport backends — the in-process channel mesh and
//! length-framed TCP over loopback. Everything a deployment relies on is
//! here: request/reply matching under pipelining, concurrent clients,
//! typed (not hanging) failures when a peer crashes mid-request or has
//! left, re-sends by a join source, and one frame per peer per round.
//! TCP-only robustness (garbage and oversized frames from a hostile client)
//! is covered at the end against real sockets via the public multi-process
//! API.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use rdht_core::{ums, Timestamp, UmsAccess};
use rdht_hashing::{HashId, Key};
use rdht_metrics::{EventLog, Level};
use rdht_net::wire::decode_payload;
use rdht_net::{
    serve_tcp_peer, CallError, Cluster, ClusterClient, ClusterConfig, PeerId, Reply, Request,
    TcpPeerConfig, TcpTransport, Transport, TransportKind, MAX_FRAME_LEN,
};

const REPLY_WAIT: Duration = Duration::from_secs(5);

/// What this test binary's peers log through the process-wide event log,
/// captured instead of written to stderr. Every test runs this first, so
/// the capture is in place before anything logs.
fn captured_log() -> &'static Arc<Mutex<Vec<u8>>> {
    static BUFFER: OnceLock<Arc<Mutex<Vec<u8>>>> = OnceLock::new();
    BUFFER.get_or_init(|| {
        let (log, buffer) = EventLog::to_buffer(Level::Warn);
        assert!(
            rdht_metrics::log::install(log).is_ok(),
            "something logged before the capture was installed"
        );
        buffer
    })
}

/// Runs a conformance check against both transport backends.
fn both(check: impl Fn(TransportKind)) {
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        check(kind);
    }
}

fn spawn(kind: TransportKind, peers: usize, replicas: usize, seed: u64) -> Cluster {
    Cluster::spawn_with(ClusterConfig::new(peers, replicas, seed).with_transport(kind))
}

#[test]
fn insert_and_retrieve_are_current_on_both_transports() {
    captured_log();
    both(|kind| {
        let cluster = spawn(kind, 5, 4, 1101);
        let mut client = cluster.client();
        for i in 0..12 {
            let key = Key::new(format!("conf:{i}"));
            ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
        }
        for i in 0..12 {
            let key = Key::new(format!("conf:{i}"));
            let got = ums::retrieve(&mut client, &key).unwrap();
            assert!(got.is_current, "{kind:?}: key conf:{i} is not current");
            assert_eq!(got.data.unwrap(), format!("v{i}").into_bytes());
        }
        cluster.shutdown();
    });
}

/// Pipelining: a client may have many requests in flight on one endpoint;
/// each pending reply must resolve to the answer of *its* request (matching
/// is by request id on the wire, not by arrival luck).
#[test]
fn pipelined_requests_match_replies_by_id() {
    captured_log();
    both(|kind| {
        let cluster = spawn(kind, 3, 3, 1102);
        let peer = cluster.peer_ids()[0];
        let endpoint = cluster.peer_endpoint(peer).expect("first peer endpoint");
        let n = 32u8;
        let puts: Vec<_> = (0..n)
            .map(|i| {
                endpoint
                    .send(Request::PutReplica {
                        op: None,
                        hash: HashId(0),
                        key: Key::new(format!("pipe:{i}")),
                        payload: vec![i; 3],
                        timestamp: Timestamp(1),
                    })
                    .unwrap()
            })
            .collect();
        let gets: Vec<_> = (0..n)
            .map(|i| {
                endpoint
                    .send(Request::GetReplica {
                        hash: HashId(0),
                        key: Key::new(format!("pipe:{i}")),
                    })
                    .unwrap()
            })
            .collect();
        for put in puts {
            assert_eq!(put.wait(REPLY_WAIT).unwrap(), Reply::PutAck);
        }
        for (i, get) in gets.into_iter().enumerate() {
            match get.wait(REPLY_WAIT).unwrap() {
                Reply::Replica(Some((payload, stamp))) => {
                    assert_eq!(payload, vec![i as u8; 3], "{kind:?}: reply mismatched");
                    assert_eq!(stamp, Timestamp(1));
                }
                other => panic!("{kind:?}: unexpected reply to get {i}: {other:?}"),
            }
        }
        cluster.shutdown();
    });
}

#[test]
fn concurrent_clients_do_not_interfere() {
    captured_log();
    both(|kind| {
        let cluster = spawn(kind, 4, 4, 1103);
        thread::scope(|scope| {
            for writer in 0..4u8 {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut client = cluster.client();
                    for i in 0..8u8 {
                        let key = Key::new(format!("w{writer}:{i}"));
                        ums::insert(&mut client, &key, vec![writer, i]).unwrap();
                        let got = ums::retrieve(&mut client, &key).unwrap();
                        assert!(got.is_current);
                        assert_eq!(got.data.unwrap(), vec![writer, i]);
                    }
                });
            }
        });
        // Every write is visible to a fresh client afterwards.
        let mut client = cluster.client();
        for writer in 0..4u8 {
            for i in 0..8u8 {
                let got = ums::retrieve(&mut client, &Key::new(format!("w{writer}:{i}"))).unwrap();
                assert!(got.is_current, "{kind:?}: w{writer}:{i} lost");
                assert_eq!(got.data.unwrap(), vec![writer, i]);
            }
        }
        cluster.shutdown();
    });
}

/// A peer crashing with a request outstanding must surface as a *typed*,
/// prompt error — never a silent hang until the timeout.
#[test]
fn crashed_peer_yields_typed_error_and_ring_stays_live() {
    captured_log();
    both(|kind| {
        let cluster = spawn(kind, 4, 3, 1104);
        let victim = cluster.peer_ids()[1];
        let endpoint = cluster.peer_endpoint(victim).expect("victim endpoint");
        cluster.crash_peer(victim).unwrap();
        while !cluster.peer_thread_finished(victim) {
            thread::sleep(Duration::from_millis(2));
        }
        let started = Instant::now();
        let outcome = endpoint
            .send(Request::GetReplica {
                hash: HashId(1),
                key: Key::new("gone"),
            })
            .map_err(CallError::Transport)
            .and_then(|pending| pending.wait(REPLY_WAIT));
        match outcome {
            Err(CallError::Dropped)
            | Err(CallError::Transport(_))
            | Err(CallError::Rejected(_)) => {}
            Ok(reply) => panic!("{kind:?}: crashed peer answered: {reply:?}"),
            Err(CallError::Timeout) => {
                panic!("{kind:?}: crash surfaced as a timeout, not a typed failure")
            }
            Err(CallError::Exhausted { .. }) => {
                panic!("{kind:?}: a bare endpoint send never retries")
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "{kind:?}: the failure was not prompt"
        );
        // The remaining ring reroutes around the dead peer.
        let mut client = cluster.client();
        let key = Key::new("still-alive");
        ums::insert(&mut client, &key, b"x".to_vec()).unwrap();
        assert!(ums::retrieve(&mut client, &key).unwrap().is_current);
        cluster.shutdown();
    });
}

/// A departed peer is gone at its leave, as after a crash: a request sent to
/// its old endpoint (by a client holding the old view) fails promptly and
/// typed, and the `ClusterClient` completes at the successor — on both
/// transports, including across real sockets.
#[test]
fn departed_peer_fails_typed_and_the_client_completes_at_the_successor() {
    captured_log();
    both(|kind| {
        let mut cluster = spawn(kind, 5, 4, 1105);
        let mut client = cluster.client();
        let keys: Vec<Key> = (0..24).map(|i| Key::new(format!("fwd:{i}"))).collect();
        for (i, key) in keys.iter().enumerate() {
            ums::insert(&mut client, key, format!("v{i}").into_bytes()).unwrap();
        }
        let leaving = cluster.peer_ids()[2];
        // Keys with a replica the departing peer owns, as a stale client
        // would have resolved them.
        let hashes: Vec<HashId> = client.replication_ids().collect();
        let owned: Vec<(HashId, usize)> = keys
            .iter()
            .enumerate()
            .flat_map(|(i, key)| hashes.iter().map(move |&hash| (hash, key, i)))
            .filter(|(hash, key, _)| cluster.replica_responsible(*hash, key) == Some(leaving))
            .map(|(hash, _, i)| (hash, i))
            .collect();
        assert!(
            !owned.is_empty(),
            "{kind:?}: the departing peer owns no probed replica; pick another seed"
        );
        let old_endpoint = cluster.peer_endpoint(leaving).expect("departing endpoint");
        cluster.leave_peer(leaving).unwrap();
        while !cluster.peer_thread_finished(leaving) {
            thread::sleep(Duration::from_millis(2));
        }
        let (hash, i) = owned[0];
        let started = Instant::now();
        let outcome = old_endpoint
            .send(Request::GetReplica {
                hash,
                key: keys[i].clone(),
            })
            .map_err(CallError::Transport)
            .and_then(|pending| pending.wait(REPLY_WAIT));
        match outcome {
            Err(CallError::Dropped)
            | Err(CallError::Transport(_))
            | Err(CallError::Rejected(_)) => {}
            other => panic!("{kind:?}: a send to the departed peer ended in {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "{kind:?}: the failure was not prompt"
        );
        // The client path completes at the successor and certifies currency.
        for (hash, i) in owned {
            let stored = client.get_replica(hash, &keys[i]).unwrap();
            let stored = stored.expect("the successor holds the moved replica");
            assert_eq!(stored.data, format!("v{i}").into_bytes(), "{kind:?}");
        }
        for (i, key) in keys.iter().enumerate() {
            let got = ums::retrieve(&mut client, key).unwrap();
            assert!(
                got.is_current,
                "{kind:?}: fwd:{i} lost currency after leave"
            );
        }
        cluster.shutdown();
    });
}

/// Whether some replica of `key` lives on the peer that timestamps it.
fn colocated(cluster: &Cluster, replicas: u32, key: &Key) -> bool {
    let kts = cluster.timestamp_responsible(key);
    (0..replicas).any(|h| cluster.replica_responsible(HashId(h), key) == kts)
}

/// Requests of `kind` that `peer` served so far (`net_requests_total`).
fn served(cluster: &Cluster, peer: PeerId, kind: &str) -> u64 {
    let series = format!("kind=\"{kind}\"");
    let exposition = cluster.scrape(peer).unwrap();
    let line = exposition
        .lines()
        .find(|line| line.starts_with("net_requests_total") && line.contains(&series))
        .unwrap_or_else(|| panic!("no {series} series"));
    line.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
}

/// The frame law of a retrieve, on both backends: `last_ts` and the first
/// probe are one request frame and one reply frame when a replica lives on
/// the timestamping peer (which then counts one `batch`, and no `get` or
/// `timestamp`), and two of each when none does.
#[test]
fn a_retrieve_costs_one_frame_per_peer_each_way() {
    captured_log();
    const REPLICAS: u32 = 4;
    both(|kind| {
        let cluster = spawn(kind, 5, REPLICAS as usize, 1107);
        let mut client = cluster.client();
        let pick = |want: bool| {
            (0..)
                .map(|i| Key::new(format!("frames:{i}")))
                .find(|key| colocated(&cluster, REPLICAS, key) == want)
                .expect("both placements occur")
        };
        let (shared, split) = (pick(true), pick(false));
        for key in [&shared, &split] {
            ums::insert(&mut client, key, b"v".to_vec()).unwrap();
        }
        // Requests of `kind` the peers served so far, summed over the ring.
        let served = |kind: &str| -> u64 {
            let peers = cluster.peer_ids().into_iter();
            peers.map(|peer| served(&cluster, peer, kind)).sum()
        };
        let before = (served("batch"), served("get"), served("timestamp"));

        let messages = client.messages();
        let got = ums::retrieve(&mut client, &shared).unwrap();
        assert!(
            got.is_current && got.replicas_probed == 1,
            "{kind:?}: {got:?}"
        );
        assert_eq!(client.messages() - messages, 2, "{kind:?}: co-located");
        assert_eq!(
            (served("batch"), served("get"), served("timestamp")),
            (before.0 + 1, before.1, before.2),
            "{kind:?}: one batch frame, its constituents not counted again"
        );

        let messages = client.messages();
        let got = ums::retrieve(&mut client, &split).unwrap();
        assert!(
            got.is_current && got.replicas_probed == 1,
            "{kind:?}: {got:?}"
        );
        assert_eq!(client.messages() - messages, 4, "{kind:?}: split");
        assert_eq!(
            (served("batch"), served("get"), served("timestamp")),
            (before.0 + 1, before.1 + 1, before.2 + 1),
            "{kind:?}: two bare frames"
        );
        cluster.shutdown();
    });
}

/// The frame law of an insert, on both backends, re-derived from placement.
/// The peer that stamps the key stores the replicas it holds in the `gen_ts`
/// request, so it costs the request and reply frames of the stamp and never
/// a put frame (neither its `kind="put"` nor its `kind="puts"` count
/// moves). Every other holder costs one put frame each way:
/// `2 + 2·(distinct holders − 1)` when the stamping peer is a holder,
/// `2 + 2·distinct` when it is not, and 2 when it holds every replica.
#[test]
fn an_insert_costs_one_frame_per_holder_and_the_stamping_peer_stores_its_own() {
    captured_log();
    const REPLICAS: u32 = 4;
    both(|kind| {
        let cluster = spawn(kind, 5, REPLICAS as usize, 1109);
        let mut client = cluster.client();
        let holders = |key: &Key| -> BTreeSet<PeerId> {
            (0..REPLICAS)
                .filter_map(|h| cluster.replica_responsible(HashId(h), key))
                .collect()
        };
        let owner = |key: &Key| cluster.timestamp_responsible(key).unwrap();
        let pick = |want: &dyn Fn(&BTreeSet<PeerId>, PeerId) -> bool| {
            (0..)
                .map(|i| Key::new(format!("insert:{i}")))
                .find(|key| want(&holders(key), owner(key)))
                .expect("every placement occurs")
        };
        let shared = pick(&|holders, owner| holders.contains(&owner) && holders.len() > 1);
        let split = pick(&|holders, owner| !holders.contains(&owner));
        let alone = pick(&|holders, owner| holders.len() == 1 && holders.contains(&owner));
        let distinct = |key: &Key| holders(key).len() as u64;
        let cases = [
            (&shared, 2 + 2 * (distinct(&shared) - 1)),
            (&split, 2 + 2 * distinct(&split)),
            (&alone, 2),
        ];
        for (key, frames) in cases {
            // The first insert starts the counter (the founding rule).
            ums::insert(&mut client, key, b"v1".to_vec()).unwrap();
            let owner = owner(key);
            let put_frames = || {
                (
                    served(&cluster, owner, "put"),
                    served(&cluster, owner, "puts"),
                )
            };
            let puts = put_frames();
            let messages = client.messages();
            let report = ums::insert(&mut client, key, b"v2".to_vec()).unwrap();
            assert_eq!(
                (report.replicas_written, report.replicas_failed),
                (REPLICAS as usize, 0),
                "{kind:?}: {key:?}"
            );
            assert_eq!(client.messages() - messages, frames, "{kind:?}: {key:?}");
            if holders(key).contains(&owner) {
                assert_eq!(
                    put_frames(),
                    puts,
                    "{kind:?}: the stamping peer got a put frame for {key:?}"
                );
            }
            let got = ums::retrieve(&mut client, key).unwrap();
            assert!(got.is_current && got.timestamp == report.timestamp);
            assert_eq!(got.data.unwrap(), b"v2");
        }
        cluster.shutdown();
    });
}

/// A batch routed under a stale view — to a peer that has since handed its
/// range to **two different** joiners — is exploded there, each constituent
/// is forwarded to the joiner that owns it now, and the one `Reply::Batch`
/// still holds the answers in request order, on both transports.
#[test]
fn a_batch_forwarded_to_two_peers_is_answered_in_request_order() {
    captured_log();
    both(|kind| {
        let mut cluster = spawn(kind, 4, 4, 1108);
        let mut client = cluster.client();
        let keys: Vec<Key> = (0..48).map(|i| Key::new(format!("split:{i}"))).collect();
        for (i, key) in keys.iter().enumerate() {
            ums::insert(&mut client, key, format!("v{i}").into_bytes()).unwrap();
        }
        // The source owns (pred, source]; two joiners cut that range in three.
        let ids = cluster.peer_ids();
        let (pred, source) = (ids[0], ids[1]);
        let third = (source.0 - pred.0) / 3;
        let (low, high) = (PeerId(pred.0 + third), PeerId(pred.0 + 2 * third));
        let stale = cluster.peer_endpoint(source).expect("source endpoint");
        cluster.join_peer(low).unwrap();
        cluster.join_peer(high).unwrap();

        // One replica that moved to each joiner, as (hash, key, payload).
        let hashes: Vec<HashId> = client.replication_ids().collect();
        let moved_to = |joiner: PeerId| {
            keys.iter()
                .enumerate()
                .flat_map(|(i, key)| hashes.iter().map(move |&hash| (hash, key, i)))
                .find(|(hash, key, _)| cluster.replica_responsible(*hash, key) == Some(joiner))
                .map(|(hash, key, i)| (hash, key.clone(), format!("v{i}").into_bytes()))
                .unwrap_or_else(|| {
                    panic!("{kind:?}: nothing moved to {joiner:?}; pick another seed")
                })
        };
        let (at_low, at_high) = (moved_to(low), moved_to(high));
        let get = |(hash, key, _): &(HashId, Key, Vec<u8>)| {
            let request = Request::GetReplica {
                hash: *hash,
                key: key.clone(),
            };
            (request, None)
        };
        let payload_of = |reply: &Reply| match reply {
            Reply::Replica(Some((payload, _))) => payload.clone(),
            other => panic!("{kind:?}: unexpected forwarded reply: {other:?}"),
        };
        for order in [[&at_low, &at_high], [&at_high, &at_low]] {
            let batch = Request::Batch(order.iter().map(|replica| get(replica)).collect());
            match stale.call(batch, REPLY_WAIT).unwrap() {
                Reply::Batch(replies) => {
                    let payloads: Vec<_> = replies.iter().map(payload_of).collect();
                    assert_eq!(
                        payloads,
                        [order[0].2.clone(), order[1].2.clone()],
                        "{kind:?}: replies out of request order"
                    );
                }
                other => panic!("{kind:?}: a batch was answered with {other:?}"),
            }
        }
        cluster.shutdown();
    });
}

// ---------------------------------------------------------------------------
// TCP-only robustness: hostile bytes on real sockets
// ---------------------------------------------------------------------------

/// Reserves `n` distinct loopback addresses by binding and dropping
/// listeners (the ports stay free long enough for the peers to claim them).
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap())
        .collect()
}

fn wait_until_accepting(addr: &SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addr).is_err() {
        assert!(Instant::now() < deadline, "peer at {addr} never came up");
        thread::sleep(Duration::from_millis(5));
    }
}

/// A deterministic xorshift byte stream — the "fuzzing client".
struct Garbage(u64);

impl Garbage {
    fn chunk(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0 as u8
            })
            .collect()
    }
}

/// The local address of a hostile connection — what the peer logs it as the
/// client of — and the error the peer must report for `bytes`: the
/// `WireError` variant, or `UnexpectedEof` when they end inside a frame.
fn sent(conn: &TcpStream, bytes: &[u8]) -> (String, &'static str) {
    let expected = bytes.get(..4).and_then(|prefix| {
        let len = u32::from_le_bytes(prefix.try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Some("FrameTooLarge");
        }
        let payload = bytes.get(4..4 + len as usize)?;
        Some(
            decode_payload(payload)
                .expect_err("garbage decodes")
                .variant(),
        )
    });
    (
        conn.local_addr().unwrap().to_string(),
        expected.unwrap_or("UnexpectedEof"),
    )
}

/// The `net.tcp` warnings about accepted connections captured from byte
/// `from` of the log on: (serving peer, client connection) -> the `error`
/// field of each warning about it.
fn tcp_warnings(from: usize) -> std::collections::HashMap<(String, String), Vec<String>> {
    let captured = String::from_utf8(captured_log().lock().unwrap()[from..].to_vec()).unwrap();
    let mut out = std::collections::HashMap::<(String, String), Vec<String>>::new();
    for line in captured.lines() {
        if !line.contains("\"target\":\"net.tcp\"") || !line.contains("\"level\":\"warn\"") {
            continue;
        }
        let field = |name: &str| {
            let start = line.find(&format!("\"{name}\":\""))? + name.len() + 4;
            let len = line[start..].find('"')?;
            Some(line[start..start + len].to_string())
        };
        if let (Some(peer), Some(client), Some(error)) =
            (field("peer"), field("client"), field("error"))
        {
            out.entry((peer, client)).or_default().push(error);
        }
    }
    out
}

/// Garbage, truncated and oversized frames from hostile connections must
/// not take a TCP peer down: the peer drops the offending connection and
/// keeps serving well-formed clients. Exercises the public multi-process
/// API (`serve_tcp_peer` + `ClusterClient::connect_tcp`) over real sockets.
#[test]
fn tcp_peer_survives_garbage_and_oversized_frames() {
    captured_log();
    let ids = [PeerId(1_000), PeerId(2_000), PeerId(3_000)];
    let addrs = free_addrs(ids.len());
    let book: Vec<(PeerId, SocketAddr)> = ids.iter().copied().zip(addrs).collect();
    let servers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let peers = book.clone();
            thread::spawn(move || {
                serve_tcp_peer(TcpPeerConfig {
                    id,
                    peers,
                    num_replicas: 3,
                    seed: 1106,
                    storage: None,
                    trace_out: None,
                })
            })
        })
        .collect();
    for (_, addr) in &book {
        wait_until_accepting(addr);
    }

    let mut garbage = Garbage(0x5eed_cafe);
    let mut ended_inside_a_frame = 0;
    for (i, (id, addr)) in book.iter().enumerate() {
        if i > 0 {
            // Let the log's per-second rate window roll over, so that no
            // peer's warnings are suppressed behind the previous peer's.
            thread::sleep(Duration::from_millis(1_100));
        }
        let serving = format!("{:016x}", id.0);
        let logged_before = captured_log().lock().unwrap().len();
        let mut hostile = Vec::new();
        // Plain garbage: the first 4 bytes form an absurd length prefix.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&[0xDE; 64]).unwrap();
        hostile.push(sent(&conn, &[0xDE; 64]));
        // An oversized length prefix must be rejected before allocation.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend(garbage.chunk(32));
        conn.write_all(&bytes).unwrap();
        hostile.push(sent(&conn, &bytes));
        // A plausible length prefix followed by a garbage payload.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut bytes = 32u32.to_le_bytes().to_vec();
        bytes.extend(garbage.chunk(32));
        conn.write_all(&bytes).unwrap();
        hostile.push(sent(&conn, &bytes));
        // A frame truncated by a disconnect.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut bytes = 100u32.to_le_bytes().to_vec();
        bytes.extend(garbage.chunk(10));
        conn.write_all(&bytes).unwrap();
        hostile.push(sent(&conn, &bytes));
        drop(conn);
        // A burst of random connections spraying random bytes.
        for _ in 0..8 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let len = 1 + (garbage.chunk(1)[0] as usize % 200);
            let bytes = garbage.chunk(len);
            let _ = conn.write_all(&bytes);
            hostile.push(sent(&conn, &bytes));
        }
        // Each connection left exactly one `net.tcp` warning, naming the
        // peer that dropped it, the client's address and the error: a wire
        // error's variant, or `UnexpectedEof` for a stream that ended inside
        // a frame.
        let named = |conn: &String| (serving.clone(), conn.clone());
        let deadline = Instant::now() + REPLY_WAIT;
        let warned = loop {
            let warned = tcp_warnings(logged_before);
            let done = hostile
                .iter()
                .all(|(conn, _)| warned.contains_key(&named(conn)));
            if done || Instant::now() >= deadline {
                break warned;
            }
            thread::sleep(Duration::from_millis(10));
        };
        for (conn, expected) in &hostile {
            let variants: Vec<&str> = warned
                .get(&named(conn))
                .map_or(Vec::new(), |v| v.iter().map(String::as_str).collect());
            assert_eq!(variants, [*expected], "connection {conn} to {addr}");
        }
        ended_inside_a_frame += hostile
            .iter()
            .filter(|(_, expected)| *expected == "UnexpectedEof")
            .count();
    }
    assert!(ended_inside_a_frame >= book.len(), "the truncated frames");

    // The deployment is still fully live for a well-formed client.
    let mut client = ClusterClient::connect_tcp(book.clone(), 3, 1106);
    for i in 0..8 {
        let key = Key::new(format!("fuzz:{i}"));
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current, "fuzz:{i} not current after garbage storm");
        assert_eq!(got.data.unwrap(), format!("v{i}").into_bytes());
    }

    let transport = TcpTransport::with_peers(book.iter().copied());
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
