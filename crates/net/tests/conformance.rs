//! Transport conformance suite: the same behavioural contract, asserted
//! against **both** transport backends — the in-process channel mesh and
//! length-framed TCP over loopback. Everything a deployment relies on is
//! here: request/reply matching under pipelining, concurrent clients,
//! typed (not hanging) failures when a peer crashes mid-request,
//! forwarding through a departed peer, and one frame per peer per round. TCP-only robustness (garbage and
//! oversized frames from a hostile client) is covered at the end against
//! real sockets via the public multi-process API.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rdht_core::{ums, Timestamp, UmsAccess};
use rdht_hashing::{HashId, Key};
use rdht_net::{
    serve_tcp_peer, CallError, Cluster, ClusterClient, ClusterConfig, PeerId, Reply, Request,
    TcpPeerConfig, TcpTransport, Transport, TransportKind, MAX_FRAME_LEN,
};

const REPLY_WAIT: Duration = Duration::from_secs(5);

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

/// After a graceful leave, requests still reaching the departed peer (sent
/// by clients holding the old view) are forwarded to the new owner — on
/// both transports, including across real sockets.
#[test]
fn departed_peer_forwards_to_the_new_owner() {
    both(|kind| {
        let mut cluster = spawn(kind, 5, 4, 1105);
        let mut client = cluster.client();
        let keys: Vec<Key> = (0..24).map(|i| Key::new(format!("fwd:{i}"))).collect();
        for (i, key) in keys.iter().enumerate() {
            ums::insert(&mut client, key, format!("v{i}").into_bytes()).unwrap();
        }
        let leaving = cluster.peer_ids()[2];
        // Record (hash, key) pairs whose replica the departing peer owns,
        // as a stale client would have resolved them.
        let hashes: Vec<HashId> = client.replication_ids().collect();
        let mut owned: Vec<(HashId, Key, usize)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            for &hash in &hashes {
                if cluster.replica_responsible(hash, key) == Some(leaving) {
                    owned.push((hash, key.clone(), i));
                }
            }
        }
        assert!(
            !owned.is_empty(),
            "{kind:?}: the departing peer owns no probed replica; pick another seed"
        );
        let old_endpoint = cluster.peer_endpoint(leaving).expect("departing endpoint");
        cluster.leave_peer(leaving).unwrap();
        // Probe through the *old* endpoint: the departed peer must forward
        // to the new owner and relay the answer, not serve its dead store.
        for (hash, key, i) in owned {
            let pending = old_endpoint
                .send(Request::GetReplica {
                    hash,
                    key: key.clone(),
                })
                .expect("departed forwarder still reachable");
            match pending.wait(REPLY_WAIT).unwrap() {
                Reply::Replica(Some((payload, _))) => {
                    assert_eq!(
                        payload,
                        format!("v{i}").into_bytes(),
                        "{kind:?}: wrong replica"
                    );
                }
                other => panic!("{kind:?}: unexpected forwarded reply: {other:?}"),
            }
        }
        // And the normal client path still certifies currency everywhere.
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

/// The frame law of a retrieve, on both backends: `last_ts` and the first
/// probe are one request frame and one reply frame when a replica lives on
/// the timestamping peer (which then counts one `batch`, and no `get` or
/// `timestamp`), and two of each when none does.
#[test]
fn a_retrieve_costs_one_frame_per_peer_each_way() {
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
            let series = format!("kind=\"{kind}\"");
            cluster
                .peer_ids()
                .into_iter()
                .map(|peer| {
                    let exposition = cluster.scrape(peer).unwrap();
                    let line = exposition
                        .lines()
                        .find(|line| {
                            line.starts_with("net_requests_total") && line.contains(&series)
                        })
                        .unwrap_or_else(|| panic!("no {series} series"));
                    line.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
                })
                .sum()
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

/// A batch routed under a stale view — to a peer that has since handed its
/// range to **two different** joiners — is exploded there, each constituent
/// is forwarded to the joiner that owns it now, and the one `Reply::Batch`
/// still holds the answers in request order, on both transports.
#[test]
fn a_batch_forwarded_to_two_peers_is_answered_in_request_order() {
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

/// Garbage, truncated and oversized frames from hostile connections must
/// not take a TCP peer down: the peer drops the offending connection and
/// keeps serving well-formed clients. Exercises the public multi-process
/// API (`serve_tcp_peer` + `ClusterClient::connect_tcp`) over real sockets.
#[test]
fn tcp_peer_survives_garbage_and_oversized_frames() {
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
    for (_, addr) in &book {
        // Plain garbage: the first 4 bytes form an absurd length prefix.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&[0xDE; 64]).unwrap();
        // An oversized length prefix must be rejected before allocation.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        conn.write_all(&garbage.chunk(32)).unwrap();
        // A plausible length prefix followed by a garbage payload.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&32u32.to_le_bytes()).unwrap();
        conn.write_all(&garbage.chunk(32)).unwrap();
        // A frame truncated by a disconnect.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&100u32.to_le_bytes()).unwrap();
        conn.write_all(&garbage.chunk(10)).unwrap();
        drop(conn);
        // A burst of random connections spraying random bytes.
        for _ in 0..8 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let len = 1 + (garbage.chunk(1)[0] as usize % 200);
            let _ = conn.write_all(&garbage.chunk(len));
        }
    }

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
