//! A real multi-process UMS deployment over TCP, on one box.
//!
//! Run with no arguments and the process *orchestrates*: it reserves one
//! loopback address per peer, re-launches itself as `N` peer processes
//! (each serving one ring position with [`serve_tcp_peer`]) plus one
//! client process, waits for the client's multi-writer workload to finish,
//! and shuts the peers down over the wire. Every message between the
//! client and the peers — and between the peers themselves (forwarding,
//! hand-offs) — crosses the length-framed wire codec and a real socket.
//!
//! ```text
//! cargo run --release --example tcp_cluster        # 3 peer processes
//! cargo run --release --example tcp_cluster -- 5   # 5 peer processes
//! ```
//!
//! The client process runs four concurrent writers racing inserts on a set
//! of shared keys, then verifies every retrieve comes back `is_current` —
//! the paper's currency guarantee, across OS processes — and that a key
//! with a replica on its timestamping peer is retrieved in one request
//! frame and one reply frame.

use std::env;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{exit, Command};
use std::thread;
use std::time::{Duration, Instant};

use rdht_core::ums;
use rdht_hashing::{HashFamily, Key};
use rdht_net::{
    serve_tcp_peer, ClusterClient, PeerId, Request, TcpPeerConfig, TcpTransport, Transport,
};

const NUM_REPLICAS: usize = 4;
const SEED: u64 = 42;
const WRITERS: u8 = 4;
const SHARED_KEYS: usize = 10;
const PRIVATE_KEYS: usize = 6;

fn main() {
    let args: Vec<String> = env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("peer") => run_peer(&args[2], &args[3]),
        Some("client") => run_client(&args[2]),
        Some(n) => orchestrate(n.parse().unwrap_or(3)),
        None => orchestrate(3),
    }
}

fn format_book(book: &[(PeerId, SocketAddr)]) -> String {
    book.iter()
        .map(|(id, addr)| format!("{}={addr}", id.0))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_book(raw: &str) -> Vec<(PeerId, SocketAddr)> {
    raw.split(';')
        .map(|entry| {
            let (id, addr) = entry.split_once('=').expect("book entry is id=addr");
            (
                PeerId(id.parse().expect("peer id is a u64")),
                addr.parse().expect("peer address is a socket address"),
            )
        })
        .collect()
}

fn wait_until_accepting(addr: &SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addr).is_err() {
        if Instant::now() >= deadline {
            rdht_metrics::log::global().error(
                "example.tcp_cluster",
                "peer never started accepting connections",
                &[("addr", &addr.to_string())],
            );
            exit(1);
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Parent process: reserve addresses, launch peers and the client, verify
/// everything exits cleanly, shut the ring down over the wire.
fn orchestrate(num_peers: usize) {
    let num_peers = num_peers.max(3);
    let exe = env::current_exe().expect("own executable path");
    let listeners: Vec<TcpListener> = (0..num_peers)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve a loopback port"))
        .collect();
    let book: Vec<(PeerId, SocketAddr)> = listeners
        .iter()
        .enumerate()
        .map(|(i, listener)| {
            (
                PeerId((i as u64 + 1) * 1_000),
                listener.local_addr().expect("reserved address"),
            )
        })
        .collect();
    drop(listeners); // free the ports for the peer processes
    let book_arg = format_book(&book);

    println!("starting {num_peers} peer processes:");
    let mut peers = Vec::new();
    for (id, addr) in &book {
        println!("  peer {:>5} listening on {addr}", id.0);
        let child = Command::new(&exe)
            .arg("peer")
            .arg(id.0.to_string())
            .arg(&book_arg)
            .spawn()
            .expect("spawn peer process");
        peers.push(child);
    }
    for (_, addr) in &book {
        wait_until_accepting(addr);
    }

    println!("starting the client process ({WRITERS} concurrent writers)…");
    let client = Command::new(&exe)
        .arg("client")
        .arg(&book_arg)
        .status()
        .expect("run client process");

    // Shut the ring down over the wire, whatever the client's outcome.
    let transport = TcpTransport::with_peers(book.iter().copied());
    for (id, _) in &book {
        if let Ok(endpoint) = transport.endpoint(*id) {
            let _ = endpoint.send_no_reply(Request::Shutdown);
        }
    }
    let mut all_ok = client.success();
    for mut peer in peers {
        let status = peer.wait().expect("wait for peer process");
        all_ok &= status.success();
    }
    if !all_ok {
        rdht_metrics::log::global().error(
            "example.tcp_cluster",
            "a peer or the client exited with an error",
            &[],
        );
        exit(1);
    }
    println!("all processes exited cleanly");
}

/// Child process: one ring position, served until `Shutdown` arrives.
fn run_peer(id: &str, book: &str) {
    let id = PeerId(id.parse().expect("peer id is a u64"));
    let peers = parse_book(book);
    if let Err(error) = serve_tcp_peer(TcpPeerConfig {
        id,
        peers,
        num_replicas: NUM_REPLICAS,
        seed: SEED,
        storage: None,
        trace_out: None,
    }) {
        rdht_metrics::log::global().error(
            "example.tcp_cluster",
            "peer failed",
            &[("peer", &id.0.to_string()), ("error", &error.to_string())],
        );
        exit(1);
    }
}

/// Child process: concurrent writers racing on shared keys, then a full
/// currency check.
fn run_client(book: &str) {
    let book = parse_book(book);
    thread::scope(|scope| {
        for writer in 0..WRITERS {
            let book = book.clone();
            scope.spawn(move || {
                let mut client = ClusterClient::connect_tcp(book, NUM_REPLICAS, SEED);
                for i in 0..SHARED_KEYS {
                    let key = Key::new(format!("shared:{i}"));
                    let value = format!("writer-{writer}:v{i}").into_bytes();
                    ums::insert(&mut client, &key, value).expect("racing insert");
                }
                for i in 0..PRIVATE_KEYS {
                    let key = Key::new(format!("private:{writer}:{i}"));
                    ums::insert(&mut client, &key, vec![writer, i as u8]).expect("private insert");
                }
            });
        }
    });

    let mut client = ClusterClient::connect_tcp(book.clone(), NUM_REPLICAS, SEED);
    let mut checked = 0usize;
    for i in 0..SHARED_KEYS {
        let key = Key::new(format!("shared:{i}"));
        let got = ums::retrieve(&mut client, &key).expect("retrieve shared key");
        assert!(
            got.is_current,
            "shared:{i} did not come back current after racing writers"
        );
        let data = String::from_utf8(got.data.expect("shared key has data")).unwrap();
        assert!(
            data.ends_with(&format!(":v{i}")),
            "wrong value for shared:{i}"
        );
        checked += 1;
    }
    for writer in 0..WRITERS {
        for i in 0..PRIVATE_KEYS {
            let key = Key::new(format!("private:{writer}:{i}"));
            let got = ums::retrieve(&mut client, &key).expect("retrieve private key");
            assert!(got.is_current, "private:{writer}:{i} not current");
            assert_eq!(
                got.data.expect("private key has data"),
                vec![writer, i as u8]
            );
            checked += 1;
        }
    }
    println!(
        "client OK: {checked} keys retrieved current over TCP \
         ({} messages exchanged by the checking client)",
        client.messages()
    );

    // One frame per peer per round, across processes: when a replica of the
    // key lives with its timestamp counter, `last_ts` and the probe of that
    // replica are one request frame and one reply frame.
    let family = HashFamily::new(NUM_REPLICAS, SEED);
    let owner = |position: u64| {
        let ids = book.iter().map(|(id, _)| id.0);
        let clockwise = ids.clone().filter(|id| *id >= position).min();
        clockwise.or_else(|| ids.min()).expect("a ring has peers")
    };
    let colocated = (0..SHARED_KEYS)
        .map(|i| Key::new(format!("shared:{i}")))
        .find(|key| {
            let kts = owner(family.eval_timestamp(key));
            (family.replication_ids()).any(|hash| owner(family.eval(hash, key)) == kts)
        })
        .expect("some shared key has a replica on its timestamping peer");
    let before = client.messages();
    let got = ums::retrieve(&mut client, &colocated).expect("retrieve co-located key");
    assert!(got.is_current && got.replicas_probed == 1);
    assert_eq!(
        client.messages() - before,
        2,
        "a co-located retrieve is one frame each way"
    );
    println!("client OK: a co-located retrieve cost 2 messages");
}
