//! Scraping a live TCP cluster's metrics over the wire.
//!
//! Spawns a 3-peer TCP deployment in-process (one [`serve_tcp_peer`] thread
//! per ring position, each journaling to its own storage directory under
//! group commit), drives a small workload through a real socket client,
//! then scrapes every peer with [`ClusterClient::scrape_metrics`] — the
//! [`rdht_net::Request::Metrics`] wire exchange — and prints each peer's
//! Prometheus text exposition. The expositions are validated with the
//! crate's own parser and checked for the roadmap-named instruments
//! (request service-time histograms, WAL fsyncs, drained batch sizes, dedup
//! hits, indirect initializations, hand-off stall time).
//!
//! ```text
//! cargo run --release --example metrics
//! ```
//!
//! Point a Prometheus-format consumer at the printed text, or load the
//! chrome trace the simulator can emit (see `rdht-sim`) for the
//! per-operation timeline view.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::exit;
use std::thread;
use std::time::{Duration, Instant};

use rdht_core::ums;
use rdht_hashing::Key;
use rdht_net::{
    serve_tcp_peer, ClusterClient, ClusterStorage, PeerId, Request, TcpPeerConfig, TcpTransport,
    Transport,
};
use rdht_storage::{FsyncPolicy, StorageOptions};

const NUM_PEERS: usize = 3;
const NUM_REPLICAS: usize = 4;
const SEED: u64 = 7;
const KEYS: usize = 16;

/// Every instrument the scrape must expose — the roadmap's named set.
const REQUIRED: &[&str] = &[
    rdht_net::metrics::names::REQUESTS,
    rdht_net::metrics::names::DRAIN_BATCH,
    rdht_net::metrics::names::SERVICE_NS,
    rdht_net::metrics::names::DEDUP_APPLIED,
    rdht_net::metrics::names::DEDUP_SUPPRESSED,
    rdht_net::metrics::names::HANDOFF_STALL_NS,
    rdht_net::metrics::names::INDIRECT_INITS,
    rdht_storage::metrics::names::WAL_SYNCS,
    rdht_net::metrics::names::HANDOFF_EXPORT_NS,
];

fn wait_until_accepting(addr: &SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addr).is_err() {
        if Instant::now() >= deadline {
            rdht_metrics::log::global().error(
                "example.metrics",
                "peer never started accepting connections",
                &[("addr", &addr.to_string())],
            );
            exit(1);
        }
        thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    // Reserve loopback ports, then free them for the peer threads.
    let listeners: Vec<TcpListener> = (0..NUM_PEERS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve a loopback port"))
        .collect();
    let book: Vec<(PeerId, SocketAddr)> = listeners
        .iter()
        .enumerate()
        .map(|(i, listener)| {
            // Evenly spaced ring positions, so every peer owns a fair share
            // of the key space and its instruments have activity to show.
            (
                PeerId((i as u64 + 1) * (u64::MAX / NUM_PEERS as u64)),
                listener.local_addr().expect("reserved address"),
            )
        })
        .collect();
    drop(listeners);

    let storage_root =
        std::env::temp_dir().join(format!("rdht-metrics-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&storage_root);
    let storage = ClusterStorage::with_options(
        &storage_root,
        StorageOptions::with_fsync(FsyncPolicy::Always),
    );

    println!("starting {NUM_PEERS} TCP peers (journaled, group commit):");
    let mut peer_threads = Vec::new();
    for (id, addr) in &book {
        println!("  peer {:>5} listening on {addr}", id.0);
        let config = TcpPeerConfig {
            id: *id,
            peers: book.clone(),
            num_replicas: NUM_REPLICAS,
            seed: SEED,
            storage: Some(storage.clone()),
            trace_out: None,
        };
        peer_threads.push(thread::spawn(move || serve_tcp_peer(config)));
    }
    for (_, addr) in &book {
        wait_until_accepting(addr);
    }

    // A workload so the instruments have something to show: inserts
    // (timestamps + replica puts), re-reads, and one retried-looking double
    // insert per key to exercise the dedup path indirectly.
    let mut client = ClusterClient::connect_tcp(book.clone(), NUM_REPLICAS, SEED);
    for i in 0..KEYS {
        let key = Key::new(format!("observed:{i}"));
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).expect("insert");
        let got = ums::retrieve(&mut client, &key).expect("retrieve");
        assert!(got.is_current, "freshly inserted key reads current");
    }
    println!(
        "workload done: {KEYS} keys inserted and read back current \
         ({} client messages)\n",
        client.messages()
    );

    // Scrape every peer over the wire and validate the exposition.
    let mut failures = 0usize;
    for (id, addr) in &book {
        let exposition = client
            .scrape_metrics(*id)
            .expect("a live peer answers the metrics scrape");
        let parsed = rdht_metrics::parse::parse(&exposition)
            .expect("the exposition parses as Prometheus text format");
        println!(
            "=== peer {:>5} @ {addr}: {} samples ===",
            id.0,
            parsed.samples.len()
        );
        print!("{exposition}");
        println!();
        for name in REQUIRED {
            if !parsed.has_metric(name) {
                rdht_metrics::log::global().error(
                    "example.metrics",
                    "required instrument missing from scrape",
                    &[("peer", &id.0.to_string()), ("metric", name)],
                );
                failures += 1;
            }
        }
    }

    // Shut the ring down over the wire.
    let transport = TcpTransport::with_peers(book.iter().copied());
    for (id, _) in &book {
        if let Ok(endpoint) = transport.endpoint(*id) {
            let _ = endpoint.send_no_reply(Request::Shutdown);
        }
    }
    for handle in peer_threads {
        if let Err(error) = handle.join().expect("peer thread exits") {
            rdht_metrics::log::global().error(
                "example.metrics",
                "peer failed",
                &[("error", &error.to_string())],
            );
            failures += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&storage_root);

    if failures > 0 {
        rdht_metrics::log::global().error(
            "example.metrics",
            "metrics validation failed",
            &[("problems", &failures.to_string())],
        );
        exit(1);
    }
    println!("all {NUM_PEERS} peers scraped clean: every required instrument present");
}
