//! Distributed tracing across OS processes: a 3-peer TCP deployment where
//! every process records its own chrome-trace file and the orchestrator
//! merges them into **one** trace in which a sampled insert's spans share a
//! trace id across process boundaries.
//!
//! Run with no arguments and the process *orchestrates*: it reserves one
//! loopback address per peer, re-launches itself as three peer processes
//! (one of them artificially slow — it journals and fsyncs before every
//! reply) and one client process running fully-sampled inserts. Each
//! process writes its span file on exit; the orchestrator merges them with
//! [`rdht_net::merge_chrome_trace_files`] and verifies the causal story:
//!
//! * the merged JSON is a loadable chrome-trace object,
//! * it contains client-side (`client.call`), peer-side (`peer.apply`) and
//!   covering-fsync (`peer.fsync`) spans,
//! * at least one sampled trace id appears in the client process's file
//!   **and** a peer process's file — one logical request, two pids.
//!
//! The client process additionally scrapes every peer's slow-request ring
//! ([`rdht_net::ClusterClient::slow_requests`]) and asserts the per-phase
//! breakdown accounts for ≥ 90 % of each slow request's wall time.
//!
//! ```text
//! cargo run --release --example trace                  # writes trace_merged.json
//! cargo run --release --example trace -- out.json      # custom merged path
//! ```

use std::env;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{exit, Command};
use std::thread;
use std::time::{Duration, Instant};

use rdht_core::ums;
use rdht_hashing::Key;
use rdht_net::{
    merge_chrome_trace_files, serve_tcp_peer, ClusterClient, ClusterStorage, PeerId, Request,
    TcpPeerConfig, TcpTransport, TraceConfig, TraceSink, Transport,
};
use rdht_storage::{FsyncPolicy, StorageOptions};

const NUM_PEERS: usize = 3;
const NUM_REPLICAS: usize = 3;
const SEED: u64 = 97;
const INSERTS: usize = 24;

fn main() {
    let args: Vec<String> = env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("peer") => run_peer(&args[2], &args[3], &args[4], args.get(5).is_some()),
        Some("client") => run_client(&args[2], &args[3]),
        merged_out => orchestrate(merged_out.unwrap_or("trace_merged.json")),
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
                "example.trace",
                "peer never started accepting connections",
                &[("addr", &addr.to_string())],
            );
            exit(1);
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Every 16-hex-digit `trace_id` args value found in a rendered trace file
/// (spans of a shared batch fsync join several ids with commas).
fn trace_ids_in(contents: &str) -> Vec<String> {
    let mut ids = Vec::new();
    let mut rest = contents;
    while let Some(at) = rest.find("\"trace_id\":\"") {
        rest = &rest[at + "\"trace_id\":\"".len()..];
        let end = rest.find('"').unwrap_or(0);
        for id in rest[..end].split(',') {
            if id.len() == 16 && !ids.iter().any(|seen| seen == id) {
                ids.push(id.to_string());
            }
        }
        rest = &rest[end..];
    }
    ids
}

/// Parent process: launch three traced peers (one slow) plus the sampled
/// client, then merge the per-process trace files and verify the causal
/// links survive the process boundaries.
fn orchestrate(merged_out: &str) {
    let exe = env::current_exe().expect("own executable path");
    let scratch = env::temp_dir().join(format!("rdht-trace-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch directory");

    let listeners: Vec<TcpListener> = (0..NUM_PEERS)
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

    println!("starting {NUM_PEERS} traced peer processes (first one slow):");
    let mut peers = Vec::new();
    let mut peer_trace_files = Vec::new();
    for (index, (id, addr)) in book.iter().enumerate() {
        let trace_path = scratch.join(format!("peer-{}.json", id.0));
        let slow = index == 0;
        println!(
            "  peer {:>5} on {addr}{}",
            id.0,
            if slow { "  (journaled)" } else { "" }
        );
        let mut command = Command::new(&exe);
        command
            .arg("peer")
            .arg(id.0.to_string())
            .arg(&book_arg)
            .arg(&trace_path);
        if slow {
            command.arg("slow");
        }
        peers.push(command.spawn().expect("spawn peer process"));
        peer_trace_files.push(trace_path);
    }
    for (_, addr) in &book {
        wait_until_accepting(addr);
    }

    println!("starting the sampled client process ({INSERTS} inserts)…");
    let client_trace = scratch.join("client.json");
    let client = Command::new(&exe)
        .arg("client")
        .arg(&book_arg)
        .arg(&client_trace)
        .status()
        .expect("run client process");

    // Shut the ring down over the wire — the peers render their trace
    // files on clean exit.
    let transport = TcpTransport::with_peers(book.iter().copied());
    for (id, _) in &book {
        if let Ok(endpoint) = transport.endpoint(*id) {
            let _ = endpoint.send_no_reply(Request::Shutdown);
        }
    }
    let mut all_ok = client.success();
    for mut peer in peers {
        all_ok &= peer.wait().expect("wait for peer process").success();
    }
    if !all_ok {
        rdht_metrics::log::global().error(
            "example.trace",
            "a peer or the client exited with an error",
            &[],
        );
        exit(1);
    }

    // Merge the per-process files into one loadable trace.
    let mut all_files = peer_trace_files.clone();
    all_files.push(client_trace.clone());
    let merged = merge_chrome_trace_files(&all_files).expect("merge per-process traces");
    assert!(
        merged.starts_with("{\"traceEvents\":[") && merged.trim_end().ends_with("]}"),
        "merged trace is a chrome-trace object"
    );
    for required in ["client.call", "peer.apply", "peer.fsync"] {
        assert!(
            merged.contains(&format!("\"name\":\"{required}\"")),
            "merged trace is missing {required} spans"
        );
    }

    // The causal link: a trace id born in the client process appears in a
    // peer process's spans too — one request, ≥ 2 pids, one trace.
    let client_ids = trace_ids_in(&std::fs::read_to_string(&client_trace).unwrap());
    assert!(
        !client_ids.is_empty(),
        "the client sampled at least one call"
    );
    let mut cross_process = 0usize;
    for path in &peer_trace_files {
        let peer_ids = trace_ids_in(&std::fs::read_to_string(path).unwrap());
        cross_process += client_ids.iter().filter(|id| peer_ids.contains(id)).count();
    }
    assert!(
        cross_process > 0,
        "no sampled trace id crossed a process boundary"
    );

    std::fs::write(merged_out, &merged).expect("write merged trace");
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "merged {} per-process trace files into {merged_out} \
         ({cross_process} trace ids span the client and a peer process)",
        all_files.len()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
}

/// Child process: one traced ring position. The slow variant journals to a
/// WAL under `FsyncPolicy::Always`, one covering fsync before each batch's
/// replies — the artificial straggler whose fsync phase dominates its
/// slow-request breakdowns.
fn run_peer(id: &str, book: &str, trace_out: &str, slow: bool) {
    let id = PeerId(id.parse().expect("peer id is a u64"));
    let storage = slow.then(|| {
        let dir = env::temp_dir().join(format!("rdht-trace-slow-peer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ClusterStorage::with_options(dir, StorageOptions::with_fsync(FsyncPolicy::Always))
    });
    if let Err(error) = serve_tcp_peer(TcpPeerConfig {
        id,
        peers: parse_book(book),
        num_replicas: NUM_REPLICAS,
        seed: SEED,
        storage,
        trace_out: Some(PathBuf::from(trace_out)),
    }) {
        rdht_metrics::log::global().error(
            "example.trace",
            "peer failed",
            &[("peer", &id.0.to_string()), ("error", &error.to_string())],
        );
        exit(1);
    }
}

/// Child process: fully-sampled inserts, then the tail-attribution scrape.
fn run_client(book: &str, trace_out: &str) {
    let book = parse_book(book);
    let mut client = ClusterClient::connect_tcp(book.clone(), NUM_REPLICAS, SEED);
    let sink = TraceSink::new();
    client.attach_trace(sink.clone(), TraceConfig::always());

    for i in 0..INSERTS {
        let key = Key::new(format!("traced:{i}"));
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).expect("sampled insert");
    }

    // Ask every peer where its slow requests spent their time. The phases
    // partition arrival → reply by construction; anything below 90 %
    // attribution means a phase went missing.
    let mut scraped = 0usize;
    for (peer, _) in &book {
        for tree in client.slow_requests(*peer, 8).expect("slowlog scrape") {
            let attributed = tree.attributed_us();
            assert!(
                attributed * 10 >= tree.total_us * 9,
                "peer {} attributed only {attributed}µs of {}µs for {}",
                peer.0,
                tree.total_us,
                tree.name
            );
            scraped += 1;
        }
    }
    assert!(scraped > 0, "sampled inserts must fill the peer slowlogs");

    // The slowest call from the client's own ring, with its phase story.
    if let Some(worst) = client.slow_calls(1).into_iter().next() {
        let phases = worst
            .phases
            .iter()
            .filter(|(_, us)| *us > 0)
            .map(|(name, us)| format!("{name} {us}µs"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "client: slowest sampled call {} took {}µs ({phases})",
            worst.name, worst.total_us
        );
    }
    println!("client: {scraped} slow-request trees scraped, all ≥90% attributed");

    sink.write_to(trace_out).expect("write client trace file");
}
