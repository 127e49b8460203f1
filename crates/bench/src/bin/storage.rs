//! Storage benchmark harness: quantifies the durability tax and the
//! group-commit amortization of `rdht-storage`, and emits a machine-readable
//! `BENCH_storage.json`.
//!
//! Measured:
//!
//! * `ums_insert` against an in-memory DHT vs the same DHT journaling to a
//!   write-ahead log that is never synced (`ums_insert_wal_fsync_never`);
//! * `ums_insert` under [`FsyncPolicy::Always`] (group commit), swept over
//!   the number of concurrent writers: `w` logical writers each have one
//!   insert pending per commit round, the round's ops are journaled and made
//!   durable by a *single* covering fsync before any of the round's inserts
//!   is acknowledged (`ums_insert_always_w{w}`);
//! * the same sweep end to end through the threaded deployment
//!   (`cluster_insert_always_w{w}`, `cluster_insert_tcp_always_w{w}`): real
//!   writer threads and real mailboxes against a single storage-backed peer
//!   running the drain-apply-sync-reply request loop;
//! * the write path's own pieces: per record, the snapshot writer alone
//!   (`snapshot_write_{1k,10k,100k}_records`) and a whole compaction —
//!   snapshot, fresh WAL, directory sync, unlink —
//!   (`compact_{1k,10k,100k}_records`) over states of 256 B payloads.
//!
//! Recovery time is `storage.recover_ms` of `/BENCHMARK.json`, not a row
//! here.
//!
//! ```text
//! cargo run --release -p rdht-bench --bin storage                 # full
//! cargo run --release -p rdht-bench --bin storage -- --quick      # CI mode
//! cargo run --release -p rdht-bench --bin storage -- --out out.json
//! ```

#![warn(clippy::too_many_lines)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rdht_bench::BenchMeta;
use rdht_core::{ums, InMemoryDht, Timestamp};
use rdht_hashing::{HashId, Key};
use rdht_metrics::Histogram;
use rdht_net::{
    Cluster, ClusterConfig, ClusterStorage, FaultPlan, RetryPolicy, TraceConfig, TraceSink,
    TransportKind,
};
use rdht_storage::{
    write_snapshot, FsyncPolicy, MemoryState, StorageEngine, StorageOp, StorageOptions,
};

/// One measured benchmark: mean wall-clock nanoseconds per operation, plus
/// per-op p50/p99 estimated from the per-call (or, for the cluster rows,
/// per-insert) latency distribution.
struct BenchLine {
    name: String,
    iters: u64,
    ns_per_op: f64,
    p50_ns: f64,
    p99_ns: f64,
}

/// `n` distinct workload keys, named like the simulator's data items.
fn bench_keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::new(format!("data-{i}"))).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdht-bench-storage-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Times `calls` invocations of `routine` (performing `batch` ops each)
/// after one untimed warm-up call.
fn measure(
    name: impl Into<String>,
    calls: u64,
    batch: u64,
    mut routine: impl FnMut(),
) -> BenchLine {
    routine();
    let latency = Histogram::new();
    let start = Instant::now();
    for _ in 0..calls {
        let call_start = Instant::now();
        routine();
        latency.observe(u64::try_from(call_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let elapsed = start.elapsed();
    let ops = calls * batch;
    let per_op = |q: f64| latency.quantile(q).unwrap_or(0.0) / batch as f64;
    BenchLine {
        name: name.into(),
        iters: ops,
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        p50_ns: per_op(0.5),
        p99_ns: per_op(0.99),
    }
}

/// `ums::insert` throughput against an in-memory DHT (`policy` `None`) or
/// one journaling under `policy`. Under `Always`, `writers` logical writers
/// each have one insert pending per commit round: the round's ops are
/// journaled, then a single covering fsync makes the whole round durable
/// before any insert in it is acknowledged — the leader/follower write-group
/// model at the engine level. Under `Never` nothing is synced.
fn bench_ums_insert(
    label: &str,
    policy: Option<FsyncPolicy>,
    writers: usize,
    calls: u64,
) -> BenchLine {
    let keys = bench_keys(64);
    let name = format!("ums_insert_{label}");
    let Some(policy) = policy else {
        let mut dht = InMemoryDht::new(10, 7);
        return measure(name, calls, keys.len() as u64, || {
            for key in &keys {
                ums::insert(&mut dht, key, vec![1u8; 32]).expect("insert");
            }
        });
    };
    let dir = temp_dir(label);
    let mut options = StorageOptions::with_fsync(policy);
    // Keep compaction out of this measurement; it is timed separately.
    options.snapshot_every = 0;
    let engine = StorageEngine::open(&dir, options).expect("open engine");
    let mut dht = InMemoryDht::with_durability(10, 7, engine);
    let line = measure(name, calls, keys.len() as u64, || {
        for round in keys.chunks(writers) {
            for key in round {
                ums::insert(&mut dht, key, vec![1u8; 32]).expect("insert");
            }
            // The batch boundary: one fsync covers every op of the round;
            // only now are the round's inserts acknowledged.
            if policy.batching().is_some() {
                dht.durability_mut().sync().expect("covering sync");
            }
        }
    });
    let engine = dht.durability_mut();
    assert!(
        !engine.is_poisoned(),
        "journal must stay healthy during the bench"
    );
    let metrics = engine.metrics();
    assert!(
        metrics.wal_syncs.get() <= metrics.ops_appended.get() / writers as u64 + 1,
        "group commit must amortize syncs over the round"
    );
    drop(dht);
    let _ = std::fs::remove_dir_all(&dir);
    line
}

/// End-to-end `ums::insert` through the threaded cluster: `writers` real
/// writer threads with their own clients against a storage-backed peer.
/// The deployment is deliberately a single-peer ring — it concentrates all
/// write concurrency at one WAL, which is exactly the unit the
/// drain-apply-sync-reply request loop batches over; more peers would just
/// dilute the per-peer queue depth without changing what is measured. Under
/// `FsyncPolicy::Always` the peer drains every queued request, applies and
/// journals them, issues **one** covering fsync and then sends all the
/// replies. (Note these numbers also carry the full message-passing cost —
/// thread wake-ups bound them long before the fsync amortization runs out,
/// especially on few-core CI boxes.)
fn bench_cluster_insert(
    label: &str,
    writers: usize,
    inserts_per_writer: usize,
    transport: TransportKind,
) -> BenchLine {
    let dir = temp_dir(&format!("cluster-{label}-w{writers}"));
    let mut options = StorageOptions::with_fsync(FsyncPolicy::Always);
    options.snapshot_every = 0;
    let config = ClusterConfig::new(1, 8, 0xc0ffee)
        .with_storage(ClusterStorage::with_options(&dir, options))
        .with_transport(transport);
    let cluster = Arc::new(Cluster::spawn_with(config));
    {
        // Warm-up outside the clock (thread spin-up, first-touch paths).
        let mut client = cluster.client();
        ums::insert(&mut client, &Key::new("warm-up"), vec![0u8; 32]).expect("warm-up");
    }
    let ops = (writers * inserts_per_writer) as u64;
    // Per-insert latencies land in one shared histogram (a handle over
    // atomics — cloning shares the buckets), so the row's p50/p99 are true
    // per-op tails across every writer, not per-thread means.
    let latency = Histogram::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let cluster = Arc::clone(&cluster);
            let latency = latency.clone();
            scope.spawn(move || {
                let mut client = cluster.client();
                for i in 0..inserts_per_writer {
                    let key = Key::new(format!("w{w}-k{i}"));
                    let insert_start = Instant::now();
                    ums::insert(&mut client, &key, vec![1u8; 32]).expect("insert");
                    latency.observe(
                        u64::try_from(insert_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
            });
        }
    });
    let elapsed = start.elapsed();
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    BenchLine {
        name: format!("cluster_insert_{label}_w{writers}"),
        iters: ops,
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        p50_ns: latency.quantile(0.5).unwrap_or(0.0),
        p99_ns: latency.quantile(0.99).unwrap_or(0.0),
    }
}

/// End-to-end `ums::insert` on a *lossy* network: a seeded
/// [`FaultPlan`] drops `percent`% of frames on every directed link (requests
/// and replies alike) and the aggressive retry policy wins them back. No
/// storage is attached — the row isolates the **retry tax**: the p0 row is
/// the same deployment with no faults, so the delta is what timeouts,
/// backoff and re-sends cost per operation at that loss rate.
fn bench_cluster_insert_lossy(
    percent: u32,
    writers: usize,
    inserts_per_writer: usize,
) -> BenchLine {
    let mut config = ClusterConfig::new(4, 4, 0xfa17).with_transport(TransportKind::Channel);
    if percent > 0 {
        let p = f64::from(percent) / 100.0;
        config = config.with_faults(FaultPlan::lossy(0xbeef + u64::from(percent), p));
    }
    let cluster = Arc::new(Cluster::spawn_with(config));
    {
        let mut client = cluster
            .client()
            .with_retry_policy(RetryPolicy::aggressive());
        ums::insert(&mut client, &Key::new("warm-up"), vec![0u8; 32]).expect("warm-up");
    }
    let ops = (writers * inserts_per_writer) as u64;
    let latency = Histogram::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let cluster = Arc::clone(&cluster);
            let latency = latency.clone();
            scope.spawn(move || {
                let mut client = cluster
                    .client()
                    .with_retry_policy(RetryPolicy::aggressive());
                for i in 0..inserts_per_writer {
                    let key = Key::new(format!("lossy-w{w}-k{i}"));
                    let insert_start = Instant::now();
                    ums::insert(&mut client, &key, vec![1u8; 32]).expect("insert");
                    latency.observe(
                        u64::try_from(insert_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
            });
        }
    });
    let elapsed = start.elapsed();
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
    BenchLine {
        name: format!("cluster_insert_lossy_p{percent}"),
        iters: ops,
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        p50_ns: latency.quantile(0.5).unwrap_or(0.0),
        p99_ns: latency.quantile(0.99).unwrap_or(0.0),
    }
}

/// A traced rerun of the cluster-insert deployment: every insert is
/// sampled, the peer's slow-request ring attributes each request's wall
/// time to its phases (queue-wait, apply, batch-wait, fsync, reply), and
/// the report says where the tail actually goes — e.g.
/// `p99 = 3.1 ms: 78% queue_wait, 14% fsync`. Run outside the timed sweep:
/// sampling at rate 1.0 is exactly the overhead the sweep must not carry.
fn slowlog_report(writers: usize, inserts_per_writer: usize) -> Option<String> {
    let dir = temp_dir(&format!("slowlog-w{writers}"));
    let mut options = StorageOptions::with_fsync(FsyncPolicy::Always);
    options.snapshot_every = 0;
    let config = ClusterConfig::new(1, 8, 0x510e)
        .with_storage(ClusterStorage::with_options(&dir, options))
        .with_transport(TransportKind::Channel);
    let cluster = Arc::new(Cluster::spawn_with(config));
    std::thread::scope(|scope| {
        for w in 0..writers {
            let cluster = Arc::clone(&cluster);
            scope.spawn(move || {
                let mut client = cluster.client();
                client.attach_trace(TraceSink::new(), TraceConfig::always());
                for i in 0..inserts_per_writer {
                    let key = Key::new(format!("slow-w{w}-k{i}"));
                    ums::insert(&mut client, &key, vec![1u8; 32]).expect("insert");
                }
            });
        }
    });
    let peer = cluster.peer_ids()[0];
    let mut scraper = cluster.client();
    let mut trees = scraper.slow_requests(peer, 128).expect("slowlog scrape");
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    trees.sort_by_key(|tree| std::cmp::Reverse(tree.total_us));
    // The ~p99 entry: 1% of the recorded population sits above it.
    let tree = trees.get(trees.len() / 100)?;
    let total = tree.total_us.max(1);
    let mut phases: Vec<(&str, u64)> = tree
        .phases
        .iter()
        .map(|(name, us)| (name.as_str(), us * 100 / total))
        .collect();
    phases.sort_by_key(|&(_, pct)| std::cmp::Reverse(pct));
    let breakdown = phases
        .iter()
        .filter(|&&(_, pct)| pct > 0)
        .map(|(name, pct)| format!("{pct}% {name}"))
        .collect::<Vec<_>>()
        .join(", ");
    Some(format!(
        "slowlog cluster_insert_always_w{writers} ({}): p99 = {:.1} ms: {breakdown}",
        tree.name,
        tree.total_us as f64 / 1_000.0,
    ))
}

fn record_put(i: u64) -> StorageOp {
    StorageOp::PutReplica {
        hash: HashId((i % 5) as u32),
        key: Key::new(format!("record-{i}")),
        payload: vec![i as u8; 256],
        stamp: Timestamp(i + 1),
        position: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

/// Snapshot writing and whole compactions, per record, over a state of
/// `records` replicas with 256 B payloads (`FsyncPolicy::Never`, automatic
/// compaction off; the snapshot's own `sync_all` is part of both — it is
/// issued under every policy — so these rows carry this disk).
fn bench_snapshot_and_compact(records: u64, label: &str, repeats: u64) -> Vec<BenchLine> {
    let dir = temp_dir(&format!("compact-{label}"));
    let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
    options.snapshot_every = 0;
    let mut engine = StorageEngine::open(&dir, options).expect("open engine");
    let mut state = MemoryState::new();
    for i in 0..records {
        state.apply(&record_put(i));
        engine.apply_owned(record_put(i)).expect("apply");
    }
    let (tmp, fin) = (dir.join("bench.tmp"), dir.join("bench.snap"));
    let snapshot = measure(
        format!("snapshot_write_{label}_records"),
        repeats,
        records,
        || write_snapshot(&tmp, &fin, 1, &state).expect("write snapshot"),
    );
    let _ = std::fs::remove_file(&fin);
    let compact = measure(format!("compact_{label}_records"), repeats, records, || {
        engine.compact().expect("compact")
    });
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    vec![snapshot, compact]
}

fn to_json(mode: &str, lines: &[BenchLine]) -> String {
    let meta = BenchMeta::new("rdht-bench-storage/v2", mode)
        .with_fsync("swept per row (never/always)")
        .with_transport("swept per row (in-process/channel/tcp)");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&meta.header_json());
    out.push_str("  \"benches\": [\n");
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"ns_per_op\": {:.2}, \
             \"p50_ns\": {:.2}, \"p99_ns\": {:.2}}}{comma}\n",
            line.name, line.iters, line.ns_per_op, line.p50_ns, line.p99_ns
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_storage.json".to_string());

    let insert_calls = if quick { 3 } else { 20 };
    let always_calls = if quick { 2 } else { 8 };
    let mut lines = vec![
        bench_ums_insert("inmem", None, 1, insert_calls),
        bench_ums_insert("wal_fsync_never", Some(FsyncPolicy::Never), 1, insert_calls),
    ];
    // The group-commit sweep: concurrent-writer counts per commit round.
    for writers in [1usize, 8, 16, 64] {
        lines.push(bench_ums_insert(
            &format!("always_w{writers}"),
            Some(FsyncPolicy::Always),
            writers,
            always_calls,
        ));
    }
    // End to end through the threaded cluster, at 1 and 8+ concurrent
    // writer threads. Clients here are closed-loop (each writer has one
    // request in flight), so every op that can join a batch is already
    // queued when the leader drains. Batch size is bounded by the per-peer
    // write concurrency, which is what the writer sweep varies.
    let cluster_inserts = if quick { 4 } else { 16 };
    for writers in [1usize, 8, 16, 32, 64] {
        lines.push(bench_cluster_insert(
            "always",
            writers,
            cluster_inserts,
            TransportKind::Channel,
        ));
    }
    // The same end-to-end path over the TCP transport: every insert's
    // messages cross the wire codec and loopback sockets, so the rows
    // quantify the framing + socket tax relative to the channel rows.
    for writers in [1usize, 8, 16] {
        lines.push(bench_cluster_insert(
            "tcp_always",
            writers,
            cluster_inserts,
            TransportKind::Tcp,
        ));
    }
    // The retry tax: the same 8-writer insert workload with 0%, 1% and 5%
    // of frames dropped on every link (p0 is the faultless baseline).
    for percent in [0u32, 1, 5] {
        lines.push(bench_cluster_insert_lossy(percent, 8, cluster_inserts));
    }
    let compact_repeats = if quick { 2 } else { 5 };
    for (records, label) in [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")] {
        lines.extend(bench_snapshot_and_compact(records, label, compact_repeats));
    }

    // Where does the insert tail go? A traced rerun of the 8-writer
    // deployment, reported from the peer's slow-request ring.
    let slowlog = slowlog_report(8, cluster_inserts * 4);

    let mode = if quick { "quick" } else { "full" };
    for line in &lines {
        println!(
            "{:<32} {:>14.2} ns/op  p50 {:>12.2}  p99 {:>12.2}  ({} ops)",
            line.name, line.ns_per_op, line.p50_ns, line.p99_ns, line.iters
        );
    }
    if let Some(report) = &slowlog {
        println!("{report}");
    }
    let json = to_json(mode, &lines);
    if let Err(error) = std::fs::write(&out_path, &json) {
        rdht_metrics::log::global().error(
            "bench.storage",
            "cannot write output file",
            &[("path", &out_path), ("error", &error.to_string())],
        );
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
