//! Membership benchmark harness: measures what the elastic ring costs and
//! what the direct algorithm saves, and emits `BENCH_membership.json`
//! alongside the storage artifact.
//!
//! Measured:
//!
//! * **join/leave latency vs keys held** — wall-clock of
//!   `Cluster::join_peer` / `Cluster::leave_peer` on a storage-backed
//!   threaded cluster as the number of stored keys grows (the hand-off
//!   ships more replicas);
//! * **direct vs crash recovery cost, threaded** — indirect counter
//!   initializations a fresh client observes after a graceful leave (zero
//!   by construction) vs after a crash of the same peer;
//! * **direct vs crash recovery cost, simulated** — the same comparison at
//!   population scale in `rdht-sim`, via the uncompensated
//!   `GracefulLeave`/`Crash` churn events.
//!
//! ```text
//! cargo run --release -p rdht-bench --bin membership                # full
//! cargo run --release -p rdht-bench --bin membership -- --quick    # CI mode
//! cargo run --release -p rdht-bench --bin membership -- --out out.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use rdht_core::ums;
use rdht_hashing::Key;
use rdht_metrics::Histogram;
use rdht_net::{Cluster, ClusterConfig, ClusterStorage, PeerId};
use rdht_sim::{Algorithm, SimConfig, Simulation};
use rdht_storage::{FsyncPolicy, StorageOptions};

/// One point of the join/leave latency sweep.
struct MembershipPoint {
    keys_held: usize,
    join_ms: f64,
    leave_ms: f64,
    /// Median / p99 latency of the point's preload inserts, microseconds —
    /// the write-path tail while the ring is stable, the baseline the
    /// join/leave disruption is judged against.
    insert_p50_us: f64,
    insert_p99_us: f64,
    replicas_moved_join: usize,
    replicas_moved_leave: usize,
    counters_moved_leave: usize,
}

/// The threaded direct-vs-crash comparison.
struct RecoveryComparison {
    graceful_indirect_inits: u64,
    crash_indirect_inits: u64,
}

/// The simulated direct-vs-crash comparison.
struct SimComparison {
    graceful_leaves: u64,
    crashes: u64,
    graceful_indirect_inits: u64,
    crash_indirect_inits: u64,
    counters_transferred: u64,
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rdht-bench-membership-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn unused_peer_id(cluster: &Cluster, seed: u64) -> PeerId {
    let mut candidate = seed;
    while cluster.peer_ids().contains(&PeerId(candidate)) {
        candidate = candidate.wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    PeerId(candidate)
}

/// Spawns a storage-backed cluster pre-loaded with `keys_held` keys, then
/// times one join and one graceful leave (of the freshly joined peer, which
/// now holds part of the load).
fn bench_membership_point(keys_held: usize, seed: u64) -> MembershipPoint {
    let root = temp_root(&format!("latency-{keys_held}"));
    let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
    options.snapshot_every = 0; // keep compaction out of the measurement
    let config =
        ClusterConfig::new(8, 10, seed).with_storage(ClusterStorage::with_options(&root, options));
    let mut cluster = Cluster::spawn_with(config);
    let mut client = cluster.client();
    let insert_latency = Histogram::new();
    for i in 0..keys_held {
        let key = Key::new(format!("data-{i}"));
        let start = Instant::now();
        ums::insert(&mut client, &key, vec![7u8; 32]).expect("insert");
        insert_latency.observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    let joiner = unused_peer_id(&cluster, 0x00c0_ffee_0000_0001 ^ seed);
    let start = Instant::now();
    let join = cluster.join_peer(joiner).expect("join");
    let join_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let leave = cluster.leave_peer(joiner).expect("leave");
    let leave_ms = start.elapsed().as_secs_f64() * 1e3;

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    MembershipPoint {
        keys_held,
        join_ms,
        leave_ms,
        insert_p50_us: insert_latency.quantile(0.5).unwrap_or(0.0) / 1_000.0,
        insert_p99_us: insert_latency.quantile(0.99).unwrap_or(0.0) / 1_000.0,
        replicas_moved_join: join.replicas_moved,
        replicas_moved_leave: leave.replicas_moved,
        counters_moved_leave: leave.counters_moved,
    }
}

/// Same cluster shape twice: the timestamp responsible of half the keys
/// leaves gracefully in one universe and crashes in the other; a fresh
/// client then retrieves everything and counts the indirect
/// initializations it had to run.
fn bench_recovery_comparison(keys_held: usize, seed: u64) -> RecoveryComparison {
    let keys: Vec<Key> = (0..keys_held)
        .map(|i| Key::new(format!("data-{i}")))
        .collect();
    let run = |graceful: bool| -> u64 {
        let mut cluster = Cluster::spawn_with(ClusterConfig::new(8, 10, seed));
        let mut client = cluster.client();
        for key in &keys {
            ums::insert(&mut client, key, vec![3u8; 32]).expect("insert");
        }
        let victim = cluster
            .timestamp_responsible(&keys[0])
            .expect("cluster is non-empty");
        if graceful {
            cluster.leave_peer(victim).expect("leave");
        } else {
            cluster.crash_peer(victim).expect("crash");
        }
        let mut fresh = cluster.client();
        for key in &keys {
            let _ = ums::retrieve(&mut fresh, key).expect("retrieve");
        }
        let inits = fresh.indirect_initializations();
        cluster.shutdown();
        inits
    };
    RecoveryComparison {
        graceful_indirect_inits: run(true),
        crash_indirect_inits: run(false),
    }
}

/// The population-scale comparison in simulated time: identical workloads,
/// one churned by graceful leaves, one by crashes, at the same rate.
fn bench_sim_comparison(peers: usize, seed: u64) -> SimComparison {
    let base = |seed: u64| {
        let mut config = SimConfig::small_test(peers, seed);
        config.churn_rate_per_second = 0.0;
        config.update_rate_per_hour = 60.0;
        config.queries = 20;
        config
    };
    let rate = peers as f64 / 200.0;

    let mut graceful = Simulation::new(base(seed).with_graceful_leave_rate(rate));
    let graceful_report = graceful.run();
    let graceful_stats = graceful
        .total_kts_stats(Algorithm::UmsDirect)
        .expect("UMS universe");

    let mut crashed = Simulation::new(base(seed).with_crash_rate(rate));
    let crashed_report = crashed.run();
    let crashed_stats = crashed
        .total_kts_stats(Algorithm::UmsDirect)
        .expect("UMS universe");

    SimComparison {
        graceful_leaves: graceful_report.stats.leaves,
        crashes: crashed_report.stats.failures,
        graceful_indirect_inits: graceful_stats.indirect_initializations,
        crash_indirect_inits: crashed_stats.indirect_initializations,
        counters_transferred: graceful_stats.counters_received_directly,
    }
}

fn to_json(
    mode: &str,
    points: &[MembershipPoint],
    recovery: &RecoveryComparison,
    sim: &SimComparison,
) -> String {
    let meta = rdht_bench::BenchMeta::new("rdht-bench-membership/v2", mode)
        .with_fsync("never")
        .with_transport("channel");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&meta.header_json());
    out.push_str("  \"join_leave_latency\": [\n");
    for (i, point) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"keys_held\": {}, \"join_ms\": {:.3}, \"leave_ms\": {:.3}, \
             \"insert_p50_us\": {:.2}, \"insert_p99_us\": {:.2}, \
             \"replicas_moved_join\": {}, \"replicas_moved_leave\": {}, \
             \"counters_moved_leave\": {}}}{comma}\n",
            point.keys_held,
            point.join_ms,
            point.leave_ms,
            point.insert_p50_us,
            point.insert_p99_us,
            point.replicas_moved_join,
            point.replicas_moved_leave,
            point.counters_moved_leave
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cluster_recovery\": {{\"graceful_indirect_inits\": {}, \
         \"crash_indirect_inits\": {}}},\n",
        recovery.graceful_indirect_inits, recovery.crash_indirect_inits
    ));
    out.push_str(&format!(
        "  \"sim_recovery\": {{\"graceful_leaves\": {}, \"crashes\": {}, \
         \"graceful_indirect_inits\": {}, \"crash_indirect_inits\": {}, \
         \"counters_transferred_directly\": {}}}\n",
        sim.graceful_leaves,
        sim.crashes,
        sim.graceful_indirect_inits,
        sim.crash_indirect_inits,
        sim.counters_transferred
    ));
    out.push_str("}\n");
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
        .unwrap_or_else(|| "BENCH_membership.json".to_string());

    let key_sweep: &[usize] = if quick { &[50, 200] } else { &[100, 500, 2000] };
    let points: Vec<MembershipPoint> = key_sweep
        .iter()
        .map(|&keys| bench_membership_point(keys, 0x51a7 + keys as u64))
        .collect();
    let recovery = bench_recovery_comparison(if quick { 32 } else { 64 }, 0xbeef);
    let sim = bench_sim_comparison(if quick { 24 } else { 48 }, 0xfeed);

    for point in &points {
        println!(
            "join  {:>6} keys: {:>10.3} ms  ({} replicas moved)",
            point.keys_held, point.join_ms, point.replicas_moved_join
        );
        println!(
            "leave {:>6} keys: {:>10.3} ms  ({} replicas, {} counters moved)",
            point.keys_held, point.leave_ms, point.replicas_moved_leave, point.counters_moved_leave
        );
        println!(
            "      {:>6} keys: insert p50 {:.2} µs, p99 {:.2} µs (stable ring)",
            point.keys_held, point.insert_p50_us, point.insert_p99_us
        );
    }
    println!(
        "cluster recovery: graceful {} vs crash {} indirect inits",
        recovery.graceful_indirect_inits, recovery.crash_indirect_inits
    );
    println!(
        "sim recovery:     graceful {} vs crash {} indirect inits ({} counters direct)",
        sim.graceful_indirect_inits, sim.crash_indirect_inits, sim.counters_transferred
    );

    let mode = if quick { "quick" } else { "full" };
    let json = to_json(mode, &points, &recovery, &sim);
    if let Err(error) = std::fs::write(&out_path, &json) {
        rdht_metrics::log::global().error(
            "bench.membership",
            "cannot write output file",
            &[("path", &out_path), ("error", &error.to_string())],
        );
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
