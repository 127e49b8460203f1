//! The five workloads: what is deployed, what traffic it gets, and why it
//! exists. Each stresses a different set of layers, so a change to one layer
//! has a workload that exercises it and one that bypasses it.

use std::path::Path;
use std::time::Duration;

use rdht_net::{
    ClusterConfig, ClusterStorage, FaultPlan, LinkFaults, RetryPolicy, TraceSink, TransportKind,
};
use rdht_storage::{FsyncPolicy, StorageOptions};

use crate::keys::KeyDist;

/// `|Hr|`: replicas per key, on every workload.
pub const NUM_REPLICAS: usize = 5;

/// The deployment seed. It fixes peer identifiers and the hash family, and
/// is deliberately *not* derived from `--seed`: replica placement decides
/// how many peers an insert's fan-out reaches, so a per-run placement would
/// move `msgs_per_op` by several percent between seeds and read as noise.
/// `--seed` chooses the keys, the payloads and the order of operations.
pub const CLUSTER_SEED: u64 = 0x5d47_2007;

/// One-way delay of every link of `wan_delay`.
pub const WAN_ONE_WAY: Duration = Duration::from_millis(1);

/// Completed client operations per membership event of `churn_failover`.
pub const CHURN_OPS_PER_EVENT: u64 = 2_000;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub peers: usize,
    pub transport: TransportKind,
    pub journaled: bool,
    pub wan: bool,
    pub churn: bool,
    pub keys: usize,
    pub dist: KeyDist,
    pub payload_len: usize,
    pub retrieve_frac: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "read_hot",
        why: "the paper's common case: the first probe is current; client, channel transport, \
              peer loop and PeerStore do all the work",
        peers: 8,
        transport: TransportKind::Channel,
        journaled: false,
        wan: false,
        churn: false,
        keys: 10_000,
        dist: KeyDist::Zipf(0.99),
        payload_len: 64,
        retrieve_frac: 0.95,
    },
    Workload {
        name: "write_journaled",
        why: "journaled inserts with default compaction and no flush: storage (WAL framing, \
              checksums, writes, snapshots) does most of the work",
        peers: 4,
        transport: TransportKind::Channel,
        journaled: true,
        wan: false,
        churn: false,
        keys: 5_000,
        dist: KeyDist::Uniform,
        payload_len: 256,
        retrieve_frac: 0.10,
    },
    Workload {
        name: "mixed_tcp",
        why: "the read_hot protocol path over TCP loopback with 1 KiB values: wire codec and \
              sockets do most of the work",
        peers: 4,
        transport: TransportKind::Tcp,
        journaled: false,
        wan: false,
        churn: false,
        keys: 10_000,
        dist: KeyDist::Zipf(0.99),
        payload_len: 1_024,
        retrieve_frac: 0.50,
    },
    Workload {
        name: "churn_failover",
        why: "join, leave, crash and restart every 2000 ops on a journaled cluster: hand-off, \
              forwarding, recovery, stale replicas and indirect KTS initialisation",
        peers: 6,
        transport: TransportKind::Channel,
        journaled: true,
        wan: false,
        churn: true,
        keys: 5_000,
        dist: KeyDist::Zipf(0.99),
        payload_len: 64,
        retrieve_frac: 0.80,
    },
    Workload {
        name: "wan_delay",
        why: "1 ms one-way delay on every link: latency is sequential hops, CPU is idle; the \
              only workload where removing or overlapping a round trip shows",
        peers: 6,
        transport: TransportKind::Channel,
        journaled: false,
        wan: true,
        churn: false,
        keys: 200,
        dist: KeyDist::Zipf(0.99),
        payload_len: 64,
        retrieve_frac: 0.80,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

impl Workload {
    /// The deployment of this workload. `storage_root` holds the journals
    /// of a journaled workload; `trace` switches the peers' span recording
    /// on for the traced pass.
    pub fn cluster_config(&self, storage_root: &Path, trace: Option<TraceSink>) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.peers, NUM_REPLICAS, CLUSTER_SEED)
            .with_transport(self.transport);
        if let Some(options) = self.storage_options() {
            config = config.with_storage(ClusterStorage::with_options(storage_root, options));
        }
        if self.wan {
            let plan = FaultPlan::new(CLUSTER_SEED)
                .with_all_links(LinkFaults::delayed(WAN_ONE_WAY, Duration::ZERO));
            config = config.with_faults(plan);
        }
        if let Some(sink) = trace {
            config = config.with_trace(sink);
        }
        config
    }

    /// How a journaled workload's peers journal; `None` without storage.
    ///
    /// The journal is written — framing, checksums, `write`, snapshot
    /// compaction at the default cadence, recovery on restart — but never
    /// flushed. A benchmark may only write inside its checkout, and a flush
    /// to the checkout's shared virtual disk costs 150-250 us with a third of
    /// run-to-run drift: under group commit `write_durable` measured that
    /// disk (README.md). The flush itself is timed once per traced pass, as
    /// `storage.sync_us`.
    pub fn storage_options(&self) -> Option<StorageOptions> {
        self.journaled
            .then(|| StorageOptions::with_fsync(FsyncPolicy::Never))
    }

    /// The fewest distinct founding peers that may hold a key's replicas;
    /// names placed on fewer are passed over when the keys are chosen.
    ///
    /// Crashes take one peer down at a time, so at most one holder missed a
    /// key's last insert; when another holder or the counter's peer crashes
    /// next, a third still has the current replica for the probes and for the
    /// indirect initialisation. With fewer, operations on the key fail while
    /// a peer is down (README.md), and a workload must fail none.
    pub fn min_holders(&self) -> usize {
        if self.churn {
            3
        } else {
            0
        }
    }

    /// Clients ride out membership events with quick re-sends; everywhere
    /// else the default policy is never exercised.
    pub fn retry_policy(&self) -> RetryPolicy {
        if self.churn {
            RetryPolicy::aggressive()
        } else {
            RetryPolicy::default()
        }
    }
}
