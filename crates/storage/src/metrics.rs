//! The engine's registry instruments.
//!
//! [`StorageMetrics`] is the one place an engine's work is counted: the WAL
//! writer counts appends, bytes and syncs into it, and the engine counts and
//! times its compactions and its recovery. Every engine owns one from the
//! start — unregistered handles by default — and
//! [`StorageMetrics::register`] puts those very handles into a registry, so
//! what was counted before registration still shows.

use rdht_metrics::{Counter, Histogram, Registry};

/// Canonical instrument names, also listed in the README's catalog.
pub mod names {
    /// `sync_data` calls issued by the WAL — the fsync count of ROADMAP
    /// item 5.
    pub const WAL_SYNCS: &str = "storage_wal_syncs_total";
    /// Ops journaled to the WAL.
    pub const OPS_APPENDED: &str = "storage_ops_appended_total";
    /// Framed bytes appended to the WAL.
    pub const WAL_BYTES: &str = "storage_wal_bytes_total";
    /// Snapshot compactions performed.
    pub const COMPACTIONS: &str = "storage_compactions_total";
    /// Time spent recovering the directory at open, in nanoseconds.
    pub const RECOVERY_NS: &str = "storage_recovery_duration_ns";
    /// Time one compaction blocked its caller, in nanoseconds — the stall an
    /// insert p99 is laid against.
    pub const COMPACTION_NS: &str = "storage_compaction_duration_ns";
}

/// Instrument handles of one engine ([`crate::StorageEngine::metrics`]).
/// Cloning shares the atomics.
#[derive(Clone, Debug, Default)]
pub struct StorageMetrics {
    /// `sync_data` calls the WAL issued.
    pub wal_syncs: Counter,
    /// Ops journaled to the WAL.
    pub ops_appended: Counter,
    /// Framed bytes appended to the WAL, headers included.
    pub wal_bytes: Counter,
    /// Snapshot compactions performed.
    pub compactions: Counter,
    /// Wall time of the open that recovered the engine, observed once.
    pub recovery_ns: Histogram,
    /// Wall time of each [`crate::StorageEngine::compact`].
    pub compaction_ns: Histogram,
}

impl StorageMetrics {
    /// Registers these handles into `registry` under `labels`: the series
    /// read the atomics the engine counts into.
    pub fn register(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_counter(
            names::WAL_SYNCS,
            "sync_data calls issued by the write-ahead log",
            labels,
            self.wal_syncs.clone(),
        );
        registry.register_counter(
            names::OPS_APPENDED,
            "ops journaled to the write-ahead log",
            labels,
            self.ops_appended.clone(),
        );
        registry.register_counter(
            names::WAL_BYTES,
            "framed bytes appended to the write-ahead log",
            labels,
            self.wal_bytes.clone(),
        );
        registry.register_counter(
            names::COMPACTIONS,
            "snapshot compactions performed",
            labels,
            self.compactions.clone(),
        );
        registry.register_histogram(
            names::RECOVERY_NS,
            "directory recovery wall time at engine open, nanoseconds",
            labels,
            self.recovery_ns.clone(),
        );
        registry.register_histogram(
            names::COMPACTION_NS,
            "wall time one snapshot compaction blocked its caller, nanoseconds",
            labels,
            self.compaction_ns.clone(),
        );
    }
}
