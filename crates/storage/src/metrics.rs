//! The engine's registry instruments.
//!
//! [`StorageMetrics`] is a bundle of `rdht-metrics` handles the engine
//! publishes into after every journaled operation. The *storage locations*
//! are the engine's own monotonic counters (and the live WAL writer's): the
//! instruments mirror those totals via `Counter::record_absolute`, so
//! [`crate::StorageStats`] and the registry exposition always agree — one
//! count, one canonical name.

use rdht_metrics::{exponential_buckets, Counter, Histogram, Registry};

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
    /// Ops per journaled batch — the group-commit batch depth.
    pub const BATCH_OPS: &str = "storage_batch_ops";
    /// Time spent recovering the directory at open, in nanoseconds.
    pub const RECOVERY_NS: &str = "storage_recovery_duration_ns";
    /// Time one compaction blocked its caller, in nanoseconds — the stall an
    /// insert p99 is laid against.
    pub const COMPACTION_NS: &str = "storage_compaction_duration_ns";
}

/// Instrument handles for one engine. Create with
/// [`StorageMetrics::register`]; attach with
/// [`crate::StorageEngine::attach_metrics`].
#[derive(Clone, Debug)]
pub struct StorageMetrics {
    /// Mirrors [`crate::StorageStats::wal_syncs`].
    pub wal_syncs: Counter,
    /// Mirrors [`crate::StorageStats::ops_appended`].
    pub ops_appended: Counter,
    /// Mirrors [`crate::StorageStats::wal_bytes_appended`].
    pub wal_bytes: Counter,
    /// Mirrors [`crate::StorageStats::snapshots_written`].
    pub compactions: Counter,
    /// Distribution of [`crate::StorageEngine::apply_batch`] sizes.
    pub batch_ops: Histogram,
    /// Recovery wall time observed once at attach.
    pub recovery_ns: Histogram,
    /// Wall time of each [`crate::StorageEngine::compact`].
    pub compaction_ns: Histogram,
}

impl StorageMetrics {
    /// Registers (get-or-create) the engine instruments into `registry`
    /// under `labels`.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        StorageMetrics {
            wal_syncs: registry.counter(
                names::WAL_SYNCS,
                "sync_data calls issued by the write-ahead log",
                labels,
            ),
            ops_appended: registry.counter(
                names::OPS_APPENDED,
                "ops journaled to the write-ahead log",
                labels,
            ),
            wal_bytes: registry.counter(
                names::WAL_BYTES,
                "framed bytes appended to the write-ahead log",
                labels,
            ),
            compactions: registry.counter(
                names::COMPACTIONS,
                "snapshot compactions performed",
                labels,
            ),
            batch_ops: registry.histogram_with_buckets(
                names::BATCH_OPS,
                "ops per journaled group-commit batch",
                labels,
                exponential_buckets(1, 2, 11),
            ),
            recovery_ns: registry.histogram(
                names::RECOVERY_NS,
                "directory recovery wall time at engine open, nanoseconds",
                labels,
            ),
            compaction_ns: registry.histogram(
                names::COMPACTION_NS,
                "wall time one snapshot compaction blocked its caller, nanoseconds",
                labels,
            ),
        }
    }
}
