//! The log-structured storage engine: WAL + snapshot generations + recovery.
//!
//! On-disk layout of a peer directory (all numbers are a hex *generation*):
//!
//! ```text
//! peer-dir/
//!   snapshot-0000000000000002.snap   # state image opening generation 2
//!   wal-0000000000000002.log         # ops appended since that snapshot
//!   snapshot-0000000000000003.tmp    # in-progress compaction (ignored)
//! ```
//!
//! Generation `g` means: *state = snapshot-`g` replayed, then wal-`g`
//! replayed on top*. Generation 0 has no snapshot (a fresh peer starts with
//! just `wal-0…0.log`). Compaction writes `snapshot-(g+1)` to a `.tmp` file,
//! fsyncs, renames (the atomic commit point), starts an empty `wal-(g+1)`,
//! and only then deletes generation `g` — so a crash at any point leaves
//! either generation fully recoverable.
//!
//! **When.** A journaled apply compacts once the WAL holds at least as many
//! ops as the state has live records, and never fewer than the
//! [`StorageOptions::snapshot_every`] floor: `ops_in_wal >= max(floor,
//! replicas + counters)`. A log is rewritten when it is as long as the image
//! that replaces it, so snapshots write at most one record per journaled op
//! whatever the state size, and recovery replays at most `max(floor,
//! records)` ops on top of a snapshot of `records`.
//!
//! Recovery ([`StorageEngine::recover`] / [`StorageEngine::open`]) picks the
//! newest generation with a *valid* snapshot (generation 0 if none), replays
//! its WAL tolerating a torn final record, and reports what it found. Both
//! files are streamed: each record is applied as it is read and checked, a
//! snapshot's into a fresh state that is dropped if the file proves invalid.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rdht_core::durability::DurableState;
use rdht_core::{ReplicaValue, Timestamp};
use rdht_hashing::{HashId, Key};
use rdht_overlay::PeerStore;

use crate::metrics::StorageMetrics;
use crate::op::StorageOp;
use crate::snapshot::{load_snapshot, write_snapshot};
use crate::state::{CounterSet, MemoryState};
use crate::wal::{replay, FsyncPolicy, WalWriter};

/// Tunables of a [`StorageEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageOptions {
    /// Whether acknowledged WAL records are fsynced ([`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// The floor of the compaction rule: compact (write a snapshot, start a
    /// fresh WAL) once the current WAL holds `max(snapshot_every, live
    /// records)` ops, live records being the replicas plus the counters of
    /// the state after the apply. A small state compacts every
    /// `snapshot_every` ops; a state larger than the floor compacts when its
    /// log has grown as long as the snapshot that replaces it, which keeps
    /// snapshot writes to at most one record per journaled op. `0` disables
    /// automatic compaction ([`StorageEngine::compact`] can still be called
    /// manually).
    pub snapshot_every: u64,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            fsync: FsyncPolicy::Always,
            snapshot_every: 4096,
        }
    }
}

impl StorageOptions {
    /// Options with the given fsync policy and the default compaction floor.
    pub fn with_fsync(fsync: FsyncPolicy) -> Self {
        StorageOptions {
            fsync,
            ..StorageOptions::default()
        }
    }
}

/// A callback the engine invokes with the wall-clock duration of every
/// [`StorageEngine::sync`] of a journaled engine — how a test sees the
/// covering sync happen, e.g. that no reply left before it. Cheap to clone;
/// invoked synchronously on the syncing thread, so observers must be fast
/// and non-blocking.
#[derive(Clone)]
pub struct SyncObserver(Arc<dyn Fn(Duration) + Send + Sync>);

impl SyncObserver {
    /// Wraps a callback.
    pub fn new(callback: impl Fn(Duration) + Send + Sync + 'static) -> Self {
        SyncObserver(Arc::new(callback))
    }

    /// Invokes the callback with one observed sync duration.
    pub fn observe(&self, elapsed: Duration) {
        (self.0)(elapsed);
    }
}

impl std::fmt::Debug for SyncObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SyncObserver(..)")
    }
}

/// What [`StorageEngine::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Ops replayed from the WAL.
    pub wal_ops: u64,
    /// Whether a torn WAL tail was discarded.
    pub torn_tail: bool,
    /// Whether a snapshot was loaded (vs replaying from empty).
    pub from_snapshot: bool,
}

/// What [`StorageEngine::recover`] found in a peer directory.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The recovered replica table.
    pub replicas: PeerStore,
    /// The recovered counter set (the durable image of the peer's VCS as of
    /// the crash; per the paper's Rule 1 a *rejoining* peer must still
    /// re-initialize its live counters indirectly, because another peer may
    /// have generated newer timestamps while this one was down).
    pub counters: CounterSet,
    /// Generation the state was recovered from.
    pub generation: u64,
    /// Ops replayed from the generation's WAL.
    pub wal_ops: u64,
    /// Whether a torn WAL tail was discarded.
    pub torn_tail: bool,
}

/// A durable peer-state engine.
///
/// Holds the materialized state (replicas + counters) and, when opened on a
/// directory, journals every applied op to a CRC-framed WAL with periodic
/// snapshot compaction. The [`DurableState`] implementation lets `rdht-core`
/// paths (replica writes, KTS counter mutations) journal through it without
/// knowing anything about files.
#[derive(Debug)]
pub struct StorageEngine {
    dir: Option<PathBuf>,
    wal: Option<WalWriter>,
    generation: u64,
    ops_in_wal: u64,
    state: MemoryState,
    options: StorageOptions,
    recovery: Recovery,
    metrics: StorageMetrics,
    sync_observer: Option<SyncObserver>,
    poison: Option<io::Error>,
}

fn generation_file(dir: &Path, prefix: &str, generation: u64, ext: &str) -> PathBuf {
    dir.join(format!("{prefix}-{generation:016x}.{ext}"))
}

/// Parses `prefix-<hex>.<ext>` names back to a generation number.
fn parse_generation(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_prefix('-')?;
    let hex = rest.strip_suffix(ext)?.strip_suffix('.')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Everything found while scanning a peer directory.
struct DirScan {
    snapshots: Vec<u64>,
    wals: Vec<u64>,
    tmp_files: Vec<PathBuf>,
}

fn scan_dir(dir: &Path) -> io::Result<DirScan> {
    let mut scan = DirScan {
        snapshots: Vec::new(),
        wals: Vec::new(),
        tmp_files: Vec::new(),
    };
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            scan.tmp_files.push(entry.path());
        } else if let Some(generation) = parse_generation(name, "snapshot", "snap") {
            scan.snapshots.push(generation);
        } else if let Some(generation) = parse_generation(name, "wal", "log") {
            scan.wals.push(generation);
        }
    }
    scan.snapshots.sort_unstable();
    scan.wals.sort_unstable();
    Ok(scan)
}

/// What [`discover`] rebuilt from a peer directory.
struct Discovered {
    state: MemoryState,
    generation: u64,
    wal_valid_len: u64,
    recovery: Recovery,
}

/// Picks the newest recoverable generation and rebuilds its state.
fn discover(dir: &Path) -> io::Result<Discovered> {
    let scan = scan_dir(dir)?;
    // Try snapshots newest-first; an invalid one (torn compaction) falls
    // back to the previous generation, whose files are only deleted after a
    // newer snapshot is fully durable.
    let mut state = MemoryState::new();
    let mut generation = 0u64;
    let mut from_snapshot = false;
    for &candidate in scan.snapshots.iter().rev() {
        if let Some(loaded) = load_snapshot(&generation_file(dir, "snapshot", candidate, "snap"))? {
            state = loaded;
            generation = candidate;
            from_snapshot = true;
            break;
        }
    }
    if !from_snapshot {
        // No (valid) snapshot: the only recoverable generation is the oldest
        // WAL on disk, which for an uncompacted engine is generation 0.
        generation = scan.wals.first().copied().unwrap_or(0);
    }
    let wal_replay = replay(&generation_file(dir, "wal", generation, "log"), |op| {
        state.apply_owned(op)
    })?;
    let recovery = Recovery {
        wal_ops: wal_replay.applied,
        torn_tail: wal_replay.torn_tail,
        from_snapshot,
    };
    Ok(Discovered {
        state,
        generation,
        wal_valid_len: wal_replay.valid_len,
        recovery,
    })
}

/// Fsyncs a directory so the renames, creates and unlinks inside it are
/// durable — without this, a covering sync's power-loss guarantee would
/// silently stop at each file's *contents*.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        // Directories cannot be opened for syncing on this platform; the
        // metadata flush is left to the OS.
        let _ = dir;
    }
    Ok(())
}

impl StorageEngine {
    /// An engine with no backing directory: state is memory-only and every
    /// journaling hook is a cheap in-memory apply. Used for peers configured
    /// without durability. Its policy is [`FsyncPolicy::Never`]: it has
    /// nothing to sync.
    pub fn ephemeral() -> Self {
        StorageEngine {
            dir: None,
            wal: None,
            generation: 0,
            ops_in_wal: 0,
            state: MemoryState::new(),
            options: StorageOptions::with_fsync(FsyncPolicy::Never),
            recovery: Recovery::default(),
            metrics: StorageMetrics::default(),
            sync_observer: None,
            poison: None,
        }
    }

    /// Opens (creating if needed) the engine over `dir`: recovers the newest
    /// generation, truncates any torn WAL tail, removes leftovers of older
    /// generations and interrupted compactions, and readies the WAL for
    /// appending. The recovery's wall time is the first observation of the
    /// engine's [`StorageMetrics::recovery_ns`].
    pub fn open(dir: impl Into<PathBuf>, options: StorageOptions) -> io::Result<Self> {
        let dir = dir.into();
        let recovery_started = std::time::Instant::now();
        fs::create_dir_all(&dir)?;
        let discovered = discover(&dir)?;
        let generation = discovered.generation;

        // Garbage-collect: interrupted compactions and superseded generations.
        let scan = scan_dir(&dir)?;
        for tmp in scan.tmp_files {
            let _ = fs::remove_file(tmp);
        }
        for other in scan.snapshots.into_iter().filter(|&g| g != generation) {
            let _ = fs::remove_file(generation_file(&dir, "snapshot", other, "snap"));
        }
        for other in scan.wals.into_iter().filter(|&g| g != generation) {
            let _ = fs::remove_file(generation_file(&dir, "wal", other, "log"));
        }

        let metrics = StorageMetrics::default();
        let wal = WalWriter::open_after_replay(
            generation_file(&dir, "wal", generation, "log"),
            discovered.wal_valid_len,
            &metrics,
        )?;
        // Make the WAL's directory entry (and the GC unlinks) durable before
        // acknowledging any append against this generation.
        sync_dir(&dir)?;
        metrics
            .recovery_ns
            .observe_duration(recovery_started.elapsed());
        Ok(StorageEngine {
            dir: Some(dir),
            wal: Some(wal),
            generation,
            ops_in_wal: discovered.recovery.wal_ops,
            state: discovered.state,
            options,
            recovery: discovered.recovery,
            metrics,
            sync_observer: None,
            poison: None,
        })
    }

    /// Read-only recovery: rebuilds the durable state of `dir` without
    /// opening it for writing or garbage-collecting anything.
    pub fn recover_state(dir: &Path) -> io::Result<RecoveredState> {
        let discovered = discover(dir)?;
        Ok(RecoveredState {
            replicas: discovered.state.replicas,
            counters: discovered.state.counters,
            generation: discovered.generation,
            wal_ops: discovered.recovery.wal_ops,
            torn_tail: discovered.recovery.torn_tail,
        })
    }

    /// Read-only recovery returning just the two stores — the
    /// `recover(dir) -> (PeerStore, CounterSet)` entry point.
    pub fn recover(dir: &Path) -> io::Result<(PeerStore, CounterSet)> {
        let recovered = StorageEngine::recover_state(dir)?;
        Ok((recovered.replicas, recovered.counters))
    }

    /// The backing directory, if the engine is durable.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The materialized replica table.
    pub fn replicas(&self) -> &PeerStore {
        &self.state.replicas
    }

    /// The materialized counter set.
    pub fn counters(&self) -> &CounterSet {
        &self.state.counters
    }

    /// What the open that built this engine found on disk (all zero for an
    /// ephemeral engine).
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The instruments this engine and its WAL count into, the only storage
    /// of those counts. Register them ([`StorageMetrics::register`]) to
    /// expose them; ops journaled before that still show.
    pub fn metrics(&self) -> &StorageMetrics {
        &self.metrics
    }

    /// The options this engine was opened with.
    pub fn options(&self) -> StorageOptions {
        self.options
    }

    /// The first I/O error a journaling hook swallowed, if any. A poisoned
    /// engine keeps serving its in-memory state but stops appending;
    /// [`StorageEngine::take_poison`] surfaces the error.
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Takes the latched hook error, clearing the poison flag.
    pub fn take_poison(&mut self) -> Option<io::Error> {
        self.poison.take()
    }

    /// The latched hook error, if any, without clearing it.
    pub fn poison_error(&self) -> Option<&io::Error> {
        self.poison.as_ref()
    }

    /// Applies one op to the in-memory state and journals it. Errors from
    /// the journal leave the in-memory state applied (serving continues) —
    /// the caller decides whether to surface or latch them. The op is
    /// durable once a later [`StorageEngine::sync`] returns.
    pub fn apply(&mut self, op: &StorageOp) -> io::Result<()> {
        self.apply_owned(op.clone())
    }

    /// [`StorageEngine::apply`] for callers that own the op: the journal
    /// encodes from a borrow, then the payload moves straight into the
    /// in-memory store — no clone on the write hot path.
    pub fn apply_owned(&mut self, op: StorageOp) -> io::Result<()> {
        let mut journal = Ok(());
        if let Some(wal) = self.wal.as_mut() {
            journal = wal.append(&op);
            if journal.is_ok() {
                self.ops_in_wal += 1;
            }
        }
        self.state.apply_owned(op);
        journal?;
        self.compact_if_due()
    }

    /// [`StorageEngine::apply_owned`] for each op in turn, stopping at the
    /// first journal error. No peer calls it: it stays only because the
    /// benchmark harness (`crates/bench/src/bin/benchmark`) fills an engine
    /// with it, and goes when the harness stops doing so (ROADMAP item 2).
    pub fn apply_batch(&mut self, ops: Vec<StorageOp>) -> io::Result<()> {
        for op in ops {
            self.apply_owned(op)?;
        }
        Ok(())
    }

    /// The tail of every journaled apply: compacts when the WAL has grown to
    /// `max(snapshot_every, live records)` ops (the rule in the module
    /// header, evaluated against the state as it is now).
    fn compact_if_due(&mut self) -> io::Result<()> {
        let floor = self.options.snapshot_every;
        if self.wal.is_some()
            && floor > 0
            && self.ops_in_wal >= floor.max(self.state.records() as u64)
        {
            self.compact()?;
        }
        Ok(())
    }

    /// Installs the callback [`sync`](StorageEngine::sync) reports its
    /// duration to.
    pub fn set_sync_observer(&mut self, observer: SyncObserver) {
        self.sync_observer = Some(observer);
    }

    /// Forces everything journaled so far to stable storage — the covering
    /// sync of a batch boundary. Free when nothing is pending.
    pub fn sync(&mut self) -> io::Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let started = std::time::Instant::now();
        let result = wal.sync();
        if let Some(observer) = &self.sync_observer {
            observer.observe(started.elapsed());
        }
        result
    }

    /// Writes a snapshot of the current state as generation `g+1`, starts a
    /// fresh WAL for it, and deletes generation `g`.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        let started = std::time::Instant::now();
        let next = self.generation + 1;
        let tmp = generation_file(&dir, "snapshot", next, "tmp");
        let fin = generation_file(&dir, "snapshot", next, "snap");
        write_snapshot(&tmp, &fin, next, &self.state)?;
        let wal = WalWriter::create(generation_file(&dir, "wal", next, "log"), &self.metrics)?;
        // Persist the snapshot rename and the WAL creation *before* deleting
        // the old generation — otherwise a power loss could surface a
        // directory where only the unlinks survived.
        sync_dir(&dir)?;
        // The retiring writer closes here; what it counted is already in
        // the shared handles.
        self.wal = Some(wal);
        // The new generation is durable; the old one can go.
        let _ = fs::remove_file(generation_file(&dir, "wal", self.generation, "log"));
        let _ = fs::remove_file(generation_file(&dir, "snapshot", self.generation, "snap"));
        self.generation = next;
        self.ops_in_wal = 0;
        self.metrics.compactions.inc();
        self.metrics
            .compaction_ns
            .observe_duration(started.elapsed());
        Ok(())
    }

    /// [`StorageEngine::apply_owned`] with the journal failure latched
    /// instead of returned ([`StorageEngine::poison_error`]): the in-memory
    /// state is always applied, and once the journal failed it is skipped.
    /// This is what every [`DurableState`] method ends in; a caller that
    /// already owns the op's payload calls it directly and saves the copy
    /// the by-reference trait methods make.
    pub fn apply_latching(&mut self, op: StorageOp) {
        if self.poison.is_some() {
            // Already poisoned: keep the in-memory state correct, skip the
            // journal (it is in an unknown state).
            self.state.apply_owned(op);
            return;
        }
        if let Err(error) = self.apply_owned(op) {
            self.poison = Some(error);
        }
    }
}

impl DurableState for StorageEngine {
    fn record_replica_put(&mut self, hash: HashId, key: &Key, value: &ReplicaValue, position: u64) {
        self.apply_latching(StorageOp::PutReplica {
            hash,
            key: key.clone(),
            payload: value.data.clone(),
            stamp: value.timestamp,
            position,
        });
    }

    fn record_counter_set(&mut self, key: &Key, value: Timestamp) {
        self.apply_latching(StorageOp::SetCounter {
            key: key.clone(),
            value,
        });
    }

    fn record_counter_remove(&mut self, key: &Key) {
        self.apply_latching(StorageOp::RemoveCounter { key: key.clone() });
    }

    fn record_counters_cleared(&mut self) {
        self.apply_latching(StorageOp::ClearCounters);
    }

    fn record_range_transfer(&mut self, start: u64, end: u64) {
        self.apply_latching(StorageOp::TransferRange { start, end });
    }

    fn sync_to_durable(&mut self) {
        if self.poison.is_none() {
            if let Err(error) = self.sync() {
                self.poison = Some(error);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdht-engine-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put(i: u64) -> StorageOp {
        StorageOp::PutReplica {
            hash: HashId((i % 3) as u32),
            key: Key::new(format!("key-{}", i % 17)),
            payload: vec![i as u8; 24],
            stamp: Timestamp(i + 1),
            position: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    #[test]
    fn sync_observer_sees_every_wal_sync_and_nothing_ephemeral() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let dir = temp_dir("sync-observer");
        let observed = Arc::new(AtomicU64::new(0));
        {
            let mut engine =
                StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
            let count = Arc::clone(&observed);
            engine.set_sync_observer(SyncObserver::new(move |_| {
                // relaxed: single-threaded test; counted, not ordered.
                count.fetch_add(1, Ordering::Relaxed);
            }));
            engine.apply(&put(0)).unwrap();
            engine.sync().unwrap();
            engine.sync().unwrap();
        }
        // relaxed: single-threaded test; counted, not ordered.
        assert_eq!(observed.load(Ordering::Relaxed), 2);

        // An ephemeral engine has no WAL, so its syncs observe nothing.
        let mut ephemeral = StorageEngine::ephemeral();
        let count = Arc::clone(&observed);
        ephemeral.set_sync_observer(SyncObserver::new(move |_| {
            // relaxed: single-threaded test; counted, not ordered.
            count.fetch_add(1, Ordering::Relaxed);
        }));
        ephemeral.sync().unwrap();
        // relaxed: single-threaded test; counted, not ordered.
        assert_eq!(observed.load(Ordering::Relaxed), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_apply_reopen_recovers_identical_state() {
        let dir = temp_dir("reopen");
        let expected = {
            let mut engine =
                StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
            for i in 0..200 {
                engine.apply(&put(i)).unwrap();
            }
            engine
                .apply(&StorageOp::SetCounter {
                    key: Key::new("key-3"),
                    value: Timestamp(55),
                })
                .unwrap();
            engine.sync().unwrap();
            engine.state.clone()
        };
        let engine = StorageEngine::open(&dir, StorageOptions::default()).unwrap();
        assert_eq!(engine.state, expected);
        assert_eq!(engine.recovery().wal_ops, 201);
        assert!(!engine.recovery().torn_tail);

        // Read-only recovery agrees.
        let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
        assert_eq!(replicas, expected.replicas);
        assert_eq!(counters, expected.counters);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_prunes_old_generation() {
        let dir = temp_dir("compact");
        let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
        options.snapshot_every = 64;
        let expected = {
            let mut engine = StorageEngine::open(&dir, options).unwrap();
            for i in 0..300 {
                engine.apply(&put(i)).unwrap();
            }
            assert!(engine.metrics().compactions.get() >= 4);
            engine.sync().unwrap();
            engine.state.clone()
        };
        // Only one generation remains on disk.
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.snapshots.len(), 1);
        assert_eq!(scan.wals.len(), 1);
        assert!(scan.tmp_files.is_empty());

        let engine = StorageEngine::open(&dir, StorageOptions::default()).unwrap();
        assert_eq!(engine.state, expected);
        assert!(engine.recovery().from_snapshot);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_recovers_the_prefix() {
        let dir = temp_dir("torn-tail");
        {
            let mut engine =
                StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
            for i in 0..50 {
                engine.apply(&put(i)).unwrap();
            }
            engine.sync().unwrap();
        }
        // Tear the last record.
        let wal_path = generation_file(&dir, "wal", 0, "log");
        let len = fs::metadata(&wal_path).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let engine = StorageEngine::open(&dir, StorageOptions::default()).unwrap();
        assert_eq!(engine.recovery().wal_ops, 49);
        assert!(engine.recovery().torn_tail);

        // The engine is usable after the truncation: append and re-recover.
        let mut engine = engine;
        engine.apply(&put(1000)).unwrap();
        engine.sync().unwrap();
        let recovered = StorageEngine::recover_state(&dir).unwrap();
        assert_eq!(recovered.wal_ops, 50);
        assert!(!recovered.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_compaction_falls_back_to_previous_generation() {
        let dir = temp_dir("interrupted-compaction");
        let expected = {
            let mut engine =
                StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
            for i in 0..40 {
                engine.apply(&put(i)).unwrap();
            }
            engine.sync().unwrap();
            engine.state.clone()
        };
        // Fake a crash mid-compaction: a *torn* snapshot for generation 1
        // renamed into place, but no wal-1 and generation 0 not yet deleted.
        let tmp = generation_file(&dir, "snapshot", 1, "tmp");
        let fin = generation_file(&dir, "snapshot", 1, "snap");
        write_snapshot(&tmp, &fin, 1, &expected).unwrap();
        let len = fs::metadata(&fin).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&fin).unwrap();
        file.set_len(len / 2).unwrap();
        drop(file);

        let engine = StorageEngine::open(&dir, StorageOptions::default()).unwrap();
        assert_eq!(engine.state, expected, "fell back to generation 0");
        assert_eq!(engine.generation(), 0);
        // The torn snapshot was garbage-collected.
        assert!(!fin.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit through the engine: batches, each journaled op by op and
    /// closed by one covering sync as the peer loop does, recover to the same
    /// state as per-op application, and the sync counter proves the
    /// amortization (one covering `sync_data` per batch, none per append).
    #[test]
    fn group_commit_batches_recover_identically_and_amortize_syncs() {
        let per_op_dir = temp_dir("group-commit-per-op");
        let batched_dir = temp_dir("group-commit-batched");
        let ops: Vec<StorageOp> = (0..96).map(put).collect();

        let expected = {
            let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
            options.snapshot_every = 0;
            let mut engine = StorageEngine::open(&per_op_dir, options).unwrap();
            for op in &ops {
                engine.apply(op).unwrap();
            }
            engine.state.clone()
        };
        {
            let mut options = StorageOptions::with_fsync(FsyncPolicy::Always);
            options.snapshot_every = 0;
            let mut engine = StorageEngine::open(&batched_dir, options).unwrap();
            for (index, batch) in ops.chunks(8).enumerate() {
                for op in batch {
                    engine.apply(op).unwrap();
                }
                assert_eq!(
                    engine.metrics().wal_syncs.get(),
                    index as u64,
                    "an append never syncs by itself"
                );
                engine.sync().unwrap();
            }
            assert_eq!(engine.state, expected);
            assert_eq!(engine.metrics().ops_appended.get(), 96);
            assert_eq!(
                engine.metrics().wal_syncs.get(),
                12,
                "one covering sync per 8-op batch"
            );
        }
        let (replicas, counters) = StorageEngine::recover(&batched_dir).unwrap();
        assert_eq!(replicas, expected.replicas);
        assert_eq!(counters, expected.counters);
        fs::remove_dir_all(&per_op_dir).unwrap();
        fs::remove_dir_all(&batched_dir).unwrap();
    }

    /// Compaction mid-batch keeps every op of the batch durable: the ops
    /// already applied land in the fsynced snapshot, the rest in the fresh
    /// WAL.
    #[test]
    fn group_commit_batch_across_a_compaction_boundary_stays_durable() {
        let dir = temp_dir("group-commit-compaction");
        // `put` cycles through 51 distinct records, more than the floor of
        // 16, so after the first compaction the state size is the trigger:
        // run long enough to cross it twice more.
        let ops: Vec<StorageOp> = (0..160).map(put).collect();
        let mut expected = MemoryState::new();
        for op in &ops {
            expected.apply(op);
        }
        {
            let mut options = StorageOptions::with_fsync(FsyncPolicy::Always);
            options.snapshot_every = 16; // several compactions inside batches
            let mut engine = StorageEngine::open(&dir, options).unwrap();
            for batch in ops.chunks(12) {
                for op in batch {
                    engine.apply(op).unwrap();
                }
                engine.sync().unwrap();
            }
            assert!(engine.metrics().compactions.get() >= 2);
        }
        let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
        assert_eq!(replicas, expected.replicas);
        assert_eq!(counters, expected.counters);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A state of `records` distinct replicas, compacted and reopened under
    /// `floor`: an empty WAL over a snapshot of `records`.
    fn engine_over(tag: &str, records: u64, floor: u64) -> (PathBuf, StorageEngine) {
        let dir = temp_dir(tag);
        let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
        options.snapshot_every = 0;
        let mut engine = StorageEngine::open(&dir, options).unwrap();
        for i in 0..records {
            engine.apply_owned(record(i, 0)).unwrap();
        }
        engine.compact().unwrap();
        drop(engine);
        options.snapshot_every = floor;
        let engine = StorageEngine::open(&dir, options).unwrap();
        assert_eq!(engine.state.records() as u64, records);
        assert_eq!(engine.ops_in_wal, 0);
        (dir, engine)
    }

    /// Version `version` of the `i`-th of arbitrarily many distinct records.
    fn record(i: u64, version: u64) -> StorageOp {
        StorageOp::PutReplica {
            hash: HashId(0),
            key: Key::new(format!("record-{i}")),
            payload: vec![version as u8; 24],
            stamp: Timestamp(version + 1),
            position: i,
        }
    }

    /// The compaction rule, both sides of the floor: with R live records and
    /// floor f, N overwriting ops compact floor(N / max(f, R)) times, so the
    /// records snapshots write never outnumber the ops journaled.
    #[test]
    fn overwrites_compact_once_per_max_of_floor_and_live_records() {
        for (tag, records, floor, ops) in [
            ("cadence-large-state", 300u64, 8u64, 2_000u64),
            ("cadence-small-state", 5, 64, 2_000),
            ("cadence-equal", 50, 50, 499),
        ] {
            let (dir, mut engine) = engine_over(tag, records, floor);
            for n in 0..ops {
                engine.apply_owned(record(n % records, n + 1)).unwrap();
            }
            let compactions = engine.metrics().compactions.get();
            assert_eq!(compactions, ops / floor.max(records), "{tag}");
            assert!(
                compactions * records <= ops,
                "{tag}: snapshot records <= ops"
            );
            assert_eq!(engine.ops_in_wal, ops % floor.max(records), "{tag}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_zero_floor_never_compacts() {
        let (dir, mut engine) = engine_over("cadence-disabled", 10, 0);
        for n in 0..500 {
            engine.apply_owned(record(n % 10, n + 1)).unwrap();
            engine.apply_owned(record(n % 10, n + 2)).unwrap();
        }
        assert_eq!(engine.metrics().compactions.get(), 0);
        assert_eq!(engine.generation(), 1, "the set-up compaction's");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The live-record count is read at each apply, not remembered from the
    /// last compaction: a state that grows (or is drained) between two
    /// compactions moves the threshold with it.
    #[test]
    fn the_threshold_follows_the_state_as_it_grows_and_shrinks() {
        let dir = temp_dir("cadence-growing");
        let mut options = StorageOptions::with_fsync(FsyncPolicy::Never);
        options.snapshot_every = 4;
        let mut engine = StorageEngine::open(&dir, options).unwrap();
        let mut version = 0;
        let mut apply = |engine: &mut StorageEngine, i: u64| {
            version += 1;
            engine.apply_owned(record(i, version)).unwrap();
            engine.metrics().compactions.get()
        };
        // Four new records: log 4 >= max(4, 4).
        assert_eq!((0..4).map(|i| apply(&mut engine, i)).last(), Some(1));
        // Six more: the log (6) trails the state (10).
        assert_eq!((4..10).map(|i| apply(&mut engine, i)).last(), Some(1));
        // Overwrites let the log catch up: 10 >= 10 on the fourth.
        assert_eq!((0..3).map(|i| apply(&mut engine, i)).last(), Some(1));
        assert_eq!(apply(&mut engine, 3), 2);
        // Nine overwrites, then a *new* record: the log reaches 10 as the
        // state reaches 11, so the tenth op does not compact — the eleventh
        // does.
        assert_eq!((0..9).map(|i| apply(&mut engine, i)).last(), Some(2));
        assert_eq!(apply(&mut engine, 10), 2);
        assert_eq!(apply(&mut engine, 0), 3);
        // Draining the state drops the threshold back to the floor.
        engine
            .apply_owned(StorageOp::TransferRange { start: 0, end: 0 })
            .unwrap();
        assert_eq!(engine.state.records(), 0);
        assert_eq!((0..2).map(|i| apply(&mut engine, i)).last(), Some(3));
        assert_eq!(apply(&mut engine, 2), 4, "log 4 >= max(4, 3)");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash with a log longer than the floor over a state larger still —
    /// what the fixed 4 096-op cadence never left behind — recovers every op.
    #[test]
    fn crash_with_a_wal_longer_than_the_floor_recovers_every_op() {
        let dir = temp_dir("long-wal-crash");
        let options = StorageOptions::with_fsync(FsyncPolicy::Never);
        let floor = options.snapshot_every;
        let records = floor + 1_904;
        let overwrites = 3_000;
        let expected = {
            let mut engine = StorageEngine::open(&dir, options).unwrap();
            for i in 0..records {
                engine.apply_owned(record(i, 0)).unwrap();
            }
            for n in 0..overwrites {
                engine.apply_owned(record(n * 7 % records, n + 1)).unwrap();
            }
            assert_eq!(engine.metrics().compactions.get(), 1, "at op `floor` only");
            engine.state.clone()
            // Crash: dropped without sync or compaction.
        };
        let mut engine = StorageEngine::open(&dir, options).unwrap();
        let recovery = engine.recovery();
        assert!(recovery.from_snapshot);
        assert_eq!(recovery.wal_ops, records - floor + overwrites);
        assert!(recovery.wal_ops > floor);
        assert_eq!(engine.state, expected);

        // The recovered log length still counts towards the next compaction.
        for n in 0..records - recovery.wal_ops {
            assert_eq!(engine.generation(), 1);
            engine.apply_owned(record(n, 9)).unwrap();
        }
        assert_eq!(engine.generation(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ephemeral_engine_applies_without_files() {
        let mut engine = StorageEngine::ephemeral();
        engine.apply(&put(1)).unwrap();
        engine.apply(&put(2)).unwrap();
        assert_eq!(engine.replicas().len(), 2);
        assert_eq!(engine.metrics().ops_appended.get(), 0);
        assert!(engine.dir().is_none());
        assert_eq!(
            engine.options().fsync,
            FsyncPolicy::Never,
            "nothing to sync"
        );
        engine.sync().unwrap();
    }

    #[test]
    fn durable_state_hooks_journal_through_the_engine() {
        let dir = temp_dir("hooks");
        {
            let mut engine =
                StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
            let key = Key::new("doc");
            let value = ReplicaValue::new(b"payload".to_vec(), Timestamp(7));
            engine.record_replica_put(HashId(2), &key, &value, 12345);
            engine.record_counter_set(&key, Timestamp(7));
            engine.sync_to_durable();
            assert!(!engine.is_poisoned());
        }
        let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
        let key = Key::new("doc");
        let stored = replicas.get(HashId(2), &key).expect("replica recovered");
        assert_eq!(stored.payload, b"payload");
        assert_eq!(stored.stamp, 7);
        assert_eq!(stored.position, 12345);
        assert_eq!(counters.value(&key), Some(Timestamp(7)));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The engine counts from its first op: instruments registered after
    /// ops were journaled — as `Peer::open` registers them after Rule 1's
    /// counter clear — show those ops too.
    #[test]
    fn metrics_registered_late_show_the_ops_journaled_before() {
        let dir = temp_dir("metrics-late");
        let mut engine =
            StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
        for i in 0..5 {
            engine.apply(&put(i)).unwrap();
        }
        let registry = rdht_metrics::Registry::new();
        engine.metrics().register(&registry, &[("peer", "7")]);
        engine.apply(&put(5)).unwrap();

        let wal_len = fs::metadata(generation_file(&dir, "wal", 0, "log"))
            .unwrap()
            .len();
        let text = rdht_metrics::encode(&registry);
        for series in [
            "storage_ops_appended_total{peer=\"7\"} 6".to_string(),
            format!("storage_wal_bytes_total{{peer=\"7\"}} {wal_len}"),
            "storage_recovery_duration_ns_count{peer=\"7\"} 1".to_string(),
        ] {
            assert!(text.contains(&series), "missing {series}: {text}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Across compactions under group commit the instruments count every
    /// covering sync — those of writers a compaction retired included — and
    /// every op, snapshot and compaction duration.
    #[test]
    fn metrics_count_every_covering_sync_across_compactions() {
        let dir = temp_dir("metrics-compactions");
        let mut options = StorageOptions::with_fsync(FsyncPolicy::Always);
        options.snapshot_every = 32;
        let mut engine = StorageEngine::open(&dir, options).unwrap();
        // `put` cycles through 51 distinct records against a floor of 32:
        // compactions after ops 32, 83 (32 + 51) and 134.
        let ops: Vec<StorageOp> = (0..160).map(put).collect();
        for batch in ops.chunks(8) {
            for op in batch {
                engine.apply(op).unwrap();
            }
            engine.sync().unwrap();
        }
        let metrics = engine.metrics();
        assert_eq!(engine.generation(), 3);
        assert_eq!(
            metrics.wal_syncs.get(),
            19,
            "20 batches; the 4th ended on a compaction, leaving its sync nothing to cover"
        );
        assert_eq!(metrics.ops_appended.get(), 160);
        assert_eq!(metrics.compactions.get(), 3);
        assert_eq!(metrics.compaction_ns.count(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transfer_range_is_journaled_and_replayed() {
        let dir = temp_dir("transfer");
        {
            let mut engine =
                StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Never)).unwrap();
            engine
                .apply(&StorageOp::PutReplica {
                    hash: HashId(0),
                    key: Key::new("stays"),
                    payload: b"a".to_vec(),
                    stamp: Timestamp(1),
                    position: 100,
                })
                .unwrap();
            engine
                .apply(&StorageOp::PutReplica {
                    hash: HashId(0),
                    key: Key::new("moves"),
                    payload: b"b".to_vec(),
                    stamp: Timestamp(2),
                    position: 5000,
                })
                .unwrap();
            engine.record_range_transfer(4000, 6000);
            engine.sync().unwrap();
        }
        let (replicas, _) = StorageEngine::recover(&dir).unwrap();
        assert_eq!(replicas.len(), 1);
        assert!(replicas.get(HashId(0), &Key::new("stays")).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
