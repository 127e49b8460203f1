//! **rdht-storage** — a durable peer-state engine for the replicated-DHT
//! currency stack: an append-only, CRC-framed write-ahead log of storage
//! operations, periodic compaction into snapshot files, and a recovery path
//! that rebuilds a peer's replicas and KTS counters after a crash.
//!
//! # Why
//!
//! The paper's central failure story (Section 4.2.2) is that after the
//! responsible of timestamping fails, the *new* responsible rebuilds the
//! key's counter **indirectly** from the surviving replicas. Every other
//! crate in this workspace keeps peer state purely in memory, so that story
//! could only be exercised by flipping alive-flags. This crate makes peer
//! state real: a peer's replicas and counters live in a directory, a crash
//! genuinely loses what was not yet journaled, and a restarted peer
//! re-enters the system with exactly the state the log proves it had.
//!
//! One correctness point deserves emphasis: the counters *are* journaled
//! ([`StorageOp::SetCounter`]) and recovered ([`StorageEngine::recover`]),
//! but a **rejoining peer must not resurrect them into its live Valid
//! Counter Set**. While the peer was down another peer took over
//! timestamping and may have generated newer timestamps than the durable
//! counter value — trusting the disk would break monotonicity (Definition 2).
//! Rule 1 (the VCS starts empty on rejoin) stays in force; the recovered
//! counters are reporting/diagnostic state, and the live counters are
//! re-initialized indirectly from the (durable) replicas.
//!
//! # On-disk format
//!
//! * **Record framing** ([`frame`]): every record is
//!   `len: u32 LE | crc32: u32 LE | payload`. Readers stop at the first
//!   frame that fails — everything before is a valid prefix, a torn final
//!   record is tolerated and truncated away.
//! * **WAL** (`wal.rs`): `wal-<generation:016x>.log`, a sequence of framed
//!   [`StorageOp`] records in apply order, each written by
//!   [`WalWriter::append`], which never syncs. [`FsyncPolicy`] says whether
//!   acknowledged appends reach stable storage. Under `Always` (group
//!   commit) the ops of every request a peer drained are appended one by
//!   one and made durable by a **single** covering `sync_data` at the batch
//!   boundary ([`StorageEngine::sync`]); each op is acknowledged only after
//!   the sync that covers it. Under `Never` the OS flushes when it pleases.
//! * **Snapshots** (`snapshot.rs`): `snapshot-<generation:016x>.snap`, a
//!   framed header (magic `RDHTSNAP`, version, generation), one op per
//!   replica/counter, and a footer with the op count; rejected as a whole
//!   unless complete. Compaction writes the next generation to a `.tmp`
//!   file, fsyncs, atomically renames, starts a fresh WAL, then deletes the
//!   previous generation.
//! * **Compaction rule** ([`StorageOptions::snapshot_every`]): a journaled
//!   apply compacts once the WAL holds `max(snapshot_every, live records)`
//!   ops, live records being the state's replicas plus counters. Snapshots
//!   therefore write at most one record per journaled op whatever the state
//!   size, and recovery replays at most `max(snapshot_every, records)` ops
//!   on top of a snapshot of `records`. The snapshot is streamed from the
//!   stores in chunks of 64 KiB, written before the next record would
//!   overflow one (a larger record is written alone), so compaction holds
//!   neither a list of the records nor a copy of their bytes.
//! * **Recovery** ([`StorageEngine::recover`], [`StorageEngine::open`]):
//!   the snapshot and the WAL are read back through one buffer of the same
//!   64 KiB each, and every record is applied as soon as its checksum
//!   holds. A snapshot is applied into a fresh state that is
//!   dropped whole if the file turns out torn or miscounted; the WAL keeps
//!   its valid prefix. Neither file is ever held in memory whole.
//!
//! The bytes are unchanged since the engine was introduced (PR 3): the
//! `fixtures/pr13` snapshot and WAL, written before the checksum went eight
//! bytes a step and the snapshot writer streamed, still recover, and today's
//! writers reproduce them byte for byte.
//!
//! # Crash/restart walkthrough
//!
//! ```
//! use rdht_core::{ums, InMemoryDht, ReplicaValue, Timestamp};
//! use rdht_hashing::Key;
//! use rdht_storage::{FsyncPolicy, StorageEngine, StorageOptions};
//!
//! let dir = std::env::temp_dir().join(format!("rdht-doc-walkthrough-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // A DHT journaling every accepted mutation to a storage engine.
//! let engine = StorageEngine::open(&dir, StorageOptions::with_fsync(FsyncPolicy::Always)).unwrap();
//! let mut dht = InMemoryDht::with_durability(10, 42, engine);
//! let key = Key::new("agenda:room-42");
//! ums::insert(&mut dht, &key, b"meeting at 10:00".to_vec()).unwrap();
//! ums::insert(&mut dht, &key, b"meeting moved to 11:00".to_vec()).unwrap();
//! // The batch boundary: one covering fsync before the inserts are acknowledged.
//! dht.durability_mut().sync().unwrap();
//!
//! // CRASH: drop the whole DHT. In-memory state is gone.
//! drop(dht);
//!
//! // RESTART: recover the durable state from the directory.
//! let (replicas, counters) = StorageEngine::recover(&dir).unwrap();
//! assert_eq!(replicas.len(), 10);                       // every replica survived
//! assert_eq!(counters.value(&key).unwrap().0, 2);       // the counter image too
//!
//! // Rebuild a peer from the recovered replicas. Rule 1: the live counter
//! // set starts EMPTY — the first request re-initializes indirectly from
//! // the recovered replicas (Section 4.2.2), never from the on-disk counter.
//! let mut restarted = InMemoryDht::new(10, 42);
//! for (hash, k, replica) in replicas.iter() {
//!     let value = ReplicaValue::new(replica.payload.clone(), Timestamp(replica.stamp));
//!     restarted.load_recovered_replica(hash, k, value);
//! }
//! let got = ums::retrieve(&mut restarted, &key).unwrap();
//! assert!(got.is_current);
//! assert_eq!(got.data.unwrap(), b"meeting moved to 11:00".to_vec());
//! assert_eq!(restarted.kts().stats().indirect_initializations, 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! The threaded deployment (`rdht-net`) wires this up end to end:
//! `Cluster::crash_peer` tears a peer thread down, `Cluster::restart_peer`
//! respawns it from its on-disk directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
pub mod frame;
pub mod metrics;
mod op;
mod snapshot;
mod state;
mod wal;

mod engine;

pub use engine::{RecoveredState, Recovery, StorageEngine, StorageOptions, SyncObserver};
pub use metrics::StorageMetrics;
pub use op::StorageOp;
pub use snapshot::write_snapshot;
pub use state::{CounterSet, MemoryState};
pub use wal::{replay, FsyncPolicy, WalReplay, WalWriter, MAX_BATCH};

#[cfg(test)]
mod format_tests;
#[cfg(test)]
mod proptests;
