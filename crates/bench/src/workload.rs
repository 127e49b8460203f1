//! Workload builders for the hot-path bench bin (`src/bin/hotpath.rs`): the
//! keys, records and stores its rows time.

use rdht_hashing::{HashFamily, Key};
use rdht_overlay::{PeerStore, Record, WritePolicy};

/// Replica payload size used by every store/UMS benchmark.
pub const PAYLOAD_BYTES: usize = 32;

/// `n` distinct workload keys, named like the simulator's data items.
pub fn bench_keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::new(format!("data-{i}"))).collect()
}

/// A record carrying the standard benchmark payload.
pub fn bench_record(stamp: u64, position: u64) -> Record {
    Record {
        payload: vec![0u8; PAYLOAD_BYTES],
        stamp,
        position,
    }
}

/// A store holding one record per (key, replication hash) pair, at the
/// positions the family actually maps the keys to.
pub fn filled_store(family: &HashFamily, keys: &[Key]) -> PeerStore {
    let mut store = PeerStore::new();
    for (i, key) in keys.iter().enumerate() {
        for h in family.replication_functions() {
            store.put(
                h.id(),
                key.clone(),
                bench_record(i as u64 + 1, h.eval(key)),
                WritePolicy::Overwrite,
            );
        }
    }
    store
}

/// The same records as [`filled_store`], as a flat batch — input for the
/// `bulk_load` fill path (one deferred index build instead of one `O(log n)`
/// index insert per record).
pub fn store_records(
    family: &HashFamily,
    keys: &[Key],
) -> Vec<(rdht_hashing::HashId, Key, Record)> {
    let mut records = Vec::with_capacity(keys.len() * family.num_replication());
    for (i, key) in keys.iter().enumerate() {
        for h in family.replication_functions() {
            records.push((h.id(), key.clone(), bench_record(i as u64 + 1, h.eval(key))));
        }
    }
    records
}
