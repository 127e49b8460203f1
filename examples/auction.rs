//! Cooperative auction management over a replicated DHT — another of the
//! paper's motivating applications — contrasting UMS with the BRK baseline.
//!
//! Two bidders race to outbid each other on the same item. With BRK-style
//! version counters the concurrent bids can mint the same version number, so
//! replicas disagree and the "winning bid" depends on which replica a reader
//! happens to contact. With UMS the KTS timestamps totally order the bids per
//! item and every reader sees the same, latest bid.
//!
//! ```text
//! cargo run --release --example auction
//! ```

use rdht::core::{brk, ums, InMemoryDht, ReplicaValue, Timestamp, UmsAccess};
use rdht::hashing::Key;

fn main() {
    let item = Key::new("auction:antique-clock");
    brk_ambiguity(&item);
    ums_resolution(&item);
}

/// Reproduces the concurrent-update anomaly of version-counter replication
/// (Section 6 of the paper, discussing BRICKS).
fn brk_ambiguity(item: &Key) {
    println!("== BRK baseline (version counters) ==");
    let mut dht = InMemoryDht::new(6, 1);
    brk::insert(&mut dht, item, b"opening bid: 100".to_vec()).unwrap();

    // Both bidders read version 1, both mint version 2, and their writes
    // reach the replicas in different orders (a reordered network). Each
    // replica keeps the bid that reached it first.
    let alice = ReplicaValue::new(b"alice bids 150".to_vec(), Timestamp(2));
    let bob = ReplicaValue::new(b"bob bids 160".to_vec(), Timestamp(2));
    for (i, hash) in dht.replication_ids_vec().into_iter().enumerate() {
        if i % 2 == 0 {
            dht.put_replica(hash, item, &alice).unwrap();
            dht.put_replica(hash, item, &bob).unwrap();
        } else {
            dht.put_replica(hash, item, &bob).unwrap();
            dht.put_replica(hash, item, &alice).unwrap();
        }
    }

    let result = brk::retrieve(&mut dht, item).unwrap();
    println!(
        "highest version is {}, but the replicas disagree about what it contains:",
        result.version
    );
    match result.ambiguity {
        Some(ambiguity) => {
            for payload in &ambiguity.conflicting_payloads {
                println!("  candidate: {}", String::from_utf8_lossy(payload));
            }
            println!("-> no reader can tell which bid is the current one\n");
        }
        None => println!("-> (this interleaving happened to stay consistent)\n"),
    }
}

/// The same race through UMS: the later KTS timestamp wins everywhere.
fn ums_resolution(item: &Key) {
    println!("== UMS (KTS timestamps) ==");
    let mut dht = InMemoryDht::new(6, 1);
    ums::insert(&mut dht, item, b"opening bid: 100".to_vec()).unwrap();

    // The two bids obtain timestamps from KTS; even though their writes reach
    // the replicas in different orders, the one stamped later wins on every
    // replica.
    let ts_alice = dht.kts_gen_ts(item).unwrap();
    let ts_bob = dht.kts_gen_ts(item).unwrap();
    let alice = ReplicaValue::new(b"alice bids 150".to_vec(), ts_alice);
    let bob = ReplicaValue::new(b"bob bids 160".to_vec(), ts_bob);
    for (i, hash) in dht.replication_ids_vec().into_iter().enumerate() {
        if i % 2 == 0 {
            dht.put_replica(hash, item, &alice).unwrap();
            dht.put_replica(hash, item, &bob).unwrap();
        } else {
            dht.put_replica(hash, item, &bob).unwrap();
            dht.put_replica(hash, item, &alice).unwrap();
        }
    }

    let result = ums::retrieve(&mut dht, item).unwrap();
    println!(
        "retrieve returns: {} (certified current: {}, {} probe(s))",
        String::from_utf8_lossy(&result.data.clone().unwrap()),
        result.is_current,
        result.replicas_probed
    );
    assert!(result.is_current);
    assert_eq!(result.data.unwrap(), b"bob bids 160");
    println!("-> the bid holding the latest KTS timestamp wins on every replica");
}
