//! The peer's ordering rules, checked by driving a [`Peer`] directly: the
//! test fills a [`ChannelTransport`] mailbox, ends it with a `Crash` (stop
//! without a final flush) and calls [`Peer::run`] on its own thread — no
//! peer thread, no timing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_storage::{FsyncPolicy, StorageOptions, SyncObserver};

use super::*;
use crate::cluster::DEFAULT_FORWARDER_REAP_IDLE;
use crate::tests::fresh_storage_root;
use crate::transport::{CallError, ChannelTransport, ReplyHook, Transport};

const ID: PeerId = PeerId(7);

/// A peer of a one-member ring, bound on a channel transport but not
/// started: what its endpoint is sent queues up in the mailbox.
fn bound_peer(storage: Option<ClusterStorage>) -> (Peer, Mailbox, PeerEndpoint) {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let mailbox = transport.bind(ID).unwrap();
    let family = HashFamily::new(3, 1);
    let directory = Directory::new(family, transport, [ID], DEFAULT_FORWARDER_REAP_IDLE);
    let endpoint = directory.transport.endpoint(ID).unwrap();
    let (peer, _) = Peer::open(ID, Arc::new(directory), &storage, None, None);
    (peer, mailbox, endpoint)
}

/// A reply path that appends what it is sent to a shared list.
struct Recorder(Arc<Mutex<Vec<Reply>>>);

impl ReplyHook for Recorder {
    fn deliver(self: Box<Self>, reply: Reply) {
        self.0.lock().push(reply);
    }
    fn dropped(self: Box<Self>) {}
}

fn put(seq: u64, hash: u32, key: &Key, stamp: u64) -> Request {
    Request::PutReplica {
        op: Some(OpId { client: 1, seq }),
        hash: HashId(hash),
        key: key.clone(),
        payload: stamp.to_le_bytes().to_vec(),
        timestamp: Timestamp(stamp),
    }
}

#[test]
fn a_batch_is_acknowledged_only_after_its_covering_sync() {
    const PUTS: u64 = 8;
    let root = fresh_storage_root("peer-ack-after-sync");
    let options = StorageOptions {
        fsync: FsyncPolicy::group_commit(64, Duration::ZERO),
        ..StorageOptions::default()
    };
    let storage = ClusterStorage::with_options(&root, options);
    let (mut peer, mailbox, endpoint) = bound_peer(Some(storage));

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let syncs = Arc::new(AtomicU64::new(0));
    let (seen, fired) = (Arc::clone(&delivered), Arc::clone(&syncs));
    peer.engine.set_sync_observer(SyncObserver::new(move |_| {
        assert!(
            seen.lock().is_empty(),
            "a put was acknowledged before the sync that covers it"
        );
        fired.fetch_add(1, Ordering::SeqCst);
    }));

    let key = Key::new("doc");
    for seq in 0..PUTS {
        let sink = ReplySink::hooked(Box::new(Recorder(Arc::clone(&delivered))));
        endpoint
            .send_with_sink(put(seq, 0, &key, seq + 1), sink)
            .unwrap();
    }
    endpoint.send_no_reply(Request::Crash).unwrap();
    let syncs_before = peer.engine.stats().wal_syncs;
    peer.run(&mailbox);

    assert_eq!(syncs.load(Ordering::SeqCst), 1, "one sync covers the batch");
    assert_eq!(peer.engine.stats().wal_syncs, syncs_before + 1);
    assert_eq!(*delivered.lock(), vec![Reply::PutAck; PUTS as usize]);
    drop(peer);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_duplicate_inside_the_batch_is_answered_from_the_window() {
    let (mut peer, mailbox, endpoint) = bound_peer(None);
    let key = Key::new("doc");
    let first = endpoint.send(put(0, 1, &key, 5)).unwrap();
    let duplicate = endpoint.send(put(0, 1, &key, 5)).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    assert_eq!(first.wait(Duration::ZERO), Ok(Reply::PutAck));
    assert_eq!(duplicate.wait(Duration::ZERO), Ok(Reply::PutAck));
    assert_eq!(peer.directory.dedup.applied.get(), 1);
    assert_eq!(peer.directory.dedup.suppressed.get(), 1);
    let stored = peer.engine.replicas().get(HashId(1), &key).unwrap();
    assert_eq!(stored.stamp, Timestamp(5));
}

#[test]
fn a_counterless_timestamp_needs_a_hint_and_respects_the_recovery_floor() {
    let (mut peer, mailbox, endpoint) = bound_peer(None);
    let (above, below) = (Key::new("hint above floor"), Key::new("hint below floor"));
    peer.kts.seed_recovery_floors([
        (above.clone(), Timestamp(10)),
        (below.clone(), Timestamp(10)),
    ]);
    let last_ts = |key: &Key, observation_hint| {
        let request = Request::Timestamp {
            op: None,
            key: key.clone(),
            generate: false,
            observation_hint,
        };
        endpoint.send(request).unwrap()
    };
    let unhinted = last_ts(&above, None);
    let hinted_above = last_ts(&above, Some(Timestamp(25)));
    let hinted_below = last_ts(&below, Some(Timestamp(3)));
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    assert_eq!(
        unhinted.wait(Duration::ZERO),
        Ok(Reply::NeedsInitialization)
    );
    let observed = Reply::Timestamp(Timestamp(25));
    assert_eq!(hinted_above.wait(Duration::ZERO), Ok(observed));
    let floor = Reply::Timestamp(Timestamp(10));
    assert_eq!(hinted_below.wait(Duration::ZERO), Ok(floor));
    assert_eq!(peer.metrics.indirect_initializations.get(), 2);
}

#[test]
fn a_batch_is_exploded_answered_in_request_order_and_counted_once() {
    let (mut peer, mailbox, endpoint) = bound_peer(None);
    let key = Key::new("doc");
    let get = Request::GetReplica {
        hash: HashId(1),
        key: key.clone(),
    };
    let last_ts = Request::Timestamp {
        op: None,
        key: key.clone(),
        generate: false,
        observation_hint: None,
    };
    let batch = Request::Batch(vec![
        (get.clone(), None),
        (put(0, 1, &key, 5), None),
        (get.clone(), None),
        (last_ts, None),
    ]);
    let answer = endpoint.send(batch).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    // The constituents ran in order — the first read misses, the second sees
    // the put between them — and their replies come back in that order.
    let stored = Reply::Replica(Some((5u64.to_le_bytes().to_vec(), Timestamp(5))));
    assert_eq!(
        answer.wait(Duration::ZERO),
        Ok(Reply::Batch(vec![
            Reply::Replica(None),
            Reply::PutAck,
            stored,
            Reply::NeedsInitialization,
        ]))
    );
    let counted = |request: &Request| peer.metrics.requests.of(request).get();
    assert_eq!(counted(&Request::Batch(Vec::new())), 1, "one frame");
    assert_eq!(
        counted(&get) + counted(&put(0, 1, &key, 5)),
        0,
        "constituents are not counted again"
    );
}

#[test]
fn a_batch_holding_anything_but_data_requests_is_refused_whole() {
    let (mut peer, mailbox, endpoint) = bound_peer(None);
    let key = Key::new("doc");
    let nested = Request::Batch(vec![
        (put(0, 1, &key, 5), None),
        (Request::Batch(Vec::new()), None),
    ]);
    let smuggled = Request::Batch(vec![(Request::Metrics, None)]);
    let (nested, smuggled) = (
        endpoint.send(nested).unwrap(),
        endpoint.send(smuggled).unwrap(),
    );
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    for (answer, kind) in [(nested, "batch"), (smuggled, "metrics")] {
        match answer.wait(Duration::ZERO) {
            Err(CallError::Rejected(reason)) => assert!(reason.contains(kind), "{reason}"),
            other => panic!("a {kind} constituent was not refused: {other:?}"),
        }
    }
    assert!(
        peer.engine.replicas().get(HashId(1), &key).is_none(),
        "no constituent of a refused batch runs"
    );
}
