//! The peer's ordering rules, checked by driving a [`Peer`] directly: the
//! test fills a [`ChannelTransport`] mailbox, ends it with a `Crash` (stop
//! without a final flush) and calls [`Peer::run`] on its own thread — no
//! peer thread, no timing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rdht_hashing::{HashFamily, HashId, Key};
use rdht_storage::{FsyncPolicy, StorageOptions, SyncObserver};

use super::*;
use crate::tests::fresh_storage_root;
use crate::transport::{CallError, ChannelTransport, ReplyHook, Transport};
use crate::unpoison;

const ID: PeerId = PeerId(7);

/// How long a test waits for a reply another peer thread sends.
const WAIT: Duration = Duration::from_secs(5);

/// A peer of a one-member ring, bound on a channel transport but not
/// started: what its endpoint is sent queues up in the mailbox.
fn bound_peer(storage: Option<ClusterStorage>) -> (Peer, Mailbox, PeerEndpoint) {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let mailbox = transport.bind(ID).unwrap();
    let family = HashFamily::new(3, 1);
    let directory = Directory::new(family, transport, [ID]);
    let endpoint = directory.transport.endpoint(ID).unwrap();
    let (peer, _) = Peer::open(ID, Arc::new(directory), &storage, None, None);
    (peer, mailbox, endpoint)
}

/// A reply path that appends what it is sent to a shared list.
struct Recorder(Arc<Mutex<Vec<Reply>>>);

impl ReplyHook for Recorder {
    fn deliver(self: Box<Self>, reply: Reply) {
        unpoison(self.0.lock()).push(reply);
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
    let options = StorageOptions::with_fsync(FsyncPolicy::Always);
    let storage = ClusterStorage::with_options(&root, options);
    let (mut peer, mailbox, endpoint) = bound_peer(Some(storage));

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let syncs = Arc::new(AtomicU64::new(0));
    let (seen, fired) = (Arc::clone(&delivered), Arc::clone(&syncs));
    peer.engine.set_sync_observer(SyncObserver::new(move |_| {
        assert!(
            unpoison(seen.lock()).is_empty(),
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
    let syncs_before = peer.engine.metrics().wal_syncs.get();
    peer.run(&mailbox);

    assert_eq!(syncs.load(Ordering::SeqCst), 1, "one sync covers the batch");
    assert_eq!(peer.engine.metrics().wal_syncs.get(), syncs_before + 1);
    assert_eq!(
        *unpoison(delivered.lock()),
        vec![Reply::PutAck; PUTS as usize]
    );
    drop(peer);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Rule 1 at open, durably: a peer recovered under `Always` over a journal
/// holding counters has synced their clear before it serves anything.
#[test]
fn rule_one_counter_clear_is_synced_before_the_peer_serves() {
    let root = fresh_storage_root("peer-rule-one-sync");
    let storage =
        ClusterStorage::with_options(&root, StorageOptions::with_fsync(FsyncPolicy::Always));
    {
        let mut engine = StorageEngine::open(storage.peer_dir(ID), storage.options).unwrap();
        let counter = StorageOp::SetCounter {
            key: Key::new("doc"),
            value: Timestamp(5),
        };
        engine.apply(&counter).unwrap();
        engine.sync().unwrap();
    }
    let (mut peer, _mailbox, _endpoint) = bound_peer(Some(storage));
    assert_eq!(peer.recovery_floor_keys(), vec![Key::new("doc")]);
    assert!(
        peer.engine.counters().is_empty(),
        "Rule 1 cleared the counter"
    );

    let exposition = encode(&peer.registry());
    let syncs: u64 = exposition
        .lines()
        .find(|line| line.starts_with(rdht_storage::metrics::names::WAL_SYNCS))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
        .expect("the peer exposes its WAL syncs");
    assert!(syncs >= 1, "the clear was synced at open: {exposition}");
    let before = peer.engine.metrics().wal_syncs.get();
    peer.engine.sync().unwrap();
    assert_eq!(
        peer.engine.metrics().wal_syncs.get(),
        before,
        "nothing was left pending for a later sync to cover"
    );
    drop(peer);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A `gen_ts` carrying a store of `hashes`. Its hint lets a counterless key
/// start at 1 instead of answering `NeedsInitialization`.
fn stamp_and_put(seq: u64, key: &Key, hashes: &[u32]) -> Request {
    Request::StampAndPut {
        op: Some(OpId { client: 1, seq }),
        key: key.clone(),
        observation_hint: Some(Timestamp::ZERO),
        hashes: hashes.iter().copied().map(HashId).collect(),
        payload: b"v".to_vec(),
    }
}

/// What a first `stamp_and_put` of three puts answers.
const STAMPED_THREE: Reply = Reply::Stamped {
    timestamp: Timestamp(1),
    written: 3,
    failed: 0,
};

#[test]
fn a_stamp_and_put_is_answered_only_after_the_sync_covering_counter_and_puts() {
    let root = fresh_storage_root("peer-stamp-after-sync");
    let options = StorageOptions::with_fsync(FsyncPolicy::Always);
    let storage = ClusterStorage::with_options(&root, options);
    let (mut peer, mailbox, endpoint) = bound_peer(Some(storage));

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let appended = peer.engine.metrics().ops_appended.clone();
    let covered = Arc::new(AtomicU64::new(0));
    let (seen, at_sync) = (Arc::clone(&delivered), Arc::clone(&covered));
    peer.engine.set_sync_observer(SyncObserver::new(move |_| {
        assert!(
            unpoison(seen.lock()).is_empty(),
            "the stamp was answered before the sync that covers it"
        );
        at_sync.store(appended.get(), Ordering::SeqCst);
    }));

    let before = peer.engine.metrics().ops_appended.get();
    let key = Key::new("doc");
    let sink = ReplySink::hooked(Box::new(Recorder(Arc::clone(&delivered))));
    endpoint
        .send_with_sink(stamp_and_put(0, &key, &[0, 1, 2]), sink)
        .unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    assert_eq!(*unpoison(delivered.lock()), vec![STAMPED_THREE]);
    let after = peer.engine.metrics().ops_appended.get();
    assert_eq!(after - before, 1 + 3, "the counter record and three puts");
    assert_eq!(
        covered.load(Ordering::SeqCst),
        after,
        "the one covering sync came after all four records"
    );
    for hash in 0..3 {
        let stored = peer.engine.replicas().get(HashId(hash), &key).unwrap();
        assert_eq!(stored.stamp, 1);
    }
    drop(peer);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_resent_stamp_and_put_returns_the_same_stamp_and_journals_nothing() {
    let root = fresh_storage_root("peer-resent-stamp");
    let (mut peer, mailbox, endpoint) = bound_peer(Some(ClusterStorage::new(&root)));
    let key = Key::new("doc");
    let request = stamp_and_put(0, &key, &[0, 1, 2]);
    let first = endpoint.send(request.clone()).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);
    assert_eq!(first.wait(Duration::ZERO), Ok(STAMPED_THREE));

    let bytes = peer.engine.metrics().wal_bytes.get();
    let suppressed = peer.directory.dedup.suppressed.get();
    let resent = endpoint.send(request).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);
    assert_eq!(resent.wait(Duration::ZERO), Ok(STAMPED_THREE));
    assert_eq!(peer.engine.metrics().wal_bytes.get(), bytes);
    assert_eq!(
        peer.directory.dedup.suppressed.get() - suppressed,
        1 + 3,
        "the stamp and each carried put are answered from the window"
    );
    assert_eq!(peer.kts.counter_value(&key), Some(Timestamp(1)));
    drop(peer);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Sends this peer a `StampAndPut` carrying all three puts of a key it
/// stamps, with a replica on this peer and one on `OTHER`, which owns
/// `(ID, OTHER]`: one `Stamped` counts them all, and each replica lands
/// where the directory puts it. With `join_first`, `OTHER` joins through a
/// hand-off this peer drives just before; without, it is a member from the
/// start and this peer never hands anything off: the client that carried
/// them all here held a view from before `OTHER` joined.
fn carried_puts_land_with_their_owners(join_first: bool) {
    const OTHER: PeerId = PeerId(1 << 63);
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let directory = Arc::new(Directory::new(HashFamily::new(3, 1), transport, []));
    let mailbox = directory.transport.bind(ID).unwrap();
    let endpoint = directory.transport.endpoint(ID).unwrap();
    directory.revive(ID, endpoint.clone());
    let (mut peer, _) = Peer::open(ID, Arc::clone(&directory), &None, None, None);
    let (other, _) = Peer::open(OTHER, Arc::clone(&directory), &None, None, None);
    let (other, handle) = other.start().unwrap();
    if !join_first {
        directory.revive(OTHER, other.clone());
    }

    let owner = |position: u64| {
        if position > ID.0 && position <= OTHER.0 {
            OTHER
        } else {
            ID
        }
    };
    let family = &directory.family;
    let holders = |key: &Key| -> Vec<PeerId> {
        (0..3)
            .map(|hash| owner(family.eval(HashId(hash), key)))
            .collect()
    };
    let key = (0..)
        .map(|i| Key::new(format!("doc-{i}")))
        .find(|key| {
            let holders = holders(key);
            owner(family.eval_timestamp(key)) == ID
                && holders.contains(&ID)
                && holders.contains(&OTHER)
        })
        .unwrap();

    let join = join_first.then(|| {
        let join = Request::HandoffRange {
            op: None,
            start: ID.0,
            end: OTHER.0,
            target_id: OTHER,
            kind: HandoffKind::Join,
            fault: None,
        };
        endpoint.send(join).unwrap()
    });
    let stamped = endpoint.send(stamp_and_put(0, &key, &[0, 1, 2])).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    if let Some(join) = join {
        let joined = join.wait(Duration::ZERO);
        assert!(matches!(joined, Ok(Reply::HandoffComplete { .. })));
    }
    assert_eq!(stamped.wait(WAIT), Ok(STAMPED_THREE));
    for (hash, holder) in (0..3).map(HashId).zip(holders(&key)) {
        let here = peer.engine.replicas().get(hash, &key).is_some();
        let get = Request::GetReplica {
            hash,
            key: key.clone(),
        };
        let there = other.call(get, WAIT).unwrap() != Reply::Replica(None);
        assert_eq!((here, there), (holder == ID, holder == OTHER), "{hash:?}");
    }
    other.send_no_reply(Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn after_a_hand_off_a_carried_put_the_peer_no_longer_serves_goes_to_its_owner() {
    carried_puts_land_with_their_owners(true);
}

#[test]
fn a_carried_put_another_peer_owns_goes_there_without_a_hand_off() {
    carried_puts_land_with_their_owners(false);
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
    assert_eq!(stored.stamp, 5);
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

/// A graceful leave ends the loop by itself: the data requests queued behind
/// the leave's `HandoffRange` are re-sent to the successor, which answers
/// them, and `run` returns with no `Crash` or `Shutdown` in the mailbox.
#[test]
fn requests_queued_behind_a_leave_are_answered_by_the_successor_and_the_loop_ends() {
    const SUCCESSOR: PeerId = PeerId(1 << 63);
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let directory = Arc::new(Directory::new(HashFamily::new(3, 1), transport, []));
    let mailbox = directory.transport.bind(ID).unwrap();
    let endpoint = directory.transport.endpoint(ID).unwrap();
    directory.revive(ID, endpoint.clone());
    let (mut peer, _) = Peer::open(ID, Arc::clone(&directory), &None, None, None);
    let (successor, _) = Peer::open(SUCCESSOR, Arc::clone(&directory), &None, None, None);
    let (successor, handle) = successor.start().unwrap();
    directory.revive(SUCCESSOR, successor.clone());

    // Two keys whose first replica this peer holds until it leaves.
    let mine = (0..).map(|i| Key::new(format!("doc-{i}"))).filter(|key| {
        let position = directory.family.eval(HashId(0), key);
        directory.responsible_for(position).map(|(id, _)| id) == Some(ID)
    });
    let [kept, late]: [Key; 2] = mine.take(2).collect::<Vec<_>>().try_into().unwrap();
    let get = |key: &Key| Request::GetReplica {
        hash: HashId(0),
        key: key.clone(),
    };

    let stored = endpoint.send(put(0, 0, &kept, 5)).unwrap();
    // With two peers the leaver's range is everything after its successor.
    let leave = endpoint
        .send(Request::HandoffRange {
            op: None,
            start: SUCCESSOR.0,
            end: ID.0,
            target_id: SUCCESSOR,
            kind: HandoffKind::Leave,
            fault: None,
        })
        .unwrap();
    let queued_get = endpoint.send(get(&kept)).unwrap();
    let queued_put = endpoint.send(put(1, 0, &late, 9)).unwrap();
    peer.run(&mailbox);

    assert_eq!(stored.wait(Duration::ZERO), Ok(Reply::PutAck));
    assert!(matches!(
        leave.wait(Duration::ZERO),
        Ok(Reply::HandoffComplete { .. })
    ));
    assert!(
        peer.engine.replicas().is_empty(),
        "the leaver pruned its range"
    );
    let moved = Reply::Replica(Some((5u64.to_le_bytes().to_vec(), Timestamp(5))));
    assert_eq!(queued_get.wait(WAIT), Ok(moved));
    assert_eq!(queued_put.wait(WAIT), Ok(Reply::PutAck));
    let at_successor = successor.call(get(&late), WAIT).unwrap();
    let late_put = Reply::Replica(Some((9u64.to_le_bytes().to_vec(), Timestamp(9))));
    assert_eq!(
        at_successor, late_put,
        "the successor applied the queued put"
    );

    successor.send_no_reply(Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A peer of a two-member ring whose other member, `UNREACHABLE`, owns
/// `(ID, UNREACHABLE]` in the directory but has no mailbox any more: what
/// this peer re-sends there cannot be delivered. Returns the peer, its
/// mailbox and endpoint, a key this peer stamps whose three replicas live
/// two here and one there, and the hash of the one there.
fn peer_with_an_unreachable_member() -> (Peer, Mailbox, PeerEndpoint, Key, HashId) {
    const UNREACHABLE: PeerId = PeerId(1 << 63);
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let directory = Arc::new(Directory::new(HashFamily::new(3, 1), transport, []));
    let mailbox = directory.transport.bind(ID).unwrap();
    let endpoint = directory.transport.endpoint(ID).unwrap();
    directory.revive(ID, endpoint.clone());
    drop(directory.transport.bind(UNREACHABLE).unwrap());
    let unreachable = directory.transport.endpoint(UNREACHABLE).unwrap();
    directory.revive(UNREACHABLE, unreachable);
    let (peer, _) = Peer::open(ID, Arc::clone(&directory), &None, None, None);

    let here = |position: u64| position <= ID.0 || position > UNREACHABLE.0;
    let family = &directory.family;
    let (key, away) = (0..)
        .map(|i| Key::new(format!("doc-{i}")))
        .find_map(|key| {
            let away: Vec<HashId> = (0..3)
                .map(HashId)
                .filter(|hash| !here(family.eval(*hash, &key)))
                .collect();
            let stamped_here = here(family.eval_timestamp(&key));
            (stamped_here && away.len() == 1).then(|| (key, away[0]))
        })
        .unwrap();
    (peer, mailbox, endpoint, key, away)
}

#[test]
fn a_puts_frame_counts_a_put_that_cannot_be_re_sent_as_failed() {
    let (mut peer, mailbox, endpoint, key, away) = peer_with_an_unreachable_member();
    // Only a peer that handed a range away asks the directory for each put.
    peer.handed_off = true;
    let puts = Request::PutReplicas {
        op: Some(OpId { client: 1, seq: 0 }),
        hashes: (0..3).map(HashId).collect(),
        key: key.clone(),
        payload: b"v".to_vec(),
        timestamp: Timestamp(5),
    };
    let answer = endpoint.send(puts).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    let two_of_three = Reply::PutsAck {
        written: 2,
        failed: 1,
    };
    assert_eq!(answer.wait(Duration::ZERO), Ok(two_of_three));
    for hash in (0..3).map(HashId) {
        let stored = peer.engine.replicas().get(hash, &key).is_some();
        assert_eq!(stored, hash != away, "{hash:?}");
    }
}

#[test]
fn a_stamp_and_put_counts_a_carried_put_that_cannot_be_re_sent_as_failed() {
    let (mut peer, mailbox, endpoint, key, _) = peer_with_an_unreachable_member();
    let answer = endpoint.send(stamp_and_put(0, &key, &[0, 1, 2])).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    let stamped = Reply::Stamped {
        timestamp: Timestamp(1),
        written: 2,
        failed: 1,
    };
    assert_eq!(answer.wait(Duration::ZERO), Ok(stamped));
    assert_eq!(peer.kts.counter_value(&key), Some(Timestamp(1)));
}

#[test]
fn a_batch_keeps_an_error_in_the_slot_of_a_constituent_that_cannot_be_re_sent() {
    let (mut peer, mailbox, endpoint, key, away) = peer_with_an_unreachable_member();
    peer.handed_off = true;
    let here = (0..3).map(HashId).find(|hash| *hash != away).unwrap();
    let get = |hash| Request::GetReplica {
        hash,
        key: key.clone(),
    };
    let batch = Request::Batch(vec![
        (put(0, here.0, &key, 5), None),
        (get(away), None),
        (get(here), None),
    ]);
    let answer = endpoint.send(batch).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    let Ok(Reply::Batch(replies)) = answer.wait(Duration::ZERO) else {
        panic!("the batch was not answered with its constituents' replies")
    };
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0], Reply::PutAck);
    assert!(matches!(replies[1], Reply::Error { .. }), "{replies:?}");
    let stored = Reply::Replica(Some((5u64.to_le_bytes().to_vec(), Timestamp(5))));
    assert_eq!(replies[2], stored);
}

/// A founder whose hand-off target never acknowledged the install keeps
/// serving the range, but the range has left its founding arc at the
/// export: a key timestamped there is observed before it is stamped, while
/// the rest of the arc still starts unstamped keys at 0.
#[test]
fn a_founder_whose_install_was_never_acknowledged_observes_the_exported_range() {
    const TARGET: PeerId = PeerId(u64::MAX / 2);
    let (mut peer, mailbox, endpoint) = bound_peer(None);
    peer.found_arc(ID.0, ID.0);
    // The target resolves but is gone: every install fails at once.
    drop(peer.directory.transport.bind(TARGET).unwrap());
    let family = peer.directory.family.clone();
    let key_in = |inside: bool| {
        (0..)
            .map(|i| Key::new(format!("aborted:{i}")))
            .find(|key| (ID.0 + 1..=TARGET.0).contains(&family.eval_timestamp(key)) == inside)
            .unwrap()
    };
    let last_ts = |key: Key| Request::Timestamp {
        op: None,
        key,
        generate: false,
        observation_hint: None,
    };
    let join = endpoint
        .send(Request::HandoffRange {
            op: None,
            start: ID.0,
            end: TARGET.0,
            target_id: TARGET,
            kind: HandoffKind::Join,
            fault: None,
        })
        .unwrap();
    let exported = endpoint.send(last_ts(key_in(true))).unwrap();
    let kept = endpoint.send(last_ts(key_in(false))).unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);

    assert!(matches!(
        join.wait(Duration::ZERO),
        Ok(Reply::HandoffFailed { .. })
    ));
    assert_eq!(
        exported.wait(Duration::ZERO),
        Ok(Reply::NeedsInitialization)
    );
    assert_eq!(
        kept.wait(Duration::ZERO),
        Ok(Reply::Timestamp(Timestamp::ZERO))
    );
}

/// Whether the replicas of `key` that `peer` holds under `hashes` lend one
/// buffer (a shared payload), checked by address.
fn one_buffer(peer: &Peer, key: &Key, hashes: &[u32]) -> bool {
    let payload = |hash: &u32| {
        peer.engine
            .replicas()
            .get(HashId(*hash), key)
            .unwrap()
            .payload
    };
    let first = payload(&hashes[0]);
    hashes.iter().all(|hash| std::ptr::eq(payload(hash), first))
}

/// A key stored with one stamp under four hashes — two carried by a
/// `StampAndPut`, two by a `PutReplicas` — costs its peer one buffer: as
/// written, as rebuilt from the journal, and as installed by a join's
/// hand-off at the peer taking the range over.
#[test]
fn replicas_of_one_stamp_share_one_buffer_when_written_recovered_and_handed_off() {
    const OTHER: PeerId = PeerId(1 << 63);
    let root = fresh_storage_root("peer-shared-payload");
    let storage = Some(ClusterStorage::new(&root));
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let directory = Arc::new(Directory::new(HashFamily::new(4, 1), transport, []));
    let mailbox = directory.transport.bind(ID).unwrap();
    let endpoint = directory.transport.endpoint(ID).unwrap();
    directory.revive(ID, endpoint.clone());

    // Every replica and the counter of the key move with the join below.
    let joined = |position: u64| position > ID.0 && position <= OTHER.0;
    let family = &directory.family;
    let key = (0..)
        .map(|i| Key::new(format!("doc-{i}")))
        .find(|key| {
            joined(family.eval_timestamp(key))
                && (0..4).all(|hash| joined(family.eval(HashId(hash), key)))
        })
        .unwrap();
    let hashes = [0, 1, 2, 3];

    let (mut peer, _) = Peer::open(ID, Arc::clone(&directory), &storage, None, None);
    let stamped = endpoint.send(stamp_and_put(0, &key, &[0, 1])).unwrap();
    let puts = endpoint
        .send(Request::PutReplicas {
            op: Some(OpId { client: 1, seq: 1 }),
            hashes: vec![HashId(2), HashId(3)],
            key: key.clone(),
            payload: b"v".to_vec(),
            timestamp: Timestamp(1),
        })
        .unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);
    assert!(matches!(
        stamped.wait(Duration::ZERO),
        Ok(Reply::Stamped {
            timestamp: Timestamp(1),
            written: 2,
            ..
        })
    ));
    let both = Reply::PutsAck {
        written: 2,
        failed: 0,
    };
    assert_eq!(puts.wait(Duration::ZERO), Ok(both));
    assert!(one_buffer(&peer, &key, &hashes), "as written");
    drop(peer);

    let (mut peer, report) = Peer::open(ID, Arc::clone(&directory), &storage, None, None);
    assert_eq!(report.recovered_replicas, 4);
    assert!(one_buffer(&peer, &key, &hashes), "as recovered");

    let other_mailbox = directory.transport.bind(OTHER).unwrap();
    let other_endpoint = directory.transport.endpoint(OTHER).unwrap();
    let (mut other, _) = Peer::open(OTHER, Arc::clone(&directory), &None, None, None);
    let other = std::thread::spawn(move || {
        other.run(&other_mailbox);
        other
    });
    let join = endpoint
        .send(Request::HandoffRange {
            op: None,
            start: ID.0,
            end: OTHER.0,
            target_id: OTHER,
            kind: HandoffKind::Join,
            fault: None,
        })
        .unwrap();
    endpoint.send_no_reply(Request::Crash).unwrap();
    peer.run(&mailbox);
    assert!(matches!(
        join.wait(Duration::ZERO),
        Ok(Reply::HandoffComplete { .. })
    ));
    assert!(
        peer.engine.replicas().is_empty(),
        "the source pruned the range"
    );
    other_endpoint.send_no_reply(Request::Crash).unwrap();
    let other = other.join().unwrap();
    assert_eq!(other.engine.replicas().len(), 4);
    assert!(one_buffer(&other, &key, &hashes), "as installed");
    assert_eq!(
        other
            .engine
            .replicas()
            .get(HashId(3), &key)
            .unwrap()
            .payload,
        b"v"
    );
    drop(peer);
    std::fs::remove_dir_all(&root).unwrap();
}
