//! The fault matrix: the cluster's behavioural contract re-asserted on a
//! hostile network, against **both** transport backends. A seeded
//! [`FaultPlan`] drops, duplicates and delays frames on every link while the
//! retry/backoff client and the peers' idempotency window keep every
//! workload exactly-once and every retrieve current. This suite is the
//! standing proving ground for networking changes: anything that loses an
//! ack, double-applies a mutation, or hangs a coordinator fails here.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;

use rdht_core::{ums, Timestamp, UmsAccess};
use rdht_hashing::{HashId, Key};
use rdht_net::handoff::HandoffBundle;
use rdht_net::{
    serve_tcp_peer, Cluster, ClusterConfig, End, FaultPlan, LinkFaults, OpId, PeerId, Reply,
    Request, RetryPolicy, TcpPeerConfig, TcpTransport, Transport, TransportKind,
};

const REPLY_WAIT: Duration = Duration::from_secs(5);

fn both(check: impl Fn(TransportKind)) {
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        check(kind);
    }
}

fn spawn_faulty(kind: TransportKind, peers: usize, replicas: usize, plan: FaultPlan) -> Cluster {
    Cluster::spawn_with(
        ClusterConfig::new(peers, replicas, 0xFA17)
            .with_transport(kind)
            .with_faults(plan),
    )
}

/// Runs an insert-then-retrieve workload and asserts the full contract: no
/// lost acks on insert, and every retrieve certified current (not degraded).
fn hostile_workload(kind: TransportKind, cluster: &Cluster, keys: usize, tag: &str) {
    let mut client = cluster
        .client()
        .with_retry_policy(RetryPolicy::aggressive());
    for i in 0..keys {
        let key = Key::new(format!("{tag}:{i}"));
        let report = ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
        assert_eq!(
            report.replicas_failed, 0,
            "{kind:?}/{tag}: insert {i} lost an ack"
        );
    }
    for i in 0..keys {
        let key = Key::new(format!("{tag}:{i}"));
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current, "{kind:?}/{tag}: key {i} is not current");
        assert!(!got.degraded, "{kind:?}/{tag}: key {i} degraded");
        assert_eq!(got.data.unwrap(), format!("v{i}").into_bytes());
    }
}

#[test]
fn workload_survives_five_percent_loss() {
    both(|kind| {
        let plan = FaultPlan::lossy(0x1055, 0.05);
        let cluster = spawn_faulty(kind, 5, 4, plan.clone());
        hostile_workload(kind, &cluster, 12, "lossy");
        assert!(
            plan.counters().dropped.get() > 0,
            "{kind:?}: a 5% lossy plan must actually drop frames"
        );
        cluster.shutdown();
    });
}

#[test]
fn workload_survives_heavy_duplication() {
    both(|kind| {
        let plan = FaultPlan::dup_heavy(0xD0_0B1E);
        let cluster = spawn_faulty(kind, 5, 4, plan.clone());
        hostile_workload(kind, &cluster, 12, "dup");
        assert!(
            plan.counters().duplicated.get() > 0,
            "{kind:?}: the dup-heavy plan must actually duplicate frames"
        );
        assert!(
            cluster.dedup().suppressed.get() > 0,
            "{kind:?}: duplicated mutations must be absorbed by the dedup window"
        );
        cluster.shutdown();
    });
}

#[test]
fn workload_survives_jittered_latency() {
    both(|kind| {
        let plan = FaultPlan::jittered_latency(0x1A7, Duration::from_millis(50));
        let cluster = spawn_faulty(kind, 5, 4, plan.clone());
        hostile_workload(kind, &cluster, 8, "latency");
        assert!(
            plan.counters().delayed.get() > 0,
            "{kind:?}: the latency plan must actually delay frames"
        );
        cluster.shutdown();
    });
}

/// The acceptance workload: 8 concurrent writers under 5% loss *and*
/// duplication, on both backends. Every retrieve must come back current and
/// `last_timestamp` must equal the number of logical inserts per key — a
/// retried or duplicated `gen_ts` that burned a second timestamp would show
/// up here as an inflated counter.
#[test]
fn eight_writer_workload_is_exactly_once_under_loss_and_duplication() {
    both(|kind| {
        let plan = FaultPlan::new(0xACCE55).with_all_links(LinkFaults {
            drop_probability: 0.05,
            duplicate_probability: 0.25,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
        });
        let cluster = spawn_faulty(kind, 6, 4, plan.clone());
        const WRITERS: usize = 8;
        const UPDATES: u64 = 4;
        thread::scope(|scope| {
            for writer in 0..WRITERS {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut client = cluster
                        .client()
                        .with_retry_policy(RetryPolicy::aggressive());
                    let key = Key::new(format!("acc:{writer}"));
                    for i in 0..UPDATES {
                        ums::insert(&mut client, &key, format!("w{writer}:{i}").into_bytes())
                            .unwrap();
                    }
                });
            }
        });
        let mut client = cluster
            .client()
            .with_retry_policy(RetryPolicy::aggressive());
        for writer in 0..WRITERS {
            let key = Key::new(format!("acc:{writer}"));
            let got = ums::retrieve(&mut client, &key).unwrap();
            assert!(got.is_current, "{kind:?}: acc:{writer} is not current");
            assert_eq!(
                got.data.unwrap(),
                format!("w{writer}:{}", UPDATES - 1).into_bytes()
            );
            assert_eq!(
                got.last_timestamp,
                Timestamp(UPDATES),
                "{kind:?}: acc:{writer}: retried/duplicated gen_ts burned extra timestamps"
            );
        }
        let frames = plan.counters();
        assert!(frames.dropped.get() > 0 && frames.duplicated.get() > 0);
        assert!(
            cluster.dedup().suppressed.get() > 0,
            "{kind:?}: the dedup window never fired under 25% duplication"
        );
        cluster.shutdown();
    });
}

/// The coordinator's bounded install retry: a partition swallows the first
/// `InstallState` of a join; once it heals mid-run the source's re-send goes
/// through and the join converges instead of hanging forever.
#[test]
fn join_converges_when_the_first_install_is_dropped() {
    let plan = FaultPlan::new(0x10A1);
    let mut cluster = Cluster::spawn_with(
        ClusterConfig::new(4, 3, 9000)
            .with_transport(TransportKind::Channel)
            .with_faults(plan.clone()),
    );
    let mut client = cluster.client();
    for i in 0..8u8 {
        ums::insert(&mut client, &Key::new(format!("j:{i}")), vec![i]).unwrap();
    }
    let ids = cluster.peer_ids();
    // Join midway into the first arc: the hand-off source is ids[1].
    let new_id = PeerId(ids[0].0 + (ids[1].0 - ids[0].0) / 2);
    let source = ids[1];
    plan.partition(
        "install",
        vec![End::Peer(source.0)],
        vec![End::Peer(new_id.0)],
    );
    let healer = {
        let plan = plan.clone();
        thread::spawn(move || {
            // Past the first 2 s install-ack wait: at least one install has
            // been swallowed before the link comes back.
            thread::sleep(Duration::from_secs(3));
            plan.heal("install");
        })
    };
    let started = Instant::now();
    cluster
        .join_peer(new_id)
        .expect("join must converge once the partition heals");
    healer.join().unwrap();
    assert!(
        plan.counters().dropped.get() >= 1,
        "the partition never swallowed an install"
    );
    assert!(
        started.elapsed() < Duration::from_secs(12),
        "the join took longer than the bounded retry budget explains"
    );
    for i in 0..8u8 {
        let got = ums::retrieve(&mut client, &Key::new(format!("j:{i}"))).unwrap();
        assert!(
            got.is_current,
            "j:{i} lost currency across the retried join"
        );
        assert_eq!(got.data.unwrap(), vec![i]);
    }
    cluster.shutdown();
}

/// A lost install *ack* means the target applied the bundle but the source
/// re-sends it: the target must re-ack from its dedup cache without applying
/// the bundle a second time.
#[test]
fn retried_install_is_applied_once_and_reacked_from_cache() {
    both(|kind| {
        let cluster = Cluster::spawn_with(ClusterConfig::new(3, 3, 9100).with_transport(kind));
        let peer = cluster.peer_ids()[0];
        let endpoint = cluster.peer_endpoint(peer).unwrap();
        let mut bundle = HandoffBundle::default();
        bundle
            .counters
            .push((Key::new("install:key"), Timestamp(7)));
        let op = Some(OpId {
            client: 0xD_EAD,
            seq: 1,
        });
        let install = || {
            endpoint
                .send(Request::InstallState {
                    op,
                    start: 1,
                    end: 2,
                    bundle: bundle.clone(),
                })
                .unwrap()
                .wait(REPLY_WAIT)
                .unwrap()
        };
        let first = install();
        let second = install();
        assert!(
            matches!(first, Reply::InstallAck { .. }),
            "{kind:?}: unexpected install reply: {first:?}"
        );
        assert_eq!(
            first, second,
            "{kind:?}: the cached re-ack must be identical"
        );
        assert_eq!(cluster.dedup().suppressed.get(), 1);
        cluster.shutdown();
    });
}

/// When the timestamping responsible is unreachable past the retry budget,
/// retrieval returns the best reachable stamp flagged `degraded` instead of
/// failing — and recovers full currency once the partition heals.
#[test]
fn retrieve_degrades_while_the_timestamp_peer_is_partitioned_away() {
    let plan = FaultPlan::new(0xDE6);
    let cluster = Cluster::spawn_with(
        ClusterConfig::new(5, 4, 9200)
            .with_transport(TransportKind::Channel)
            .with_faults(plan.clone()),
    );
    let mut client = cluster.client().with_retry_policy(RetryPolicy {
        attempts: 2,
        try_timeout: Duration::from_millis(200),
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: 0.0,
    });
    // A key none of whose replicas lives on its timestamping peer, so the
    // partition cuts KTS off and nothing else.
    let key = key_with_kts_apart_from_replicas(&cluster, "deg", 4);
    ums::insert(&mut client, &key, b"v".to_vec()).unwrap();
    let ts_peer = cluster.timestamp_responsible(&key).unwrap();
    plan.partition("kts", vec![End::Client], vec![End::Peer(ts_peer.0)]);
    let before = client.messages();
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(got.degraded, "unreachable KTS must surface as degraded");
    assert!(!got.is_current, "currency cannot be certified without KTS");
    assert_eq!(got.last_timestamp, Timestamp::ZERO);
    // The probe sent alongside the doomed `last_ts` is the first of the
    // |Hr| the degraded path reads — counted once, sent once.
    assert_eq!((got.replicas_probed, got.probes_failed), (4, 0));
    assert_eq!(
        client.messages() - before,
        2 + 2 * 4,
        "two unanswered last_ts attempts, four answered probes"
    );
    assert_eq!((client.retries(), client.retry_exhaustions()), (1, 1));
    assert_eq!(
        got.data.unwrap(),
        b"v",
        "the best reachable stamp is served"
    );
    plan.heal("kts");
    let got = ums::retrieve(&mut client, &key).unwrap();
    assert!(
        got.is_current && !got.degraded,
        "healing restores certification"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Scatter-gather client calls: overlap shown by time, retries per leg
// ---------------------------------------------------------------------------

/// The first `tag:i` key whose timestamping peer holds none of its
/// `replicas` replicas: faults on that peer's links then touch KTS alone.
fn key_with_kts_apart_from_replicas(cluster: &Cluster, tag: &str, replicas: u32) -> Key {
    (0..)
        .map(|i| Key::new(format!("{tag}:{i}")))
        .find(|key| {
            let kts = cluster.timestamp_responsible(key);
            (0..replicas).all(|h| cluster.replica_responsible(HashId(h), key) != kts)
        })
        .expect("some key separates KTS from its replicas")
}

/// One-way latency of the overlap tests: wide enough that scheduling noise
/// cannot blur one round trip (2 hops) into two.
const HOP: Duration = Duration::from_millis(40);

fn spawn_slow(kind: TransportKind, replicas: usize) -> Cluster {
    let plan = FaultPlan::new(0x510).with_all_links(LinkFaults::delayed(HOP, Duration::ZERO));
    spawn_faulty(kind, 6, replicas, plan)
}

/// `last_ts` and the first probe travel together: a current retrieve takes
/// one round trip (2 hops), where asking KTS first took two (4 hops).
#[test]
fn current_retrieve_takes_one_round_trip() {
    both(|kind| {
        let cluster = spawn_slow(kind, 4);
        let mut client = cluster.client();
        let key = Key::new("overlap:key");
        ums::insert(&mut client, &key, b"v".to_vec()).unwrap();
        let started = Instant::now();
        let got = ums::retrieve(&mut client, &key).unwrap();
        let took = started.elapsed();
        assert!(got.is_current);
        assert_eq!(got.replicas_probed, 1);
        assert!(
            took >= 2 * HOP,
            "{kind:?}: {took:?} is under one round trip"
        );
        assert!(
            took < 3 * HOP,
            "{kind:?}: {took:?} — last_ts and the probe were not overlapped (sequential is {:?})",
            4 * HOP
        );
        cluster.shutdown();
    });
}

/// An insert whose replicas all live on the peer that stamps the key is one
/// round trip (2 hops): that peer stamps and stores them in one request. One
/// with replicas elsewhere too still takes two — their puts need the stamp.
#[test]
fn an_insert_all_on_the_stamping_peer_takes_one_round_trip() {
    const REPLICAS: u32 = 4;
    both(|kind| {
        let cluster = spawn_slow(kind, REPLICAS as usize);
        let mut client = cluster.client();
        let holders = |key: &Key| -> Vec<Option<PeerId>> {
            (0..REPLICAS)
                .map(|h| cluster.replica_responsible(HashId(h), key))
                .collect()
        };
        let pick = |alone: bool| {
            (0..)
                .map(|i| Key::new(format!("one-trip:{i}")))
                .find(|key| {
                    let kts = cluster.timestamp_responsible(key);
                    let holders = holders(key);
                    let with_kts = holders.iter().filter(|holder| **holder == kts).count();
                    if alone {
                        with_kts == holders.len()
                    } else {
                        with_kts > 0 && with_kts < holders.len()
                    }
                })
                .expect("both placements occur")
        };
        for (key, hops) in [(pick(true), 2), (pick(false), 4)] {
            // The first insert starts the counter (the founding rule).
            ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
            let started = Instant::now();
            ums::insert(&mut client, &key, b"v2".to_vec()).unwrap();
            let took = started.elapsed();
            assert!(
                took >= hops * HOP && took < (hops + 1) * HOP,
                "{kind:?}: {key:?} took {took:?}, {hops} hops are {:?}",
                hops * HOP
            );
        }
        cluster.shutdown();
    });
}

/// The indirect initialization reads all `|Hr|` replicas in one overlapped
/// round trip, not `|Hr|` sequential ones.
#[test]
fn indirect_initialization_gathers_its_observation_in_one_round_trip() {
    const REPLICAS: usize = 5;
    both(|kind| {
        let cluster = spawn_slow(kind, REPLICAS);
        let mut client = cluster.client();
        // A key whose counter died with its responsible: the successor that
        // took the range over has no counter and asks for the indirect
        // observation.
        let key = Key::new("overlap:fresh");
        client.kts_gen_ts(&key).unwrap();
        let responsible = cluster.timestamp_responsible(&key).unwrap();
        cluster.crash_peer(responsible).unwrap();
        let started = Instant::now();
        client.kts_gen_ts(&key).unwrap();
        let took = started.elapsed();
        assert_eq!(client.indirect_initializations(), 1);
        // Two KTS exchanges (4 hops) around the gather: the gather itself
        // must stay under |Hr| hops where the sequential one took 2·|Hr|.
        let gather = took.saturating_sub(4 * HOP);
        assert!(
            gather < REPLICAS as u32 * HOP,
            "{kind:?}: the gather took {gather:?} of {took:?} (sequential is {:?})",
            2 * REPLICAS as u32 * HOP
        );
        cluster.shutdown();
    });
}

/// The first attempt of *one* leg of the overlapped pair is lost: that leg
/// alone is re-sent, the operation succeeds certified, and `retries` counts
/// the one re-send once.
#[test]
fn a_dropped_leg_retries_alone() {
    both(|kind| {
        let plan = FaultPlan::new(0x1E6);
        let cluster = spawn_faulty(kind, 5, 4, plan.clone());
        let mut client = cluster.client().with_retry_policy(RetryPolicy {
            attempts: 3,
            try_timeout: Duration::from_millis(300),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
        });
        let key = key_with_kts_apart_from_replicas(&cluster, "leg", 4);
        ums::insert(&mut client, &key, b"v".to_vec()).unwrap();
        let ts_peer = cluster.timestamp_responsible(&key).unwrap();
        plan.partition("kts", vec![End::Client], vec![End::Peer(ts_peer.0)]);
        // Heal as soon as the partition swallowed exactly one frame — the
        // first `last_ts`; its re-send then goes through.
        let healer = {
            let plan = plan.clone();
            thread::spawn(move || {
                while plan.counters().dropped.get() == 0 {
                    thread::sleep(Duration::from_millis(1));
                }
                plan.heal("kts");
            })
        };
        let before = client.messages();
        let got = ums::retrieve(&mut client, &key).unwrap();
        healer.join().unwrap();
        assert!(got.is_current && !got.degraded, "{kind:?}: {got:?}");
        assert_eq!(got.replicas_probed, 1);
        assert_eq!(plan.counters().dropped.get(), 1);
        assert_eq!(client.retries(), 1, "{kind:?}: only the lost leg retried");
        assert_eq!(client.retry_exhaustions(), 0);
        assert_eq!(
            client.messages() - before,
            5,
            "{kind:?}: the lost request, its re-send and reply, the probe and its reply"
        );
        cluster.shutdown();
    });
}

/// The first `tag:i` key with a replica on its timestamping peer, and that
/// replica's hash: `last_ts` and the probe of it travel as one batch.
fn key_with_kts_sharing_a_replica(cluster: &Cluster, tag: &str, replicas: u32) -> (Key, HashId) {
    (0..)
        .map(|i| Key::new(format!("{tag}:{i}")))
        .find_map(|key| {
            let kts = cluster.timestamp_responsible(&key);
            (0..replicas)
                .map(HashId)
                .find(|hash| cluster.replica_responsible(*hash, &key) == kts)
                .map(|hash| (key, hash))
        })
        .expect("some key shares a peer between KTS and a replica")
}

/// Makes the link `peer -> client` swallow exactly one frame — the next
/// reply — and then behave again. Returns the thread that restores it.
fn drop_the_next_reply_of(plan: &FaultPlan, peer: PeerId) -> thread::JoinHandle<()> {
    let (from, to) = (End::Peer(peer.0), End::Client);
    let dropped = plan.counters().dropped.get();
    let _ = plan.clone().with_link(from, to, LinkFaults::lossy(1.0));
    let plan = plan.clone();
    thread::spawn(move || {
        while plan.counters().dropped.get() == dropped {
            thread::sleep(Duration::from_millis(1));
        }
        let _ = plan.with_link(from, to, LinkFaults::default());
    })
}

/// A batch is one frame per direction to the fault plan. When its reply is
/// lost, the client re-sends **each leg** (they regroup into one batch
/// again) and the retrieve still certifies; and a batch of mutations whose
/// reply was lost is, re-sent, answered from the dedup window — constituent
/// by constituent — instead of being applied twice.
#[test]
fn a_dropped_batch_reply_retries_each_leg_and_never_double_applies() {
    both(|kind| {
        let plan = FaultPlan::new(0xBA7C);
        let cluster = spawn_faulty(kind, 5, 4, plan.clone());
        let mut client = cluster.client().with_retry_policy(RetryPolicy {
            attempts: 3,
            try_timeout: Duration::from_millis(300),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
        });
        let (key, shared) = key_with_kts_sharing_a_replica(&cluster, "batch", 4);
        ums::insert(&mut client, &key, b"v".to_vec()).unwrap();
        let peer = cluster.timestamp_responsible(&key).unwrap();

        // The client path: both legs of the opening round ride one frame.
        let restorer = drop_the_next_reply_of(&plan, peer);
        let frames = plan.counters();
        let (messages, dropped, delivered) = (
            client.messages(),
            frames.dropped.get(),
            frames.delivered.get(),
        );
        let got = ums::retrieve(&mut client, &key).unwrap();
        restorer.join().unwrap();
        assert!(got.is_current && !got.degraded, "{kind:?}: {got:?}");
        assert_eq!(got.replicas_probed, 1);
        assert_eq!(
            client.retries(),
            2,
            "{kind:?}: each leg of the lost batch retried"
        );
        assert_eq!(client.retry_exhaustions(), 0);
        assert_eq!(
            client.messages() - messages,
            3,
            "{kind:?}: the batch whose reply was lost, its re-send and that one's reply"
        );
        assert_eq!(frames.dropped.get() - dropped, 1);
        assert_eq!(
            frames.delivered.get() - delivered,
            3,
            "{kind:?}: a batch rolls once per direction, not once per constituent"
        );

        // The mutation path: a `gen_ts` and a put in one frame, reply lost.
        let op = |seq| {
            Some(OpId {
                client: 0xBA7C,
                seq,
            })
        };
        let batch = Request::Batch(vec![
            (
                Request::Timestamp {
                    op: op(0),
                    key: key.clone(),
                    generate: true,
                    observation_hint: None,
                },
                None,
            ),
            (
                Request::PutReplica {
                    op: op(1),
                    hash: shared,
                    key: key.clone(),
                    payload: b"w".to_vec(),
                    timestamp: Timestamp(2),
                },
                None,
            ),
        ]);
        let endpoint = cluster.peer_endpoint(peer).unwrap();
        let dedup = cluster.dedup();
        let (applied, suppressed) = (dedup.applied.get(), dedup.suppressed.get());
        let restorer = drop_the_next_reply_of(&plan, peer);
        let lost = endpoint.call(batch.clone(), Duration::from_millis(300));
        restorer.join().unwrap();
        assert!(
            lost.is_err(),
            "{kind:?}: the first reply was to be lost: {lost:?}"
        );
        let answered = endpoint.call(batch, REPLY_WAIT).unwrap();
        assert_eq!(
            answered,
            Reply::Batch(vec![Reply::Timestamp(Timestamp(2)), Reply::PutAck]),
            "{kind:?}: the re-sent gen_ts reads the stamp the first one generated"
        );
        assert_eq!(dedup.applied.get() - applied, 2);
        assert_eq!(dedup.suppressed.get() - suppressed, 2);
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert_eq!(got.last_timestamp, Timestamp(2), "{kind:?}: one increment");
        assert!(got.is_current, "{kind:?}: {got:?}");
        assert_eq!(got.data.unwrap(), b"w");
        cluster.shutdown();
    });
}

/// The reply to one holder's packed puts is lost: the client re-sends that
/// holder's puts alone, packed into one frame again, the holder answers each
/// of them from its dedup window, and the insert reports every replica
/// written.
#[test]
fn a_lost_puts_ack_re_sends_that_holders_puts_packed_and_dedups_each() {
    const REPLICAS: u32 = 4;
    both(|kind| {
        let plan = FaultPlan::new(0x9075);
        let cluster = spawn_faulty(kind, 5, REPLICAS as usize, plan.clone());
        let mut client = cluster.client().with_retry_policy(RetryPolicy {
            attempts: 3,
            try_timeout: Duration::from_millis(300),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
        });
        // A key with a holder, other than the stamping peer, of two or more
        // replicas: the put round packs its puts into one frame.
        let (key, holder, legs, others) = (0..)
            .map(|i| Key::new(format!("packed:{i}")))
            .find_map(|key| {
                let kts = cluster.timestamp_responsible(&key);
                let mut puts: BTreeMap<PeerId, u64> = BTreeMap::new();
                for h in 0..REPLICAS {
                    let peer = cluster.replica_responsible(HashId(h), &key);
                    if peer != kts {
                        *puts.entry(peer.unwrap()).or_default() += 1;
                    }
                }
                let (&holder, &legs) = puts.iter().find(|(_, legs)| **legs >= 2)?;
                Some((key, holder, legs, puts.len() as u64))
            })
            .expect("some holder gets two puts");
        // The first insert starts the counter (the founding rule).
        ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();

        let (messages, retries) = (client.messages(), client.retries());
        let suppressed = cluster.dedup().suppressed.get();
        let restorer = drop_the_next_reply_of(&plan, holder);
        let report = ums::insert(&mut client, &key, b"v2".to_vec()).unwrap();
        restorer.join().unwrap();
        assert_eq!(
            (report.replicas_written, report.replicas_failed),
            (REPLICAS as usize, 0),
            "{kind:?}"
        );
        assert_eq!(
            client.retries() - retries,
            legs,
            "{kind:?}: only that holder's puts were re-sent, one retry each"
        );
        assert_eq!(client.retry_exhaustions(), 0);
        assert_eq!(
            client.messages() - messages,
            2 + 2 * others + 1,
            "{kind:?}: the stamp, a frame pair per holder, and one packed re-send"
        );
        assert_eq!(
            cluster.dedup().suppressed.get() - suppressed,
            legs,
            "{kind:?}: each re-sent put answered from the window"
        );
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current && !got.degraded, "{kind:?}: {got:?}");
        assert_eq!(got.last_timestamp, report.timestamp);
        assert_eq!(got.data.unwrap(), b"v2");
        cluster.shutdown();
    });
}

/// The reply to a `gen_ts` that carried the stamping peer's puts is lost:
/// the client re-sends it under the same op, the peer answers from its dedup
/// window — the same stamp, and every carried put re-acknowledged, not
/// applied again — and the key certifies current with one increment.
#[test]
fn a_lost_stamping_reply_is_answered_from_the_window_with_the_same_stamp() {
    const REPLICAS: u32 = 4;
    both(|kind| {
        let plan = FaultPlan::new(0x57A3);
        let cluster = spawn_faulty(kind, 5, REPLICAS as usize, plan.clone());
        let mut client = cluster.client().with_retry_policy(RetryPolicy {
            attempts: 3,
            try_timeout: Duration::from_millis(300),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
        });
        let (key, _) = key_with_kts_sharing_a_replica(&cluster, "lost-stamp", REPLICAS);
        let first = ums::insert(&mut client, &key, b"v1".to_vec()).unwrap();
        let peer = cluster.timestamp_responsible(&key).unwrap();
        let carried = (0..REPLICAS)
            .filter(|h| cluster.replica_responsible(HashId(*h), &key) == Some(peer))
            .count() as u64;

        let suppressed = cluster.dedup().suppressed.get();
        let restorer = drop_the_next_reply_of(&plan, peer);
        let report = ums::insert(&mut client, &key, b"v2".to_vec()).unwrap();
        restorer.join().unwrap();
        assert_eq!(report.timestamp, Timestamp(first.timestamp.0 + 1));
        assert_eq!(
            (report.replicas_written, report.replicas_failed),
            (REPLICAS as usize, 0)
        );
        assert_eq!(client.retries(), 1, "{kind:?}: the stamp was re-sent once");
        assert_eq!(
            cluster.dedup().suppressed.get() - suppressed,
            1 + carried,
            "{kind:?}: the stamp and each carried put answered from the window"
        );
        let got = ums::retrieve(&mut client, &key).unwrap();
        assert!(got.is_current && !got.degraded, "{kind:?}: {got:?}");
        assert_eq!(
            got.last_timestamp, report.timestamp,
            "{kind:?}: one increment"
        );
        assert_eq!(got.data.unwrap(), b"v2");
        cluster.shutdown();
    });
}

// ---------------------------------------------------------------------------
// TCP redial: a peer restarting on a new port mid-stream
// ---------------------------------------------------------------------------

fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn wait_until_accepting(addr: &SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addr).is_err() {
        assert!(Instant::now() < deadline, "peer at {addr} never came up");
        thread::sleep(Duration::from_millis(5));
    }
}

fn spawn_tcp_peer(id: PeerId, addr: SocketAddr) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        serve_tcp_peer(TcpPeerConfig {
            id,
            peers: vec![(id, addr)],
            num_replicas: 2,
            seed: 9300,
            storage: None,
            trace_out: None,
        })
        .unwrap()
    })
}

/// A peer that comes back on a *different* port mid-stream: the pooled
/// connection dies, the book is updated, and the endpoint's capped-backoff
/// redial loop re-resolves the address and reconnects — same endpoint
/// object, no client restart.
#[test]
fn tcp_endpoint_redials_a_peer_restarted_on_a_new_port() {
    let id = PeerId(4_000);
    let first_addr = free_addr();
    let server = spawn_tcp_peer(id, first_addr);
    wait_until_accepting(&first_addr);

    let transport = TcpTransport::with_peers([(id, first_addr)]);
    let endpoint = transport.endpoint(id).unwrap();
    let key = Key::new("redial:key");
    let put = endpoint
        .send(Request::PutReplica {
            op: None,
            hash: rdht_hashing::HashId(0),
            key: key.clone(),
            payload: b"before".to_vec(),
            timestamp: Timestamp(1),
        })
        .unwrap();
    assert_eq!(put.wait(REPLY_WAIT).unwrap(), Reply::PutAck);

    // Take the peer down; the pooled connection is now dead. A data request
    // while it is gone must fail typed within the redial deadline, not hang.
    endpoint.send_no_reply(Request::Shutdown).unwrap();
    server.join().unwrap();
    // `unbind` joined the acceptor, so the listener is closed by the time
    // the peer has returned: no dial lands in a lingering backlog.
    assert!(
        TcpStream::connect(first_addr).is_err(),
        "a stopped peer must refuse dials at once"
    );
    let started = Instant::now();
    let get = || {
        endpoint.send(Request::GetReplica {
            hash: rdht_hashing::HashId(0),
            key: key.clone(),
        })
    };
    let mut outcome = get();
    if let Ok(accepted) = outcome {
        // The stale pooled connection took the write before its demux
        // reader saw the EOF. That exchange dies at the wait, the teardown
        // marks the connection dead, and the next send has to redial.
        assert!(accepted.wait(REPLY_WAIT).is_err());
        outcome = get();
    }
    assert!(outcome.is_err(), "a downed peer must fail the send");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "the redial loop must give up at its deadline"
    );

    // Restart on a fresh port, update the book: the same endpoint redials.
    let second_addr = free_addr();
    assert_ne!(first_addr, second_addr);
    let server = spawn_tcp_peer(id, second_addr);
    wait_until_accepting(&second_addr);
    transport.set_addr(id, second_addr);
    let got = endpoint
        .send(Request::GetReplica {
            hash: rdht_hashing::HashId(0),
            key,
        })
        .unwrap()
        .wait(REPLY_WAIT)
        .unwrap();
    // The restarted peer has a fresh store — the point is that the frame
    // reached it over the re-dialed connection at the new address.
    assert_eq!(got, Reply::Replica(None));
    endpoint.send_no_reply(Request::Shutdown).unwrap();
    server.join().unwrap();
}

// ---------------------------------------------------------------------------
// Dedup window: duplication/reordering ≡ exactly-once (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any duplication and reordering of a `gen_ts` op sequence is
    /// equivalent to applying each op exactly once: the counter advances by
    /// the number of *distinct* ops, every duplicate is re-acked from the
    /// cache, and the suppression counter accounts for every extra send.
    #[test]
    fn duplicated_reordered_gen_ts_applies_exactly_once(
        n in 1usize..24,
        extras in vec(any::<u16>(), 0..40),
        shuffle_seed in any::<u64>(),
    ) {
        let cluster = Cluster::spawn(3, 2, 9400);
        let key = Key::new("dedup:key");
        let mut client = cluster.client();
        // One insert initializes the key's counter to 1.
        ums::insert(&mut client, &key, b"seed".to_vec()).unwrap();
        let responsible = cluster.timestamp_responsible(&key).unwrap();
        let endpoint = cluster.peer_endpoint(responsible).unwrap();

        // Each distinct op at least once, plus duplicates, then a
        // deterministic Fisher–Yates shuffle.
        let mut schedule: Vec<u64> = (0..n as u64).collect();
        schedule.extend(extras.iter().map(|&e| u64::from(e) % n as u64));
        let mut state = shuffle_seed | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for i in (1..schedule.len()).rev() {
            let j = next(i + 1);
            schedule.swap(i, j);
        }

        let pending: Vec<_> = schedule
            .iter()
            .map(|&seq| {
                endpoint
                    .send(Request::Timestamp {
                        op: Some(OpId { client: 0xD00D, seq }),
                        key: key.clone(),
                        generate: true,
                        observation_hint: None,
                    })
                    .unwrap()
            })
            .collect();
        for p in pending {
            let reply = p.wait(REPLY_WAIT).unwrap();
            prop_assert!(
                matches!(reply, Reply::Timestamp(_)),
                "unexpected gen_ts reply: {:?}", reply
            );
        }

        let last = endpoint
            .send(Request::Timestamp {
                op: None,
                key: key.clone(),
                generate: false,
                observation_hint: None,
            })
            .unwrap()
            .wait(REPLY_WAIT)
            .unwrap();
        prop_assert_eq!(last, Reply::Timestamp(Timestamp(1 + n as u64)));
        prop_assert_eq!(
            cluster.dedup().suppressed.get(),
            (schedule.len() - n) as u64
        );
        cluster.shutdown();
    }
}
