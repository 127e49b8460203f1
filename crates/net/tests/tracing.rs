//! End-to-end distributed-tracing contract: sampled client calls propagate
//! their context over the wire, peers attribute wall time to named phases,
//! and the `SlowRequests` scrape returns trees whose phases account for the
//! request's time. Also pins the negative space: scrapes and lifecycle
//! messages never enter the sampler, and an untraced cluster records
//! nothing.

use rdht_core::ums;
use rdht_hashing::Key;
use rdht_net::{
    Cluster, ClusterConfig, PeerId, RequestTree, TraceConfig, TraceSink, TransportKind,
};

/// The five phases every peer-side request tree carries, in order.
const PEER_PHASES: [&str; 5] = ["queue_wait", "apply", "batch_wait", "fsync", "reply"];

fn phase_names(tree: &RequestTree) -> Vec<&str> {
    tree.phases.iter().map(|(name, _)| name.as_str()).collect()
}

/// One traced cluster + client over a shared sink, with every call sampled.
fn traced_cluster(kind: TransportKind, seed: u64) -> (Cluster, TraceSink) {
    let sink = TraceSink::new();
    let cluster = Cluster::spawn_with(
        ClusterConfig::new(4, 3, seed)
            .with_transport(kind)
            .with_trace(sink.clone()),
    );
    (cluster, sink)
}

#[test]
fn sampled_inserts_fill_peer_slowlogs_with_attributed_phases() {
    let (cluster, sink) = traced_cluster(TransportKind::Channel, 7201);
    let mut client = cluster.client();
    client.attach_trace(sink.clone(), TraceConfig::always());
    for i in 0..16 {
        let key = Key::new(format!("trace:{i}"));
        ums::insert(&mut client, &key, format!("v{i}").into_bytes()).unwrap();
    }

    let mut trees: Vec<RequestTree> = Vec::new();
    for peer in cluster.peer_ids() {
        trees.extend(client.slow_requests(peer, 32).unwrap());
    }
    assert!(
        !trees.is_empty(),
        "sampled inserts must land in at least one peer slowlog"
    );
    for tree in &trees {
        assert_eq!(phase_names(tree), PEER_PHASES, "tree {}", tree.name);
        assert_ne!(tree.trace_id, 0, "sampled trees carry the client trace id");
        // The phases partition arrival → reply-sent exactly; each phase
        // (and the total) truncates to whole microseconds, so the sum may
        // fall short of the total by less than one microsecond per phase
        // and can never exceed it.
        let attributed = tree.attributed_us();
        assert!(
            attributed <= tree.total_us && attributed + PEER_PHASES.len() as u64 > tree.total_us,
            "{attributed}µs of {}µs attributed in {:?}",
            tree.total_us,
            tree
        );
    }

    // The client kept its own view of the same calls.
    let calls = client.slow_calls(32);
    assert!(!calls.is_empty(), "client slowlog records sampled calls");
    assert!(calls.iter().all(|tree| tree.trace_id != 0));

    cluster.shutdown();

    // One trace id must appear on both sides of the wire: in a client span
    // and in a peer span of the shared sink.
    let events = sink.events();
    let ids_of = |prefix: &str| -> Vec<String> {
        events
            .iter()
            .filter(|event| event.name.starts_with(prefix))
            .flat_map(|event| {
                event
                    .args
                    .iter()
                    .filter(|(key, _)| key == "trace_id")
                    .map(|(_, value)| value.clone())
            })
            .flat_map(|joined| joined.split(',').map(str::to_string).collect::<Vec<_>>())
            .collect()
    };
    let client_ids = ids_of("client.");
    let peer_ids = ids_of("peer.");
    assert!(!client_ids.is_empty(), "client spans recorded");
    assert!(!peer_ids.is_empty(), "peer spans recorded");
    assert!(
        client_ids.iter().any(|id| peer_ids.contains(id)),
        "a sampled trace id must span both the client and a peer"
    );
    // The storage engine's observer hook fired for the covering syncs.
    assert!(
        events.iter().any(|event| event.name == "peer.fsync"),
        "batch-covering fsync spans recorded"
    );
}

/// Membership coordination is traced on a traced cluster: the hand-off a
/// join drives records its three phases at the source, under one trace id.
#[test]
fn a_join_records_the_three_handoff_phase_spans() {
    let (mut cluster, sink) = traced_cluster(TransportKind::Channel, 7205);
    let mut client = cluster.client();
    for i in 0..8u8 {
        ums::insert(&mut client, &Key::new(format!("handoff:{i}")), vec![i]).unwrap();
    }
    let ids = cluster.peer_ids();
    cluster
        .join_peer(PeerId(ids[0].0 + (ids[1].0 - ids[0].0) / 2))
        .unwrap();
    cluster.shutdown();

    // No client sampled anything, so the coordinator's trace is the only one.
    let events = sink.events();
    let trace_ids: Vec<&str> = ["export", "install", "commit"]
        .iter()
        .map(|phase| {
            let name = format!("peer.handoff_{phase}");
            let mut spans = events.iter().filter(|event| event.name == name);
            let span = spans.next().unwrap_or_else(|| panic!("no {name} span"));
            assert!(spans.next().is_none(), "one {name} span per hand-off");
            let (_, id) = span
                .args
                .iter()
                .find(|(key, _)| key == "trace_id")
                .expect("phase spans carry their trace id");
            id.as_str()
        })
        .collect();
    assert!(
        trace_ids.iter().all(|id| *id == trace_ids[0]),
        "the three phases belong to one hand-off: {trace_ids:?}"
    );
}

/// The constituents of a batch are traced one by one: a sampled retrieve
/// whose `last_ts` and probe share a frame leaves a `timestamp` tree and a
/// `get` tree at that peer, under two different trace ids (they are two
/// calls), each with phases that partition its arrival → reply exactly —
/// on both transports, so the per-constituent contexts survive the wire.
#[test]
fn batched_constituents_keep_their_own_trace_contexts() {
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let (cluster, sink) = traced_cluster(kind, 7206);
        let mut client = cluster.client();
        let key = (0..)
            .map(|i| Key::new(format!("batched:{i}")))
            .find(|key| {
                let kts = cluster.timestamp_responsible(key);
                (0..3).any(|h| cluster.replica_responsible(rdht_hashing::HashId(h), key) == kts)
            })
            .unwrap();
        ums::insert(&mut client, &key, b"v".to_vec()).unwrap();
        // Only the retrieve is sampled.
        client.attach_trace(sink.clone(), TraceConfig::always());
        let messages = client.messages();
        assert!(ums::retrieve(&mut client, &key).unwrap().is_current);
        assert_eq!(
            client.messages() - messages,
            2,
            "{kind:?}: one frame each way"
        );

        let peer = cluster.timestamp_responsible(&key).unwrap();
        let trees = client.slow_requests(peer, 8).unwrap();
        let mut names: Vec<&str> = trees.iter().map(|tree| tree.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["get", "timestamp"], "{kind:?}: {trees:?}");
        assert_ne!(trees[0].trace_id, trees[1].trace_id);
        for tree in &trees {
            assert_eq!(phase_names(tree), PEER_PHASES);
            let attributed = tree.attributed_us();
            assert!(
                attributed <= tree.total_us
                    && attributed + PEER_PHASES.len() as u64 > tree.total_us,
                "{kind:?}: {attributed}µs of {}µs attributed in {tree:?}",
                tree.total_us
            );
        }
        cluster.shutdown();
    }
}

#[test]
fn scrapes_and_lifecycle_bypass_the_sampler() {
    let (cluster, sink) = traced_cluster(TransportKind::Channel, 7202);
    let mut client = cluster.client();
    client.attach_trace(sink.clone(), TraceConfig::always());

    // Protocol-noise requests: metrics scrapes and slowlog scrapes. None of
    // them may enter a slowlog or emit spans, even at sample rate 1.0.
    let peer = cluster.peer_ids()[0];
    for _ in 0..4 {
        let trees = client.slow_requests(peer, 8).unwrap();
        assert!(trees.is_empty(), "scrapes must never trace themselves");
    }
    assert!(client.slow_calls(8).is_empty());
    cluster.shutdown();
    assert!(
        sink.events().is_empty(),
        "no data request was made, so nothing may have been traced: {:?}",
        sink.events()
    );
}

#[test]
fn unsampled_clusters_record_nothing() {
    let cluster =
        Cluster::spawn_with(ClusterConfig::new(3, 2, 7203).with_transport(TransportKind::Channel));
    let mut client = cluster.client();
    // No attach_trace: the sampler is off, requests carry no context.
    for i in 0..4 {
        let key = Key::new(format!("plain:{i}"));
        ums::insert(&mut client, &key, vec![i]).unwrap();
    }
    for peer in cluster.peer_ids() {
        assert!(
            client.slow_requests(peer, 8).unwrap().is_empty(),
            "an untraced workload must leave every peer slowlog empty"
        );
    }
    cluster.shutdown();
}

#[test]
fn tracing_works_over_tcp() {
    let (cluster, sink) = traced_cluster(TransportKind::Tcp, 7204);
    let mut client = cluster.client();
    client.attach_trace(sink.clone(), TraceConfig::always());
    for i in 0..8 {
        let key = Key::new(format!("tcp-trace:{i}"));
        ums::insert(&mut client, &key, vec![i]).unwrap();
    }
    let mut trees: Vec<RequestTree> = Vec::new();
    for peer in cluster.peer_ids() {
        trees.extend(client.slow_requests(peer, 16).unwrap());
    }
    assert!(
        !trees.is_empty(),
        "trace contexts must survive the TCP wire"
    );
    for tree in &trees {
        assert_eq!(phase_names(tree), PEER_PHASES);
    }
    cluster.shutdown();
}
