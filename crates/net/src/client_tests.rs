//! How a round's frames are packed ([`pack`]) and read back
//! ([`scatter_back`]), checked on values: no peer, no transport.

use super::*;

const INSERT: OpId = OpId { client: 1, seq: 9 };

fn put(op: OpId, hash: u32) -> Request {
    Request::PutReplica {
        op: Some(op),
        hash: HashId(hash),
        key: Key::new("k"),
        payload: b"v".to_vec(),
        timestamp: Timestamp(4),
    }
}

fn get(hash: u32) -> Request {
    Request::GetReplica {
        hash: HashId(hash),
        key: Key::new("k"),
    }
}

fn untraced(requests: Vec<Request>) -> Vec<(Request, Option<TraceContext>)> {
    requests
        .into_iter()
        .map(|request| (request, None))
        .collect()
}

fn answered_with(outcome: Result<Reply, CallError>) -> Gathered {
    Gathered {
        outcome,
        landed: None,
    }
}

#[test]
fn one_inserts_puts_to_one_peer_travel_as_one_put_replicas() {
    let traced = TraceContext::sampled_root(0x11);
    let items = vec![
        (put(INSERT, 0), None),
        (put(INSERT, 2), Some(traced)),
        (put(INSERT, 3), Some(TraceContext::sampled_root(0x33))),
    ];
    let (request, trace) = pack(items);
    assert_eq!(
        request,
        Request::PutReplicas {
            op: Some(INSERT),
            hashes: vec![HashId(0), HashId(2), HashId(3)],
            key: Key::new("k"),
            payload: b"v".to_vec(),
            timestamp: Timestamp(4),
        }
    );
    assert_eq!(trace, Some(traced), "the first context among the puts");
}

#[test]
fn a_lone_put_travels_bare() {
    let traced = TraceContext::sampled_root(0x11);
    let (request, trace) = pack(vec![(put(INSERT, 1), Some(traced))]);
    assert_eq!(request, put(INSERT, 1));
    assert_eq!(trace, Some(traced));
}

#[test]
fn puts_of_two_ops_or_a_put_with_a_get_travel_as_a_batch() {
    let other = OpId { client: 1, seq: 10 };
    for requests in [
        vec![put(INSERT, 0), put(other, 1)],
        vec![put(INSERT, 0), get(1)],
        vec![get(0), put(INSERT, 1), put(INSERT, 2)],
    ] {
        let items = untraced(requests);
        let (request, trace) = pack(items.clone());
        assert_eq!(request, Request::Batch(items));
        assert_eq!(trace, None, "a batch's constituents carry the contexts");
    }
}

#[test]
fn a_clean_puts_ack_reads_back_as_one_put_ack_per_put() {
    let frame = answered_with(Ok(Reply::PutsAck {
        written: 3,
        failed: 0,
    }));
    let outcomes: Vec<_> = scatter_back(frame, 3)
        .into_iter()
        .map(|leg| leg.outcome.unwrap())
        .collect();
    assert_eq!(outcomes, vec![Reply::PutAck; 3]);
}

#[test]
fn a_partial_puts_ack_fails_every_put_of_the_frame() {
    let frame = answered_with(Ok(Reply::PutsAck {
        written: 2,
        failed: 1,
    }));
    let outcomes = scatter_back(frame, 3);
    assert_eq!(outcomes.len(), 3);
    for leg in outcomes {
        assert!(
            matches!(leg.outcome, Err(CallError::Rejected(_))),
            "{leg:?}"
        );
    }
}

#[test]
fn an_observation_is_complete_only_when_every_probe_answered() {
    // The fold is `rdht_core`'s; the client's part is reading each reply as
    // a probe, and `observe_all` keeps a key only if all `|Hr|` answered.
    let stored = |stamp| Ok(Reply::Replica(Some((b"v".to_vec(), Timestamp(stamp)))));
    let fold = |replies: Vec<Result<Reply, UmsError>>| {
        let observed = IndirectObservation::from_probes(replies.into_iter().map(probe));
        (observed.max_observed, observed.answered)
    };
    let full = fold(vec![stored(3), Ok(Reply::Replica(None)), stored(7)]);
    assert_eq!(full, (Some(Timestamp(7)), 3));
    let lost = fold(vec![
        stored(3),
        Err(UmsError::lookup("no reply")),
        stored(5),
    ]);
    assert_eq!(lost, (Some(Timestamp(5)), 2));
    // A reply that is not a replica read answers nothing.
    let odd = fold(vec![stored(2), Ok(Reply::PutAck)]);
    assert_eq!(odd, (Some(Timestamp(2)), 1));
}
