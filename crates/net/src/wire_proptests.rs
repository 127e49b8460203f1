//! Property tests for the wire codec: exhaustive round-trips over every
//! [`Request`]/[`Reply`] variant (including hand-off bundle payloads),
//! plus fuzzing properties — random bytes, truncations and corrupted
//! frames must produce a typed [`WireError`], never a panic.

use proptest::collection::vec;
use proptest::prelude::*;

use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};
use rdht_membership::HandoffBundle;
use rdht_metrics::{RequestTree, TraceContext};
use rdht_overlay::Record;

use crate::cluster::PeerId;
use crate::message::{HandoffFault, HandoffKind, OpId, Reply, Request};
use crate::wire::{
    decode_payload, encode_reply, encode_request, Envelope, FrameError, FrameReader, WireError,
    MAX_FRAME_LEN, WIRE_VERSION,
};

/// Raw material for one bundle entry: `(hash, key selector, stamp, position,
/// payload selector)`. Keys and payloads are derived deterministically so the
/// same tuple always builds the same entry.
type BundleRaw = (u32, u8, u64, u64, u8);

fn raw_key(selector: u8) -> Key {
    // Length 0..=16 with repeated content — covers the empty key too.
    Key::from_bytes(vec![selector; (selector % 17) as usize])
}

fn raw_payload(selector: u8, stamp: u64) -> Vec<u8> {
    stamp
        .to_le_bytes()
        .iter()
        .cycle()
        .take((selector % 37) as usize)
        .copied()
        .collect()
}

/// Derives an optional operation id from raw material: odd selectors carry
/// one, even selectors omit it, so both wire encodings are exercised.
fn raw_op(selector: u8, client: u64, seq: u64) -> Option<OpId> {
    (selector % 2 == 1).then_some(OpId { client, seq })
}

/// Raw material for an optional trace context: `(presence selector,
/// trace id, parent span, flags)`. Even selectors omit the context so both
/// wire encodings (absent tag and full context) are exercised.
type TraceRaw = (u8, u64, u64, u8);

fn raw_trace((selector, trace_id, parent_span, flags): TraceRaw) -> Option<TraceContext> {
    (selector % 2 == 1).then_some(TraceContext {
        trace_id,
        parent_span,
        flags,
    })
}

fn make_bundle(raw: &[BundleRaw]) -> HandoffBundle {
    let mut bundle = HandoffBundle::default();
    for &(hash, key_sel, stamp, position, pay_sel) in raw {
        let key = raw_key(key_sel);
        match pay_sel % 3 {
            0 => bundle.replicas.push((
                HashId(hash),
                key,
                Record {
                    payload: raw_payload(pay_sel, stamp),
                    stamp,
                    position,
                },
            )),
            1 => bundle.counters.push((key, Timestamp(stamp))),
            _ => bundle.floors.push((key, Timestamp(stamp))),
        }
    }
    bundle
}

/// Up to three request trees, each with up to four phases, derived from raw
/// material: names are cut from `text` at varying offsets and lengths, so
/// empty, ASCII and multi-byte names all occur.
fn make_trees(text: &str, a: u64, b: u64, count: u32, phases: u32) -> Vec<RequestTree> {
    let chars: Vec<char> = text.chars().collect();
    let name = |at: u32| -> String {
        let len = (at as usize * 3) % (chars.len() + 1);
        chars.iter().cycle().skip(at as usize).take(len).collect()
    };
    (0..count % 4)
        .map(|tree| RequestTree {
            trace_id: a.rotate_left(tree * 8),
            name: name(tree),
            total_us: b.wrapping_add(u64::from(tree)),
            phases: (0..phases.wrapping_add(tree) % 5)
                .map(|phase| (name(tree + phase + 1), a ^ u64::from(phase)))
                .collect(),
        })
        .collect()
}

/// Builds one of the eleven non-batch request variants from raw generated
/// material (`Batch` is built from these by [`make_batch`]). Selectors 0–4
/// are the data requests.
fn make_request(
    selector: u8,
    key_bytes: &[u8],
    payload: &[u8],
    hashes: &[u32],
    nums: (u64, u64, u64, u8, u8),
    bundle_raw: &[BundleRaw],
) -> Request {
    let key = Key::from_bytes(key_bytes.to_vec());
    let (a, b, c, flag_a, flag_b) = nums;
    match selector % 11 {
        0 => Request::PutReplica {
            op: raw_op(flag_b, b, c),
            hash: HashId(hashes.first().copied().unwrap_or(7)),
            key,
            payload: payload.to_vec(),
            timestamp: Timestamp(a),
        },
        1 => Request::PutReplicas {
            op: raw_op(flag_b, b, c),
            hashes: hashes.iter().copied().map(HashId).collect(),
            key,
            payload: payload.to_vec(),
            timestamp: Timestamp(a),
        },
        2 => Request::GetReplica {
            hash: HashId(hashes.first().copied().unwrap_or(7)),
            key,
        },
        3 => Request::Timestamp {
            op: raw_op(flag_a.wrapping_shr(1), a, c),
            key,
            generate: flag_a % 2 == 0,
            observation_hint: if flag_b % 2 == 0 {
                None
            } else {
                Some(Timestamp(b))
            },
        },
        4 => Request::StampAndPut {
            op: raw_op(flag_a, b, c),
            key,
            observation_hint: (flag_b % 2 == 1).then_some(Timestamp(a)),
            hashes: hashes.iter().copied().map(HashId).collect(),
            payload: payload.to_vec(),
        },
        5 => Request::HandoffRange {
            op: raw_op(flag_a ^ flag_b, a, b),
            start: a,
            end: b,
            target_id: PeerId(c),
            kind: if flag_a % 2 == 0 {
                HandoffKind::Join
            } else {
                HandoffKind::Leave
            },
            fault: match flag_b % 3 {
                0 => None,
                1 => Some(HandoffFault::CrashAfterExport),
                _ => Some(HandoffFault::CrashAfterInstall),
            },
        },
        6 => Request::InstallState {
            op: raw_op(flag_a, a, b),
            start: a,
            end: b,
            bundle: make_bundle(bundle_raw),
        },
        7 => Request::Shutdown,
        8 => Request::Crash,
        9 => Request::Metrics,
        _ => Request::SlowRequests { k: a as u32 },
    }
}

/// Raw material for one batch constituent: `(variant selector, hash,
/// number, flags, trace)`.
type BatchRaw = (u8, u32, u64, u8, TraceRaw);

/// Builds a [`Request::Batch`] of data requests — the only constituents the
/// codec admits — each with its own optional trace context.
fn make_batch(raw: &[BatchRaw], key_bytes: &[u8], payload: &[u8]) -> Request {
    let items = raw
        .iter()
        .map(|&(selector, hash, num, flags, trace)| {
            // Selectors 0–4 of `make_request` are the five data requests.
            let request = make_request(
                selector % 5,
                key_bytes,
                payload,
                &[hash, hash ^ 1],
                (num, !num, num.rotate_left(7), flags, flags >> 1),
                &[],
            );
            (request, raw_trace(trace))
        })
        .collect();
    Request::Batch(items)
}

/// Builds one of the twelve non-batch reply variants from raw generated
/// material.
fn make_reply(
    selector: u8,
    payload: &[u8],
    reason_bytes: &[u8],
    nums: (u64, u64, u32, u32),
) -> Reply {
    let (a, b, w, f) = nums;
    let reason = String::from_utf8_lossy(reason_bytes).into_owned();
    match selector % 12 {
        0 => Reply::PutAck,
        1 => Reply::PutsAck {
            written: w,
            failed: f,
        },
        2 => Reply::Replica(if w % 2 == 0 {
            None
        } else {
            Some((payload.to_vec(), Timestamp(a)))
        }),
        3 => Reply::Timestamp(Timestamp(a)),
        4 => Reply::NeedsInitialization,
        5 => Reply::HandoffComplete {
            replicas_moved: a as usize,
            counters_moved: b as usize,
        },
        6 => Reply::HandoffFailed { reason },
        7 => Reply::InstallAck {
            replicas_installed: a as usize,
            counters_received: b as usize,
        },
        8 => Reply::Error { reason },
        9 => Reply::Metrics(reason),
        10 => Reply::Stamped {
            timestamp: Timestamp(a),
            written: w,
            failed: f,
        },
        _ => Reply::SlowRequests(make_trees(&reason, a, b, w, f)),
    }
}

/// Splits a full frame into its length prefix and payload, checking the
/// prefix is consistent.
fn split_frame(frame: &[u8]) -> (usize, &[u8]) {
    assert!(frame.len() >= 4, "a frame always has a length prefix");
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    (len, &frame[4..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every request variant survives an encode → decode round trip, the
    /// length prefix matches the payload, and any strict prefix of the
    /// payload fails with a typed error (never a panic, never a bogus
    /// success).
    #[test]
    fn request_round_trip(
        selector in any::<u8>(),
        request_id in any::<u64>(),
        key_bytes in vec(any::<u8>(), 0..48),
        payload in vec(any::<u8>(), 0..160),
        hashes in vec(any::<u32>(), 0..12),
        nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>()),
        trace_raw in (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
    ) {
        let request = make_request(selector, &key_bytes, &payload, &hashes, nums, &[]);
        let trace = raw_trace(trace_raw);
        let frame = encode_request(request_id, &request, trace);
        let (len, body) = split_frame(&frame);
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Request { request_id, request, trace })
        );
        for cut in 0..body.len() {
            prop_assert!(decode_payload(&body[..cut]).is_err());
        }
    }

    /// A batch of data requests round-trips with every constituent — and
    /// every constituent's own trace context — intact; the envelope's
    /// context is independent of theirs; any strict prefix fails typed.
    #[test]
    fn batch_request_round_trip(
        request_id in any::<u64>(),
        key_bytes in vec(any::<u8>(), 0..24),
        payload in vec(any::<u8>(), 0..64),
        raw in vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<u8>(),
             (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>())),
            0..6,
        ),
        trace_raw in (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
    ) {
        let request = make_batch(&raw, &key_bytes, &payload);
        let trace = raw_trace(trace_raw);
        let frame = encode_request(request_id, &request, trace);
        let (len, body) = split_frame(&frame);
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Request { request_id, request, trace })
        );
        for cut in 0..body.len() {
            prop_assert!(decode_payload(&body[..cut]).is_err());
        }
    }

    /// A `gen_ts` carrying a store round-trips with every hash, the payload,
    /// the op and the hint intact, decodes as a `StampAndPut` (the store
    /// present) and never as a `Timestamp`, and any strict prefix fails
    /// typed; so does its `Stamped` reply.
    #[test]
    fn stamp_and_put_and_stamped_round_trip(
        request_id in any::<u64>(),
        key_bytes in vec(any::<u8>(), 0..24),
        payload in vec(any::<u8>(), 0..96),
        hashes in vec(any::<u32>(), 0..12),
        op_raw in (any::<u8>(), any::<u64>(), any::<u64>()),
        hint in (any::<bool>(), any::<u64>()),
        counts in (any::<u64>(), any::<u32>(), any::<u32>()),
    ) {
        let (stamp, written, failed) = counts;
        let request = Request::StampAndPut {
            op: raw_op(op_raw.0, op_raw.1, op_raw.2),
            key: Key::from_bytes(key_bytes),
            observation_hint: hint.0.then_some(Timestamp(hint.1)),
            hashes: hashes.into_iter().map(HashId).collect(),
            payload,
        };
        let frame = encode_request(request_id, &request, None);
        let (len, body) = split_frame(&frame);
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Request { request_id, request, trace: None })
        );
        for cut in 0..body.len() {
            prop_assert!(decode_payload(&body[..cut]).is_err());
        }

        let reply = Reply::Stamped { timestamp: Timestamp(stamp), written, failed };
        let frame = encode_reply(request_id, &reply);
        let (_, body) = split_frame(&frame);
        prop_assert_eq!(decode_payload(body), Ok(Envelope::Reply { request_id, reply }));
        for cut in 0..body.len() {
            prop_assert!(decode_payload(&body[..cut]).is_err());
        }
    }

    /// A batch of data replies round-trips in order, and any strict prefix
    /// fails typed.
    #[test]
    fn batch_reply_round_trip(
        request_id in any::<u64>(),
        payload in vec(any::<u8>(), 0..64),
        reason_bytes in vec(any::<u8>(), 0..24),
        raw in vec((0usize..7, any::<u64>(), any::<u32>(), any::<u32>()), 0..6),
    ) {
        // The reply variants a data request can be answered with.
        const DATA_REPLIES: [u8; 7] = [0, 1, 2, 3, 4, 8, 10];
        let replies = raw
            .iter()
            .map(|&(pick, a, w, f)| {
                make_reply(DATA_REPLIES[pick], &payload, &reason_bytes, (a, !a, w, f))
            })
            .collect();
        let reply = Reply::Batch(replies);
        let frame = encode_reply(request_id, &reply);
        let (len, body) = split_frame(&frame);
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Reply { request_id, reply })
        );
        for cut in 0..body.len() {
            prop_assert!(decode_payload(&body[..cut]).is_err());
        }
    }

    /// Corrupting a single byte of a valid batch never panics the decoder
    /// (the count, a constituent tag and a trace tag are all in reach).
    #[test]
    fn batch_single_byte_corruption_never_panics(
        request_id in any::<u64>(),
        key_bytes in vec(any::<u8>(), 0..12),
        raw in vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<u8>(),
             (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>())),
            1..5,
        ),
        corruption in (any::<u16>(), any::<u8>()),
    ) {
        let frame = encode_request(request_id, &make_batch(&raw, &key_bytes, &[7; 9]), None);
        let (_, body) = split_frame(&frame);
        let mut corrupted = body.to_vec();
        let (at, xor) = corruption;
        let at = at as usize % corrupted.len();
        corrupted[at] ^= xor.max(1);
        match decode_payload(&corrupted) {
            Err(_) => {}
            Ok(Envelope::Request { request_id, request, trace }) => {
                prop_assert_eq!(&encode_request(request_id, &request, trace)[4..], &corrupted[..]);
            }
            Ok(Envelope::Reply { request_id, reply }) => {
                prop_assert_eq!(&encode_reply(request_id, &reply)[4..], &corrupted[..]);
            }
        }
    }

    /// Any trace context — arbitrary trace id, parent span and flag bits —
    /// survives the round trip bit-for-bit, and the same frame under any
    /// version byte from v2 to v5 is refused: there is one wire version.
    #[test]
    fn trace_context_round_trip_and_downlevel_decode(
        request_id in any::<u64>(),
        key_bytes in vec(any::<u8>(), 0..24),
        trace_id in any::<u64>(),
        parent_span in any::<u64>(),
        flags in any::<u8>(),
        old_version in 2u8..=5,
    ) {
        let request = Request::GetReplica {
            hash: HashId(7),
            key: Key::from_bytes(key_bytes),
        };
        let trace = Some(TraceContext { trace_id, parent_span, flags });
        let frame = encode_request(request_id, &request, trace);
        let (_, body) = split_frame(&frame);
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Request { request_id, request, trace })
        );

        let mut old = body.to_vec();
        old[0] = old_version;
        prop_assert_eq!(
            decode_payload(&old),
            Err(WireError::UnsupportedVersion(old_version))
        );
    }

    /// Hand-off bundles — the largest, most nested payload — round-trip with
    /// every replica, counter and floor intact.
    #[test]
    fn install_state_round_trip(
        request_id in any::<u64>(),
        op_raw in (any::<u8>(), any::<u64>(), any::<u64>()),
        start in any::<u64>(),
        end in any::<u64>(),
        bundle_raw in vec((any::<u32>(), any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()), 0..16),
        trace_raw in (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
    ) {
        let request = Request::InstallState {
            op: raw_op(op_raw.0, op_raw.1, op_raw.2),
            start,
            end,
            bundle: make_bundle(&bundle_raw),
        };
        let trace = raw_trace(trace_raw);
        let frame = encode_request(request_id, &request, trace);
        let (len, body) = split_frame(&frame);
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Request { request_id, request, trace })
        );
    }

    /// Every reply variant survives an encode → decode round trip, and any
    /// strict prefix of the payload fails typed.
    #[test]
    fn reply_round_trip(
        selector in any::<u8>(),
        request_id in any::<u64>(),
        payload in vec(any::<u8>(), 0..160),
        reason_bytes in vec(any::<u8>(), 0..48),
        nums in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
    ) {
        let reply = make_reply(selector, &payload, &reason_bytes, nums);
        let frame = encode_reply(request_id, &reply);
        let (len, body) = split_frame(&frame);
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(
            decode_payload(body),
            Ok(Envelope::Reply { request_id, reply })
        );
        for cut in 0..body.len() {
            prop_assert!(decode_payload(&body[..cut]).is_err());
        }
    }

    /// Decoding arbitrary bytes never panics, and when it *does* succeed the
    /// bytes must be the canonical encoding of what was decoded (the codec
    /// has no redundant encodings and one version, so decode is the exact
    /// inverse of encode).
    #[test]
    fn garbage_decodes_to_typed_error_or_canonical_message(
        bytes in vec(any::<u8>(), 0..400),
    ) {
        match decode_payload(&bytes) {
            Err(_) => {} // typed rejection is the expected outcome
            Ok(Envelope::Request { request_id, request, trace }) => {
                prop_assert_eq!(&encode_request(request_id, &request, trace)[4..], &bytes[..]);
            }
            Ok(Envelope::Reply { request_id, reply }) => {
                prop_assert_eq!(&encode_reply(request_id, &reply)[4..], &bytes[..]);
            }
        }
    }

    /// Corrupting a single byte of a valid payload never panics the decoder:
    /// it either fails typed or decodes to some message whose canonical
    /// encoding is the corrupted bytes.
    #[test]
    fn single_byte_corruption_never_panics(
        selector in any::<u8>(),
        request_id in any::<u64>(),
        key_bytes in vec(any::<u8>(), 0..24),
        hashes in vec(any::<u32>(), 0..6),
        nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>()),
        corruption in (any::<u16>(), any::<u8>()),
        trace_raw in (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
    ) {
        let request = make_request(selector, &key_bytes, &[], &hashes, nums, &[]);
        let frame = encode_request(request_id, &request, raw_trace(trace_raw));
        let (_, body) = split_frame(&frame);
        let mut corrupted = body.to_vec();
        let (at, xor) = corruption;
        let at = at as usize % corrupted.len();
        corrupted[at] ^= xor.max(1); // always flips at least one bit
        let _ = decode_payload(&corrupted); // must not panic
    }

    /// A stream of several concatenated frames reads back frame by frame,
    /// ending with a clean EOF — and an arbitrary tail of garbage after the
    /// last full frame surfaces as an error, not a panic or a bogus frame.
    #[test]
    fn framed_stream_reads_back(
        ids in vec(any::<u64>(), 1..8),
        tail in vec(any::<u8>(), 0..3),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for &id in &ids {
            let request = Request::GetReplica {
                hash: HashId(id as u32),
                key: Key::from_bytes(id.to_le_bytes().to_vec()),
            };
            stream.extend_from_slice(&encode_request(id, &request, None));
            expected.push((id, request));
        }
        let clean_len = stream.len();
        stream.extend_from_slice(&tail);
        let mut reader = &stream[..];
        let mut frames = FrameReader::new();
        for (id, request) in expected {
            let payload = frames.next_frame(&mut reader).unwrap().expect("frame present");
            prop_assert_eq!(
                decode_payload(payload),
                Ok(Envelope::Request { request_id: id, request, trace: None })
            );
        }
        if tail.is_empty() {
            prop_assert_eq!(frames.next_frame(&mut reader).unwrap(), None);
        } else {
            // 1–2 stray bytes cannot form a length prefix: EOF mid-prefix.
            prop_assert!(frames.next_frame(&mut reader).is_err());
        }
        prop_assert_eq!(clean_len + tail.len(), stream.len());
    }

    /// However a socket splits the stream — reads ending anywhere, inside a
    /// length prefix or a payload, frames larger than the reader's buffer,
    /// a read timeout between any two reads — the buffered reader yields
    /// exactly the frames that were written, then a clean EOF.
    #[test]
    fn buffered_reader_survives_any_read_boundaries(
        key_lens in vec(0usize..20_000, 1..6),
        cuts in vec(1usize..3_000, 1..32),
        stalls in vec(any::<bool>(), 1..16),
    ) {
        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        for (id, &len) in key_lens.iter().enumerate() {
            let request = Request::GetReplica {
                hash: HashId(id as u32),
                key: Key::from_bytes(vec![id as u8; len]),
            };
            bytes.extend_from_slice(&encode_request(id as u64, &request, None));
            expected.push(Envelope::Request { request_id: id as u64, request, trace: None });
        }
        let mut stream = Chunked { bytes, at: 0, cuts, stalls, reads: 0, stalled: false };
        let mut frames = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match frames.next_frame(&mut stream) {
                Ok(Some(payload)) => got.push(decode_payload(payload).unwrap()),
                Ok(None) => break,
                Err(FrameError::Io(error)) if error.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(error) => prop_assert!(false, "unexpected error: {error}"),
            }
        }
        prop_assert_eq!(got, expected);
    }
}

/// A byte stream read back in chunks of the sizes in `cuts` (cycled), failing
/// with `WouldBlock` — what a read timeout looks like — before each read
/// `stalls` (cycled) marks: a socket, as the reader of it sees one.
struct Chunked {
    bytes: Vec<u8>,
    at: usize,
    cuts: Vec<usize>,
    stalls: Vec<bool>,
    reads: usize,
    stalled: bool,
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let read = self.reads;
        self.reads += 1;
        if !self.stalled && self.stalls[read % self.stalls.len()] {
            self.stalled = true;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.stalled = false;
        let n = self.cuts[read % self.cuts.len()]
            .min(buf.len())
            .min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[cfg(test)]
mod deterministic {
    use super::*;

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A prefix claiming u32::MAX bytes (≫ MAX_FRAME_LEN) must be refused
        // from the 4 prefix bytes alone — no buffer allocation, no read of
        // the (absent) payload.
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = &stream[..];
        match FrameReader::new().next_frame(&mut reader) {
            Err(FrameError::Wire(WireError::FrameTooLarge { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn boundary_length_prefix_is_accepted_one_past_is_not() {
        let over = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut reader = &over[..];
        assert!(matches!(
            FrameReader::new().next_frame(&mut reader),
            Err(FrameError::Wire(WireError::FrameTooLarge { .. }))
        ));
        // Exactly MAX_FRAME_LEN passes the prefix check (and then fails as
        // an incomplete frame, which is an I/O error, not a wire error).
        let at_max = MAX_FRAME_LEN.to_le_bytes();
        let mut reader = &at_max[..];
        assert!(matches!(
            FrameReader::new().next_frame(&mut reader),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn eof_inside_a_frame_is_an_io_error() {
        let frame = encode_request(1, &Request::Shutdown, None);
        let truncated = &frame[..frame.len() - 1];
        let mut reader = truncated;
        assert!(matches!(
            FrameReader::new().next_frame(&mut reader),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut frame = encode_request(1, &Request::Crash, None);
        frame[4] = WIRE_VERSION + 1; // version byte is first in the payload
        assert_eq!(
            decode_payload(&frame[4..]),
            Err(WireError::UnsupportedVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn unknown_message_kind_is_rejected() {
        let mut frame = encode_request(1, &Request::Crash, None);
        frame[5] = 9; // kind byte: neither request (0) nor reply (1)
        assert_eq!(
            decode_payload(&frame[4..]),
            Err(WireError::UnknownTag {
                context: "message kind",
                tag: 9
            })
        );
    }

    #[test]
    fn bogus_trace_tag_is_rejected() {
        // Offset 10 of the payload is the trace tag (version + kind +
        // request id precede it); only 0 (absent) and 1 (present) are legal.
        let frame = encode_request(1, &Request::Shutdown, None);
        let mut payload = frame[4..].to_vec();
        payload[10] = 2;
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::UnknownTag {
                context: "trace context",
                tag: 2
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let frame = encode_request(1, &Request::Shutdown, None);
        let mut payload = frame[4..].to_vec();
        payload.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::TrailingBytes { remaining: 3 })
        );
    }

    #[test]
    fn invalid_utf8_in_reason_is_typed() {
        let frame = encode_reply(
            1,
            &Reply::Error {
                reason: "ab".to_string(),
            },
        );
        let mut payload = frame[4..].to_vec();
        let len = payload.len();
        payload[len - 2] = 0xFF; // corrupt the reason's UTF-8 bytes
        payload[len - 1] = 0xFE;
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::InvalidUtf8 {
                context: "error reason"
            })
        );
    }

    /// The payload of a request frame whose body is `body` (no envelope
    /// trace context).
    fn request_payload(body: &[u8]) -> Vec<u8> {
        let mut payload = vec![WIRE_VERSION, 0];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(0); // trace context: absent
        payload.extend_from_slice(body);
        payload
    }

    /// The body of a batch holding exactly `constituent`, traceless, followed
    /// by `padding` zero bytes (so that a one-byte constituent still passes
    /// the count's length check and is judged by its tag).
    fn batch_of_one(constituent: &Request, padding: usize) -> Vec<u8> {
        let inner = encode_request(1, constituent, None);
        let mut body = vec![10]; // tag: Batch
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(0); // constituent trace: absent
        body.extend_from_slice(&inner[4 + 11..]); // skip length + envelope header
        body.resize(body.len() + padding, 0);
        body
    }

    #[test]
    fn the_previous_wire_version_is_refused() {
        let mut frame = encode_request(1, &Request::Metrics, None);
        frame[4] = WIRE_VERSION - 1;
        assert_eq!(
            decode_payload(&frame[4..]),
            Err(WireError::UnsupportedVersion(WIRE_VERSION - 1))
        );
    }

    #[test]
    fn a_batch_inside_a_batch_is_rejected_at_its_tag() {
        let nested = batch_of_one(&Request::Batch(Vec::new()), 16);
        assert_eq!(
            decode_payload(&request_payload(&nested)),
            Err(WireError::UnknownTag {
                context: "batch constituent tag",
                tag: 10
            })
        );
        // The same for replies.
        let mut payload = vec![WIRE_VERSION, 1];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(11); // tag: Batch
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(11); // constituent tag: Batch again
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::UnknownTag {
                context: "batch reply tag",
                tag: 11
            })
        );
    }

    #[test]
    fn only_data_requests_are_admitted_into_a_batch() {
        let hand_off = Request::InstallState {
            op: None,
            start: 1,
            end: 2,
            bundle: HandoffBundle::default(),
        };
        for (intruder, tag) in [
            (hand_off, 5),
            (Request::Shutdown, 6),
            (Request::Crash, 7),
            (Request::Metrics, 8),
            (Request::SlowRequests { k: 3 }, 9),
        ] {
            assert_eq!(
                decode_payload(&request_payload(&batch_of_one(&intruder, 16))),
                Err(WireError::UnknownTag {
                    context: "batch constituent tag",
                    tag
                }),
                "{intruder:?}"
            );
        }
        // A data request in the same position decodes.
        let get = Request::GetReplica {
            hash: HashId(2),
            key: Key::new("k"),
        };
        assert_eq!(
            decode_payload(&request_payload(&batch_of_one(&get, 0))),
            Ok(Envelope::Request {
                request_id: 1,
                request: Request::Batch(vec![(get, None)]),
                trace: None
            })
        );
    }

    #[test]
    fn a_batch_count_the_payload_cannot_hold_is_rejected_without_allocation() {
        let mut body = vec![10]; // tag: Batch
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_payload(&request_payload(&body)),
            Err(WireError::Truncated {
                context: "batch constituents"
            })
        );
        // Two constituents announced, room for one: still refused up front.
        let mut body = vec![10];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0; 9]);
        assert_eq!(
            decode_payload(&request_payload(&body)),
            Err(WireError::Truncated {
                context: "batch constituents"
            })
        );
    }

    /// The body of a `gen_ts` (or, with `generate == 0`, a `last_ts`) for
    /// the key `k`, op-less and hint-less, up to its store tag.
    fn timestamp_head(generate: u8) -> Vec<u8> {
        let mut body = vec![3, 0]; // tag: Timestamp; op id: absent
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'k');
        body.extend_from_slice(&[generate, 0]); // generate; hint: absent
        body
    }

    #[test]
    fn a_store_on_a_last_ts_is_refused_at_its_tag() {
        let mut body = timestamp_head(0);
        body.push(1); // store: present
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes()); // hash 0
        body.extend_from_slice(&0u32.to_le_bytes()); // empty payload
        assert_eq!(
            decode_payload(&request_payload(&body)),
            Err(WireError::UnknownTag {
                context: "store on a last_ts",
                tag: 1
            })
        );
        // The same bytes on a `gen_ts` are a store.
        body[7] = 1;
        assert!(matches!(
            decode_payload(&request_payload(&body)),
            Ok(Envelope::Request {
                request: Request::StampAndPut { .. },
                ..
            })
        ));
    }

    #[test]
    fn a_store_hash_count_the_frame_cannot_hold_is_rejected_without_allocation() {
        let mut body = timestamp_head(1);
        body.push(1); // store: present
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // hash count
        body.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_payload(&request_payload(&body)),
            Err(WireError::Truncated {
                context: "store hashes"
            })
        );
    }

    #[test]
    fn huge_vector_count_is_rejected_without_allocation() {
        // A PutReplicas body advertising u32::MAX hashes in a tiny payload
        // must fail typed before reserving any capacity.
        let mut payload = Vec::new();
        payload.push(WIRE_VERSION);
        payload.push(0); // kind: request
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(0); // trace context: absent
        payload.push(1); // tag: PutReplicas
        payload.push(0); // op id: absent
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // hash count
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::Truncated {
                context: "puts hashes"
            })
        );
    }
}
