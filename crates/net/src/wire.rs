//! The wire codec: deterministic, versioned, length-framed binary
//! encoding of [`Request`]/[`Reply`] envelopes.
//!
//! # Frame layout
//!
//! ```text
//! frame   := len: u32 LE | payload               (len = payload byte count)
//! payload := version: u8                         (WIRE_VERSION, currently 6)
//!            kind: u8                            (0 = request, 1 = reply)
//!            request_id: u64 LE                  (matches replies to requests)
//!            trace: Option<TraceContext>         (requests only)
//!            body                                (tagged per message variant)
//! ```
//!
//! Primitive encodings, all little-endian and length-prefixed:
//!
//! * `u8`/`u32`/`u64` — fixed-width LE;
//! * `bytes` — `u32 LE` length, then the raw bytes;
//! * `string` — `bytes`, validated UTF-8 on decode;
//! * `Vec<T>` — `u32 LE` element count, then each element;
//! * `Option<T>` — `u8` tag (0 = none, 1 = some), then the value;
//! * enums — `u8` tag, then the variant's fields in declaration order.
//!
//! # Batches (v5)
//!
//! Request tag 10 and reply tag 11 carry several messages in one frame:
//!
//! ```text
//! Request::Batch := 10 | count: u32 | count × ( trace: Option<TraceContext> | request body )
//! Reply::Batch   := 11 | count: u32 | count × ( reply body )
//! ```
//!
//! Each constituent is a complete tagged body, and a request constituent
//! keeps its own trace context (the envelope's is absent). The decoder
//! admits only data messages inside a batch — the request kinds whose `data`
//! column is set and the reply kinds whose `answers_data` is, in the kind
//! tables of `message.rs` — so a batch inside a batch, or a protocol or
//! lifecycle message smuggled into one, is an [`WireError::UnknownTag`]
//! raised at the constituent's tag byte, before anything of it is decoded; a
//! count the remaining payload cannot hold is [`WireError::Truncated`]
//! before the vector is reserved.
//!
//! # A `gen_ts` that stores (v6)
//!
//! A timestamp request ends with an optional store, and reply tag 12
//! answers one that carried a store:
//!
//! ```text
//! Timestamp     := 3 | op | key | generate: u8 | hint: Option<u64>
//!                    | store: Option<( hashes: Vec<u32> | payload: bytes )>
//! Reply::Stamped := 12 | timestamp: u64 | written: u32 | failed: u32
//! ```
//!
//! Without a store the body is a [`Request::Timestamp`], with one a
//! [`Request::StampAndPut`]. Only a `gen_ts` stores: a store after
//! `generate = 0` is an [`WireError::UnknownTag`] at the store tag, and a
//! hash count the remaining payload cannot hold is
//! [`WireError::Truncated`], both before the hash vector is reserved.
//!
//! Every frame is self-delimiting (the length prefix) and self-describing
//! (version + kind + body tag), so a reader can reject garbage *typed*:
//! an oversized length prefix, an unknown version, an unknown tag, a
//! truncated body or trailing bytes each map to a distinct [`WireError`]
//! instead of a panic. Decoding is exhaustive — every byte of the payload
//! must be consumed.

use std::fmt;
use std::io::{self, Read};

use crate::handoff::HandoffBundle;
use rdht_core::Timestamp;
use rdht_hashing::{HashId, Key};
use rdht_metrics::{RequestTree, TraceContext};
use rdht_overlay::Record;

use crate::cluster::PeerId;
use crate::message::{HandoffFault, HandoffKind, OpId, Reply, ReplyKind, Request, RequestKind};

/// Version byte every frame starts with. Bumped on any incompatible layout
/// change; the decoder accepts exactly this version and rejects every other
/// with [`WireError::UnsupportedVersion`] — there is no deployed fleet to
/// stay compatible with, so there is one wire version.
pub const WIRE_VERSION: u8 = 6;

/// Upper bound on a frame's payload length (64 MiB). A length prefix above
/// this is rejected *before* any allocation — a garbage or hostile prefix
/// must not make the peer reserve gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const KIND_REQUEST: u8 = 0;
const KIND_REPLY: u8 = 1;

/// Fewest bytes a batched request occupies: an absent trace context and a
/// hint-less, op-less, store-less `Timestamp` of the empty key (tag, op tag,
/// key length, `generate`, hint tag, store tag).
const MIN_BATCHED_REQUEST_LEN: usize = 1 + 1 + 1 + 4 + 1 + 1 + 1;

/// A typed wire-codec failure. Every decode error is one of these — the
/// codec never panics on garbage input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The advertised payload length.
        len: u32,
        /// The configured maximum.
        max: u32,
    },
    /// The payload ended before the announced structure was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// An enum tag byte (message kind, variant tag, option/bool tag) has no
    /// defined meaning.
    UnknownTag {
        /// The enum the tag was decoded for.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field does not hold valid UTF-8.
    InvalidUtf8 {
        /// The field being decoded.
        context: &'static str,
    },
    /// The payload holds more bytes than its structure accounts for.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Truncated { context } => {
                write!(f, "payload truncated while decoding {context}")
            }
            WireError::UnsupportedVersion(version) => {
                write!(
                    f,
                    "unsupported wire version {version} (expected {WIRE_VERSION})"
                )
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag} for {context}")
            }
            WireError::InvalidUtf8 { context } => {
                write!(f, "invalid UTF-8 in {context}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete message")
            }
        }
    }
}

impl WireError {
    /// The variant's name — the stable, low-cardinality label structured
    /// log events carry alongside the full rendered message.
    pub fn variant(&self) -> &'static str {
        match self {
            WireError::FrameTooLarge { .. } => "FrameTooLarge",
            WireError::Truncated { .. } => "Truncated",
            WireError::UnsupportedVersion(_) => "UnsupportedVersion",
            WireError::UnknownTag { .. } => "UnknownTag",
            WireError::InvalidUtf8 { .. } => "InvalidUtf8",
            WireError::TrailingBytes { .. } => "TrailingBytes",
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame payload: either direction of the protocol, with the
/// request id that matches replies to requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Envelope {
    /// A client-to-peer (or peer-to-peer) request.
    Request {
        /// Id the eventual reply must echo.
        request_id: u64,
        /// The request itself.
        request: Request,
        /// Distributed-tracing context propagated alongside the request;
        /// `None` when the call is unsampled (and on a [`Request::Batch`],
        /// whose constituents carry their own).
        trace: Option<TraceContext>,
    },
    /// A peer's answer to the request with the same id.
    Reply {
        /// Id of the request being answered.
        request_id: u64,
        /// The reply itself.
        reply: Reply,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(
        out,
        u32::try_from(bytes.len()).expect("byte field fits in u32"),
    );
    out.extend_from_slice(bytes);
}

fn put_bool(out: &mut Vec<u8>, value: bool) {
    put_u8(out, u8::from(value));
}

fn put_key(out: &mut Vec<u8>, key: &Key) {
    put_bytes(out, key.as_bytes());
}

fn put_counters(out: &mut Vec<u8>, counters: &[(Key, Timestamp)]) {
    put_u32(out, counters.len() as u32);
    for (key, stamp) in counters {
        put_key(out, key);
        put_u64(out, stamp.0);
    }
}

fn put_op(out: &mut Vec<u8>, op: &Option<OpId>) {
    match op {
        None => put_u8(out, 0),
        Some(op) => {
            put_u8(out, 1);
            put_u64(out, op.client);
            put_u64(out, op.seq);
        }
    }
}

fn put_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    match trace {
        None => put_u8(out, 0),
        Some(context) => {
            put_u8(out, 1);
            put_u64(out, context.trace_id);
            put_u64(out, context.parent_span);
            put_u8(out, context.flags);
        }
    }
}

fn put_trees(out: &mut Vec<u8>, trees: &[RequestTree]) {
    put_u32(out, trees.len() as u32);
    for tree in trees {
        put_u64(out, tree.trace_id);
        put_bytes(out, tree.name.as_bytes());
        put_u64(out, tree.total_us);
        put_u32(out, tree.phases.len() as u32);
        for (name, dur_us) in &tree.phases {
            put_bytes(out, name.as_bytes());
            put_u64(out, *dur_us);
        }
    }
}

fn put_bundle(out: &mut Vec<u8>, bundle: &HandoffBundle) {
    put_u32(out, bundle.replicas.len() as u32);
    for (hash, key, replica) in &bundle.replicas {
        put_u32(out, hash.0);
        put_key(out, key);
        put_bytes(out, &replica.payload);
        put_u64(out, replica.stamp);
        put_u64(out, replica.position);
    }
    put_counters(out, &bundle.counters);
    put_counters(out, &bundle.floors);
}

fn put_hashes(out: &mut Vec<u8>, hashes: &[HashId]) {
    put_u32(out, hashes.len() as u32);
    for hash in hashes {
        put_u32(out, hash.0);
    }
}

/// A timestamp request body after its tag: `store` is the hashes and payload
/// of a [`Request::StampAndPut`], absent for a [`Request::Timestamp`].
fn put_timestamp(
    out: &mut Vec<u8>,
    op: &Option<OpId>,
    key: &Key,
    generate: bool,
    observation_hint: &Option<Timestamp>,
    store: Option<(&[HashId], &[u8])>,
) {
    put_op(out, op);
    put_key(out, key);
    put_bool(out, generate);
    match observation_hint {
        None => put_u8(out, 0),
        Some(hint) => {
            put_u8(out, 1);
            put_u64(out, hint.0);
        }
    }
    match store {
        None => put_u8(out, 0),
        Some((hashes, payload)) => {
            put_u8(out, 1);
            put_hashes(out, hashes);
            put_bytes(out, payload);
        }
    }
}

/// A request body: the kind's tag, then the variant's fields.
fn put_request_body(out: &mut Vec<u8>, request: &Request) {
    put_u8(out, request.kind().tag());
    match request {
        Request::PutReplica {
            op,
            hash,
            key,
            payload,
            timestamp,
        } => {
            put_op(out, op);
            put_u32(out, hash.0);
            put_key(out, key);
            put_bytes(out, payload);
            put_u64(out, timestamp.0);
        }
        Request::PutReplicas {
            op,
            hashes,
            key,
            payload,
            timestamp,
        } => {
            put_op(out, op);
            put_hashes(out, hashes);
            put_key(out, key);
            put_bytes(out, payload);
            put_u64(out, timestamp.0);
        }
        Request::GetReplica { hash, key } => {
            put_u32(out, hash.0);
            put_key(out, key);
        }
        Request::Timestamp {
            op,
            key,
            generate,
            observation_hint,
        } => put_timestamp(out, op, key, *generate, observation_hint, None),
        Request::StampAndPut {
            op,
            key,
            observation_hint,
            hashes,
            payload,
        } => put_timestamp(
            out,
            op,
            key,
            true,
            observation_hint,
            Some((hashes, payload)),
        ),
        Request::HandoffRange {
            op,
            start,
            end,
            target_id,
            kind,
            fault,
        } => {
            put_op(out, op);
            put_u64(out, *start);
            put_u64(out, *end);
            put_u64(out, target_id.0);
            put_u8(
                out,
                match kind {
                    HandoffKind::Join => 0,
                    HandoffKind::Leave => 1,
                },
            );
            put_u8(
                out,
                match fault {
                    None => 0,
                    Some(HandoffFault::CrashAfterExport) => 1,
                    Some(HandoffFault::CrashAfterInstall) => 2,
                },
            );
        }
        Request::InstallState {
            op,
            start,
            end,
            bundle,
        } => {
            put_op(out, op);
            put_u64(out, *start);
            put_u64(out, *end);
            put_bundle(out, bundle);
        }
        Request::Crash | Request::Shutdown | Request::Metrics => {}
        Request::SlowRequests { k } => put_u32(out, *k),
        Request::Batch(items) => {
            put_u32(out, items.len() as u32);
            for (request, trace) in items {
                put_trace(out, trace);
                put_request_body(out, request);
            }
        }
    }
}

/// A reply body: the kind's tag, then the variant's fields.
fn put_reply_body(out: &mut Vec<u8>, reply: &Reply) {
    put_u8(out, reply.kind().tag());
    match reply {
        Reply::PutAck | Reply::NeedsInitialization => {}
        Reply::PutsAck { written, failed } => {
            put_u32(out, *written);
            put_u32(out, *failed);
        }
        Reply::Replica(stored) => match stored {
            None => put_u8(out, 0),
            Some((payload, timestamp)) => {
                put_u8(out, 1);
                put_bytes(out, payload);
                put_u64(out, timestamp.0);
            }
        },
        Reply::Timestamp(ts) => put_u64(out, ts.0),
        Reply::Stamped {
            timestamp,
            written,
            failed,
        } => {
            put_u64(out, timestamp.0);
            put_u32(out, *written);
            put_u32(out, *failed);
        }
        Reply::HandoffComplete {
            replicas_moved,
            counters_moved,
        } => {
            put_u64(out, *replicas_moved as u64);
            put_u64(out, *counters_moved as u64);
        }
        Reply::HandoffFailed { reason } | Reply::Error { reason } => {
            put_bytes(out, reason.as_bytes())
        }
        Reply::InstallAck {
            replicas_installed,
            counters_received,
        } => {
            put_u64(out, *replicas_installed as u64);
            put_u64(out, *counters_received as u64);
        }
        Reply::Metrics(exposition) => put_bytes(out, exposition.as_bytes()),
        Reply::SlowRequests(trees) => put_trees(out, trees),
        Reply::Batch(replies) => {
            put_u32(out, replies.len() as u32);
            for reply in replies {
                put_reply_body(out, reply);
            }
        }
    }
}

fn encode_frame(kind: u8, request_id: u64, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    // Placeholder for the length prefix, patched below.
    out.extend_from_slice(&[0u8; 4]);
    put_u8(&mut out, WIRE_VERSION);
    put_u8(&mut out, kind);
    put_u64(&mut out, request_id);
    body(&mut out);
    let payload_len = u32::try_from(out.len() - 4).expect("frame payload fits in u32");
    assert!(
        payload_len <= MAX_FRAME_LEN,
        "encoded frame of {payload_len} bytes exceeds MAX_FRAME_LEN"
    );
    out[..4].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Encodes a request envelope into a complete frame (length prefix
/// included), ready to be written to a stream. The optional trace context
/// rides in the envelope header, ahead of the body — `None` costs one tag
/// byte.
pub fn encode_request(request_id: u64, request: &Request, trace: Option<TraceContext>) -> Vec<u8> {
    encode_frame(KIND_REQUEST, request_id, |out| {
        put_trace(out, &trace);
        put_request_body(out, request)
    })
}

/// Encodes a reply envelope into a complete frame (length prefix included).
pub fn encode_reply(request_id: u64, reply: &Reply) -> Vec<u8> {
    encode_frame(KIND_REPLY, request_id, |out| put_reply_body(out, reply))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor over a frame payload; every read is bounds-checked and errors are
/// typed, never panicking on garbage.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Truncated { context })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let bytes = self.take(4, context)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let bytes = self.take(8, context)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.u32(context)? as usize;
        self.take(len, context)
    }

    fn string(&mut self, context: &'static str) -> Result<String, WireError> {
        let bytes = self.bytes(context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8 { context })
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    /// A tag byte and the kind `kind_of` admits it as; a byte it does not is
    /// an [`WireError::UnknownTag`] under `context`.
    fn tagged<K>(
        &mut self,
        context: &'static str,
        kind_of: impl FnOnce(u8) -> Option<K>,
    ) -> Result<K, WireError> {
        let tag = self.u8(context)?;
        kind_of(tag).ok_or(WireError::UnknownTag { context, tag })
    }

    fn key(&mut self, context: &'static str) -> Result<Key, WireError> {
        Ok(Key::from_bytes(self.bytes(context)?.to_vec()))
    }

    /// Element count of a length-prefixed vector, sanity-bounded by the
    /// remaining payload so a garbage count cannot drive a huge
    /// pre-allocation.
    fn count(&mut self, min_element: usize, context: &'static str) -> Result<usize, WireError> {
        let count = self.u32(context)? as usize;
        let remaining = self.bytes.len() - self.at;
        if count.saturating_mul(min_element.max(1)) > remaining {
            return Err(WireError::Truncated { context });
        }
        Ok(count)
    }

    /// A length-prefixed vector of replication hash ids; the count is
    /// checked against the remaining payload before anything is reserved.
    fn hashes(&mut self, context: &'static str) -> Result<Vec<HashId>, WireError> {
        let count = self.count(4, context)?;
        let mut hashes = Vec::with_capacity(count);
        for _ in 0..count {
            hashes.push(HashId(self.u32(context)?));
        }
        Ok(hashes)
    }

    fn op(&mut self, context: &'static str) -> Result<Option<OpId>, WireError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(OpId {
                client: self.u64(context)?,
                seq: self.u64(context)?,
            })),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    fn trace(&mut self, context: &'static str) -> Result<Option<TraceContext>, WireError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(TraceContext {
                trace_id: self.u64(context)?,
                parent_span: self.u64(context)?,
                flags: self.u8(context)?,
            })),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    fn trees(&mut self) -> Result<Vec<RequestTree>, WireError> {
        let count = self.count(8 + 4 + 8 + 4, "slow-request trees")?;
        let mut trees = Vec::with_capacity(count);
        for _ in 0..count {
            let trace_id = self.u64("tree trace id")?;
            let name = self.string("tree name")?;
            let total_us = self.u64("tree total")?;
            let phase_count = self.count(4 + 8, "tree phases")?;
            let mut phases = Vec::with_capacity(phase_count);
            for _ in 0..phase_count {
                let phase = self.string("phase name")?;
                let dur_us = self.u64("phase duration")?;
                phases.push((phase, dur_us));
            }
            trees.push(RequestTree {
                trace_id,
                name,
                total_us,
                phases,
            });
        }
        Ok(trees)
    }

    fn counters(&mut self, context: &'static str) -> Result<Vec<(Key, Timestamp)>, WireError> {
        let count = self.count(4 + 8, context)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let key = self.key(context)?;
            let stamp = Timestamp(self.u64(context)?);
            out.push((key, stamp));
        }
        Ok(out)
    }

    fn bundle(&mut self) -> Result<HandoffBundle, WireError> {
        let count = self.count(4 + 4 + 4 + 8 + 8, "bundle replicas")?;
        let mut replicas = Vec::with_capacity(count);
        for _ in 0..count {
            let hash = HashId(self.u32("bundle replica hash")?);
            let key = self.key("bundle replica key")?;
            let payload = self.bytes("bundle replica payload")?.to_vec();
            let stamp = self.u64("bundle replica stamp")?;
            let position = self.u64("bundle replica position")?;
            replicas.push((
                hash,
                key,
                Record {
                    payload,
                    stamp,
                    position,
                },
            ));
        }
        let counters = self.counters("bundle counters")?;
        let floors = self.counters("bundle floors")?;
        Ok(HandoffBundle {
            replicas,
            counters,
            floors,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        let remaining = self.bytes.len() - self.at;
        if remaining != 0 {
            return Err(WireError::TrailingBytes { remaining });
        }
        Ok(())
    }
}

fn decode_request_body(cursor: &mut Cursor<'_>) -> Result<Request, WireError> {
    let kind = cursor.tagged("request tag", RequestKind::from_tag)?;
    decode_tagged_request(cursor, kind)
}

/// The constituents of a [`Request::Batch`]. Each tag must name a data kind
/// before its body is touched, so a nested batch cannot recurse and a
/// smuggled protocol message is never materialised.
fn decode_batched_requests(
    cursor: &mut Cursor<'_>,
) -> Result<Vec<(Request, Option<TraceContext>)>, WireError> {
    let count = cursor.count(MIN_BATCHED_REQUEST_LEN, "batch constituents")?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let trace = cursor.trace("batch constituent trace")?;
        let kind = cursor.tagged("batch constituent tag", |tag| {
            RequestKind::from_tag(tag).filter(|kind| kind.row().data)
        })?;
        items.push((decode_tagged_request(cursor, kind)?, trace));
    }
    Ok(items)
}

/// The constituents of a [`Reply::Batch`], under the same rule as
/// [`decode_batched_requests`].
fn decode_batched_replies(cursor: &mut Cursor<'_>) -> Result<Vec<Reply>, WireError> {
    let count = cursor.count(1, "batch replies")?;
    let mut replies = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = cursor.tagged("batch reply tag", |tag| {
            ReplyKind::from_tag(tag).filter(|kind| kind.row().answers_data)
        })?;
        replies.push(decode_tagged_reply(cursor, kind)?);
    }
    Ok(replies)
}

/// A request body after its tag: the fields of `kind`.
fn decode_tagged_request(cursor: &mut Cursor<'_>, kind: RequestKind) -> Result<Request, WireError> {
    match kind {
        RequestKind::Put => Ok(Request::PutReplica {
            op: cursor.op("put op id")?,
            hash: HashId(cursor.u32("put hash")?),
            key: cursor.key("put key")?,
            payload: cursor.bytes("put payload")?.to_vec(),
            timestamp: Timestamp(cursor.u64("put timestamp")?),
        }),
        RequestKind::Puts => Ok(Request::PutReplicas {
            op: cursor.op("puts op id")?,
            hashes: cursor.hashes("puts hashes")?,
            key: cursor.key("puts key")?,
            payload: cursor.bytes("puts payload")?.to_vec(),
            timestamp: Timestamp(cursor.u64("puts timestamp")?),
        }),
        RequestKind::Get => Ok(Request::GetReplica {
            hash: HashId(cursor.u32("get hash")?),
            key: cursor.key("get key")?,
        }),
        RequestKind::Timestamp => decode_timestamp(cursor),
        RequestKind::Handoff => {
            let op = cursor.op("hand-off op id")?;
            let start = cursor.u64("hand-off start")?;
            let end = cursor.u64("hand-off end")?;
            let target_id = PeerId(cursor.u64("hand-off target")?);
            let kind = match cursor.u8("hand-off kind")? {
                0 => HandoffKind::Join,
                1 => HandoffKind::Leave,
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "hand-off kind",
                        tag,
                    })
                }
            };
            let fault = match cursor.u8("hand-off fault")? {
                0 => None,
                1 => Some(HandoffFault::CrashAfterExport),
                2 => Some(HandoffFault::CrashAfterInstall),
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "hand-off fault",
                        tag,
                    })
                }
            };
            Ok(Request::HandoffRange {
                op,
                start,
                end,
                target_id,
                kind,
                fault,
            })
        }
        RequestKind::Install => Ok(Request::InstallState {
            op: cursor.op("install op id")?,
            start: cursor.u64("install start")?,
            end: cursor.u64("install end")?,
            bundle: cursor.bundle()?,
        }),
        RequestKind::Shutdown => Ok(Request::Shutdown),
        RequestKind::Crash => Ok(Request::Crash),
        RequestKind::Metrics => Ok(Request::Metrics),
        RequestKind::SlowRequests => Ok(Request::SlowRequests {
            k: cursor.u32("slow-requests k")?,
        }),
        RequestKind::Batch => Ok(Request::Batch(decode_batched_requests(cursor)?)),
    }
}

/// A timestamp request body after its tag: a [`Request::Timestamp`], or a
/// [`Request::StampAndPut`] when a store follows. A store is refused at its
/// tag unless the request generates.
fn decode_timestamp(cursor: &mut Cursor<'_>) -> Result<Request, WireError> {
    let op = cursor.op("timestamp op id")?;
    let key = cursor.key("timestamp key")?;
    let generate = cursor.bool("timestamp generate flag")?;
    let observation_hint = match cursor.u8("timestamp hint tag")? {
        0 => None,
        1 => Some(Timestamp(cursor.u64("timestamp hint")?)),
        tag => {
            return Err(WireError::UnknownTag {
                context: "timestamp hint tag",
                tag,
            })
        }
    };
    match cursor.u8("timestamp store tag")? {
        0 => Ok(Request::Timestamp {
            op,
            key,
            generate,
            observation_hint,
        }),
        1 if generate => Ok(Request::StampAndPut {
            op,
            key,
            observation_hint,
            hashes: cursor.hashes("store hashes")?,
            payload: cursor.bytes("store payload")?.to_vec(),
        }),
        1 => Err(WireError::UnknownTag {
            context: "store on a last_ts",
            tag: 1,
        }),
        tag => Err(WireError::UnknownTag {
            context: "timestamp store tag",
            tag,
        }),
    }
}

fn decode_reply_body(cursor: &mut Cursor<'_>) -> Result<Reply, WireError> {
    let kind = cursor.tagged("reply tag", ReplyKind::from_tag)?;
    decode_tagged_reply(cursor, kind)
}

/// A reply body after its tag: the fields of `kind`.
fn decode_tagged_reply(cursor: &mut Cursor<'_>, kind: ReplyKind) -> Result<Reply, WireError> {
    match kind {
        ReplyKind::PutAck => Ok(Reply::PutAck),
        ReplyKind::PutsAck => Ok(Reply::PutsAck {
            written: cursor.u32("puts-ack written")?,
            failed: cursor.u32("puts-ack failed")?,
        }),
        ReplyKind::Replica => {
            let stored = match cursor.u8("replica option tag")? {
                0 => None,
                1 => {
                    let payload = cursor.bytes("replica payload")?.to_vec();
                    let timestamp = Timestamp(cursor.u64("replica timestamp")?);
                    Some((payload, timestamp))
                }
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "replica option tag",
                        tag,
                    })
                }
            };
            Ok(Reply::Replica(stored))
        }
        ReplyKind::Timestamp => Ok(Reply::Timestamp(Timestamp(cursor.u64("timestamp")?))),
        ReplyKind::Stamped => Ok(Reply::Stamped {
            timestamp: Timestamp(cursor.u64("stamped timestamp")?),
            written: cursor.u32("stamped written")?,
            failed: cursor.u32("stamped failed")?,
        }),
        ReplyKind::NeedsInitialization => Ok(Reply::NeedsInitialization),
        ReplyKind::HandoffComplete => Ok(Reply::HandoffComplete {
            replicas_moved: cursor.u64("hand-off replicas moved")? as usize,
            counters_moved: cursor.u64("hand-off counters moved")? as usize,
        }),
        ReplyKind::HandoffFailed => Ok(Reply::HandoffFailed {
            reason: cursor.string("hand-off failure reason")?,
        }),
        ReplyKind::InstallAck => Ok(Reply::InstallAck {
            replicas_installed: cursor.u64("install replicas")? as usize,
            counters_received: cursor.u64("install counters")? as usize,
        }),
        ReplyKind::Error => Ok(Reply::Error {
            reason: cursor.string("error reason")?,
        }),
        ReplyKind::Metrics => Ok(Reply::Metrics(cursor.string("metrics exposition")?)),
        ReplyKind::SlowRequests => Ok(Reply::SlowRequests(cursor.trees()?)),
        ReplyKind::Batch => Ok(Reply::Batch(decode_batched_replies(cursor)?)),
    }
}

/// Decodes a frame *payload* (the bytes after the length prefix) into an
/// envelope. Every byte must be accounted for; all failures are typed, and
/// any version byte other than [`WIRE_VERSION`] is
/// [`WireError::UnsupportedVersion`].
pub fn decode_payload(payload: &[u8]) -> Result<Envelope, WireError> {
    let mut cursor = Cursor::new(payload);
    let version = cursor.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = cursor.u8("message kind")?;
    let request_id = cursor.u64("request id")?;
    let envelope = match kind {
        KIND_REQUEST => {
            let trace = cursor.trace("trace context")?;
            Envelope::Request {
                request_id,
                request: decode_request_body(&mut cursor)?,
                trace,
            }
        }
        KIND_REPLY => Envelope::Reply {
            request_id,
            reply: decode_reply_body(&mut cursor)?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "message kind",
                tag,
            })
        }
    };
    cursor.finish()?;
    Ok(envelope)
}

/// A failure while reading a frame off a byte stream: either the transport
/// failed (I/O) or the bytes were not a valid frame (typed wire error).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed or closed mid-frame.
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(error) => write!(f, "frame I/O error: {error}"),
            FrameError::Wire(error) => write!(f, "frame decode error: {error}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The size a [`FrameReader`]'s buffer starts at and returns to: every data
/// frame of the protocol fits, so one `read` usually brings in a whole frame
/// (or several).
const READ_BUFFER_LEN: usize = 8 * 1024;

/// Splits a byte stream into frame payloads through one buffer: a `read`
/// takes in as much as the stream has, so a frame the sender wrote whole
/// costs one `read`, not one for the length prefix and one for the payload.
///
/// A frame longer than the buffer grows it for that frame only (after the
/// length prefix passed the [`MAX_FRAME_LEN`] check); the buffer returns to
/// its resting size once the frame is consumed. Bytes of an incomplete frame
/// stay buffered when a read fails — a read timeout loses no framing, and
/// the next call continues where the failed one stopped.
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader with a resting-size buffer.
    pub(crate) fn new() -> Self {
        FrameReader {
            buf: vec![0; READ_BUFFER_LEN],
            start: 0,
            end: 0,
        }
    }

    /// The next frame's payload, reading from `source` only when the buffer
    /// does not already hold all of it.
    ///
    /// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
    /// boundary); EOF inside a frame is an I/O error, and an oversized length
    /// prefix is [`WireError::FrameTooLarge`] before anything is allocated
    /// for it.
    pub(crate) fn next_frame(
        &mut self,
        source: &mut impl Read,
    ) -> Result<Option<&[u8]>, FrameError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_BUFFER_LEN {
                self.buf = vec![0; READ_BUFFER_LEN];
            }
        }
        let payload = loop {
            let buffered = self.end - self.start;
            let needed = if buffered < 4 {
                4
            } else {
                let prefix = &self.buf[self.start..self.start + 4];
                let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
                if len > MAX_FRAME_LEN {
                    return Err(FrameError::Wire(WireError::FrameTooLarge {
                        len,
                        max: MAX_FRAME_LEN,
                    }));
                }
                let total = 4 + len as usize;
                if buffered >= total {
                    break self.start + 4..self.start + total;
                }
                total
            };
            self.make_room(needed);
            match source.read(&mut self.buf[self.end..]) {
                Ok(0) if buffered == 0 => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed inside a frame",
                    )))
                }
                Ok(n) => self.end += n,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error) => return Err(FrameError::Io(error)),
            }
        };
        self.start = payload.end;
        Ok(Some(&self.buf[payload]))
    }

    /// Makes the buffer hold at least `needed` bytes from the first
    /// unconsumed one — sliding them to the front, or moving them into a
    /// larger buffer for a frame the current one cannot hold. `needed`
    /// exceeds what is buffered, so the buffer has room to read into after.
    fn make_room(&mut self, needed: usize) {
        if self.buf.len() - self.start >= needed {
            return;
        }
        let buffered = self.end - self.start;
        if self.buf.len() >= needed {
            self.buf.copy_within(self.start..self.end, 0);
        } else {
            let mut grown = vec![0; needed];
            grown[..buffered].copy_from_slice(&self.buf[self.start..self.end]);
            self.buf = grown;
        }
        self.start = 0;
        self.end = buffered;
    }
}
