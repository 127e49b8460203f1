//! The traced pass. Two sources, never mixed into the end-to-end numbers:
//!
//! * *in-cluster*: the spans the peers and clients record themselves
//!   (`client.call`, `peer.*`) while the workload runs with sampling on —
//!   [`span_values`] turns them into per-phase medians;
//! * *layer replay*: the same seeded operation stream driven directly into
//!   each layer's public functions, one benchmark-owned span per call, one
//!   trace per operation — [`replay`]. A layer's self time is its span minus
//!   the part its children cover; the per-layer self times along an
//!   operation's blocking path make up the latency budget.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdht_core::{ums, InMemoryDht, Timestamp};
use rdht_hashing::{HashFamily, HashId, Key};
use rdht_metrics::{Counter, Histogram, Registry, TraceEvent};
use rdht_net::{
    wire, ChannelTransport, FaultPlan, FaultyTransport, LinkFaults, PeerEndpoint, PeerId,
    PeerMetrics, Reply, Request, TcpTransport, Transport, TransportKind,
};
use rdht_overlay::{PeerStore, Record, WritePolicy};
use rdht_storage::{StorageEngine, StorageOp, StorageOptions};

use crate::keys::{self, key_name, Op, OpStream, SplitMix64};
use crate::report::Values;
use crate::stats;
use crate::workload::{Workload, CLUSTER_SEED, NUM_REPLICAS, WAN_ONE_WAY};

/// The replay stops here even when it has operations left: on `wan_delay`
/// every hop takes two milliseconds.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

/// Calls per span for instruments too cheap to time one call at a time.
const INSTRUMENT_BATCH: u32 = 1_024;

const ECHO_PEER: PeerId = PeerId(1);
const CALL_TIMEOUT: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// In-cluster spans
// ---------------------------------------------------------------------------

fn trace_ids(event: &TraceEvent) -> impl Iterator<Item = &str> {
    event
        .args
        .iter()
        .filter(|(name, _)| name == "trace_id")
        .flat_map(|(_, ids)| ids.split(','))
}

/// Per-phase medians of the spans a traced run recorded. `batch_wait` has no
/// span of its own: it is the gap between a request's `peer.apply` and the
/// `peer.fsync` of the batch that covered it, matched by peer and trace id.
pub fn span_values(events: &[TraceEvent]) -> Values {
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut fsync_starts: BTreeMap<(u64, &str), Vec<u64>> = BTreeMap::new();
    for event in events {
        durations
            .entry(event.name.as_str())
            .or_default()
            .push(event.dur_us as f64);
        if event.name == "peer.fsync" {
            for id in trace_ids(event) {
                fsync_starts
                    .entry((event.tid, id))
                    .or_default()
                    .push(event.ts_us);
            }
        }
    }
    for starts in fsync_starts.values_mut() {
        starts.sort_unstable();
    }
    let mut batch_wait = Vec::new();
    for event in events.iter().filter(|event| event.name == "peer.apply") {
        let applied = event.ts_us + event.dur_us;
        for id in trace_ids(event) {
            let Some(starts) = fsync_starts.get(&(event.tid, id)) else {
                continue;
            };
            // Span timestamps are whole microseconds: allow one of rounding.
            let at = starts.partition_point(|&start| start + 1 < applied);
            if let Some(&start) = starts.get(at) {
                batch_wait.push(start.saturating_sub(applied) as f64);
            }
        }
    }

    let p50 = |name: &str| {
        durations
            .get(name)
            .map_or(0.0, |d| stats::median_or_zero(d))
    };
    let mut values = Values::new();
    values.insert("net.client.call_us_p50".into(), p50("client.call"));
    values.insert(
        "net.cluster.queue_wait_us_p50".into(),
        p50("peer.queue_wait"),
    );
    values.insert("net.cluster.apply_us_p50".into(), p50("peer.apply"));
    values.insert("net.cluster.fsync_us_p50".into(), p50("peer.fsync"));
    values.insert("net.cluster.reply_us_p50".into(), p50("peer.reply"));
    values.insert(
        "net.cluster.batch_wait_us_p50".into(),
        stats::median_or_zero(&batch_wait),
    );
    values
}

// ---------------------------------------------------------------------------
// Layer replay: the span recorder
// ---------------------------------------------------------------------------

pub struct Span {
    pub name: &'static str,
    /// One trace per replayed operation.
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (more than one only for batched instruments).
    pub calls: u32,
}

impl Span {
    fn nanos(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Records nested spans in memory at nanosecond resolution. The clock reads
/// and bookkeeping of the recorder itself are calibrated once and taken out
/// of every self time, so a 40 ns layer is not reported as a 70 ns one.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
    /// What an empty span measures: one clock read.
    leaf_bias_ns: f64,
    /// What a child span adds to its parent beyond its own duration.
    child_cost_ns: f64,
}

impl Recorder {
    pub fn new() -> Self {
        let mut recorder = Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
            leaf_bias_ns: 0.0,
            child_cost_ns: 0.0,
        };
        const ROUNDS: usize = 4_096;
        recorder.span("calibrate", 1, |recorder| {
            for _ in 0..ROUNDS {
                recorder.span("calibrate.empty", 1, |_| {});
            }
        });
        let empty: Vec<f64> = recorder.spans[1..].iter().map(Span::nanos).collect();
        let covered: f64 = empty.iter().sum();
        recorder.leaf_bias_ns = stats::median_or_zero(&empty);
        recorder.child_cost_ns = ((recorder.spans[0].nanos() - covered) / ROUNDS as f64).max(0.0);
        recorder.spans.clear();
        recorder
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        calls: u32,
        work: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            calls,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let result = work(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        result
    }

    /// Self time of every span: its duration minus what its children cover,
    /// minus the recorder's own calibrated cost.
    pub fn self_times_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|span| span.nanos() - self.leaf_bias_ns)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.nanos() + self.child_cost_ns;
            }
        }
        own.into_iter().map(|ns| ns.max(0.0)).collect()
    }

    /// The spans as Chrome Trace Event JSON; nesting shows by containment.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |parent| parent as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"trace_id\":{},\"span\":{index},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.nanos() / 1e3,
                span.trace,
            );
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Layer replay: the layers
// ---------------------------------------------------------------------------

/// A benchmark-owned echo peer behind the workload's transport: the cost of
/// one request/reply hop with nothing but the transport in it.
struct Echo {
    endpoint: PeerEndpoint,
    thread: Option<std::thread::JoinHandle<()>>,
    transport: Arc<dyn Transport>,
}

impl Echo {
    fn start(workload: &Workload) -> Result<Self, String> {
        let base: Arc<dyn Transport> = match workload.transport {
            TransportKind::Channel => Arc::new(ChannelTransport::new()),
            TransportKind::Tcp => Arc::new(TcpTransport::new()),
        };
        let transport: Arc<dyn Transport> = if workload.wan {
            let plan = FaultPlan::new(CLUSTER_SEED)
                .with_all_links(LinkFaults::delayed(WAN_ONE_WAY, Duration::ZERO));
            Arc::new(FaultyTransport::new(base, plan))
        } else {
            base
        };
        let mailbox = transport
            .bind(ECHO_PEER)
            .map_err(|e| format!("echo bind: {e}"))?;
        let endpoint = transport
            .endpoint(ECHO_PEER)
            .map_err(|e| format!("echo endpoint: {e}"))?;
        let thread = std::thread::spawn(move || {
            while let Some(incoming) = mailbox.recv() {
                let reply = match incoming.request {
                    Request::Shutdown => break,
                    Request::GetReplica { .. } => Reply::Replica(None),
                    Request::Timestamp { .. } => Reply::Timestamp(Timestamp(1)),
                    _ => Reply::PutsAck {
                        written: 1,
                        failed: 0,
                    },
                };
                incoming.reply.send(reply);
            }
        });
        Ok(Echo {
            endpoint,
            thread: Some(thread),
            transport,
        })
    }

    fn hop(&self, request: Request) -> Result<(), String> {
        self.endpoint
            .call(request, CALL_TIMEOUT)
            .map(|_| ())
            .map_err(|e| format!("echo hop: {e}"))
    }

    /// Sends every request before it waits for the first reply.
    fn fan_out(&self, requests: Vec<Request>) -> Result<(), String> {
        let pending: Vec<_> = requests
            .into_iter()
            .map(|request| self.endpoint.send(request))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("echo fan-out: {e}"))?;
        for reply in pending {
            reply
                .wait(CALL_TIMEOUT)
                .map_err(|e| format!("echo fan-out: {e}"))?;
        }
        Ok(())
    }

    fn stop(mut self) -> Result<(), String> {
        let _ = self.endpoint.send_no_reply(Request::Shutdown);
        self.transport.unbind(ECHO_PEER);
        match self.thread.take().map(std::thread::JoinHandle::join) {
            Some(Err(_)) => Err("the echo thread panicked".to_string()),
            _ => Ok(()),
        }
    }
}

/// What the replay needs to know about the measured run it explains.
pub struct ReplayShape {
    /// Peers an insert's put fan-out reaches, from `msgs_per_insert`.
    pub fanout: usize,
    /// Replicas a retrieve probes, from `replicas_probed_per_retrieve`.
    pub probes: usize,
}

struct Layers<'a> {
    workload: &'a Workload,
    family: HashFamily,
    keys: Vec<Key>,
    store: PeerStore,
    dht: InMemoryDht,
    engine: Option<StorageEngine>,
    echo: Echo,
    shape: ReplayShape,
    stamp: u64,
    /// Bytes of every frame the replayed exchanges encoded.
    wire_bytes: Cell<usize>,
}

fn hop_span(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::Channel => "net.transport.channel_hop",
        TransportKind::Tcp => "net.transport.tcp_hop",
    }
}

fn fanout_span(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::Channel => "net.transport.channel_fanout",
        TransportKind::Tcp => "net.transport.tcp_fanout",
    }
}

impl Layers<'_> {
    /// The codec work of one exchange (TCP only): the request encoded by
    /// the sender and decoded by the receiver, the reply likewise.
    fn codec(&self, rec: &mut Recorder, request: &Request, reply: &Reply) -> Result<(), String> {
        if self.workload.transport != TransportKind::Tcp {
            return Ok(());
        }
        let frame = rec.span("net.wire.encode_request", 1, |_| {
            wire::encode_request(7, request, None)
        });
        self.wire_bytes.set(self.wire_bytes.get() + frame.len());
        rec.span("net.wire.decode_request", 1, |_| {
            wire::decode_payload(&frame[4..]).map(|_| ())
        })
        .map_err(|e| format!("request frame does not decode: {e}"))?;
        let frame = rec.span("net.wire.encode_reply", 1, |_| wire::encode_reply(7, reply));
        self.wire_bytes.set(self.wire_bytes.get() + frame.len());
        rec.span("net.wire.decode_reply", 1, |_| {
            wire::decode_payload(&frame[4..]).map(|_| ())
        })
        .map_err(|e| format!("reply frame does not decode: {e}"))
    }

    /// One request/reply exchange as the blocking path sees it: the codec
    /// on both sides around one transport hop.
    fn exchange(&self, rec: &mut Recorder, request: &Request, reply: &Reply) -> Result<(), String> {
        self.codec(rec, request, reply)?;
        rec.span(hop_span(self.workload.transport), 1, |_| {
            self.echo.hop(request.clone())
        })
    }

    /// Journals one peer's share of an operation the way the peer loop
    /// does: each op applied on its own, and — under group commit only — one
    /// covering sync before the acknowledgement.
    fn journal(&mut self, rec: &mut Recorder, ops: Vec<StorageOp>) -> Result<(), String> {
        let Some(engine) = self.engine.as_mut() else {
            return Ok(());
        };
        rec.span("storage.apply_batch", 1, |_| {
            ops.into_iter().try_for_each(|op| engine.apply_owned(op))
        })
        .map_err(|e| format!("apply: {e}"))?;
        if engine.options().fsync.batching().is_some() {
            rec.span("storage.sync", 1, |_| engine.sync())
                .map_err(|e| format!("sync: {e}"))?;
        }
        Ok(())
    }

    fn retrieve(&mut self, rec: &mut Recorder, index: usize) -> Result<(), String> {
        let key = self.keys[index].clone();
        let hashes: Vec<HashId> = self
            .family
            .replication_ids()
            .take(self.shape.probes)
            .collect();
        rec.span("hashing.positions", 1, |_| {
            let mut acc = self.family.eval_timestamp(&key);
            for &hash in &hashes {
                acc ^= self.family.eval(hash, &key);
            }
            std::hint::black_box(acc);
        });
        rec.span("core.ums_retrieve", 1, |_| {
            ums::retrieve(&mut self.dht, &key).map(|_| ())
        })
        .map_err(|e| format!("replayed retrieve: {e}"))?;
        let timestamp = Request::Timestamp {
            op: None,
            key: key.clone(),
            generate: false,
            observation_hint: None,
        };
        self.exchange(rec, &timestamp, &Reply::Timestamp(Timestamp(self.stamp)))?;
        for hash in hashes {
            let found = rec.span("overlay.store_get", 1, |_| self.store.get(hash, &key));
            let reply = Reply::Replica(
                found.map(|record| (record.payload.clone(), Timestamp(record.stamp))),
            );
            self.exchange(
                rec,
                &Request::GetReplica {
                    hash,
                    key: key.clone(),
                },
                &reply,
            )?;
        }
        Ok(())
    }

    fn insert(&mut self, rec: &mut Recorder, index: usize, payload: Vec<u8>) -> Result<(), String> {
        let key = self.keys[index].clone();
        self.stamp += 1;
        let stamp = Timestamp(self.stamp);
        let positions: Vec<(HashId, u64)> = rec.span("hashing.positions", 1, |_| {
            std::hint::black_box(self.family.eval_timestamp(&key));
            self.family
                .replication_ids()
                .map(|hash| (hash, self.family.eval(hash, &key)))
                .collect()
        });
        rec.span("core.ums_insert", 1, |_| {
            ums::insert(&mut self.dht, &key, payload.clone()).map(|_| ())
        })
        .map_err(|e| format!("replayed insert: {e}"))?;
        let timestamp = Request::Timestamp {
            op: None,
            key: key.clone(),
            generate: true,
            observation_hint: None,
        };
        self.exchange(rec, &timestamp, &Reply::Timestamp(stamp))?;
        self.journal(
            rec,
            vec![StorageOp::SetCounter {
                key: key.clone(),
                value: stamp,
            }],
        )?;

        // The |Hr| puts, split over the peers the fan-out reaches. Like the
        // real client, every group is sent before any reply is awaited, so
        // their time in flight overlaps.
        let group_len = positions.len().div_ceil(self.shape.fanout.max(1));
        let groups: Vec<&[(HashId, u64)]> = positions.chunks(group_len).collect();
        let mut requests = Vec::with_capacity(groups.len());
        for group in &groups {
            let request = Request::PutReplicas {
                op: None,
                hashes: group.iter().map(|(hash, _)| *hash).collect(),
                key: key.clone(),
                payload: payload.clone(),
                timestamp: stamp,
            };
            let ack = Reply::PutsAck {
                written: group.len() as u32,
                failed: 0,
            };
            self.codec(rec, &request, &ack)?;
            requests.push(request);
        }
        rec.span(
            fanout_span(self.workload.transport),
            groups.len() as u32,
            |_| self.echo.fan_out(requests),
        )?;
        for group in groups {
            let mut ops = Vec::with_capacity(group.len());
            for &(hash, position) in group {
                let record = Record {
                    payload: payload.clone(),
                    stamp: stamp.0,
                    position,
                };
                rec.span("overlay.store_put", 1, |_| {
                    self.store
                        .put(hash, key.clone(), record, WritePolicy::KeepNewest)
                });
                ops.push(StorageOp::PutReplica {
                    hash,
                    key: key.clone(),
                    payload: payload.clone(),
                    stamp,
                    position,
                });
            }
            self.journal(rec, ops)?;
        }
        Ok(())
    }
}

/// Median wall time of `rounds` calls of `work`, in nanoseconds.
fn timed_median<E>(rounds: usize, mut work: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let mut nanos = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        work()?;
        nanos.push(started.elapsed().as_nanos() as f64);
    }
    Ok(stats::median_or_zero(&nanos))
}

/// What the journal's maintenance costs at the state one peer of the
/// workload holds — its share of every key's replicas — and what one flush
/// of this checkout's disk costs.
struct Maintenance {
    compact_ms: f64,
    recover_ms: f64,
    sync_us: f64,
}

fn storage_maintenance(
    workload: &Workload,
    family: &HashFamily,
    keys: &[Key],
    options: StorageOptions,
    dir: &Path,
) -> Result<Maintenance, String> {
    let mut engine = StorageEngine::open(dir, options).map_err(|e| format!("open engine: {e}"))?;
    let share = (keys.len() * NUM_REPLICAS).div_ceil(workload.peers);
    let mut ops = keys.iter().flat_map(|key| {
        family
            .replication_ids()
            .map(move |hash| StorageOp::PutReplica {
                hash,
                key: key.clone(),
                payload: vec![0u8; workload.payload_len],
                stamp: Timestamp(1),
                position: family.eval(hash, key),
            })
    });
    for _ in 0..share.div_ceil(64) {
        let batch: Vec<StorageOp> = ops.by_ref().take(64).collect();
        engine
            .apply_batch(batch)
            .map_err(|e| format!("fill engine: {e}"))?;
    }
    let compact = timed_median(3, || engine.compact()).map_err(|e| format!("compact: {e}"))?;
    // One journaled op, then the explicit flush a durable acknowledgement
    // would wait for.
    let flushed = keys.first().map(|key| StorageOp::SetCounter {
        key: key.clone(),
        value: Timestamp(1),
    });
    let sync = timed_median(5, || {
        flushed.iter().try_for_each(|op| engine.apply(op))?;
        engine.sync()
    })
    .map_err(|e| format!("sync: {e}"))?;
    drop(engine);
    let recover = timed_median(3, || {
        StorageEngine::recover(dir).map(|state| {
            std::hint::black_box(state.0.len());
        })
    })
    .map_err(|e| format!("recover: {e}"))?;
    Ok(Maintenance {
        compact_ms: compact / 1e6,
        recover_ms: recover / 1e6,
        sync_us: sync / 1e3,
    })
}

/// Cost of the instruments the request loops pay per message, and of one
/// scrape of a peer's registry.
fn instrument_costs(rec: &mut Recorder) {
    let counter = Counter::new();
    let histogram = Histogram::new();
    let registry = Registry::new();
    let _peer = PeerMetrics::register(&registry, &[("peer", "1")]);
    for round in 0..8u64 {
        rec.span("metrics.counter_inc", INSTRUMENT_BATCH, |_| {
            for _ in 0..INSTRUMENT_BATCH {
                counter.inc();
            }
        });
        rec.span("metrics.histogram_observe", INSTRUMENT_BATCH, |_| {
            for i in 0..u64::from(INSTRUMENT_BATCH) {
                histogram.observe(1 << ((i + round) % 32));
            }
        });
        rec.span("metrics.scrape", 1, |_| {
            std::hint::black_box(rdht_metrics::encode(&registry).len());
        });
    }
    std::hint::black_box((counter.get(), histogram.count()));
}

pub struct Replay {
    pub values: Values,
    /// Mean self time per layer along one operation's blocking path, in
    /// microseconds: `(layer, retrieve, insert)`.
    pub budget: Vec<(String, f64, f64)>,
    pub chrome_trace: String,
}

/// Drives the workload's seeded operation stream through each layer's
/// public functions. `scratch` holds the replayed journal of a journaled
/// workload.
pub fn replay(
    workload: &'static Workload,
    seed: u64,
    shape: ReplayShape,
    max_ops: usize,
    scratch: &Path,
) -> Result<Replay, String> {
    let family = HashFamily::new(NUM_REPLICAS, CLUSTER_SEED);
    let keys: Vec<Key> = (0..workload.keys).map(key_name).collect();
    let mut ops = OpStream::new(
        seed,
        0,
        workload.keys,
        workload.dist,
        workload.retrieve_frac,
        workload.payload_len,
    );

    // The state the workload's preload leaves behind: every key once.
    let mut preload = SplitMix64::new(seed);
    let mut store = PeerStore::new();
    let mut dht = InMemoryDht::new(NUM_REPLICAS, CLUSTER_SEED);
    let mut records = Vec::with_capacity(keys.len() * NUM_REPLICAS);
    for key in &keys {
        let payload = keys::payload(&mut preload, workload.payload_len);
        for hash in family.replication_ids() {
            let record = Record {
                payload: payload.clone(),
                stamp: 1,
                position: family.eval(hash, key),
            };
            records.push((hash, key.clone(), record));
        }
        ums::insert(&mut dht, key, payload).map_err(|e| format!("replay preload: {e}"))?;
    }
    store.bulk_load(records);

    let mut values = Values::new();
    // A workload without storage has no journal to replay or maintain.
    let engine = match workload.storage_options() {
        Some(options) => {
            let dir = scratch.join("replay-maintenance");
            let maintenance = storage_maintenance(workload, &family, &keys, options, &dir)?;
            values.insert("storage.compact_ms".into(), maintenance.compact_ms);
            values.insert("storage.recover_ms".into(), maintenance.recover_ms);
            values.insert("storage.sync_us".into(), maintenance.sync_us);
            let engine = StorageEngine::open(scratch.join("replay-journal"), options)
                .map_err(|e| format!("open engine: {e}"))?;
            Some(engine)
        }
        None => None,
    };

    let mut layers = Layers {
        workload,
        family,
        keys,
        store,
        dht,
        engine,
        echo: Echo::start(workload)?,
        shape,
        stamp: 1,
        wire_bytes: Cell::new(0),
    };
    let mut rec = Recorder::new();
    let started = Instant::now();
    let mut replayed = 0usize;
    let outcome: Result<(), String> = (|| {
        while replayed < max_ops && started.elapsed() < REPLAY_BUDGET {
            replayed += 1;
            rec.trace = replayed as u64;
            match ops.next_op() {
                Op::Retrieve { key } => {
                    rec.span("replay.retrieve", 1, |rec| layers.retrieve(rec, key))?
                }
                Op::Insert { key, payload } => {
                    rec.span("replay.insert", 1, |rec| layers.insert(rec, key, payload))?
                }
            }
        }
        Ok(())
    })();
    rec.trace = 0;
    let stopped = layers.echo.stop();
    outcome?;
    stopped?;
    let wire_bytes = layers.wire_bytes.get() as f64 / replayed.max(1) as f64;
    values.insert("net.wire.bytes_per_op".into(), wire_bytes);
    instrument_costs(&mut rec);

    let (layer_values, budget) = summarize(&rec);
    values.extend(layer_values);
    Ok(Replay {
        values,
        budget,
        chrome_trace: rec.chrome_trace(),
    })
}

/// The per-call mean self time of every layer span (as per-layer metric
/// values), and the budget: mean self time per layer and operation kind.
fn summarize(rec: &Recorder) -> (Values, Vec<(String, f64, f64)>) {
    let mut values = Values::new();
    let own = rec.self_times_ns();
    let mut per_call: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut per_kind: BTreeMap<&str, [f64; 2]> = BTreeMap::new();
    let mut roots = [0usize; 2];
    for (index, span) in rec.spans.iter().enumerate() {
        let entry = per_call.entry(span.name).or_insert((0.0, 0.0));
        entry.0 += own[index];
        entry.1 += f64::from(span.calls);
        // Budget rows: attribute the span to the operation kind of its root.
        let mut root = index;
        while let Some(parent) = rec.spans[root].parent {
            root = parent;
        }
        let kind = match rec.spans[root].name {
            "replay.retrieve" => 0,
            "replay.insert" => 1,
            _ => continue,
        };
        if root == index {
            roots[kind] += 1;
        }
        per_kind.entry(span.name).or_insert([0.0; 2])[kind] += own[index];
    }
    let mean = |name: &str| {
        per_call.get(name).map_or(
            0.0,
            |(total, calls)| if *calls > 0.0 { total / calls } else { 0.0 },
        )
    };
    for (metric, span, scale) in [
        ("overlay.store_get_ns", "overlay.store_get", 1.0),
        ("overlay.store_put_ns", "overlay.store_put", 1.0),
        ("core.ums_insert_ns", "core.ums_insert", 1.0),
        ("core.ums_retrieve_ns", "core.ums_retrieve", 1.0),
        ("storage.apply_batch_us", "storage.apply_batch", 1e-3),
        ("net.wire.encode_request_ns", "net.wire.encode_request", 1.0),
        ("net.wire.decode_request_ns", "net.wire.decode_request", 1.0),
        ("net.wire.encode_reply_ns", "net.wire.encode_reply", 1.0),
        ("net.wire.decode_reply_ns", "net.wire.decode_reply", 1.0),
        (
            "net.transport.channel_hop_us",
            "net.transport.channel_hop",
            1e-3,
        ),
        ("net.transport.tcp_hop_us", "net.transport.tcp_hop", 1e-3),
        ("metrics.counter_inc_ns", "metrics.counter_inc", 1.0),
        (
            "metrics.histogram_observe_ns",
            "metrics.histogram_observe",
            1.0,
        ),
        ("metrics.scrape_us", "metrics.scrape", 1e-3),
    ] {
        values.insert(metric.into(), mean(span) * scale);
    }
    let budget: Vec<(String, f64, f64)> = per_kind
        .into_iter()
        .map(|(name, totals)| {
            let per_op = |kind: usize| {
                if roots[kind] > 0 {
                    totals[kind] / roots[kind] as f64 / 1e3
                } else {
                    0.0
                }
            };
            (name.to_string(), per_op(0), per_op(1))
        })
        .collect();
    // The |Hr| + 1 ring positions of one key: what an insert evaluates (a
    // retrieve stops at the probes it needs).
    let positions = budget
        .iter()
        .find(|(name, _, _)| name == "hashing.positions");
    values.insert(
        "hashing.positions_ns".into(),
        positions.map_or(0.0, |row| row.2 * 1e3),
    );
    (values, budget)
}

/// The budget table: one row per layer, the sum against the measured median,
/// and the gap — which is a finding, not an error. Returns the table and the
/// `(retrieve, insert)` gap fractions.
pub fn budget_table(
    budget: &[(String, f64, f64)],
    retrieve_p50_us: f64,
    insert_p50_us: f64,
) -> (String, f64, f64) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<34} {:>14} {:>14}",
        "layer self time (us/op)", "retrieve", "insert"
    );
    let (mut retrieve_sum, mut insert_sum) = (0.0, 0.0);
    for (name, retrieve, insert) in budget {
        let _ = writeln!(out, "  {name:<34} {retrieve:>14.3} {insert:>14.3}");
        retrieve_sum += retrieve;
        insert_sum += insert;
    }
    let gap = |sum: f64, measured: f64| {
        if measured > 0.0 {
            1.0 - sum / measured
        } else {
            0.0
        }
    };
    let (retrieve_gap, insert_gap) = (
        gap(retrieve_sum, retrieve_p50_us),
        gap(insert_sum, insert_p50_us),
    );
    let _ = writeln!(
        out,
        "  {:<34} {retrieve_sum:>14.3} {insert_sum:>14.3}",
        "sum of layers"
    );
    let _ = writeln!(
        out,
        "  {:<34} {retrieve_p50_us:>14.3} {insert_p50_us:>14.3}",
        "measured end-to-end p50"
    );
    let _ = writeln!(
        out,
        "  {:<34} {retrieve_gap:>14.3} {insert_gap:>14.3}",
        "gap (1 - sum / measured)"
    );
    (out, retrieve_gap, insert_gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdht_metrics::TracePhase;

    fn complete(name: &str, tid: u64, ts_us: u64, dur_us: u64, trace_id: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            phase: TracePhase::Complete,
            pid: 1,
            tid,
            ts_us,
            dur_us,
            args: vec![("trace_id".to_string(), trace_id.to_string())],
        }
    }

    #[test]
    fn span_values_take_medians_and_derive_batch_wait() {
        let events = vec![
            complete("client.call", 0, 0, 30, "aa"),
            complete("client.call", 0, 40, 50, "bb"),
            complete("client.call", 0, 95, 40, "cc"),
            complete("peer.apply", 7, 10, 5, "aa"),
            complete("peer.apply", 7, 16, 4, "bb"),
            // One covering fsync for both requests of the batch.
            complete("peer.fsync", 7, 25, 100, "aa,bb"),
            // Same trace id on another peer must not match.
            complete("peer.fsync", 8, 12, 100, "aa"),
        ];
        let values = span_values(&events);
        assert_eq!(values["net.client.call_us_p50"], 40.0);
        assert_eq!(values["net.cluster.apply_us_p50"], 4.5);
        assert_eq!(values["net.cluster.fsync_us_p50"], 100.0);
        // aa waited 25 - 15 = 10 us, bb 25 - 20 = 5 us.
        assert_eq!(values["net.cluster.batch_wait_us_p50"], 7.5);
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let mut rec = Recorder::new();
        rec.leaf_bias_ns = 0.0;
        rec.child_cost_ns = 0.0;
        rec.spans = vec![
            Span {
                name: "root",
                trace: 1,
                parent: None,
                start_ns: 0,
                end_ns: 1_000,
                calls: 1,
            },
            Span {
                name: "child",
                trace: 1,
                parent: Some(0),
                start_ns: 100,
                end_ns: 400,
                calls: 1,
            },
            Span {
                name: "grandchild",
                trace: 1,
                parent: Some(1),
                start_ns: 150,
                end_ns: 250,
                calls: 1,
            },
            Span {
                name: "child",
                trace: 1,
                parent: Some(0),
                start_ns: 500,
                end_ns: 900,
                calls: 1,
            },
        ];
        assert_eq!(rec.self_times_ns(), vec![300.0, 200.0, 100.0, 400.0]);
        let trace = crate::json::parse(&rec.chrome_trace()).expect("chrome trace is JSON");
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(crate::json::Json::array)
                .map(<[_]>::len),
            Some(4)
        );
    }

    #[test]
    fn recorder_calibration_keeps_empty_spans_near_zero() {
        let mut rec = Recorder::new();
        rec.span("outer", 1, |rec| {
            for _ in 0..1_000 {
                rec.span("empty", 1, |_| {});
            }
        });
        let own = rec.self_times_ns();
        // An empty span's self time is what calibration could not remove.
        assert!(stats::median_or_zero(&own[1..]) < 200.0);
    }

    #[test]
    fn budget_table_reports_sum_and_gap() {
        let budget = vec![("a".to_string(), 2.0, 10.0), ("b".to_string(), 3.0, 30.0)];
        let (table, retrieve_gap, insert_gap) = budget_table(&budget, 10.0, 50.0);
        assert!((retrieve_gap - 0.5).abs() < 1e-12);
        assert!((insert_gap - 0.2).abs() < 1e-12);
        assert!(table.contains("sum of layers") && table.contains("gap"));
    }
}
