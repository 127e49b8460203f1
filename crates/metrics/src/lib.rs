//! A small, std-only metrics layer for the whole workspace.
//!
//! The design follows the `prometheus_client` idiom: an instrument is a
//! cheaply clonable handle over shared atomics, a [`Registry`] is a named
//! catalog of instruments, and [`encode`] renders the catalog in the
//! Prometheus text exposition format. Because the build environment is
//! offline, the crate depends on nothing but `std` — every other crate in
//! the workspace (including the storage hot path) can link it for free.
//!
//! Three instrument kinds cover everything the paper's experiments need:
//!
//! * [`Counter`] — a monotonically increasing `u64` (ops applied, fsyncs,
//!   dedup hits, retries). One relaxed `fetch_add` per increment.
//! * [`Gauge`] — a signed value that goes both ways (queue depth).
//! * [`Histogram`] — a fixed-boundary latency distribution. The default
//!   boundaries are log-scale and span 100 ns to 1 s, which covers
//!   everything from an in-memory counter bump to a lossy TCP round trip.
//!
//! Instruments are *handles*: cloning shares the underlying atomics, so the
//! same counter can live inside a `StorageEngine`, be registered into a
//! per-peer [`Registry`], and be snapshotted by a legacy stats struct — one
//! storage location, one name.
//!
//! Four more pieces round out the observability story:
//!
//! * [`parse`] — a minimal text-format parser, used by the proptest
//!   round-trip suite, the `metrics` example and CI to validate that a
//!   scrape actually parses.
//! * [`TraceSink`] — a chrome-trace (`chrome://tracing`, Perfetto) span
//!   recorder whose timestamps come from the caller, so the discrete-event
//!   simulator can emit spans in *simulated* time. Per-process sink files
//!   merge with [`merge_chrome_trace_files`].
//! * [`span`] — causal distributed tracing: the [`TraceContext`] carried
//!   on the wire, the [`RequestTree`] of a completed request and the
//!   [`SpanLog`] slow-request log the peers answer tail-attribution
//!   queries from.
//! * [`log`] — a structured, leveled, rate-limited JSONL event log
//!   (`RDHT_LOG` selects the threshold), replacing ad-hoc `eprintln!`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod instruments;
pub mod log;
pub mod parse;
mod registry;
pub mod span;
mod trace;

pub use encode::encode;
pub use instruments::{
    default_latency_buckets, exponential_buckets, Counter, Gauge, Histogram, HistogramSnapshot,
};
pub use log::{EventLog, Level};
pub use registry::{Labels, Registry};
pub use span::{next_span_id, RequestTree, SpanLog, TraceConfig, TraceContext, FLAG_SAMPLED};
pub use trace::{merge_chrome_trace_files, TraceEvent, TracePhase, TraceSink};

#[cfg(test)]
mod proptests;
