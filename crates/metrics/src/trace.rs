//! A chrome-trace span recorder.
//!
//! [`TraceSink`] accumulates complete and instant events and renders them
//! in the Chrome Trace Event JSON format (`catapult`), loadable by
//! `chrome://tracing` and <https://ui.perfetto.dev>. Timestamps are
//! microseconds and always come from the caller: the live cluster stamps
//! events on the sink's wall clock ([`TraceSink::now_us`]), the
//! discrete-event simulator in *simulated* time.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The event phase, mirroring the chrome-trace `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span (`X`) carrying its own duration.
    Complete,
    /// An instantaneous event (`i`).
    Instant,
}

impl TracePhase {
    fn as_str(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Instant => "i",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span label).
    pub name: String,
    /// Phase.
    pub phase: TracePhase,
    /// Process lane (a peer, in this workspace's convention).
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Timestamp in microseconds.
    pub ts_us: u64,
    /// Duration in microseconds; only meaningful for
    /// [`TracePhase::Complete`].
    pub dur_us: u64,
    /// Free-form `args` members rendered into the chrome-trace event —
    /// the distributed-tracing layer stores the trace id (and span links)
    /// here so per-process traces can be correlated after merging.
    pub args: Vec<(String, String)>,
}

struct SinkInner {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// A shared, clonable recorder of trace events. Cloning shares the buffer.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("events", &self.len())
            .finish()
    }
}

impl TraceSink {
    /// A fresh sink; wall-clock events are stamped relative to now.
    pub fn new() -> Self {
        TraceSink {
            inner: Arc::new(SinkInner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Microseconds since the sink was created — the wall-clock timebase
    /// live callers stamp their events with.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        self.inner
            .events
            .lock()
            .expect("trace sink mutex poisoned")
            .push(event);
    }

    /// Records a complete (`X`) span carrying `args` members — the
    /// distributed-tracing layer's entry point: the trace id rides in
    /// `args`, so merged per-process traces stay correlatable.
    pub fn complete_with_args(
        &self,
        name: &str,
        pid: u64,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, String)>,
    ) {
        self.push(TraceEvent {
            name: name.to_string(),
            phase: TracePhase::Complete,
            pid,
            tid,
            ts_us,
            dur_us,
            args,
        });
    }

    /// Records an instantaneous (`i`) event with an explicit timestamp.
    pub fn instant_at(&self, name: &str, pid: u64, tid: u64, ts_us: u64) {
        self.push(TraceEvent {
            name: name.to_string(),
            phase: TracePhase::Instant,
            pid,
            tid,
            ts_us,
            dur_us: 0,
            args: Vec::new(),
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner
            .events
            .lock()
            .expect("trace sink mutex poisoned")
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .events
            .lock()
            .expect("trace sink mutex poisoned")
            .clone()
    }

    /// Renders the events as Chrome Trace Event JSON (the
    /// `{"traceEvents": [...]}` object format).
    pub fn render_chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_json(&mut out, &event.name);
            let _ = write!(
                out,
                "\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                event.phase.as_str(),
                event.pid,
                event.tid,
                event.ts_us
            );
            if event.phase == TracePhase::Complete {
                let _ = write!(out, ",\"dur\":{}", event.dur_us);
            }
            if event.phase == TracePhase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if !event.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in event.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(&mut out, key);
                    out.push_str("\":\"");
                    escape_json(&mut out, value);
                    out.push('"');
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes the rendered trace to `path` (conventionally `trace.json`).
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render_chrome_trace())
    }
}

/// The merge behind [`merge_chrome_trace_files`], over rendered traces
/// (each the `{"traceEvents":[...]}` object
/// [`TraceSink::render_chrome_trace`] produces). Returns `None` if any part
/// is not of the expected shape.
fn merge_chrome_traces<S: AsRef<str>>(parts: &[S]) -> Option<String> {
    const PREFIX: &str = "{\"traceEvents\":[";
    const SUFFIX: &str = "]}";
    let mut out = String::from(PREFIX);
    let mut wrote_any = false;
    for part in parts {
        let part = part.as_ref().trim();
        let inner = part.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
        if inner.is_empty() {
            continue;
        }
        if wrote_any {
            out.push(',');
        }
        out.push_str(inner);
        wrote_any = true;
    }
    out.push_str(SUFFIX);
    Some(out)
}

/// Merges per-process sink files into one loadable chrome trace: the event
/// arrays are concatenated, so spans recorded by different OS processes
/// land in one file and correlate by the `trace_id` entry of their `args`.
pub fn merge_chrome_trace_files<P: AsRef<Path>>(paths: &[P]) -> io::Result<String> {
    let mut parts = Vec::with_capacity(paths.len());
    for path in paths {
        parts.push(std::fs::read_to_string(path)?);
    }
    merge_chrome_traces(&parts).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "a trace file is not a rendered chrome trace object",
        )
    })
}

/// Appends `s` to `out` as the body of a JSON string literal.
pub(crate) fn escape_json(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(all(test, not(rdht_model)))]
mod tests {
    use super::*;

    /// A complete (`X`) span without `args`.
    fn complete_at(sink: &TraceSink, name: &str, pid: u64, tid: u64, ts_us: u64, dur_us: u64) {
        sink.complete_with_args(name, pid, tid, ts_us, dur_us, Vec::new());
    }

    #[test]
    fn explicit_timestamps_render_in_order() {
        let sink = TraceSink::new();
        complete_at(&sink, "query", 1, 0, 100, 50);
        sink.instant_at("drop", 2, 0, 130);
        let json = sink.render_chrome_trace();
        assert_eq!(
            json,
            "{\"traceEvents\":[\
             {\"name\":\"query\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":100,\"dur\":50},\
             {\"name\":\"drop\",\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":130,\"s\":\"t\"}]}"
        );
    }

    #[test]
    fn names_are_json_escaped() {
        let sink = TraceSink::new();
        sink.instant_at("a\"b\\c\nd", 0, 0, 1);
        let json = sink.render_chrome_trace();
        assert!(json.contains("a\\\"b\\\\c\\nd"), "{json}");
    }

    #[test]
    fn write_to_produces_a_loadable_file() {
        let sink = TraceSink::new();
        complete_at(&sink, "q", 0, 0, 0, 1);
        let path =
            std::env::temp_dir().join(format!("rdht-trace-test-{}.json", std::process::id()));
        sink.write_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn args_render_as_an_object_member() {
        let sink = TraceSink::new();
        sink.complete_with_args(
            "client.call",
            0,
            1,
            10,
            25,
            vec![
                ("trace_id".to_string(), "000000000000002a".to_string()),
                ("outcome".to_string(), "ok".to_string()),
            ],
        );
        let json = sink.render_chrome_trace();
        assert!(
            json.contains("\"args\":{\"trace_id\":\"000000000000002a\",\"outcome\":\"ok\"}"),
            "{json}"
        );
    }

    #[test]
    fn merging_concatenates_event_arrays() {
        let a = TraceSink::new();
        complete_at(&a, "client", 0, 0, 5, 10);
        let b = TraceSink::new();
        complete_at(&b, "peer", 1, 0, 7, 3);
        let empty = TraceSink::new();
        let merged = merge_chrome_traces(&[
            a.render_chrome_trace(),
            empty.render_chrome_trace(),
            b.render_chrome_trace(),
        ])
        .expect("all parts well-formed");
        assert!(merged.starts_with("{\"traceEvents\":["));
        assert!(merged.contains("\"name\":\"client\""));
        assert!(merged.contains("\"name\":\"peer\""));
        assert!(merged.ends_with("]}"));
        assert!(merge_chrome_traces(&["not a trace"]).is_none());
    }

    #[test]
    fn merging_files_round_trips() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path_a = dir.join(format!("rdht-merge-a-{pid}.json"));
        let path_b = dir.join(format!("rdht-merge-b-{pid}.json"));
        let a = TraceSink::new();
        complete_at(&a, "x", 0, 0, 0, 1);
        a.write_to(&path_a).unwrap();
        let b = TraceSink::new();
        complete_at(&b, "y", 1, 0, 2, 1);
        b.write_to(&path_b).unwrap();
        let merged = merge_chrome_trace_files(&[&path_a, &path_b]).unwrap();
        assert!(merged.contains("\"name\":\"x\"") && merged.contains("\"name\":\"y\""));
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn sinks_are_shared_across_threads() {
        let sink = TraceSink::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        complete_at(&sink, "op", t, 0, i * 10, 5);
                    }
                });
            }
        });
        assert_eq!(sink.len(), 400);
    }
}
