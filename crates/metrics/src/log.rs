//! A structured, leveled, rate-limited event log with a JSONL sink.
//!
//! The workspace's answer to ad-hoc `eprintln!`: every event is one JSON
//! object per line (`ts_us`, `level`, `target`, `msg`, plus free-form
//! string fields such as the peer label or a typed error variant), so a
//! long fault-injection run produces a greppable, machine-readable stream
//! instead of interleaved prose.
//!
//! * **Leveled** — [`Level::Error`] through [`Level::Debug`]; the active
//!   threshold comes from the `RDHT_LOG` environment variable
//!   (`error`/`warn`/`info`/`debug`, default `warn`), read once.
//! * **Rate-limited** — per `(target, level)` token window: at most
//!   [`MAX_EVENTS_PER_WINDOW`] events per second are written; the first
//!   event after a suppression burst carries a `"suppressed"` field with
//!   the dropped count, so floods (a peer in a reconnect loop) cost lines,
//!   not gigabytes.
//! * **Pluggable sink** — stderr by default ([`global`]); tests capture
//!   into a shared buffer with [`EventLog::to_buffer`], also the process-wide
//!   log when they [`install`] it before its first use.

use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::trace::escape_json;

/// Event severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The process lost something it should not have.
    Error,
    /// Degraded but recoverable (a dropped connection, a poisoned journal).
    Warn,
    /// Life-cycle milestones.
    Info,
    /// Diagnostic chatter.
    Debug,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Events per `(target, level)` per one-second window before suppression.
pub const MAX_EVENTS_PER_WINDOW: u32 = 32;

struct RateWindow {
    started: Instant,
    written: u32,
    suppressed: u64,
}

struct LogInner {
    threshold: Level,
    epoch: Instant,
    sink: Mutex<Box<dyn Write + Send>>,
    windows: Mutex<HashMap<(String, Level), RateWindow>>,
}

/// A shared, clonable event log. Cloning shares the sink and rate state.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<LogInner>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("threshold", &self.inner.threshold.as_str())
            .finish()
    }
}

fn env_threshold() -> Level {
    std::env::var("RDHT_LOG")
        .ok()
        .as_deref()
        .and_then(Level::parse)
        .unwrap_or(Level::Warn)
}

impl EventLog {
    /// A log writing JSONL to `sink`, filtering below `threshold`.
    pub fn with_sink(threshold: Level, sink: Box<dyn Write + Send>) -> Self {
        EventLog {
            inner: Arc::new(LogInner {
                threshold,
                epoch: Instant::now(),
                sink: Mutex::new(sink),
                windows: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// A log writing to stderr with the threshold from `RDHT_LOG`.
    pub fn stderr() -> Self {
        EventLog::with_sink(env_threshold(), Box::new(std::io::stderr()))
    }

    /// A log capturing into a shared byte buffer — the test sink. Returns
    /// the log and the buffer handle.
    pub fn to_buffer(threshold: Level) -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let writer = BufferWriter {
            buffer: Arc::clone(&buffer),
        };
        (EventLog::with_sink(threshold, Box::new(writer)), buffer)
    }

    /// Whether events at `level` pass the threshold filter.
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.inner.threshold
    }

    /// Records one event: a JSON object on its own line with `ts_us`
    /// (microseconds since the log was created), `level`, `target`, `msg`
    /// and every `(key, value)` of `fields` as string members. Filtered by
    /// level and rate-limited per `(target, level)`.
    pub fn log(&self, level: Level, target: &str, msg: &str, fields: &[(&str, &str)]) {
        if !self.enabled(level) {
            return;
        }
        let suppressed = {
            let mut windows = self.inner.windows.lock().expect("event log windows");
            let window = windows
                .entry((target.to_string(), level))
                .or_insert(RateWindow {
                    started: Instant::now(),
                    written: 0,
                    suppressed: 0,
                });
            if window.started.elapsed() >= Duration::from_secs(1) {
                window.started = Instant::now();
                window.written = 0;
            }
            if window.written >= MAX_EVENTS_PER_WINDOW {
                window.suppressed += 1;
                return;
            }
            window.written += 1;
            std::mem::take(&mut window.suppressed)
        };
        let ts_us = u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_us\":");
        line.push_str(&ts_us.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(level.as_str());
        line.push_str("\",\"target\":\"");
        escape_json(&mut line, target);
        line.push_str("\",\"msg\":\"");
        escape_json(&mut line, msg);
        line.push('"');
        for (key, value) in fields {
            line.push_str(",\"");
            escape_json(&mut line, key);
            line.push_str("\":\"");
            escape_json(&mut line, value);
            line.push('"');
        }
        if suppressed > 0 {
            line.push_str(",\"suppressed\":");
            line.push_str(&suppressed.to_string());
        }
        line.push_str("}\n");
        let mut sink = self.inner.sink.lock().expect("event log sink");
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }

    /// [`EventLog::log`] at [`Level::Error`].
    pub fn error(&self, target: &str, msg: &str, fields: &[(&str, &str)]) {
        self.log(Level::Error, target, msg, fields);
    }

    /// [`EventLog::log`] at [`Level::Warn`].
    pub fn warn(&self, target: &str, msg: &str, fields: &[(&str, &str)]) {
        self.log(Level::Warn, target, msg, fields);
    }

    /// [`EventLog::log`] at [`Level::Info`].
    pub fn info(&self, target: &str, msg: &str, fields: &[(&str, &str)]) {
        self.log(Level::Info, target, msg, fields);
    }

    /// [`EventLog::log`] at [`Level::Debug`].
    pub fn debug(&self, target: &str, msg: &str, fields: &[(&str, &str)]) {
        self.log(Level::Debug, target, msg, fields);
    }
}

struct BufferWriter {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl Write for BufferWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buffer
            .lock()
            .expect("log buffer")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

static GLOBAL: OnceLock<EventLog> = OnceLock::new();

/// The process-wide event log: the one [`install`]ed, or else one writing
/// JSONL to stderr with the threshold from `RDHT_LOG` (default `warn`),
/// created on first use.
pub fn global() -> &'static EventLog {
    GLOBAL.get_or_init(EventLog::stderr)
}

/// Makes `log` the process-wide event log. Only possible before the first
/// use of [`global`]; afterwards `log` is handed back. Tests install an
/// [`EventLog::to_buffer`] log this way to capture what the code under test
/// reports instead of printing it.
pub fn install(log: EventLog) -> Result<(), EventLog> {
    GLOBAL.set(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(buffer: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buffer.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn events_render_as_one_json_object_per_line() {
        let (log, buffer) = EventLog::to_buffer(Level::Debug);
        log.warn(
            "net.tcp",
            "dropping connection",
            &[("peer", "127.0.0.1:9999"), ("error", "Truncated")],
        );
        let lines = lines(&buffer);
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"ts_us\":"), "{line}");
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(line.contains("\"target\":\"net.tcp\""), "{line}");
        assert!(line.contains("\"msg\":\"dropping connection\""), "{line}");
        assert!(line.contains("\"peer\":\"127.0.0.1:9999\""), "{line}");
        assert!(line.contains("\"error\":\"Truncated\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    #[test]
    fn threshold_filters_lower_severities() {
        let (log, buffer) = EventLog::to_buffer(Level::Warn);
        assert!(log.enabled(Level::Error));
        assert!(!log.enabled(Level::Info));
        log.info("x", "dropped", &[]);
        log.debug("x", "dropped", &[]);
        log.error("x", "kept", &[]);
        assert_eq!(lines(&buffer).len(), 1);
    }

    #[test]
    fn floods_are_rate_limited_and_accounted() {
        let (log, buffer) = EventLog::to_buffer(Level::Debug);
        for _ in 0..(MAX_EVENTS_PER_WINDOW + 10) {
            log.warn("flood", "again", &[]);
        }
        let written = lines(&buffer);
        assert_eq!(written.len() as u32, MAX_EVENTS_PER_WINDOW);
        // A different target is not affected by the flooded window.
        log.warn("calm", "fine", &[]);
        assert_eq!(lines(&buffer).len() as u32, MAX_EVENTS_PER_WINDOW + 1);
    }

    #[test]
    fn messages_and_fields_are_json_escaped() {
        let (log, buffer) = EventLog::to_buffer(Level::Debug);
        log.warn("t", "a\"b\\c\nd", &[("k\"", "v\t")]);
        let line = lines(&buffer).remove(0);
        assert!(line.contains("a\\\"b\\\\c\\nd"), "{line}");
        assert!(line.contains("\"k\\\"\":\"v\\t\""), "{line}");
    }

    #[test]
    fn level_parsing_accepts_common_spellings() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Debug));
        assert_eq!(Level::parse("nonsense"), None);
    }
}
