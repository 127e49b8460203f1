//! Metric names, units, directions and bounds — the benchmark's published
//! surface, mirrored in `/BENCHMARK.json` — and how each value is computed
//! from a run's [`Outcome`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;
use crate::run::{Outcome, Slice};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression, and the tolerance two
    /// sets of runs of the same code must meet. Per-layer metrics have none.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the cluster sees. The time-based bounds sit at the widest
/// the benchmark contract allows: this runs on shared virtual machines whose
/// speed drifts by a tenth for minutes at a time, and the journaled
/// workloads flush to a shared virtual disk (README.md has the measurements).
/// A gain is claimed from alternating pairs, not from the bound; the bound
/// only says what counts as a regression. Failed operations are reported
/// beside the metrics (`failed` of `attempted`), not as one, because a metric
/// must never read zero; tail latencies are per-layer metrics without a
/// bound, because a p99 here does not repeat within a quarter.
pub const END_TO_END: [MetricSpec; 8] = [
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("throughput_ops_s", "1/s", Higher, 0.25),
    end_to_end("retrieve_p50_us", "us", Lower, 0.25),
    end_to_end("insert_p50_us", "us", Lower, 0.25),
    end_to_end("cpu_us_per_op", "us", Lower, 0.25),
    end_to_end("msgs_per_op", "count", Lower, 0.02),
    end_to_end("current_frac", "frac", Higher, 0.01),
    end_to_end("peak_rss_mb", "MB", Lower, 0.25),
];

/// One number per layer boundary, named after the crate or module that does
/// the work. README.md says where each comes from and which end-to-end
/// metric it should move.
pub const PER_LAYER: [MetricSpec; 60] = [
    layer("retrieve_p99_us", "us", Lower),
    layer("insert_p99_us", "us", Lower),
    layer("hashing.positions_ns", "ns", Lower),
    layer("overlay.store_get_ns", "ns", Lower),
    layer("overlay.store_put_ns", "ns", Lower),
    layer("core.ums_insert_ns", "ns", Lower),
    layer("core.ums_retrieve_ns", "ns", Lower),
    layer("core.replicas_probed_per_retrieve", "count", Lower),
    layer("core.indirect_inits_per_kop", "count", Lower),
    layer("storage.apply_batch_us", "us", Lower),
    layer("storage.sync_us", "us", Lower),
    layer("storage.compact_ms", "ms", Lower),
    layer("storage.recover_ms", "ms", Lower),
    layer("storage.fsyncs_per_insert", "count", Lower),
    layer("storage.wal_bytes_per_insert", "B", Lower),
    layer("storage.compactions_per_kop", "count", Lower),
    layer("storage.batch_ops_mean", "count", Higher),
    layer("net.wire.encode_request_ns", "ns", Lower),
    layer("net.wire.decode_request_ns", "ns", Lower),
    layer("net.wire.encode_reply_ns", "ns", Lower),
    layer("net.wire.decode_reply_ns", "ns", Lower),
    layer("net.wire.bytes_per_op", "B", Lower),
    layer("net.transport.channel_hop_us", "us", Lower),
    layer("net.transport.tcp_hop_us", "us", Lower),
    layer("net.client.msgs_per_retrieve", "count", Lower),
    layer("net.client.msgs_per_insert", "count", Lower),
    layer("net.client.retries_per_kop", "count", Lower),
    layer("net.client.call_us_p50", "us", Lower),
    layer("net.cluster.requests_per_op", "count", Lower),
    layer("net.cluster.service_us_mean", "us", Lower),
    layer("net.cluster.drain_batch_mean", "count", Higher),
    layer("net.cluster.dedup_suppressed_per_kop", "count", Lower),
    layer("net.cluster.queue_wait_us_p50", "us", Lower),
    layer("net.cluster.apply_us_p50", "us", Lower),
    layer("net.cluster.batch_wait_us_p50", "us", Lower),
    layer("net.cluster.fsync_us_p50", "us", Lower),
    layer("net.cluster.reply_us_p50", "us", Lower),
    layer("net.cluster.handoff_stall_ms_per_event", "ms", Lower),
    layer("net.fault.delayed_frames_per_op", "count", Lower),
    layer("membership.join_ms_p50", "ms", Lower),
    layer("membership.leave_ms_p50", "ms", Lower),
    layer("membership.restart_ms_p50", "ms", Lower),
    layer("membership.replicas_moved_per_event", "count", Lower),
    layer("membership.events", "count", Higher),
    layer("membership.export_ms", "ms", Lower),
    layer("membership.install_ms", "ms", Lower),
    layer("membership.commit_ms", "ms", Lower),
    layer("metrics.counter_inc_ns", "ns", Lower),
    layer("metrics.histogram_observe_ns", "ns", Lower),
    layer("metrics.scrape_us", "us", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.budget_insert_gap_frac", "frac", Lower),
    layer("bench.budget_retrieve_gap_frac", "frac", Lower),
    layer("bench.slice_spread_frac", "frac", Lower),
    layer("bench.retrieve_samples", "count", Higher),
    layer("bench.insert_samples", "count", Higher),
    layer("bench.retrieve_p99_support", "count", Higher),
    layer("bench.insert_p99_support", "count", Higher),
    layer("bench.untraced_throughput_ops_s", "1/s", Higher),
    layer("bench.traced_throughput_ops_s", "1/s", Higher),
];

/// Every number a run produced, by metric name.
pub type Values = BTreeMap<String, f64>;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The end-to-end metrics and the per-layer *counts* of one run. The counts
/// come from the same measured window the end-to-end numbers came from:
/// client accessors, membership reports and the peers' scraped registries.
pub fn values_of(outcome: &Outcome) -> Values {
    let attempted = outcome.tally.attempted as f64;
    let inserts = attempted - outcome.tally.retrieves as f64;
    let counter = |name: &str| outcome.counters.get(name).copied().unwrap_or(0.0);
    let requests: f64 = ["put", "puts", "get", "timestamp", "handoff", "install"]
        .iter()
        .map(|kind| counter(&format!("net_requests_total{{kind={kind}}}")))
        .sum();
    let events: Vec<_> = outcome.window_events().collect();
    let event_ms = |kind: &str| {
        let millis: Vec<f64> = events
            .iter()
            .filter(|event| event.kind == kind)
            .map(|event| event.millis)
            .collect();
        stats::median_or_zero(&millis)
    };
    let moved: usize = events.iter().map(|event| event.replicas_moved).sum();

    let mut values = Values::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("setup_s", outcome.setup_s);
    put("throughput_ops_s", outcome.throughput_ops_s());
    let latency = |samples: fn(&Slice) -> &Vec<u32>, q: f64| {
        outcome.slice_median(|slice| {
            stats::percentile(samples(slice), q).map(|ns| f64::from(ns) / 1e3)
        })
    };
    put("retrieve_p50_us", latency(|slice| &slice.retrieve_ns, 0.5));
    put("retrieve_p99_us", latency(|slice| &slice.retrieve_ns, 0.99));
    put("insert_p50_us", latency(|slice| &slice.insert_ns, 0.5));
    put("insert_p99_us", latency(|slice| &slice.insert_ns, 0.99));
    put(
        "cpu_us_per_op",
        outcome.slice_median(|slice| {
            (slice.completed > 0).then(|| slice.cpu_seconds * 1e6 / slice.completed as f64)
        }),
    );
    put(
        "msgs_per_op",
        ratio(
            (outcome.tally.msgs_retrieve + outcome.tally.msgs_insert) as f64,
            attempted,
        ),
    );
    put(
        "current_frac",
        ratio(
            outcome.tally.retrieves_current as f64,
            outcome.tally.retrieves as f64,
        ),
    );
    put("peak_rss_mb", outcome.peak_rss_mb);

    put(
        "core.replicas_probed_per_retrieve",
        ratio(
            outcome.tally.replicas_probed as f64,
            outcome.tally.retrieves as f64,
        ),
    );
    put(
        "core.indirect_inits_per_kop",
        ratio(outcome.tally.indirect_inits as f64 * 1e3, attempted),
    );
    put(
        "storage.fsyncs_per_insert",
        ratio(counter("storage_wal_syncs_total"), inserts),
    );
    put(
        "storage.wal_bytes_per_insert",
        ratio(counter("storage_wal_bytes_total"), inserts),
    );
    put(
        "storage.compactions_per_kop",
        ratio(counter("storage_compactions_total") * 1e3, attempted),
    );
    put(
        "storage.batch_ops_mean",
        ratio(
            counter("storage_batch_ops_sum"),
            counter("storage_batch_ops_count"),
        ),
    );
    put(
        "net.client.msgs_per_retrieve",
        ratio(
            outcome.tally.msgs_retrieve as f64,
            outcome.tally.retrieves as f64,
        ),
    );
    put(
        "net.client.msgs_per_insert",
        ratio(outcome.tally.msgs_insert as f64, inserts),
    );
    put(
        "net.client.retries_per_kop",
        ratio(outcome.tally.retries as f64 * 1e3, attempted),
    );
    put("net.cluster.requests_per_op", ratio(requests, attempted));
    put(
        "net.cluster.service_us_mean",
        ratio(
            counter("net_request_service_ns_sum"),
            counter("net_request_service_ns_count"),
        ) / 1e3,
    );
    put(
        "net.cluster.drain_batch_mean",
        ratio(
            counter("net_drain_batch_depth_sum"),
            counter("net_drain_batch_depth_count"),
        ),
    );
    put(
        "net.cluster.dedup_suppressed_per_kop",
        ratio(counter("net_dedup_suppressed_total") * 1e3, attempted),
    );
    put(
        "net.cluster.handoff_stall_ms_per_event",
        ratio(
            counter("net_handoff_stall_ns_total") / 1e6,
            events.len() as f64,
        ),
    );
    put(
        "net.fault.delayed_frames_per_op",
        ratio(counter("net_fault_frames_delayed_total"), attempted),
    );
    put("membership.join_ms_p50", event_ms("join"));
    put("membership.leave_ms_p50", event_ms("leave"));
    put("membership.restart_ms_p50", event_ms("restart"));
    put(
        "membership.replicas_moved_per_event",
        ratio(moved as f64, events.len() as f64),
    );
    put("membership.events", events.len() as f64);
    // Mean duration of a hand-off phase, from the peers' own histograms (the
    // coordinator's hand-off requests carry no trace context, so the
    // `peer.handoff_*` spans never fire).
    for phase in ["export", "install", "commit"] {
        let series = format!("membership_handoff_{phase}_ns");
        let (sum, count) = (
            counter(&format!("{series}_sum")),
            counter(&format!("{series}_count")),
        );
        put(&format!("membership.{phase}_ms"), ratio(sum, count) / 1e6);
    }
    put("bench.slice_spread_frac", outcome.slice_spread_frac());
    let samples = |of: fn(&Slice) -> &Vec<u32>| -> f64 {
        let slices = &outcome.tally.slices;
        slices.iter().map(|slice| of(slice).len() as f64).sum()
    };
    let support = |of: fn(&Slice) -> &Vec<u32>| {
        outcome.slice_median(|slice| Some(stats::samples_beyond(of(slice).len(), 0.99) as f64))
    };
    put(
        "bench.retrieve_samples",
        samples(|slice| &slice.retrieve_ns),
    );
    put("bench.insert_samples", samples(|slice| &slice.insert_ns));
    put(
        "bench.retrieve_p99_support",
        support(|slice| &slice.retrieve_ns),
    );
    put(
        "bench.insert_p99_support",
        support(|slice| &slice.insert_ns),
    );
    values
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being those of `specs`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &Values,
) -> String {
    let mut line = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, spec) in specs.iter().enumerate() {
        let value = values.get(spec.name).copied().unwrap_or(0.0);
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{comma}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(spec.name),
            number(value),
            json::quote(spec.unit)
        );
    }
    line.push_str("}}");
    line
}

/// A JSON number with all the digits measured; JSON has no NaN or infinity.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `values` as a flat JSON object.
pub fn values_json(values: &Values) -> String {
    let members: Vec<String> = values
        .iter()
        .map(|(name, value)| format!("{}: {}", json::quote(name), number(*value)))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// A human table of `specs` against `values`.
pub fn table(specs: &[MetricSpec], values: &Values) -> String {
    let mut out = String::new();
    for spec in specs {
        let value = values.get(spec.name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "  {:<42} {:>16.4} {}", spec.name, value, spec.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("setup_s".to_string(), 0.8127);
        values.insert("throughput_ops_s".to_string(), f64::NAN);
        let line = result_line(true, 1000, 0, &END_TO_END[..2], &values);
        let parsed = json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&String> = parsed.object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(json::Json::number),
            Some(0.8127)
        );
        assert_eq!(setup.get("unit").and_then(json::Json::text), Some("s"));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(spec.name), "duplicate metric {}", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(END_TO_END
            .iter()
            .all(|spec| spec.bound > 0.0 && spec.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|spec| spec.name == "setup_s" && spec.unit == "s"));
    }
}
