//! Prometheus text-format exposition.

use std::fmt::Write as _;

use crate::registry::{Instrument, Labels, Registry};

fn escape_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

fn escape_help(out: &mut String, help: &str) {
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

fn write_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &Labels,
    extra: Option<(&str, &str)>,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label_value(out, v);
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            escape_label_value(out, v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
}

/// Renders every series of `registry` in the Prometheus text exposition
/// format (one `# HELP`/`# TYPE` header per metric, histograms expanded to
/// cumulative `_bucket`/`_sum`/`_count` series) and terminates the body with
/// an OpenMetrics-style `# EOF` line so a truncated scrape is detectable.
pub fn encode(registry: &Registry) -> String {
    let mut out = String::new();
    registry.with_families(|catalog| {
        for (name, family) in catalog {
            if !family.help.is_empty() {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push(' ');
                escape_help(&mut out, &family.help);
                out.push('\n');
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, instrument) in &family.series {
                match instrument {
                    Instrument::Counter(c) => {
                        write_series(&mut out, name, "", labels, None);
                        let _ = writeln!(out, "{}", c.get());
                    }
                    Instrument::Gauge(g) => {
                        write_series(&mut out, name, "", labels, None);
                        let _ = writeln!(out, "{}", g.get());
                    }
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        let cumulative = snap.cumulative();
                        for (boundary, cum) in snap.boundaries.iter().zip(&cumulative) {
                            let le = boundary.to_string();
                            write_series(&mut out, name, "_bucket", labels, Some(("le", &le)));
                            let _ = writeln!(out, "{cum}");
                        }
                        write_series(&mut out, name, "_bucket", labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, "{}", snap.count);
                        write_series(&mut out, name, "_sum", labels, None);
                        let _ = writeln!(out, "{}", snap.sum);
                        write_series(&mut out, name, "_count", labels, None);
                        let _ = writeln!(out, "{}", snap.count);
                    }
                }
            }
        }
    });
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_shape() {
        let registry = Registry::new();
        registry
            .counter("ops_total", "operations", &[("peer", "1")])
            .add(7);
        registry
            .gauge("queue_depth", "queued requests", &[])
            .set(-3);
        let h = registry.histogram_with_buckets("lat_ns", "latency", &[], vec![10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(5000);
        let text = encode(&registry);
        let expected = "\
# HELP lat_ns latency
# TYPE lat_ns histogram
lat_ns_bucket{le=\"10\"} 2
lat_ns_bucket{le=\"100\"} 2
lat_ns_bucket{le=\"+Inf\"} 3
lat_ns_sum 5015
lat_ns_count 3
# HELP ops_total operations
# TYPE ops_total counter
ops_total{peer=\"1\"} 7
# HELP queue_depth queued requests
# TYPE queue_depth gauge
queue_depth -3
# EOF
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter("x_total", "", &[("path", "a\\b\"c\nd")])
            .inc();
        let text = encode(&registry);
        assert!(
            text.contains("x_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn empty_registry_is_just_eof() {
        assert_eq!(encode(&Registry::new()), "# EOF\n");
    }
}
