//! A minimal parser for the Prometheus text exposition format.
//!
//! Deliberately small: it accepts exactly what [`crate::encode`] produces
//! (plus insignificant whitespace variations) and is used to *validate*
//! scrapes — by the proptest round-trip suite, by the `metrics` example and
//! by CI, which fails a build whose exposition no longer parses.

use std::collections::BTreeMap;
use std::fmt;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Full sample name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs in the order they appeared.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed exposition: samples plus the `# TYPE` declarations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exposition {
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
    /// Metric name to declared type (`counter`/`gauge`/`histogram`).
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// The value of the sample with this exact name and label set (labels
    /// compared order-insensitively).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.samples.iter().find_map(|s| {
            if s.name != name {
                return None;
            }
            let mut have = s.labels.clone();
            have.sort();
            (have == want).then_some(s.value)
        })
    }

    /// Whether any sample belongs to the metric `name` (histogram samples
    /// match through their `_bucket`/`_sum`/`_count` suffixes).
    pub fn has_metric(&self, name: &str) -> bool {
        self.types.contains_key(name)
            || self.samples.iter().any(|s| {
                s.name == name
                    || s.name
                        .strip_prefix(name)
                        .is_some_and(|rest| matches!(rest, "_bucket" | "_sum" | "_count"))
            })
    }
}

/// Why a scrape failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The exposition does not end with the `# EOF` marker — the scrape was
    /// truncated in flight.
    MissingEof,
    /// A line after `# EOF`.
    DataAfterEof {
        /// 1-based line number.
        line: usize,
    },
    /// A sample line that does not scan.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: &'static str,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingEof => write!(f, "exposition missing trailing # EOF marker"),
            ParseError::DataAfterEof { line } => {
                write!(f, "line {line}: data after # EOF marker")
            }
            ParseError::Malformed { line, what } => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_labels(raw: &str, line: usize) -> Result<Vec<(String, String)>, ParseError> {
    let mut labels = Vec::new();
    let mut chars = raw.chars().peekable();
    loop {
        // Label name up to '='.
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        let name = name.trim().to_string();
        if !valid_name(&name) {
            return Err(ParseError::Malformed {
                line,
                what: "bad label name",
            });
        }
        if chars.next() != Some('"') {
            return Err(ParseError::Malformed {
                line,
                what: "label value must be quoted",
            });
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => {
                        return Err(ParseError::Malformed {
                            line,
                            what: "bad escape in label value",
                        })
                    }
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => {
                    return Err(ParseError::Malformed {
                        line,
                        what: "unterminated label value",
                    })
                }
            }
        }
        labels.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => return Ok(labels),
            Some(_) => {
                return Err(ParseError::Malformed {
                    line,
                    what: "expected ',' or '}' after label",
                })
            }
        }
    }
}

/// Parses a text exposition. Requires the trailing `# EOF` marker that
/// [`crate::encode`] emits, so truncated scrapes fail loudly.
pub fn parse(text: &str) -> Result<Exposition, ParseError> {
    let mut exposition = Exposition::default();
    let mut saw_eof = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw_line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(ParseError::DataAfterEof { line });
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment == "EOF" {
                saw_eof = true;
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                if !valid_name(name)
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    )
                {
                    return Err(ParseError::Malformed {
                        line,
                        what: "bad TYPE line",
                    });
                }
                exposition.types.insert(name.to_string(), kind.to_string());
            }
            // HELP and other comments are free-form.
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value_str) = match trimmed.find('{') {
            Some(open) => {
                let close = trimmed.rfind('}').ok_or(ParseError::Malformed {
                    line,
                    what: "unterminated label set",
                })?;
                if close < open {
                    return Err(ParseError::Malformed {
                        line,
                        what: "unterminated label set",
                    });
                }
                (
                    (&trimmed[..open], Some(&trimmed[open + 1..close])),
                    trimmed[close + 1..].trim(),
                )
            }
            None => {
                let mut parts = trimmed.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("");
                ((name, None), parts.next().unwrap_or("").trim())
            }
        };
        let (name, raw_labels) = series;
        if !valid_name(name) {
            return Err(ParseError::Malformed {
                line,
                what: "bad metric name",
            });
        }
        let labels = match raw_labels {
            Some(raw) if !raw.trim().is_empty() => parse_labels(raw, line)?,
            _ => Vec::new(),
        };
        let value: f64 = value_str.parse().map_err(|_| ParseError::Malformed {
            line,
            what: "bad sample value",
        })?;
        exposition.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    if !saw_eof {
        return Err(ParseError::MissingEof);
    }
    Ok(exposition)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_encode_emits() {
        let registry = crate::Registry::new();
        registry
            .counter("ops_total", "ops", &[("peer", "3")])
            .add(9);
        let h = registry.histogram_with_buckets("lat_ns", "", &[], vec![10]);
        h.observe(4);
        h.observe(40);
        let text = crate::encode(&registry);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.value("ops_total", &[("peer", "3")]), Some(9.0));
        assert_eq!(parsed.value("lat_ns_bucket", &[("le", "10")]), Some(1.0));
        assert_eq!(parsed.value("lat_ns_bucket", &[("le", "+Inf")]), Some(2.0));
        assert_eq!(parsed.value("lat_ns_count", &[]), Some(2.0));
        assert_eq!(parsed.value("lat_ns_sum", &[]), Some(44.0));
        assert!(parsed.has_metric("lat_ns"));
        assert!(parsed.has_metric("ops_total"));
        assert!(!parsed.has_metric("nope"));
        assert_eq!(
            parsed.types.get("ops_total").map(String::as_str),
            Some("counter")
        );
    }

    #[test]
    fn truncated_scrape_is_rejected() {
        assert_eq!(parse("ops_total 1\n"), Err(ParseError::MissingEof));
    }

    #[test]
    fn data_after_eof_is_rejected() {
        let err = parse("# EOF\nops_total 1\n").unwrap_err();
        assert!(matches!(err, ParseError::DataAfterEof { line: 2 }));
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let registry = crate::Registry::new();
        registry
            .counter("x_total", "", &[("p", "a\\b\"c\nd")])
            .inc();
        let parsed = parse(&crate::encode(&registry)).unwrap();
        assert_eq!(parsed.samples[0].labels[0].1, "a\\b\"c\nd");
    }

    #[test]
    fn garbage_lines_fail() {
        assert!(parse("not a metric line at all!!! 1 2 3\n# EOF\n").is_err());
        assert!(parse("x_total{le=\"unterminated} 1\n# EOF\n").is_err());
        assert!(parse("x_total notanumber\n# EOF\n").is_err());
    }
}
