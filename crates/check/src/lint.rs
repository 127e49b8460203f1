//! Engine 2: the project-invariant linter. Line-level (no AST dep, no
//! proc macros), enforcing workspace rules clippy cannot express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-eprintln` | all diagnostics flow through `EventLog` (structured, rate-limited, `RDHT_LOG`-gated); `eprintln!` is allowed only inside the `EventLog` implementation itself |
//! | `max-fn-lines` | no function in the non-test sources directly under `crates/net/src` runs past 150 lines (`fn` line through closing brace) — the peer loop stays one handler per request kind |
//! | `sim-virtual-time` | `rdht-sim` runs on virtual time only: no `Instant::now`/`SystemTime::now` under `crates/sim/src` |
//! | `relaxed-justified` | every `Ordering::Relaxed` carries a `// relaxed:` justification on the same line or in the comment block directly above |
//! | `wire-exhaustive` | every `Request`/`Reply` variant in `message.rs` has an encode arm and a decode arm in `wire.rs`, and every `Request` variant a `RequestCounters` entry in `metrics.rs` |
//!
//! The checker's own crate (`crates/check`) is excluded from the walk: its
//! sources and test fixtures contain the banned patterns *as data*.
//!
//! Matching is done on comment-stripped text (line comments, block
//! comments and string literals are blanked), so doc comments mentioning
//! `Request::Metrics` or a log message containing `Relaxed` cannot
//! confuse the rules.

use std::fmt;
use std::path::{Path, PathBuf};

// Needles are assembled with `concat!` so this file never contains the
// banned tokens verbatim — the linter must survive being pointed at
// itself (or at a vendored copy of itself) without self-reporting.
const EPRINTLN: &str = concat!("eprint", "ln!");
const INSTANT_NOW: &str = concat!("Instant", "::now");
const SYSTEM_TIME_NOW: &str = concat!("SystemTime", "::now");
const RELAXED: &str = concat!("Ordering::", "Relaxed");
const RELAXED_MARKER: &str = concat!("// relaxed", ":");

/// Longest function `max-fn-lines` tolerates, `fn` line through closing brace.
pub const MAX_FN_LINES: usize = 150;

/// A single lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Rule identifier, e.g. `no-eprintln`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file comment/string stripper state (block comments span lines).
#[derive(Default)]
struct Stripper {
    in_block_comment: bool,
}

impl Stripper {
    /// Returns the line with comments and string/char literal *contents*
    /// blanked (replaced by spaces), so column positions are preserved.
    /// Heuristic, not a full lexer: multi-line string literals are not
    /// tracked (the workspace style avoids them in the linted regions).
    fn code_of(&mut self, line: &str) -> String {
        let bytes: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < bytes.len() {
            if self.in_block_comment {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    self.in_block_comment = false;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    // Line comment: blank the rest.
                    while i < bytes.len() {
                        out.push(' ');
                        i += 1;
                    }
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    self.in_block_comment = true;
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    // String literal: keep the quotes, blank the content.
                    out.push('"');
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            '\\' => {
                                out.push_str("  ");
                                i += 2;
                            }
                            '"' => {
                                out.push('"');
                                i += 1;
                                break;
                            }
                            _ => {
                                out.push(' ');
                                i += 1;
                            }
                        }
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes
                    // within a few chars; a lifetime has no closing quote.
                    if bytes.get(i + 1) == Some(&'\\') {
                        out.push('\'');
                        i += 2;
                        while i < bytes.len() && bytes[i] != '\'' {
                            out.push(' ');
                            i += 1;
                        }
                        if i < bytes.len() {
                            out.push('\'');
                            i += 1;
                        }
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        out.push_str("   ");
                        i += 3;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        out
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `needle` occurs in `hay` delimited by non-identifier chars —
/// so `Request::PutReplica` does not match inside `Request::PutReplicas`.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(hay[..at].chars().next_back().unwrap_or(' '));
        let after_ok = hay[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Whether `rel` is a non-test source directly under `crates/net/src` —
/// the files `max-fn-lines` covers (`tests.rs`, `peer_tests.rs` and
/// `wire_proptests.rs` are test modules).
fn is_net_source(rel: &str) -> bool {
    rel.strip_prefix("crates/net/src/")
        .is_some_and(|name| !name.contains('/') && !name.ends_with("tests.rs"))
}

/// Lints a single file's content. `rel` is the path relative to the
/// workspace root, '/'-separated.
pub fn lint_file(rel: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_sim = rel.starts_with("crates/sim/src/");
    let is_eventlog = rel == "crates/metrics/src/log.rs";

    if is_net_source(rel) {
        for (name, line, len) in fn_lengths(content) {
            if len > MAX_FN_LINES {
                findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: "max-fn-lines",
                    message: format!(
                        "fn {name} is {len} lines long (limit {MAX_FN_LINES}); give each \
                         request kind, phase or rule its own function"
                    ),
                });
            }
        }
    }

    let mut stripper = Stripper::default();
    let lines: Vec<&str> = content.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = stripper.code_of(raw);

        if !is_eventlog && code.contains(EPRINTLN) {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: "no-eprintln",
                message: format!(
                    "{EPRINTLN}(..) outside the EventLog implementation; use \
                     rdht_metrics::log (structured, rate-limited, RDHT_LOG-gated)"
                ),
            });
        }

        if in_sim && (code.contains(INSTANT_NOW) || code.contains(SYSTEM_TIME_NOW)) {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: "sim-virtual-time",
                message: "wall-clock read in rdht-sim; the simulator runs on virtual \
                          time only (see sim::Clock)"
                    .to_string(),
            });
        }

        if code.contains(RELAXED) && !raw.contains(RELAXED_MARKER) {
            // Justifications are often multi-line: accept the marker
            // anywhere in the contiguous run of `//` comment lines
            // directly above the site.
            let justified = lines[..idx]
                .iter()
                .rev()
                .take_while(|l| l.trim_start().starts_with("//"))
                .any(|l| l.contains(RELAXED_MARKER));
            if !justified {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line_no,
                    rule: "relaxed-justified",
                    message: format!(
                        "{RELAXED} without a `{RELAXED_MARKER}` justification on this \
                         line or in the comment block above it; explain why the \
                         ordering cannot be load-bearing (or upgrade it)"
                    ),
                });
            }
        }
    }
    findings
}

/// Extracts the variant names of `pub enum <name>` from comment-stripped
/// enum source, by brace-depth tracking.
fn enum_variants(content: &str, name: &str) -> Vec<(String, usize)> {
    let mut stripper = Stripper::default();
    let header = format!("enum {name}");
    let mut variants = Vec::new();
    let mut depth: i32 = -1; // -1: before the enum; 0+: brace depth inside
    for (idx, raw) in content.lines().enumerate() {
        let code = stripper.code_of(raw);
        if depth < 0 {
            if contains_word(&code, &header) && code.contains('{') {
                depth = 0;
            }
            continue;
        }
        let trimmed = code.trim_start();
        if depth == 0 {
            if let Some(first) = trimmed.chars().next() {
                if first.is_ascii_uppercase() {
                    let ident: String = trimmed.chars().take_while(|&c| is_ident_char(c)).collect();
                    if !ident.is_empty() {
                        variants.push((ident, idx + 1));
                    }
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return variants;
                    }
                }
                _ => {}
            }
        }
    }
    variants
}

/// The functions of `content` that have a body, as `(name, line of the
/// `fn` keyword, line count through the body's closing brace)`. Brace
/// matching on comment-stripped text; a nested function is measured on its
/// own as well as inside its parent.
fn fn_lengths(content: &str) -> Vec<(String, usize, usize)> {
    let mut stripper = Stripper::default();
    let mut lengths = Vec::new();
    // Functions whose body is open: name, first line, brace depth inside.
    let mut open: Vec<(String, usize, usize)> = Vec::new();
    // A signature seen whose body has not opened yet.
    let mut pending: Option<(String, usize)> = None;
    let mut depth = 0usize;
    // Nesting of `(`/`[` inside a pending signature: a `;` there (an array
    // type) does not end the item.
    let mut nesting = 0usize;
    for (idx, raw) in content.lines().enumerate() {
        let code = stripper.code_of(raw);
        let mut rest = code.as_str();
        while !rest.is_empty() {
            if rest.starts_with("fn ") && pending.is_none() {
                let name: String = rest[3..]
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                let boundary_ok = !code[..code.len() - rest.len()]
                    .chars()
                    .next_back()
                    .is_some_and(is_ident_char);
                if boundary_ok && !name.is_empty() {
                    pending = Some((name, idx + 1));
                    nesting = 0;
                }
            }
            let c = rest.chars().next().unwrap_or(' ');
            match c {
                '(' | '[' if pending.is_some() => nesting += 1,
                ')' | ']' if pending.is_some() => nesting = nesting.saturating_sub(1),
                // A declaration without a body (trait method, extern).
                ';' if nesting == 0 => pending = None,
                '{' => {
                    depth += 1;
                    if let Some((name, line)) = pending.take() {
                        open.push((name, line, depth));
                    }
                }
                '}' => {
                    if open.last().is_some_and(|(_, _, at)| *at == depth) {
                        let (name, line, _) = open.pop().expect("checked non-empty");
                        lengths.push((name, line, idx + 1 - line + 1));
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
            rest = &rest[c.len_utf8()..];
        }
    }
    lengths.sort_by_key(|(_, line, _)| *line);
    lengths
}

/// In how many distinct functions of `content` does `needle` occur
/// (word-delimited, comment-stripped)?
fn distinct_fn_mentions(content: &str, needle: &str) -> usize {
    let spans = fn_lengths(content);
    let mut stripper = Stripper::default();
    let mut fns: Vec<&str> = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        if !contains_word(&stripper.code_of(raw), needle) {
            continue;
        }
        // The innermost function around the line: spans are sorted by their
        // first line, so the last one that contains it.
        let around =
            |(_, first, len): &&(String, usize, usize)| (*first..first + len).contains(&(idx + 1));
        if let Some((name, _, _)) = spans.iter().rev().find(around) {
            if !fns.contains(&name.as_str()) {
                fns.push(name);
            }
        }
    }
    fns.len()
}

/// Cross-checks wire-tag exhaustiveness: every `Request`/`Reply` variant
/// of `message` must be mentioned in at least two distinct functions of
/// `wire` (its encode arm and its decode arm), and every `Request`
/// variant must appear in `metrics` (its `RequestCounters` entry).
pub fn lint_wire_tags(message: &str, wire: &str, metrics: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for enum_name in ["Request", "Reply"] {
        let variants = enum_variants(message, enum_name);
        if variants.is_empty() {
            findings.push(Finding {
                file: "crates/net/src/message.rs".to_string(),
                line: 0,
                rule: "wire-exhaustive",
                message: format!("found no variants for enum {enum_name}; parser out of sync?"),
            });
            continue;
        }
        for (variant, line) in &variants {
            let qualified = format!("{enum_name}::{variant}");
            let mentions = distinct_fn_mentions(wire, &qualified);
            if mentions < 2 {
                findings.push(Finding {
                    file: "crates/net/src/message.rs".to_string(),
                    line: *line,
                    rule: "wire-exhaustive",
                    message: format!(
                        "{qualified} appears in {mentions} function(s) of wire.rs; every \
                         variant needs both an encode arm and a decode arm"
                    ),
                });
            }
            if enum_name == "Request" && distinct_fn_mentions(metrics, &qualified) == 0 {
                findings.push(Finding {
                    file: "crates/net/src/message.rs".to_string(),
                    line: *line,
                    rule: "wire-exhaustive",
                    message: format!(
                        "{qualified} has no RequestCounters entry in crates/net/src/metrics.rs"
                    ),
                });
            }
        }
    }
    findings
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`. Deterministic: files are
/// visited in sorted path order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // The checker's sources hold the banned patterns as data.
        if rel.starts_with("crates/check/") {
            continue;
        }
        let content = std::fs::read_to_string(path)?;
        findings.extend(lint_file(&rel, &content));
    }

    let message = std::fs::read_to_string(root.join("crates/net/src/message.rs"));
    let wire = std::fs::read_to_string(root.join("crates/net/src/wire.rs"));
    let metrics = std::fs::read_to_string(root.join("crates/net/src/metrics.rs"));
    match (message, wire, metrics) {
        (Ok(message), Ok(wire), Ok(metrics)) => {
            findings.extend(lint_wire_tags(&message, &wire, &metrics));
        }
        _ => findings.push(Finding {
            file: "crates/net/src".to_string(),
            line: 0,
            rule: "wire-exhaustive",
            message: "message.rs / wire.rs / metrics.rs not readable; wire-tag \
                      cross-check skipped"
                .to_string(),
        }),
    }

    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eprintln_is_flagged_outside_eventlog() {
        let src = format!("fn f() {{ {EPRINTLN}(\"x\"); }}\n");
        let out = lint_file("crates/net/src/peer.rs", &src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "no-eprintln");
        assert_eq!(out[0].line, 1);
        let ok = lint_file("crates/metrics/src/log.rs", &src);
        assert!(ok.is_empty());
    }

    #[test]
    fn eprintln_in_comment_or_string_is_ignoredonly() {
        let src = format!("// {EPRINTLN} is banned\nlet s = \"{EPRINTLN}\";\n");
        let out = lint_file("crates/net/src/peer.rs", &src);
        assert!(out.is_empty(), "{out:?}");
    }

    /// A function of `body_lines` statement lines (so `body_lines + 2` in
    /// all), preceded by a short one and followed by a bodiless declaration.
    fn source_with_fn_of(body_lines: usize) -> String {
        let body = "    let v = [0u8; 4]; // } not a brace\n".repeat(body_lines);
        format!(
            "fn short(a: [u8; 2]) {{\n}}\nimpl P {{\n    fn long(&self) {{\n{body}    }}\n}}\ntrait T {{\n    fn declared(&self);\n}}\n"
        )
    }

    #[test]
    fn function_at_the_line_limit_passes() {
        let src = source_with_fn_of(MAX_FN_LINES - 2);
        assert_eq!(
            fn_lengths(&src),
            vec![
                ("short".to_string(), 1, 2),
                ("long".to_string(), 4, MAX_FN_LINES)
            ]
        );
        assert!(lint_file("crates/net/src/peer.rs", &src).is_empty());
    }

    #[test]
    fn function_past_the_line_limit_is_flagged_in_net_sources_only() {
        let src = source_with_fn_of(MAX_FN_LINES - 1);
        let out = lint_file("crates/net/src/peer.rs", &src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "max-fn-lines");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("fn long"), "{out:?}");
        for exempt in [
            "crates/net/src/tests.rs",
            "crates/net/src/peer_tests.rs",
            "crates/net/src/wire_proptests.rs",
            "crates/net/tests/faults.rs",
            "crates/storage/src/engine.rs",
        ] {
            assert!(lint_file(exempt, &src).is_empty(), "{exempt}");
        }
    }

    #[test]
    fn sim_wall_clock_is_flagged() {
        let src = format!("let t = {INSTANT_NOW}();\n");
        let out = lint_file("crates/sim/src/engine.rs", &src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "sim-virtual-time");
        let elsewhere = lint_file("crates/net/src/tcp.rs", &src);
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn relaxed_needs_justification() {
        let bare = format!("a.load({RELAXED});\n");
        let out = lint_file("crates/storage/src/engine.rs", &bare);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "relaxed-justified");

        let same_line = format!("a.load({RELAXED}); {RELAXED_MARKER} monotonic counter\n");
        assert!(lint_file("x.rs", &same_line).is_empty());

        let prev_line = format!("{RELAXED_MARKER} monotonic counter\na.load({RELAXED});\n");
        assert!(lint_file("x.rs", &prev_line).is_empty());

        // Multi-line justification: marker anywhere in the contiguous
        // comment block above the site counts.
        let block = format!(
            "{RELAXED_MARKER} monotonic counter;\n// scrapes tolerate stale reads.\na.load({RELAXED});\n"
        );
        assert!(lint_file("x.rs", &block).is_empty());

        // ...but a marker separated from the site by code does not.
        let separated = format!("{RELAXED_MARKER} stale comment\nlet x = 1;\na.load({RELAXED});\n");
        assert_eq!(lint_file("x.rs", &separated).len(), 1);
    }

    #[test]
    fn word_boundaries_distinguish_variant_prefixes() {
        assert!(contains_word(
            "Request::PutReplica =>",
            "Request::PutReplica"
        ));
        assert!(!contains_word(
            "Request::PutReplicas =>",
            "Request::PutReplica"
        ));
        assert!(contains_word(
            "(Request::PutReplica)",
            "Request::PutReplica"
        ));
    }

    const MESSAGE_FIXTURE: &str = "
pub enum Request {
    Put { key: u64, value: Vec<u8> },
    Get(u64),
}
pub enum Reply {
    Ack,
    Value(Option<Vec<u8>>),
}
";

    #[test]
    fn wire_tags_pass_when_all_arms_exist() {
        let wire = "
fn encode(r: &Request) { match r { Request::Put { .. } => {}, Request::Get(_) => {} } }
fn encode_reply(r: &Reply) { match r { Reply::Ack => {}, Reply::Value(_) => {} } }
fn decode() -> Request { if x { Request::Put { key, value } } else { Request::Get(k) } }
fn decode_reply() -> Reply { if x { Reply::Ack } else { Reply::Value(None) } }
";
        let metrics = "
fn of(r: &Request) { match r { Request::Put { .. } => {}, Request::Get(_) => {} } }
";
        let findings = lint_wire_tags(MESSAGE_FIXTURE, wire, metrics);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn wire_tags_flag_missing_decode_and_counter() {
        let wire = "
fn encode(r: &Request) { match r { Request::Put { .. } => {}, Request::Get(_) => {} } }
fn encode_reply(r: &Reply) { match r { Reply::Ack => {}, Reply::Value(_) => {} } }
fn decode() -> Request { Request::Put { key, value } }
fn decode_reply() -> Reply { if x { Reply::Ack } else { Reply::Value(None) } }
";
        let metrics = "
fn of(r: &Request) { match r { Request::Put { .. } => {}, _ => {} } }
";
        let findings = lint_wire_tags(MESSAGE_FIXTURE, wire, metrics);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["wire-exhaustive", "wire-exhaustive"]);
        assert!(findings[0].message.contains("Request::Get"), "{findings:?}");
        assert!(findings[1].message.contains("Request::Get"), "{findings:?}");
    }

    #[test]
    fn enum_parser_sees_through_payload_braces() {
        let variants = enum_variants(MESSAGE_FIXTURE, "Request");
        let names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Put", "Get"]);
        let variants = enum_variants(MESSAGE_FIXTURE, "Reply");
        let names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Ack", "Value"]);
    }

    #[test]
    fn doc_comment_mentions_do_not_count_as_arms() {
        let wire = "
/// Encodes Request::Put and Request::Get.
fn encode(r: &Request) { match r { Request::Put { .. } => {}, Request::Get(_) => {} } }
fn encode_reply(r: &Reply) { match r { Reply::Ack => {}, Reply::Value(_) => {} } }
/// Decodes Request::Get too (doc mention only).
fn decode() -> Request { Request::Put { key, value } }
fn decode_reply() -> Reply { if x { Reply::Ack } else { Reply::Value(None) } }
";
        let metrics = "fn of() { Request::Put; Request::Get }";
        let findings = lint_wire_tags(MESSAGE_FIXTURE, wire, metrics);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Request::Get"));
        assert!(findings[0].message.contains("decode"));
    }
}
