//! The project-invariant linter. Line-level (no AST dep, no
//! proc macros), enforcing workspace rules clippy cannot express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-eprintln` | all diagnostics flow through `EventLog` (structured, rate-limited, `RDHT_LOG`-gated); `eprintln!` is allowed only inside the `EventLog` implementation itself |
//! | `max-fn-lines` | no function in the non-test sources under `crates/*/src`, the benchmark package (`crates/bench/src/bin/benchmark`) aside, runs past 150 lines (`fn` line through closing brace) — the peer loop stays one handler per request kind, the client one retry loop |
//! | `sim-virtual-time` | `rdht-sim` runs on virtual time only: no `Instant::now`/`SystemTime::now` under `crates/sim/src` |
//! | `relaxed-justified` | every `Ordering::Relaxed` carries a `// relaxed:` justification on the same line or in the comment block directly above |
//!
//! Facts about each wire message kind (tag, counter label, data/traced/
//! lifecycle) are declared once, in the kind tables of
//! `crates/net/src/message.rs`. Exhaustive matches there and in the codec,
//! and counters registered from the table, make the compiler refuse a kind
//! without an encode arm, a decode arm or a counter, so no textual rule
//! cross-checks them.
//!
//! The checker's own crate (`crates/check`) is excluded from the walk: its
//! sources and test fixtures contain the banned patterns *as data*.
//!
//! Matching is done on comment-stripped text (line comments, block
//! comments and string literals are blanked), so a doc comment or a log
//! message containing `Relaxed` cannot confuse the rules.

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

/// Whether `rel` is a non-test source under some `crates/*/src` outside
/// the benchmark package — the files `max-fn-lines` covers (`tests.rs`,
/// `peer_tests.rs`, `proptests.rs` and the like are test modules).
fn is_fn_length_checked(rel: &str) -> bool {
    let in_src = rel
        .strip_prefix("crates/")
        .and_then(|crate_path| crate_path.split_once('/'))
        .is_some_and(|(_, path)| path.starts_with("src/"));
    in_src && !rel.starts_with("crates/bench/src/bin/benchmark/") && !rel.ends_with("tests.rs")
}

/// Lints a single file's content. `rel` is the path relative to the
/// workspace root, '/'-separated.
pub fn lint_file(rel: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_sim = rel.starts_with("crates/sim/src/");
    let is_eventlog = rel == "crates/metrics/src/log.rs";

    if is_fn_length_checked(rel) {
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
    fn function_past_the_line_limit_is_flagged_in_crate_sources_only() {
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
            "crates/overlay/src/chord/tests.rs",
            "crates/net/tests/faults.rs",
            "crates/bench/src/bin/benchmark/report.rs",
            "src/lib.rs",
            "examples/agenda.rs",
        ] {
            assert!(lint_file(exempt, &src).is_empty(), "{exempt}");
        }
    }

    #[test]
    fn function_past_the_line_limit_is_flagged_outside_the_net_crate() {
        let src = source_with_fn_of(MAX_FN_LINES - 1);
        for checked in [
            "crates/storage/src/engine.rs",
            "crates/core/src/ums/mod.rs",
            "crates/bench/src/bin/experiments.rs",
        ] {
            let out = lint_file(checked, &src);
            assert_eq!(out.len(), 1, "{checked}: {out:?}");
            assert_eq!(out[0].rule, "max-fn-lines");
            assert_eq!(out[0].file, checked);
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
}
