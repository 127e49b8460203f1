//! `rdht-check` CLI: `rdht-check lint [--root DIR]` walks the workspace
//! and reports project-invariant violations, exiting nonzero on any
//! finding (CI runs this with `-D warnings` semantics).

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    println!("usage: rdht-check lint [--root DIR]");
    println!();
    println!("Lints the workspace for project invariants (see crates/check/src/lint.rs");
    println!("and the README's \"Correctness tooling\" section).");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut command = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if command != Some("lint") {
        return usage();
    }

    // `cargo run -p rdht-check -- lint` runs from the workspace root; a
    // bare `.` also works from any crate dir thanks to the marker probe.
    let root = workspace_root(root);
    match rdht_check::lint::lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("rdht-check lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            println!("rdht-check lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            println!("rdht-check lint: i/o error: {err}");
            ExitCode::from(2)
        }
    }
}

/// Ascends from `start` to the nearest directory containing both
/// `Cargo.toml` and `crates/` — the workspace root.
fn workspace_root(start: PathBuf) -> PathBuf {
    let mut dir = start.canonicalize().unwrap_or(start);
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
