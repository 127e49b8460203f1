//! Workspace rules that no clippy lint expresses. The others are clippy
//! configuration: `clippy.toml` (no `eprint!`/`eprintln!`, function
//! length), `crates/sim/clippy.toml` (no wall clock in the simulator) and
//! `[workspace.lints]` in `Cargo.toml`.

use std::fs;
use std::path::{Path, PathBuf};

// Built with `concat!` so that this file never holds a needle verbatim.
const RELAXED: &str = concat!("Ordering::", "Relaxed");
const MARKER: &str = concat!("// relaxed", ":");

/// The 1-based lines of `source` whose code part (the text before `//`)
/// uses a relaxed ordering without a justification marker on the same line
/// or in the contiguous `//` block directly above it.
fn unjustified_relaxed(source: &str) -> Vec<usize> {
    let lines: Vec<&str> = source.lines().collect();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or_default();
        if !code.contains(RELAXED) || line.contains(MARKER) {
            continue;
        }
        let mut block_above = lines[..i]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with("//"));
        if !block_above.any(|l| l.contains(MARKER)) {
            found.push(i + 1);
        }
    }
    found
}

fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

#[test]
fn every_relaxed_ordering_is_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let (mut sites, mut unjustified) = (0, Vec::new());
    for path in &files {
        let source = fs::read_to_string(path).expect("read a source file");
        sites += source.matches(RELAXED).count();
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        for line in unjustified_relaxed(&source) {
            unjustified.push(format!("{rel}:{line}"));
        }
    }
    assert!(sites > 0, "the walk found no {RELAXED} site at all");
    assert!(
        unjustified.is_empty(),
        "{RELAXED} without `{MARKER}`: {unjustified:#?}"
    );
}

#[test]
fn an_unjustified_relaxed_ordering_is_found() {
    assert_eq!(unjustified_relaxed(&format!("a.load({RELAXED});\n")), [1]);
    let same_line = format!("a.load({RELAXED}); {MARKER} monotonic counter\n");
    assert!(unjustified_relaxed(&same_line).is_empty());
    let line_above = format!("{MARKER} monotonic counter\na.load({RELAXED});\n");
    assert!(unjustified_relaxed(&line_above).is_empty());
    let block =
        format!("{MARKER} monotonic counter;\n// stale reads are fine.\na.load({RELAXED});\n");
    assert!(unjustified_relaxed(&block).is_empty());
    let separated = format!("{MARKER} stale comment\nlet x = 1;\na.load({RELAXED});\n");
    assert_eq!(unjustified_relaxed(&separated), [3]);
}

#[test]
fn sim_clippy_config_repeats_the_root_config() {
    // Clippy reads only the nearest clippy.toml, so rdht-sim's shadows the
    // root one entirely.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect("read a clippy.toml");
    let sim = read("crates/sim/clippy.toml");
    for line in read("clippy.toml").lines() {
        let line = line.trim();
        if !line.is_empty() && !line.starts_with('#') {
            assert!(
                sim.lines().any(|l| l.trim() == line),
                "crates/sim/clippy.toml lacks `{line}`"
            );
        }
    }
}
