//! Command-line experiment runner: regenerates the paper's tables and
//! figures.
//!
//! ```text
//! cargo run --release -p rdht-bench --bin experiments -- all
//! cargo run --release -p rdht-bench --bin experiments -- fig7 fig8 --paper
//! cargo run --release -p rdht-bench --bin experiments -- table1
//! ```
//!
//! Without `--paper`, experiments run at quick scale (small populations,
//! short durations) so the whole suite finishes in well under a minute; with
//! `--paper` the sweeps use the paper's population sizes (up to 10,000
//! peers). Pass `--csv <dir>` to additionally write one CSV file per
//! experiment.

#![warn(clippy::too_many_lines)]

use std::collections::BTreeSet;
use std::path::PathBuf;

use rdht_bench::{experiments, ExperimentResult, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let scale = Scale::from_flag(paper);

    let csv_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let mut requested: BTreeSet<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            csv_dir
                .as_ref()
                .map(|dir| dir.as_os_str() != a.as_str())
                .unwrap_or(true)
        })
        .map(|a| a.to_lowercase())
        .collect();
    if requested.is_empty() {
        requested.insert("all".to_string());
    }

    let run_all = requested.contains("all");
    let wants = |name: &str| run_all || requested.contains(name);

    println!("# Experiment run ({:?} scale)\n", scale);

    if wants("table1") {
        println!("{}", experiments::table1());
    }

    let mut results: Vec<ExperimentResult> = Vec::new();
    if wants("fig6") {
        results.push(experiments::fig6(scale));
    }
    if wants("fig7") || wants("fig8") {
        let (fig7, fig8) = experiments::fig7_fig8(scale);
        if wants("fig7") {
            results.push(fig7);
        }
        if wants("fig8") {
            results.push(fig8);
        }
    }
    if wants("fig9") || wants("fig10") {
        let (fig9, fig10) = experiments::fig9_fig10(scale);
        if wants("fig9") {
            results.push(fig9);
        }
        if wants("fig10") {
            results.push(fig10);
        }
    }
    if wants("fig11") {
        results.push(experiments::fig11(scale));
    }
    if wants("fig12") {
        results.push(experiments::fig12(scale));
    }
    if wants("theorem1") {
        results.push(experiments::theorem1(scale));
    }

    for result in &results {
        println!("{}", result.to_markdown());
    }

    if let Some(dir) = csv_dir {
        if let Err(error) = std::fs::create_dir_all(&dir) {
            rdht_metrics::log::global().error(
                "bench.experiments",
                "cannot create csv directory",
                &[
                    ("path", &dir.display().to_string()),
                    ("error", &error.to_string()),
                ],
            );
            std::process::exit(1);
        }
        for result in &results {
            let path = dir.join(format!("{}.csv", result.id));
            if let Err(error) = std::fs::write(&path, result.to_csv()) {
                rdht_metrics::log::global().error(
                    "bench.experiments",
                    "cannot write csv file",
                    &[
                        ("path", &path.display().to_string()),
                        ("error", &error.to_string()),
                    ],
                );
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
}
