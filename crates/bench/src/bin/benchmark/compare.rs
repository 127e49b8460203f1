//! `rdht-benchmark compare <setA.jsonl> <setB.jsonl>`: do two sets of runs
//! agree? Per workload and end-to-end metric: the median and quartiles of
//! each set, how much worse B's median is than A's, the bound, and a verdict.
//! It proves — and later re-proves — that two sets of the same code agree,
//! and it is the regression check between a parent commit (A) and a change
//! (B).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::report::{Better, MetricSpec, END_TO_END};
use crate::stats;

/// `workload -> metric -> one value per run`.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Fail,
    /// The run-to-run spread is wider than the bound, so "no worse" cannot
    /// be told from "unchanged" — unless every run of B beats every run of A.
    Unresolved,
}

/// Reads a set of runs: every line that is a JSON object with a `workload`
/// and `metrics` member is one run; anything else (the human tables printed
/// between them) is skipped.
pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let run = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let (Some(workload), Some(metrics)) = (
            run.get("workload").and_then(Json::text),
            run.get("metrics").and_then(Json::object),
        ) else {
            continue;
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::number) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    if set.is_empty() {
        return Err("no runs found".to_string());
    }
    Ok(set)
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// How much worse B's median is than A's, as a share of A's (negative:
    /// better).
    pub worse_frac: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The verdict on one metric of one workload. `None` when a set is empty or
/// A's median is zero (a relative difference has no base).
pub fn judge(workload: &str, spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<Row> {
    let (median_a, median_b) = (stats::median(a)?, stats::median(b)?);
    if median_a == 0.0 {
        return None;
    }
    let worse_frac = match spec.better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let spread_a = stats::spread_frac(a).unwrap_or(0.0);
    let spread_b = stats::spread_frac(b).unwrap_or(0.0);
    let every_b_beats_every_a = match spec.better {
        Better::Lower => b.iter().all(|b| a.iter().all(|a| b < a)),
        Better::Higher => b.iter().all(|b| a.iter().all(|a| b > a)),
    };
    let verdict = if worse_frac > spec.bound {
        Verdict::Fail
    } else if spread_a.max(spread_b) > spec.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    Some(Row {
        workload: workload.to_string(),
        metric: spec.name,
        median_a,
        median_b,
        spread_a,
        spread_b,
        worse_frac,
        bound: spec.bound,
        verdict,
    })
}

pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for spec in &END_TO_END {
            if let (Some(values_a), Some(values_b)) =
                (metrics_a.get(spec.name), metrics_b.get(spec.name))
            {
                rows.extend(judge(workload, spec, values_a, values_b));
            }
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "worse", "bound"
    );
    for row in rows {
        let verdict = match row.verdict {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
        };
        let _ = writeln!(
            out,
            "{:<15} {:<18} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>+7.1}% {:>5.0}%  {verdict}",
            row.workload,
            row.metric,
            row.median_a,
            row.median_b,
            row.spread_a * 100.0,
            row.spread_b * 100.0,
            row.worse_frac * 100.0,
            row.bound * 100.0,
        );
    }
    out
}

/// Runs the subcommand; `Ok(true)` when no row failed.
pub fn main(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(path_a)?, &read(path_b)?);
    if rows.is_empty() {
        return Err("the two sets share no workload and metric".to_string());
    }
    print!("{}", render(&rows));
    let count = |verdict: Verdict| rows.iter().filter(|row| row.verdict == verdict).count();
    println!(
        "{} PASS, {} UNRESOLVED, {} FAIL",
        count(Verdict::Pass),
        count(Verdict::Unresolved),
        count(Verdict::Fail)
    );
    Ok(count(Verdict::Fail) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|value| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": 1, \"correct\": true, \"attempted\": 10, \
                     \"failed\": 0, \"metrics\": {{\"{metric}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}\n"
                )
            })
            .collect::<String>()
            + "  a human table line between runs\n"
    }

    fn verdict_of(metric: &str, a: &[f64], b: &[f64]) -> (Verdict, f64) {
        let a = parse_set(&set("w", metric, a)).expect("set A");
        let b = parse_set(&set("w", metric, b)).expect("set B");
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1);
        (rows[0].verdict, rows[0].worse_frac)
    }

    #[test]
    fn same_code_sets_pass() {
        // throughput_ops_s: higher is better; 1.5 % lower is inside any bound.
        let (verdict, worse) = verdict_of(
            "throughput_ops_s",
            &[100.0, 101.0, 99.0, 100.5, 99.5],
            &[98.0, 99.0, 97.5, 98.5, 99.5],
        );
        assert_eq!(verdict, Verdict::Pass);
        assert!((worse - 0.015).abs() < 1e-9);
    }

    #[test]
    fn a_regression_beyond_the_bound_fails_in_the_metric_s_direction() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower_b = [65.0, 66.0, 64.0, 65.5, 64.5];
        // Lower throughput is worse ...
        assert_eq!(
            verdict_of("throughput_ops_s", &steady_a, &lower_b).0,
            Verdict::Fail
        );
        // ... lower latency is better.
        assert_eq!(
            verdict_of("retrieve_p50_us", &steady_a, &lower_b).0,
            Verdict::Pass
        );
        assert_eq!(
            verdict_of("retrieve_p50_us", &lower_b, &steady_a).0,
            Verdict::Fail
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy_a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let noisy_b = [101.0, 128.0, 82.0, 119.0, 92.0];
        assert_eq!(
            verdict_of("throughput_ops_s", &noisy_a, &noisy_b).0,
            Verdict::Unresolved
        );
        let always_better = [140.0, 170.0, 135.0, 160.0, 150.0];
        assert_eq!(
            verdict_of("throughput_ops_s", &noisy_a, &always_better).0,
            Verdict::Pass
        );
    }

    #[test]
    fn sets_without_runs_are_rejected() {
        assert!(parse_set("just text\n").is_err());
        assert!(parse_set("{\"workload\": \"w\", \"metrics\": 3\n").is_err());
    }
}
