//! One function per table/figure of the paper's evaluation.

use rdht_core::analysis;
use rdht_sim::{Algorithm, SimConfig, Simulation, SimulationReport};

use crate::result::{ExperimentResult, Series};
use crate::Scale;

/// Runs one simulation configuration to completion.
pub fn run_config(config: SimConfig) -> SimulationReport {
    Simulation::new(config).run()
}

/// Runs a whole sweep, one simulation per configuration, across worker
/// threads. Reports come back in input order and are bit-identical to a
/// sequential run (see [`crate::parallel::run_configs`]).
pub fn run_sweep(configs: Vec<SimConfig>) -> Vec<SimulationReport> {
    crate::parallel::run_configs(configs)
}

/// The base configuration for wide-area experiments at the given scale:
/// Table 1 for [`Scale::Paper`], a shrunk but otherwise identical setup for
/// [`Scale::Quick`].
pub fn base_config(scale: Scale) -> SimConfig {
    match scale {
        Scale::Paper => SimConfig::table1(),
        Scale::Quick => {
            let mut config = SimConfig::table1();
            config.num_peers = 600;
            config.num_keys = 24;
            config.duration = 1800.0;
            config.queries = 24;
            config.churn_rate_per_second = 600.0 / 10_000.0;
            config.update_rate_per_hour = 2.0;
            config
        }
    }
}

fn scale_note(scale: Scale) -> String {
    match scale {
        Scale::Paper => "paper scale (Table 1 population)".to_string(),
        Scale::Quick => {
            "quick scale (shrunk population/duration; trends, not absolute values)".to_string()
        }
    }
}

fn algorithm_series<F>(xs: &[f64], reports: &[SimulationReport], metric: F) -> Vec<Series>
where
    F: Fn(&SimulationReport, Algorithm) -> f64,
{
    Algorithm::ALL
        .iter()
        .map(|&algorithm| {
            let mut series = Series::new(algorithm.label());
            for (x, report) in xs.iter().zip(reports) {
                series.push(*x, metric(report, algorithm));
            }
            series
        })
        .collect()
}

/// Table 1 — the simulation parameters, rendered for the experiment log.
pub fn table1() -> String {
    let c = SimConfig::table1();
    let net = c.network.model();
    format!(
        "### Table 1 — simulation parameters\n\n\
         | Parameter | Value |\n|---|---|\n\
         | Bandwidth | normal, mean {} kbps, std {} |\n\
         | Latency | normal, mean {} ms, std {} |\n\
         | Number of peers | {} |\n\
         | |Hr| (replication hash functions) | {} |\n\
         | Peer departures/joins | Poisson, λ = {} /s (population kept constant) |\n\
         | Updates on each data | Poisson, λ = {} /hour |\n\
         | Failure rate | {}% of departures |\n",
        net.bandwidth_kbps.mean,
        net.bandwidth_kbps.std_dev,
        net.latency.mean * 1000.0,
        net.latency.std_dev * 1000.0,
        c.num_peers,
        c.num_replicas,
        c.churn_rate_per_second,
        c.update_rate_per_hour,
        c.failure_rate * 100.0,
    )
}

/// Figure 6 — response time vs. number of peers on the 64-node cluster
/// profile (Section 5.2, experimental results).
pub fn fig6(scale: Scale) -> ExperimentResult {
    let peer_counts = [10usize, 20, 30, 40, 50, 64];
    let xs: Vec<f64> = peer_counts.iter().map(|p| *p as f64).collect();
    let configs: Vec<SimConfig> = peer_counts
        .iter()
        .map(|&peers| {
            let mut config = SimConfig::cluster(peers);
            if scale == Scale::Quick {
                config.duration = 900.0;
                config.queries = 20;
            }
            config
        })
        .collect();
    let reports = run_sweep(configs);
    let mut result = ExperimentResult::new(
        "fig6",
        "Response time vs. number of peers (cluster, 10-64 peers)",
        "peers",
        "response time (s)",
    );
    result.series = algorithm_series(&xs, &reports, |r, a| r.summary(a).mean_response_time);
    result.notes.push(scale_note(scale));
    result
        .notes
        .push("cluster network profile: 1 Gbps links, low latency".into());
    result
}

/// Figures 7 and 8 — response time and communication cost vs. number of peers
/// (simulation, up to 10,000 peers). Both figures come from the same sweep,
/// so they are produced together.
pub fn fig7_fig8(scale: Scale) -> (ExperimentResult, ExperimentResult) {
    let peer_counts: Vec<usize> = match scale {
        Scale::Paper => vec![2_000, 4_000, 6_000, 8_000, 10_000],
        Scale::Quick => vec![200, 400, 600, 800, 1_000],
    };
    let xs: Vec<f64> = peer_counts.iter().map(|p| *p as f64).collect();
    let configs: Vec<SimConfig> = peer_counts
        .iter()
        .map(|&peers| base_config(scale).with_num_peers(peers))
        .collect();
    let reports = run_sweep(configs);
    let mut fig7 = ExperimentResult::new(
        "fig7",
        "Response time vs. number of peers (simulation)",
        "peers",
        "response time (s)",
    );
    fig7.series = algorithm_series(&xs, &reports, |r, a| r.summary(a).mean_response_time);
    fig7.notes.push(scale_note(scale));

    let mut fig8 = ExperimentResult::new(
        "fig8",
        "Communication cost vs. number of peers (simulation)",
        "peers",
        "total messages",
    );
    fig8.series = algorithm_series(&xs, &reports, |r, a| r.summary(a).mean_messages);
    fig8.notes.push(scale_note(scale));
    (fig7, fig8)
}

/// Figures 9 and 10 — response time and communication cost vs. the number of
/// replicas `|Hr|` (Section 5.3).
pub fn fig9_fig10(scale: Scale) -> (ExperimentResult, ExperimentResult) {
    let replica_counts = [5usize, 10, 15, 20, 25, 30, 35, 40];
    let xs: Vec<f64> = replica_counts.iter().map(|r| *r as f64).collect();
    let configs: Vec<SimConfig> = replica_counts
        .iter()
        .map(|&replicas| base_config(scale).with_num_replicas(replicas))
        .collect();
    let reports = run_sweep(configs);
    let mut fig9 = ExperimentResult::new(
        "fig9",
        "Response time vs. number of replicas",
        "replicas (|Hr|)",
        "response time (s)",
    );
    fig9.series = algorithm_series(&xs, &reports, |r, a| r.summary(a).mean_response_time);
    fig9.notes.push(scale_note(scale));

    let mut fig10 = ExperimentResult::new(
        "fig10",
        "Communication cost vs. number of replicas",
        "replicas (|Hr|)",
        "total messages",
    );
    fig10.series = algorithm_series(&xs, &reports, |r, a| r.summary(a).mean_messages);
    fig10.notes.push(scale_note(scale));
    (fig9, fig10)
}

/// Figure 11 — response time vs. failure rate (Section 5.4).
pub fn fig11(scale: Scale) -> ExperimentResult {
    let failure_rates = [5.0f64, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0];
    let configs: Vec<SimConfig> = failure_rates
        .iter()
        .map(|&rate| base_config(scale).with_failure_rate(rate / 100.0))
        .collect();
    let reports = run_sweep(configs);
    let mut result = ExperimentResult::new(
        "fig11",
        "Response time vs. failure rate",
        "failure rate (%)",
        "response time (s)",
    );
    result.series = algorithm_series(&failure_rates, &reports, |r, a| {
        r.summary(a).mean_response_time
    });
    result.notes.push(scale_note(scale));
    result
}

/// Figure 12 — response time vs. frequency of updates (Section 5.5); the
/// paper plots only the two UMS variants here.
pub fn fig12(scale: Scale) -> ExperimentResult {
    let frequencies = [0.0625f64, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0];
    let configs: Vec<SimConfig> = frequencies
        .iter()
        .map(|&rate| base_config(scale).with_update_rate(rate))
        .collect();
    let reports = run_sweep(configs);
    let mut result = ExperimentResult::new(
        "fig12",
        "Response time vs. frequency of updates",
        "updates per hour",
        "response time (s)",
    );
    result.series = [Algorithm::UmsIndirect, Algorithm::UmsDirect]
        .iter()
        .map(|&algorithm| {
            let mut series = Series::new(algorithm.label());
            for (x, report) in frequencies.iter().zip(&reports) {
                series.push(*x, report.summary(algorithm).mean_response_time);
            }
            series
        })
        .collect();
    result.notes.push(scale_note(scale));
    result
}

/// Theorem 1 / Equations 1–5 — measured number of probed replicas vs. the
/// probability of currency and availability, compared against the paper's
/// closed-form bounds. The failure rate is swept to move `p_t` (failed peers
/// lose their replicas, so more failures means fewer current replicas
/// available at query time).
pub fn theorem1(scale: Scale) -> ExperimentResult {
    let base = base_config(scale);
    let failure_rates = [0.05f64, 0.2, 0.4, 0.6, 0.8, 0.95];
    let replicas = base.num_replicas;

    let mut measured = Series::new("measured E(X)");
    let mut measured_hits = Series::new("measured E(X) (current found)");
    let mut eq1 = Series::new("Eq.1 prediction");
    let mut bound = Series::new("1/p_t bound (Thm 1)");
    let mut eq5 = Series::new("min(1/p_t, |Hr|) (Eq.5)");

    let configs: Vec<SimConfig> = failure_rates
        .iter()
        .enumerate()
        .map(|(i, &failure_rate)| {
            let mut config = base
                .clone()
                .with_seed(base.seed.wrapping_add(i as u64))
                .with_failure_rate(failure_rate);
            config.churn_rate_per_second = base.churn_rate_per_second * 4.0;
            config.update_rate_per_hour = base.update_rate_per_hour.min(0.5);
            config
        })
        .collect();
    for report in run_sweep(configs) {
        let samples: Vec<_> = report.samples_for(Algorithm::UmsDirect).collect();
        if samples.is_empty() {
            continue;
        }
        let n = samples.len() as f64;
        let mean_pt = samples.iter().map(|s| s.currency_availability).sum::<f64>() / n;
        let mean_probes = samples
            .iter()
            .map(|s| s.replicas_probed as f64)
            .sum::<f64>()
            / n;
        let hits: Vec<_> = samples.iter().filter(|s| s.certified_current).collect();
        let mean_probes_hits = if hits.is_empty() {
            mean_probes
        } else {
            hits.iter().map(|s| s.replicas_probed as f64).sum::<f64>() / hits.len() as f64
        };
        let x = (mean_pt * 1000.0).round() / 1000.0;
        measured.push(x, mean_probes);
        measured_hits.push(x, mean_probes_hits);
        eq1.push(x, analysis::expected_probes_exact(mean_pt, replicas));
        bound.push(x, analysis::theorem1_upper_bound(mean_pt));
        eq5.push(x, analysis::bounded_expectation(mean_pt, replicas));
    }
    for series in [
        &mut measured,
        &mut measured_hits,
        &mut eq1,
        &mut bound,
        &mut eq5,
    ] {
        series.points.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    let mut result = ExperimentResult::new(
        "theorem1",
        "Measured replica probes vs. probability of currency and availability",
        "measured p_t",
        "replicas retrieved per query (E(X))",
    );
    result.series = vec![measured, measured_hits, eq1, bound, eq5];
    result.notes.push(scale_note(scale));
    result
        .notes
        .push("failure rate swept to move p_t; UMS-Direct universe measured".into());
    result.notes.push(
        "the 1/p_t bound applies per query; the unconditioned mean also counts queries that \
         find no current replica and probe all |Hr| slots, so it can sit slightly above the \
         bound computed from the averaged p_t"
            .into(),
    );
    result
}

/// The markdown the `experiments` bin prints: a heading naming the scale,
/// Table 1 when `with_table1`, then each result's table. For every
/// experiment at quick scale this is `crates/bench/golden/experiments_quick.md`.
pub fn markdown(scale: Scale, with_table1: bool, results: &[ExperimentResult]) -> String {
    let mut out = format!("# Experiment run ({scale:?} scale)\n\n");
    if with_table1 {
        out.push_str(&table1());
        out.push('\n');
    }
    for result in results {
        out.push_str(&result.to_markdown());
        out.push('\n');
    }
    out
}

/// Runs every experiment at the given scale, in the order the paper presents
/// them.
pub fn run_all(scale: Scale) -> Vec<ExperimentResult> {
    let mut results = Vec::new();
    results.push(fig6(scale));
    let (fig7, fig8) = fig7_fig8(scale);
    results.push(fig7);
    results.push(fig8);
    let (fig9, fig10) = fig9_fig10(scale);
    results.push(fig9);
    results.push(fig10);
    results.push(fig11(scale));
    results.push(fig12(scale));
    results.push(theorem1(scale));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        SimConfig::small_test(48, 11)
    }

    #[test]
    fn run_config_produces_samples() {
        let report = run_config(tiny());
        assert!(!report.samples.is_empty());
    }

    #[test]
    fn base_config_scales() {
        assert_eq!(base_config(Scale::Paper).num_peers, 10_000);
        assert!(base_config(Scale::Quick).num_peers < 10_000);
        assert!(base_config(Scale::Quick).validate().is_ok());
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let text = table1();
        assert!(text.contains("10000"));
        assert!(text.contains("56"));
        assert!(text.contains("200"));
    }

    #[test]
    fn theorem1_series_are_labelled() {
        // Use the quick scale but a single tiny sweep by reusing the function
        // end to end would be slow here; instead check label wiring through a
        // direct construction of the analysis series from known p_t values.
        let bound = analysis::theorem1_upper_bound(0.35);
        assert!(bound < 3.0);
    }

    /// Every quick table, Table 1 and Figures 6-12 with Theorem 1, is
    /// exactly the committed golden file, byte for byte as the bin prints
    /// it. Figures 9-10 are where BRK's fetch-all cost shows, so a change to
    /// its insert, retrieve or holder rule fails here as surely as one to
    /// UMS, KTS, the hand-off or the simulator.
    #[test]
    fn fig9_fig10_quick_match_the_golden_file() {
        let golden = include_str!("../golden/experiments_quick.md");
        let output = markdown(Scale::Quick, true, &run_all(Scale::Quick));
        if let Some((line, (want, got))) = golden
            .lines()
            .zip(output.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
        {
            panic!(
                "quick output differs from crates/bench/golden/experiments_quick.md at line {}:\n\
                 golden: {want}\noutput: {got}",
                line + 1
            );
        }
        assert_eq!(output, golden, "same lines, different length or line ends");
    }
}
