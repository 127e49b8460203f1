//! Deterministic parallel execution of experiment sweeps.
//!
//! Every sweep in [`crate::experiments`] is a list of independent
//! [`SimConfig`]s (each carries its own seed), so the simulations can run on
//! worker threads with no shared state. Results are collected back into
//! input order, which makes the output **bit-identical** to running the
//! configs sequentially — the only thing that changes is wall-clock time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rdht_sim::{SimConfig, Simulation, SimulationReport};

/// Runs every configuration to completion, using up to
/// `available_parallelism` worker threads, and returns the reports in input
/// order.
///
/// Determinism: each simulation is seeded by its own `SimConfig::seed` and
/// shares nothing with its siblings, so the report produced for slot `i` is
/// the same whether the sweep runs on one thread or many (asserted by the
/// `parallel_matches_sequential` test).
pub fn run_configs(configs: Vec<SimConfig>) -> Vec<SimulationReport> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_configs_with_threads(configs, threads)
}

/// [`run_configs`] with an explicit worker count (also used by the
/// determinism test, which must exercise the threaded path even on a
/// single-core machine).
pub fn run_configs_with_threads(configs: Vec<SimConfig>, threads: usize) -> Vec<SimulationReport> {
    let threads = threads.min(configs.len());
    if threads <= 1 {
        return configs
            .into_iter()
            .map(|config| Simulation::new(config).run())
            .collect();
    }

    let total = configs.len();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, SimulationReport)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let configs = &configs;
            scope.spawn(move || loop {
                // relaxed: work-claim ticket; only RMW uniqueness matters,
                // results flow back through the channel (its own sync).
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= configs.len() {
                    break;
                }
                let report = Simulation::new(configs[index].clone()).run();
                if tx.send((index, report)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<SimulationReport>> = (0..total).map(|_| None).collect();
    for (index, report) in rx.iter() {
        slots[index] = Some(report);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every sweep point produced a report"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<SimConfig> {
        (0..4)
            .map(|i| SimConfig::small_test(32 + 4 * i, 100 + i as u64))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let sequential: Vec<SimulationReport> = sweep()
            .into_iter()
            .map(|config| Simulation::new(config).run())
            .collect();
        // Force real worker threads — `run_configs` may pick 1 on a
        // single-core CI machine, which would test nothing.
        let parallel = run_configs_with_threads(sweep(), 3);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn preserves_input_order() {
        let reports = run_configs_with_threads(sweep(), 2);
        let expected: Vec<usize> = sweep().iter().map(|c| c.num_peers).collect();
        let got: Vec<usize> = reports.iter().map(|r| r.num_peers).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_sweep_is_fine() {
        assert!(run_configs(Vec::new()).is_empty());
    }
}
