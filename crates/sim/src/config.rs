//! Simulation configuration (Table 1 of the paper plus harness knobs).

use rdht_net::FaultPlan;

use crate::network::NetworkModel;

/// Which network model the simulation prices messages with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkProfile {
    /// Wide-area parameters of Table 1 (used by Figures 7–12).
    Internet,
    /// The 64-node cluster of Section 5.2 (used by Figure 6).
    Cluster,
}

impl NetworkProfile {
    /// Builds the corresponding [`NetworkModel`].
    pub fn model(self) -> NetworkModel {
        match self {
            NetworkProfile::Internet => NetworkModel::internet(),
            NetworkProfile::Cluster => NetworkModel::cluster(),
        }
    }
}

/// All parameters of one simulation run.
///
/// [`SimConfig::table1`] reproduces Table 1; the experiment harness derives
/// the per-figure sweeps from it by overriding one field at a time.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of peers in the overlay (Table 1: 10,000).
    pub num_peers: usize,
    /// Number of replication hash functions `|Hr|` (Table 1: 10).
    pub num_replicas: usize,
    /// Number of distinct data items shared in the DHT.
    pub num_keys: usize,
    /// Rate of the departure Poisson process, in departures per second
    /// (Table 1: λ = 1/s). Every departure is immediately compensated by a
    /// join so the population stays constant, as in the paper's setup.
    pub churn_rate_per_second: f64,
    /// Rate of the *uncompensated* join Poisson process, in joins per
    /// second: each event grows the population by one through the membership
    /// protocol (range split + direct counter hand-off). `0.0` (the default
    /// everywhere) disables the process and preserves the constant-population
    /// model.
    pub join_rate_per_second: f64,
    /// Rate of the *uncompensated* graceful-leave Poisson process, in leaves
    /// per second: each event shrinks the population by one with a direct
    /// hand-off to the successor. `0.0` disables it.
    pub graceful_leave_rate_per_second: f64,
    /// Rate of the *uncompensated* crash Poisson process, in crashes per
    /// second: each event shrinks the population by one with no hand-off.
    /// Running the same workload once with this and once with
    /// `graceful_leave_rate_per_second` isolates the cost gap between the
    /// direct algorithm and crash-and-indirect recovery. `0.0` disables it.
    pub crash_rate_per_second: f64,
    /// Fraction of departures that are failures rather than graceful leaves
    /// (Table 1: 5%).
    pub failure_rate: f64,
    /// Rate of the per-data update Poisson process, in updates per hour
    /// (Table 1: λ = 1/hour).
    pub update_rate_per_hour: f64,
    /// Total simulated time, in seconds. The paper runs ~3 hours; the default
    /// uses 2 simulated hours to keep full sweeps affordable.
    pub duration: f64,
    /// Number of retrieve queries issued at uniformly random times over the
    /// run (the paper issues 30 and averages).
    pub queries: usize,
    /// Interval between stabilization rounds, in seconds.
    pub stabilize_interval: f64,
    /// Finger-table entries refreshed per node per stabilization round.
    pub fingers_fixed_per_round: usize,
    /// Successor-list length.
    pub successor_list_len: usize,
    /// Probability that an individual replica write during an update does not
    /// reach its holder (models transiently unreachable peers, the paper's
    /// motivating "p2 cannot be reached" scenario). Such replicas stay stale
    /// until a later update reaches them.
    pub put_failure_probability: f64,
    /// Interval of the *periodic inspection* strategy (Section 4.2.2): every
    /// this many simulated seconds, each timestamping responsible compares
    /// its counters with the timestamps stored in the DHT and corrects any
    /// counter found to be behind. `0.0` disables inspection.
    pub inspection_interval: f64,
    /// Network model to price messages with.
    pub network: NetworkProfile,
    /// Optional link-fault plan shared with the threaded deployment
    /// (`rdht_net::FaultPlan`): per-directed-link drop probabilities rolled
    /// on every simulated data message, so the same lossy-network scenarios
    /// run in virtual time here and in real time on the cluster. A plan
    /// carries its own seeded per-link RNG state — give each run a freshly
    /// constructed plan to keep runs reproducible.
    pub fault_plan: Option<FaultPlan>,
    /// Random seed; two runs with the same config and seed are identical.
    pub seed: u64,
}

impl SimConfig {
    /// The configuration of Table 1.
    pub fn table1() -> Self {
        SimConfig {
            num_peers: 10_000,
            num_replicas: 10,
            num_keys: 64,
            churn_rate_per_second: 1.0,
            join_rate_per_second: 0.0,
            graceful_leave_rate_per_second: 0.0,
            crash_rate_per_second: 0.0,
            failure_rate: 0.05,
            update_rate_per_hour: 1.0,
            duration: 2.0 * 3600.0,
            queries: 30,
            stabilize_interval: 30.0,
            fingers_fixed_per_round: 16,
            successor_list_len: 8,
            put_failure_probability: 0.02,
            inspection_interval: 600.0,
            network: NetworkProfile::Internet,
            fault_plan: None,
            seed: 0x5103_0d07,
        }
    }

    /// The cluster setup of Section 5.2 / Figure 6: `peers` nodes (10–64), a
    /// fast network, and churn scaled down proportionally to the population
    /// so that a 64-node cluster is not wiped out by one departure per
    /// second.
    pub fn cluster(peers: usize) -> Self {
        let mut config = SimConfig::table1();
        config.num_peers = peers;
        config.network = NetworkProfile::Cluster;
        config.churn_rate_per_second = peers as f64 / 10_000.0;
        config.duration = 3600.0;
        config.num_keys = 16;
        config
    }

    /// A small, fast configuration for unit and integration tests.
    pub fn small_test(peers: usize, seed: u64) -> Self {
        SimConfig {
            num_peers: peers,
            num_replicas: 5,
            num_keys: 8,
            churn_rate_per_second: peers as f64 / 2_000.0,
            join_rate_per_second: 0.0,
            graceful_leave_rate_per_second: 0.0,
            crash_rate_per_second: 0.0,
            failure_rate: 0.1,
            update_rate_per_hour: 20.0,
            duration: 900.0,
            queries: 12,
            stabilize_interval: 30.0,
            fingers_fixed_per_round: 8,
            successor_list_len: 4,
            put_failure_probability: 0.02,
            inspection_interval: 300.0,
            network: NetworkProfile::Internet,
            fault_plan: None,
            seed,
        }
    }

    /// Returns a copy with a different peer count.
    pub fn with_num_peers(mut self, num_peers: usize) -> Self {
        self.num_peers = num_peers;
        self
    }

    /// Returns a copy with a different replica count `|Hr|`.
    pub fn with_num_replicas(mut self, num_replicas: usize) -> Self {
        self.num_replicas = num_replicas;
        self
    }

    /// Returns a copy with a different failure rate (fraction of departures
    /// that are failures).
    pub fn with_failure_rate(mut self, failure_rate: f64) -> Self {
        self.failure_rate = failure_rate;
        self
    }

    /// Returns a copy with a different uncompensated-join rate (per second).
    pub fn with_join_rate(mut self, join_rate_per_second: f64) -> Self {
        self.join_rate_per_second = join_rate_per_second;
        self
    }

    /// Returns a copy with a different uncompensated graceful-leave rate
    /// (per second).
    pub fn with_graceful_leave_rate(mut self, graceful_leave_rate_per_second: f64) -> Self {
        self.graceful_leave_rate_per_second = graceful_leave_rate_per_second;
        self
    }

    /// Returns a copy with a different uncompensated crash rate (per
    /// second).
    pub fn with_crash_rate(mut self, crash_rate_per_second: f64) -> Self {
        self.crash_rate_per_second = crash_rate_per_second;
        self
    }

    /// Returns a copy with a different per-data update rate (per hour).
    pub fn with_update_rate(mut self, update_rate_per_hour: f64) -> Self {
        self.update_rate_per_hour = update_rate_per_hour;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy dropping simulated data messages per `plan` (see
    /// [`SimConfig::fault_plan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_peers == 0 {
            return Err("num_peers must be at least 1".into());
        }
        if self.num_replicas == 0 {
            return Err("num_replicas must be at least 1".into());
        }
        if self.num_keys == 0 {
            return Err("num_keys must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.failure_rate) {
            return Err("failure_rate must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.put_failure_probability) {
            return Err("put_failure_probability must be within [0, 1]".into());
        }
        if self.duration <= 0.0 {
            return Err("duration must be positive".into());
        }
        if self.churn_rate_per_second < 0.0 {
            return Err("churn_rate_per_second must be non-negative".into());
        }
        if self.join_rate_per_second < 0.0 {
            return Err("join_rate_per_second must be non-negative".into());
        }
        if self.graceful_leave_rate_per_second < 0.0 {
            return Err("graceful_leave_rate_per_second must be non-negative".into());
        }
        if self.crash_rate_per_second < 0.0 {
            return Err("crash_rate_per_second must be non-negative".into());
        }
        if self.update_rate_per_hour < 0.0 {
            return Err("update_rate_per_hour must be non-negative".into());
        }
        if self.inspection_interval < 0.0 {
            return Err("inspection_interval must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_parameters() {
        let c = SimConfig::table1();
        assert_eq!(c.num_peers, 10_000);
        assert_eq!(c.num_replicas, 10);
        assert!((c.churn_rate_per_second - 1.0).abs() < f64::EPSILON);
        assert!((c.failure_rate - 0.05).abs() < f64::EPSILON);
        assert!((c.update_rate_per_hour - 1.0).abs() < f64::EPSILON);
        assert_eq!(c.network, NetworkProfile::Internet);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cluster_profile_scales_churn_down() {
        let c = SimConfig::cluster(64);
        assert_eq!(c.num_peers, 64);
        assert_eq!(c.network, NetworkProfile::Cluster);
        assert!(c.churn_rate_per_second < 0.01);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_override_individual_fields() {
        let c = SimConfig::table1()
            .with_num_peers(2000)
            .with_num_replicas(40)
            .with_failure_rate(0.9)
            .with_update_rate(0.0625)
            .with_seed(9);
        assert_eq!(c.num_peers, 2000);
        assert_eq!(c.num_replicas, 40);
        assert!((c.failure_rate - 0.9).abs() < f64::EPSILON);
        assert!((c.update_rate_per_hour - 0.0625).abs() < f64::EPSILON);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(SimConfig::table1().with_num_peers(0).validate().is_err());
        assert!(SimConfig::table1().with_num_replicas(0).validate().is_err());
        assert!(SimConfig::table1()
            .with_failure_rate(1.5)
            .validate()
            .is_err());
        let mut c = SimConfig::table1();
        c.duration = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn profiles_produce_models() {
        assert!(
            NetworkProfile::Internet.model().latency.mean
                > NetworkProfile::Cluster.model().latency.mean
        );
    }
}
