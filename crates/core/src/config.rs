//! Configuration of the UMS/KTS deployment.

/// Deployment-wide parameters shared by every peer.
#[derive(Clone, Debug)]
pub struct UmsConfig {
    /// Number of replication hash functions `|Hr|` (Table 1 uses 10; the
    /// replica-count experiments of Figures 9–10 sweep 5–40).
    pub num_replicas: usize,
    /// Seed from which the shared hash family is derived; every peer must use
    /// the same value so responsibilities agree.
    pub hash_seed: u64,
    /// Whether the underlying DHT is *Responsibility Loss Unaware* (RLU,
    /// Section 4.3). In an RLU DHT a timestamping responsible cannot detect
    /// that it lost responsibility for a key while staying in the system, so
    /// KTS conservatively drops each counter right after generating a
    /// timestamp with it (forcing re-initialization on the next request).
    /// Chord as implemented here is RLA, so this defaults to false.
    pub rlu_mode: bool,
    /// How the indirect algorithm initializes a counter when it is triggered
    /// by a `last_ts` request (see [`LastTsInitPolicy`]).
    pub last_ts_init: LastTsInitPolicy,
}

/// Interpretation choice for indirect initialization on the `last_ts` path.
///
/// Figure 5 of the paper initializes a counter to `ts_m + 1` (one above the
/// largest timestamp observed among the replicas). That is the safe choice on
/// the `gen_ts` path: the *next generated* timestamp must exceed everything
/// ever generated. On the `last_ts` path, however, returning `ts_m + 1`
/// over-reports the last generated timestamp, which makes every subsequent
/// retrieve scan all replicas until the next update. The paper does not spell
/// out which value `last_ts` should use, so both interpretations are
/// available; the default (`ObservedMax`) keeps retrieve efficient after a
/// failover while remaining conservative on `gen_ts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LastTsInitPolicy {
    /// Initialize the counter to the largest observed timestamp (`ts_m`).
    ObservedMax,
    /// Initialize the counter to `ts_m + 1`, exactly as Figure 5 does for the
    /// `gen_ts` path.
    ObservedMaxPlusOne,
}

impl Default for UmsConfig {
    fn default() -> Self {
        UmsConfig {
            num_replicas: 10,
            hash_seed: 0x5eed,
            rlu_mode: false,
            last_ts_init: LastTsInitPolicy::ObservedMax,
        }
    }
}

impl UmsConfig {
    /// A configuration matching Table 1 of the paper (`|Hr| = 10`).
    pub fn table1() -> Self {
        UmsConfig::default()
    }

    /// Returns a copy with a different replica count (`|Hr|`), used by the
    /// Figure 9/10 sweeps.
    pub fn with_num_replicas(mut self, num_replicas: usize) -> Self {
        self.num_replicas = num_replicas;
        self
    }

    /// Returns a copy with RLU mode switched on or off.
    pub fn with_rlu_mode(mut self, rlu_mode: bool) -> Self {
        self.rlu_mode = rlu_mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_defaults() {
        let cfg = UmsConfig::table1();
        assert_eq!(cfg.num_replicas, 10);
        assert!(!cfg.rlu_mode);
    }

    #[test]
    fn builders_modify_single_fields() {
        let cfg = UmsConfig::default()
            .with_num_replicas(30)
            .with_rlu_mode(true);
        assert_eq!(cfg.num_replicas, 30);
        assert!(cfg.rlu_mode);
        assert_eq!(cfg.last_ts_init, LastTsInitPolicy::ObservedMax);
    }
}
