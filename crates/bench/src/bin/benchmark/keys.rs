//! Seeded input generation: a bin-local SplitMix64, the Zipf sampler, and
//! the operation stream each client thread draws from. The cluster receives
//! only what these produce — keys, payloads and the order of operations.

use rdht_hashing::Key;

/// SplitMix64 (Steele, Lea, Flood): a 64-bit state stepped by the golden
/// gamma and finalized by two xor-shift-multiplies.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// How a workload's keys are requested.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipf with this exponent: rank `r` (0-based) has weight
    /// `1 / (r + 1)^s`.
    Zipf(f64),
}

/// Samples key indices in `0..n` by inverting a precomputed CDF table.
pub struct KeySampler {
    cdf: Vec<f64>,
}

impl KeySampler {
    pub fn new(n: usize, dist: KeyDist) -> Self {
        assert!(n > 0, "a workload needs at least one key");
        let exponent = match dist {
            KeyDist::Uniform => 0.0,
            KeyDist::Zipf(s) => s,
        };
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for entry in &mut cdf {
            *entry /= total;
        }
        KeySampler { cdf }
    }

    /// Probability mass of rank `rank`.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `len` seeded bytes: the value of one insert.
pub fn payload(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    rng.fill(&mut payload);
    payload
}

/// The key of index `index`; rank 0 is the hottest key of a Zipf workload.
pub fn key_name(index: usize) -> Key {
    Key::new(format!("k{index:07}"))
}

/// One generated operation.
pub enum Op {
    Retrieve { key: usize },
    Insert { key: usize, payload: Vec<u8> },
}

/// The seeded operation stream of one client thread. The seed chooses keys
/// and payloads; the *mix* is exact — an insert falls due every
/// `1 / (1 - retrieve_frac)` operations — because a drawn mix moves the share
/// of the costlier inserts by a percent or two between seeds, and every
/// metric with it.
pub struct OpStream {
    rng: SplitMix64,
    sampler: KeySampler,
    payload_len: usize,
    /// Inserts per thousand operations, and the thousandths of an insert
    /// fallen due so far; an insert is issued whenever a whole one is due.
    insert_per_mille: u32,
    insert_due: u32,
}

impl OpStream {
    /// `stream` separates the client threads of one run: each draws an
    /// independent sequence from the same `--seed`.
    pub fn new(
        seed: u64,
        stream: u64,
        keys: usize,
        dist: KeyDist,
        retrieve_frac: f64,
        payload_len: usize,
    ) -> Self {
        let mut mixer = SplitMix64::new(seed);
        let base = mixer.next_u64();
        OpStream {
            rng: SplitMix64::new(base ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)),
            sampler: KeySampler::new(keys, dist),
            payload_len,
            insert_per_mille: ((1.0 - retrieve_frac) * 1e3).round() as u32,
            // The streams of one run fall due at different moments.
            insert_due: (stream % 2) as u32 * 500,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let key = self.sampler.sample(&mut self.rng);
        self.insert_due += self.insert_per_mille;
        if self.insert_due < 1_000 {
            Op::Retrieve { key }
        } else {
            self.insert_due -= 1_000;
            Op::Insert {
                key,
                payload: payload(&mut self.rng, self.payload_len),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567 (Vigna's
        // reference implementation).
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn op_stream_is_deterministic_per_seed_and_differs_across_seeds() {
        let draw = |seed: u64, stream: u64| -> Vec<(bool, usize)> {
            let mut ops = OpStream::new(seed, stream, 1_000, KeyDist::Zipf(0.99), 0.8, 16);
            (0..200)
                .map(|_| match ops.next_op() {
                    Op::Retrieve { key } => (true, key),
                    Op::Insert { key, .. } => (false, key),
                })
                .collect()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        // The mix is exact, whatever the seed: 20 % of 200 operations.
        for seed in [7, 8, 9] {
            let inserts = draw(seed, 0)
                .iter()
                .filter(|(retrieve, _)| !retrieve)
                .count();
            assert_eq!(inserts, 40);
        }
    }

    #[test]
    fn zipf_head_mass_matches_the_analytic_value() {
        let n = 1_000;
        let s = 0.99;
        let sampler = KeySampler::new(n, KeyDist::Zipf(s));
        let harmonic: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).sum();
        assert!((sampler.mass(0) - 1.0 / harmonic).abs() < 1e-12);

        let mut rng = SplitMix64::new(42);
        let draws = 200_000;
        let mut head = 0u64;
        for _ in 0..draws {
            let rank = sampler.sample(&mut rng);
            assert!(rank < n);
            head += u64::from(rank == 0);
        }
        let observed = head as f64 / draws as f64;
        let expected = 1.0 / harmonic;
        assert!(
            (observed - expected).abs() < 0.01,
            "head mass {observed} vs analytic {expected}"
        );
    }

    #[test]
    fn uniform_sampler_spreads_evenly() {
        let sampler = KeySampler::new(4, KeyDist::Uniform);
        for rank in 0..4 {
            assert!((sampler.mass(rank) - 0.25).abs() < 1e-12);
        }
    }
}
