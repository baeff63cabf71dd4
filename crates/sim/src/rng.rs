//! Deterministic pseudo-random number generation.
//!
//! The simulator's reproducibility contract is: *same seed, same run*. To
//! keep that contract independent of external crate versions, the core PRNG
//! is implemented here: **xoshiro256\*\*** (Blackman & Vigna, 2018) seeded
//! via **SplitMix64**, the combination recommended by the xoshiro authors.
//!
//! The generator also provides the distributions the channel and MAC models
//! need: uniform floats/integers, standard normal pairs (Box–Muller, used
//! for AWGN and Rayleigh fading), exponential (Poisson cross-traffic
//! arrivals), and Bernoulli.

/// SplitMix64 step used to expand a single `u64` seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\* PRNG.
///
/// Not cryptographically secure — it drives channel noise, backoff slots
/// and workload generation, never key material (the `witag-crypto` crate does not
/// use it for keys either; the reproduction uses fixed test vectors there).
///
/// ```
/// use witag_sim::Rng;
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // reproducible
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Create a generator from a single 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s, gauss_spare: None }
    }

    /// Derive an independent child generator. Used to give each simulation
    /// entity (channel, MAC, tag, workload) its own stream so adding draws
    /// in one subsystem does not perturb another.
    pub fn fork(&mut self, stream: u64) -> Rng {
        // Mix the stream id through SplitMix so fork(0) != self.
        let mut sm = self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s, gauss_spare: None }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Lemire's nearly-divisionless rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Rng::range_u64: lo > hi");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate (mean 0, variance 1) via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller: two uniforms -> two independent normals.
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential deviate with the given rate λ (mean 1/λ). Used for
    /// Poisson traffic inter-arrival times.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Fill a byte slice with random data (workload payload generation).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = Rng::seed_from_u64(0xDEAD_BEEF);
        let mut b = Rng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_and_reproducible() {
        let mut parent1 = Rng::seed_from_u64(7);
        let mut parent2 = Rng::seed_from_u64(7);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = Rng::seed_from_u64(7).fork(4);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 7u64;
        let mut counts = [0u32; 7];
        let draws = 70_000;
        for _ in 0..draws {
            counts[rng.below(n) as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            // 5 sigma of a binomial around 10k.
            assert!((c as f64 - expected).abs() < 5.0 * expected.sqrt());
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 100_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.gaussian();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seed_from_u64(17);
        let lambda = 4.0;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / lambda).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_covers_endpoints() {
        let mut rng = Rng::seed_from_u64(19);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match rng.range_u64(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left slice sorted (astronomically unlikely)");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Rng::seed_from_u64(29);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
