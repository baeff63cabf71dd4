//! Deterministic pseudo-random number generation.
//!
//! The simulator's reproducibility contract is: *same seed, same run*. To
//! keep that contract independent of external crate versions, the core PRNG
//! is implemented here: **xoshiro256\*\*** (Blackman & Vigna, 2018) seeded
//! via **SplitMix64**, the combination recommended by the xoshiro authors.
//!
//! The generator also provides the distributions the channel and MAC models
//! need: uniform floats/integers, standard normal deviates (a 128-layer
//! ziggurat, Marsaglia & Tsang 2000, used for AWGN and Rayleigh fading),
//! exponential (Poisson cross-traffic arrivals), and Bernoulli.
//!
//! The generator's whole state is its four xoshiro words: a normal
//! deviate caches nothing, so the stream after any draw depends only on
//! the state before it.

use std::sync::LazyLock;

/// SplitMix64 step used to expand a single `u64` seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Layers of the normal ziggurat: 7 bits of a draw pick one.
const ZIG_LAYERS: usize = 128;
/// Right edge `r` of the widest layer, where the tail begins
/// (Marsaglia & Tsang 2000, 128 layers).
const ZIG_R: f64 = 3.442_619_855_899;
/// Area `v` of every layer under the unnormalised density
/// `exp(−x²/2)`; the base layer's share includes the tail beyond `r`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// The unnormalised normal density `exp(−x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The ziggurat's tables. Layer `i ≥ 1` is the rectangle `[0, x_i] ×
/// [f(x_i), f(x_{i-1})]`, with `x_0 = 0` and `x_127 = r`; layer 0 is the
/// base strip `[0, v/f(r)] × [0, f(r)]`, whose part beyond `r` stands for
/// the tail. Every layer has area `v`.
struct Ziggurat {
    /// Per layer, the 52-bit abscissa bound of its inner rectangle:
    /// `⌊x_{i-1}/x_i · 2⁵²⌋`, and `⌊r/x_0' · 2⁵²⌋` for the base strip
    /// of width `x_0' = v/f(r)`. A draw under it lies wholly under the
    /// density.
    inner: [u64; ZIG_LAYERS],
    /// Per layer, the abscissa of one 52-bit step: `x_i / 2⁵²`.
    unit: [f64; ZIG_LAYERS],
    /// Per layer, the density at its right edge, `f(x_i)`; `f[0] = 1`
    /// is the ceiling of layer 1 (`x_0 = 0`).
    f: [f64; ZIG_LAYERS],
}

impl Ziggurat {
    /// The tables from `r` and `v`, by Marsaglia & Tsang's recurrence
    /// `x_{i-1} = f⁻¹(v/x_i + f(x_i))`.
    fn new() -> Self {
        let scale = (1u64 << 52) as f64;
        let mut x = [0.0; ZIG_LAYERS];
        x[ZIG_LAYERS - 1] = ZIG_R;
        for i in (1..ZIG_LAYERS - 1).rev() {
            x[i] = (-2.0 * (ZIG_V / x[i + 1] + density(x[i + 1])).ln()).sqrt();
        }
        let base = ZIG_V / density(ZIG_R);
        let mut zig = Ziggurat {
            inner: [0; ZIG_LAYERS],
            unit: [0.0; ZIG_LAYERS],
            f: [1.0; ZIG_LAYERS],
        };
        zig.inner[0] = (ZIG_R / base * scale) as u64;
        zig.unit[0] = base / scale;
        for i in 1..ZIG_LAYERS {
            zig.inner[i] = (x[i - 1] / x[i] * scale) as u64;
            zig.unit[i] = x[i] / scale;
            zig.f[i] = density(x[i]);
        }
        zig
    }
}

/// The normal ziggurat, computed once per process on first use.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::new);

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
        Rng { s }
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
        Rng { s }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

    /// Standard normal deviate (mean 0, variance 1) from the 128-layer
    /// ziggurat of Marsaglia & Tsang (2000).
    ///
    /// One `next_u64` picks a layer (7 bits), a sign (1 bit) and an
    /// abscissa (52 bits). In 97.2 % of draws the abscissa falls in the
    /// part of the layer that lies wholly under the density, one integer
    /// compare shows it, and that one word is the whole draw. Otherwise
    /// the wedge or the tail (beyond `r` = 3.44) decides by exact
    /// rejection, drawing further uniforms, and a rejected draw starts
    /// over with a fresh word.
    pub fn gaussian(&mut self) -> f64 {
        let zig = &*ZIGGURAT;
        loop {
            let bits = self.next_u64();
            let layer = (bits & 0x7f) as usize;
            let u = bits >> 12;
            // Bit 7 moved to the IEEE sign bit.
            let sign = (bits & 0x80) << 56;
            let x = u as f64 * zig.unit[layer];
            if u < zig.inner[layer] {
                return f64::from_bits(x.to_bits() ^ sign);
            }
            let x = if layer == 0 {
                self.gaussian_tail()
            } else {
                // The wedge: accept under the density between the layer's
                // floor f(x_i) and its ceiling f(x_{i-1}).
                let (floor, ceil) = (zig.f[layer], zig.f[layer - 1]);
                if floor + self.f64() * (ceil - floor) >= density(x) {
                    continue;
                }
                x
            };
            return f64::from_bits(x.to_bits() ^ sign);
        }
    }

    /// A deviate from the normal tail beyond `ZIG_R` (Marsaglia 1964):
    /// `r + x` with `x` exponential of rate `r`, kept with probability
    /// `exp(−x²/2)`.
    fn gaussian_tail(&mut self) -> f64 {
        loop {
            // `1 − f64()` is in (0, 1], so neither logarithm is infinite.
            let x = -(1.0 - self.f64()).ln() / ZIG_R;
            let y = -(1.0 - self.f64()).ln();
            if 2.0 * y >= x * x {
                return ZIG_R + x;
            }
        }
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

    /// Standard normal density.
    fn phi(x: f64) -> f64 {
        (-0.5 * x * x).exp() / core::f64::consts::TAU.sqrt()
    }

    /// `P(a < Z < b)` for a standard normal `Z`, by composite Simpson's
    /// rule. Bounds beyond ±40 are clipped: the density there is below
    /// 10⁻³⁴⁷ and underflows anyway.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let (a, b) = (a.max(-40.0), b.min(40.0));
        let n = 20_000;
        let h = (b - a) / n as f64;
        let inner: f64 = (1..n)
            .map(|i| phi(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (phi(a) + inner + phi(b)) * h / 3.0
    }

    /// Every layer of the computed ziggurat has area `v`: the uniform
    /// layer pick is only exact if they do. The base layer's area is
    /// its rectangle up to `r` plus the tail beyond, integrated
    /// numerically.
    #[test]
    fn ziggurat_layers_have_equal_area() {
        let zig = &*ZIGGURAT;
        let scale = (1u64 << 52) as f64;
        // The recurrence makes layers 2–127 exact to rounding. The top
        // layer closes at x_0 = 0 only as far as the 13 digits of `r`
        // reach: its area is off by 1.2·10⁻⁹ of `v`.
        for i in 1..ZIG_LAYERS {
            let area = zig.unit[i] * scale * (zig.f[i - 1] - zig.f[i]);
            let tol = if i == 1 { 2e-9 } else { 1e-12 };
            assert!((area / ZIG_V - 1.0).abs() < tol, "layer {i}: area {area:e}");
        }
        let tail = normal_mass(ZIG_R, f64::INFINITY) * core::f64::consts::TAU.sqrt();
        let base = ZIG_R * density(ZIG_R) + tail;
        assert!(
            (base / ZIG_V - 1.0).abs() < 1e-12,
            "base layer: area {base:e}"
        );
        // The generator is its four state words and nothing else.
        assert_eq!(core::mem::size_of::<Rng>(), 32);
    }

    /// Mean, variance and fourth moment of 10⁶ draws. The fourth moment
    /// (3 for a normal) is what a sampler with a missing or misshapen
    /// tail gets wrong first: the mass beyond 3.44σ alone contributes
    /// 0.11 of it, against a standard error of 0.01.
    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 1_000_000;
        let (mut sum, mut sq, mut quad) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let z = rng.gaussian();
            sum += z;
            sq += z * z;
            quad += z * z * z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        let m4 = quad / n as f64;
        // Five standard errors: 1/√n, √(2/n) and √(96/n).
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "var {var}");
        assert!((m4 - 3.0).abs() < 0.05, "fourth moment {m4}");
    }

    /// A binned χ² of 2·10⁷ draws against Φ. The bins cover ±5σ, a
    /// quarter σ wide out to ±4σ and half a σ beyond; the two tails past
    /// ±5σ are bins of their own, expecting 5.7 draws each.
    #[test]
    fn gaussian_chi_squared_against_phi() {
        let mut edges = vec![-5.0, -4.5];
        edges.extend((0..=32).map(|i| -4.0 + 0.25 * i as f64));
        edges.extend([4.5, 5.0]);
        let mut counts = vec![0u64; edges.len() + 1];
        let mut rng = Rng::seed_from_u64(31);
        let n = 20_000_000u64;
        for _ in 0..n {
            let z = rng.gaussian();
            counts[edges.partition_point(|&e| e <= z)] += 1;
        }
        let bounds: Vec<f64> = core::iter::once(f64::NEG_INFINITY)
            .chain(edges.iter().copied())
            .chain(core::iter::once(f64::INFINITY))
            .collect();
        let chi2: f64 = counts
            .iter()
            .zip(bounds.windows(2))
            .map(|(&c, w)| {
                let expected = n as f64 * normal_mass(w[0], w[1]);
                assert!(expected >= 5.0, "bin {w:?} expects {expected}");
                (c as f64 - expected).powi(2) / expected
            })
            .sum();
        // 38 bins, 37 degrees of freedom: χ²₃₇ exceeds 78.0 with
        // probability 10⁻⁴ (Wilson–Hilferty).
        assert!(
            chi2 < 78.0,
            "chi2 {chi2} over {} bins: {counts:?}",
            counts.len()
        );
    }

    /// The mass beyond 3σ and 4σ against 2Φ(−k), within five binomial
    /// standard deviations, over 10⁷ draws.
    #[test]
    fn gaussian_tail_mass_matches_phi() {
        let mut rng = Rng::seed_from_u64(37);
        let n = 10_000_000u64;
        let (mut beyond3, mut beyond4) = (0u64, 0u64);
        for _ in 0..n {
            let z = rng.gaussian().abs();
            beyond3 += u64::from(z > 3.0);
            beyond4 += u64::from(z > 4.0);
        }
        for (k, count) in [(3.0, beyond3), (4.0, beyond4)] {
            let p = 2.0 * normal_mass(k, f64::INFINITY);
            let expected = n as f64 * p;
            let sd = (expected * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - expected).abs() < 5.0 * sd,
                "beyond {k}σ: {count} draws, expected {expected:.1} ± {sd:.1}"
            );
        }
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
        assert_ne!(
            v, sorted,
            "shuffle left slice sorted (astronomically unlikely)"
        );
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Rng::seed_from_u64(29);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
