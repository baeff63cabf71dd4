//! Statistics collection for experiments.
//!
//! Three collectors, used throughout the experiment harness and the
//! benchmark binaries:
//!
//! * [`RunningStats`] — streaming mean/variance (Welford's algorithm),
//!   constant memory; for long-running BER counters.
//! * [`SampleSet`] — stores raw samples; exact percentiles and an empirical
//!   [`Cdf`]; for per-run BER distributions (paper Figure 6).
//! * [`Histogram`] — fixed-bin counts; for channel-magnitude distributions.

/// Streaming mean / variance / min / max using Welford's online algorithm.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// New, empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A set of raw samples with exact order statistics.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// New, empty set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the samples; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Exact percentile `p` in `[0, 100]` by linear interpolation between
    /// closest ranks. Returns `None` if empty.
    ///
    /// ```
    /// use witag_sim::SampleSet;
    /// let mut s = SampleSet::new();
    /// for x in [1.0, 2.0, 3.0, 4.0, 5.0] { s.push(x); }
    /// assert_eq!(s.percentile(50.0), Some(3.0));
    /// assert_eq!(s.percentile(90.0), Some(4.6));
    /// ```
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            return Some(self.samples[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Build an empirical CDF over the samples.
    pub fn cdf(&mut self) -> Cdf {
        self.ensure_sorted();
        Cdf {
            sorted: self.samples.clone(),
        }
    }

    /// Borrow the raw samples (unsorted insertion order is not preserved
    /// once an order statistic has been queried).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Empirical cumulative distribution function over a sample set.
///
/// This is what the paper plots in Figure 6 (CDF of per-minute BER).
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Value below which a fraction `q` in `[0,1]` of samples fall
    /// (the inverse CDF / quantile function).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Iterate `(value, cumulative_fraction)` step points, suitable for
    /// printing a CDF series like the paper's Figure 6.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n as f64))
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if built from zero samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Wilson score interval for a binomial proportion: the 95 % confidence
/// interval on an error rate estimated from `errors` failures in `total`
/// trials. Used by the figure benches to report BER ± CI, since BER
/// points are exactly binomial proportions.
pub fn wilson_interval_95(errors: u64, total: u64) -> (f64, f64) {
    if total == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = total as f64;
    let p = errors as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one value.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Bin counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Count of values below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded values including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Centre x-value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // naive unbiased variance = 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn welford_merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!((a.mean(), a.variance()), before);

        let mut e = RunningStats::new();
        e.merge(&a);
        assert_eq!(e.mean(), a.mean());
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s = SampleSet::new();
        for x in [10.0, 20.0, 30.0, 40.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(0.0), Some(10.0));
        assert_eq!(s.percentile(100.0), Some(40.0));
        assert_eq!(s.median(), Some(25.0));
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = SampleSet::new();
        s.push(42.0);
        assert_eq!(s.percentile(90.0), Some(42.0));
    }

    #[test]
    fn empty_sampleset_behaviour() {
        let mut s = SampleSet::new();
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn cdf_fraction_and_quantile_agree() {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        let cdf = s.cdf();
        assert!((cdf.at(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(100.0), 1.0);
        assert_eq!(cdf.quantile(0.9), Some(90.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
    }

    #[test]
    fn cdf_steps_are_monotone() {
        let mut s = SampleSet::new();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        let cdf = s.cdf();
        let steps: Vec<_> = cdf.steps().collect();
        assert_eq!(steps.len(), 3);
        assert!(steps
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((steps.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_basics() {
        // Contains the point estimate and tightens with more trials.
        let (lo, hi) = wilson_interval_95(10, 1000);
        assert!(lo < 0.01 && 0.01 < hi);
        let (lo2, hi2) = wilson_interval_95(100, 10_000);
        assert!(hi2 - lo2 < hi - lo, "more data must tighten the interval");
        // Degenerate cases stay in [0, 1].
        assert_eq!(wilson_interval_95(0, 0), (0.0, 1.0));
        let (lo3, hi3) = wilson_interval_95(0, 50);
        assert_eq!(lo3, 0.0);
        assert!(hi3 > 0.0 && hi3 < 0.12);
        let (lo4, hi4) = wilson_interval_95(50, 50);
        assert!(lo4 > 0.88);
        assert_eq!(hi4, 1.0);
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-1.0);
        h.push(0.0);
        h.push(5.5);
        h.push(9.999);
        h.push(10.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 5);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }
}
