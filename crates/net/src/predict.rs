//! Ambient-traffic prediction for grant timing.
//!
//! FlexScatter's observation (PAPERS.md): backscatter over live WiFi
//! only stays sustainable when the reader schedules tag activity into
//! the gaps the ambient traffic leaves. The fleet layer's analogue of
//! "ambient traffic" is inter-client contention — the same medium
//! accesses the `net.collision` / `net.grant` obs events record — so
//! the [`TrafficPredictor`] learns from exactly that stream: one
//! busy/idle observation per medium access.
//!
//! The estimator is deliberately tiny and fully deterministic:
//!
//! * an **EWMA** of the busy indicator — the short-memory level of
//!   contention, and
//! * a **2-state Markov chain** (idle ⇄ busy) with Laplace-smoothed
//!   transition counts — the burst structure: WiFi contention comes in
//!   runs, so `P(busy | busy)` and `P(busy | idle)` differ a lot, which
//!   a plain average cannot express.
//!
//! [`forecast`](TrafficPredictor::forecast) blends the two 50/50. The
//! fleet loop's `pred` policy defers all but one contending client
//! while the forecast is above its threshold, converting forecast-busy
//! slots into deliberate quiet — fewer collisions at the cost of some
//! serialisation, which is the right trade exactly when collisions are
//! the dominant loss (the regime the predictor detects).

/// EWMA smoothing factor for the busy indicator (weight of the newest
/// observation).
const EWMA_ALPHA: f64 = 0.125;

/// Online busy-state estimator for the shared medium: EWMA level +
/// 2-state Markov burst structure, fed one observation per medium
/// access. Pure integer/float state, no clocks, no entropy — a
/// predictor fed the same observation sequence always returns the same
/// forecasts, which is what keeps `pred` fleets byte-deterministic.
///
/// ```
/// use witag_net::TrafficPredictor;
/// let mut p = TrafficPredictor::new();
/// assert_eq!(p.forecast(), 0.0); // optimistic before any evidence
/// for _ in 0..8 {
///     p.observe(true);
/// }
/// assert!(p.forecast() > 0.7, "a solid busy run must forecast busy");
/// ```
#[derive(Debug, Clone)]
pub struct TrafficPredictor {
    /// EWMA of the busy indicator (1.0 = contended access).
    ewma: f64,
    /// Last observed state: 0 = idle, 1 = busy.
    state: usize,
    /// Laplace-smoothed transition counts: `trans[from][to]`.
    trans: [[u64; 2]; 2],
    /// Total observations absorbed.
    observed: u64,
}

impl Default for TrafficPredictor {
    fn default() -> Self {
        TrafficPredictor::new()
    }
}

impl TrafficPredictor {
    /// A fresh predictor: no evidence, forecast 0 (assume calm until
    /// the medium proves otherwise — a cold fleet must not defer).
    pub fn new() -> TrafficPredictor {
        TrafficPredictor {
            ewma: 0.0,
            state: 0,
            trans: [[0; 2]; 2],
            observed: 0,
        }
    }

    /// Absorb one medium access: whether it was contended (≥ 2
    /// simultaneous transmitters).
    pub fn observe(&mut self, contended: bool) {
        let next = usize::from(contended);
        if self.observed == 0 {
            // Seed the EWMA from the first sample instead of the
            // arbitrary zero prior.
            self.ewma = next as f64;
        } else {
            self.trans[self.state][next] += 1; // lint:allow(panic_path) state/next are usize::from(bool), trans is 2x2
            self.ewma = (1.0 - EWMA_ALPHA) * self.ewma + EWMA_ALPHA * next as f64;
        }
        self.state = next;
        self.observed += 1;
    }

    /// The EWMA level of the busy indicator, in `[0, 1]`.
    pub fn busy_ewma(&self) -> f64 {
        self.ewma
    }

    /// Laplace-smoothed Markov estimate of `P(next access busy | last
    /// state)` — the burst-structure half of the forecast.
    pub fn markov_busy(&self) -> f64 {
        let row = &self.trans[self.state]; // lint:allow(panic_path) state is usize::from(bool), trans is 2x2
        (row[1] + 1) as f64 / (row[0] + row[1] + 2) as f64
    }

    /// Blended busy forecast for the next medium access, in `[0, 1]`:
    /// the mean of [`busy_ewma`](Self::busy_ewma) and
    /// [`markov_busy`](Self::markov_busy). Exactly 0 before the first
    /// observation.
    pub fn forecast(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            0.5 * self.markov_busy() + 0.5 * self.ewma
        }
    }

    /// Medium accesses absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_forecasts_calm() {
        let p = TrafficPredictor::new();
        assert_eq!(p.forecast(), 0.0);
        assert_eq!(p.busy_ewma(), 0.0);
        assert_eq!(p.observations(), 0);
    }

    #[test]
    fn sustained_contention_forecasts_busy() {
        let mut p = TrafficPredictor::new();
        for _ in 0..32 {
            p.observe(true);
        }
        assert!(p.forecast() > 0.85, "forecast {}", p.forecast());
        assert!(p.busy_ewma() > 0.9);
    }

    #[test]
    fn calm_run_after_burst_decays_the_forecast() {
        let mut p = TrafficPredictor::new();
        for _ in 0..16 {
            p.observe(true);
        }
        let busy = p.forecast();
        for _ in 0..32 {
            p.observe(false);
        }
        assert!(
            p.forecast() < 0.35,
            "forecast {} after calm run",
            p.forecast()
        );
        assert!(p.forecast() < busy);
    }

    #[test]
    fn markov_distinguishes_burst_structure_from_level() {
        // Alternating idle/busy: 50% level, but P(busy | busy) is low.
        let mut alt = TrafficPredictor::new();
        for i in 0..64 {
            alt.observe(i % 2 == 0);
        }
        // Clustered: same 50% level in busy/idle runs of 8.
        let mut runs = TrafficPredictor::new();
        for i in 0..64 {
            runs.observe((i / 8) % 2 == 0);
        }
        // Both end on an idle state; the run-structured chain must
        // rate "stay idle" likelier than the alternating one.
        assert!(runs.markov_busy() < alt.markov_busy());
    }

    #[test]
    fn identical_observation_streams_give_identical_state() {
        let feed = |p: &mut TrafficPredictor| {
            for i in 0..40u64 {
                p.observe(i % 3 == 0);
            }
        };
        let mut a = TrafficPredictor::new();
        let mut b = TrafficPredictor::new();
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.forecast().to_bits(), b.forecast().to_bits());
        assert_eq!(a.busy_ewma().to_bits(), b.busy_ewma().to_bits());
    }
}
