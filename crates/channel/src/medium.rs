//! What the scalar [`Link`](crate::Link) and the matrix
//! [`MimoLink`](crate::MimoLink) share: the radio, the scatterer
//! synthesis, the noise floor, the phase random walk, the Poisson
//! interference process and the PPDU pass itself.
//!
//! A link is an `n × n` antenna array (`n = 1` for the scalar link).
//! Its response on one subcarrier is the `n × n` matrix `H`, flattened
//! as `h[pos·n² + j·n + i]` (RX antenna `j`, TX stream `i`) — the
//! layout `witag_phy::mimo` uses. The two links differ only in how they
//! model their rays and evaluate `H`; every draw from a link's RNG
//! happens here, so both draw in one order.

use crate::link::{LinkConfig, TagMode, TagSchedule};
use crate::pathloss::{db_to_linear, dbm_to_mw, noise_floor_dbm, SPEED_OF_LIGHT};
use witag_phy::complex::{c64, Complex64};
use witag_phy::ppdu::{OfdmSymbol, Ppdu};
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::rng::Rng;
use witag_sim::time::Duration;

/// Carrier frequency (Hz): 2.437 GHz, channel 6, the paper's testbed.
pub(crate) const CARRIER_HZ: f64 = 2.437e9;
/// Transmit power (dBm): 15 dBm, a typical client NIC.
pub(crate) const TX_POWER_DBM: f64 = 15.0;
/// Receiver noise figure (dB).
const NOISE_FIGURE_DB: f64 = 7.0;
/// Receiver bandwidth (Hz) for the noise floor.
pub(crate) const BANDWIDTH_HZ: f64 = 20e6;
/// Channel coherence time (s); the paper's footnote 2 cites ≈ 100 ms
/// for indoor WiFi.
const COHERENCE_TIME_S: f64 = 0.1;
/// Tag scatterer field gain `g`: antenna gain², re-radiation efficiency
/// and RCS folded into one calibration constant (e.g. a 3 dBi resonant
/// patch at ~9 % scattering efficiency). 0.30 puts the phase-flip
/// channel displacement at the level where 64-QAM 2/3 subframes corrupt
/// reliably near the link endpoints but marginally at the midpoint —
/// the paper's Figure 5 regime. See EXPERIMENTS.md for the calibration
/// sweep.
pub(crate) const TAG_FIELD_GAIN: f64 = 0.30;

/// One propagation ray.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ray {
    /// Complex field amplitude at the carrier (includes carrier phase).
    pub(crate) amplitude: Complex64,
    /// Excess propagation delay over the direct path, in seconds.
    pub(crate) delay: f64,
}

impl Ray {
    /// Per-subcarrier contribution at baseband offset `f` Hz.
    pub(crate) fn at(&self, f: f64) -> Complex64 {
        self.amplitude * Complex64::from_polar(1.0, -2.0 * core::f64::consts::PI * f * self.delay)
    }
}

/// One PPDU's channel responses, evaluated once per distinct tag mode
/// and looked up per slot (slot 0 is the training field, slot `i + 1`
/// DATA symbol `i`).
///
/// The channel only moves when a link advances, between frames, so
/// within a PPDU a response is a pure function of the tag mode: a tag
/// that flips between two states needs two evaluations, not one per
/// symbol. The evaluations draw nothing from the link's RNG, so the
/// noise and every output bit stay as an evaluation per symbol left
/// them (DESIGN.md § 4l).
pub(crate) struct PpduResponses {
    /// The distinct responses with their tag mode, in order of first use.
    distinct: Vec<(TagMode, Vec<Complex64>)>,
    /// Per slot, its index into `distinct`.
    slot: Vec<usize>,
}

impl PpduResponses {
    /// The responses `ppdu` meets under `schedule`, which must cover
    /// every DATA symbol. `response` evaluates the flattened channel for
    /// one tag mode at the given subcarrier offsets.
    pub(crate) fn new(
        ppdu: &Ppdu,
        schedule: &TagSchedule,
        response: impl Fn(TagMode, &[f64]) -> Vec<Complex64>,
    ) -> Self {
        let n_sym = ppdu.symbols.len();
        assert!(
            schedule.data.len() >= n_sym,
            "schedule covers {} symbols, PPDU has {}",
            schedule.data.len(),
            n_sym
        );
        let freqs = ppdu.config.layout().freq_offsets_hz();
        let mut distinct: Vec<(TagMode, Vec<Complex64>)> = Vec::new();
        let slot = core::iter::once(schedule.ltf)
            .chain(schedule.data[..n_sym].iter().copied())
            .map(|mode| match distinct.iter().position(|(m, _)| *m == mode) {
                Some(i) => i,
                None => {
                    distinct.push((mode, response(mode, freqs)));
                    distinct.len() - 1
                }
            })
            .collect();
        PpduResponses { distinct, slot }
    }

    /// The response in slot `i`.
    fn slot(&self, i: usize) -> &[Complex64] {
        &self.distinct[self.slot[i]].1 // lint:allow(panic_path) each slot's index is pushed with its response in new(); callers pass one slot per training field and DATA symbol
    }
}

/// The statistics, noise floor and RNG of one link's medium.
#[derive(Debug, Clone)]
pub(crate) struct Medium {
    cfg: LinkConfig,
    /// Complex noise variance per subcarrier and RX antenna, relative to
    /// unit TX power.
    pub(crate) noise_var: f64,
    /// Coherence-time divisor (fault injection: coherence collapse).
    /// 1.0 = the nominal `COHERENCE_TIME_S`; larger = faster fading.
    pub(crate) coherence_scale: f64,
    rng: Rng,
}

impl Medium {
    /// A medium with the multipath and interference statistics `cfg`,
    /// deterministic in `seed`.
    pub(crate) fn new(cfg: LinkConfig, seed: u64) -> Self {
        let noise_mw = dbm_to_mw(noise_floor_dbm(BANDWIDTH_HZ, NOISE_FIGURE_DB));
        Medium {
            cfg,
            noise_var: noise_mw / dbm_to_mw(TX_POWER_DBM),
            coherence_scale: 1.0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The environmental rays of a link from `tx` to `rx` whose direct
    /// path has amplitude `direct_amp` and delay `direct_delay`: the
    /// floorplan's reflectors first, then synthetic scatterers near the
    /// link up to `n_env_rays`. Each ray's power spreads 3 dB around
    /// `env_ray_rel_db` below the direct path. `ray` turns a ray's
    /// amplitude and excess delay into the link's own ray, drawing its
    /// phases from the RNG.
    pub(crate) fn scatterers<T>(
        &mut self,
        floorplan: &Floorplan,
        (tx, rx): (Point2, Point2),
        (direct_amp, direct_delay): (f64, f64),
        mut ray: impl FnMut(&mut Rng, f64, f64) -> T,
    ) -> Vec<T> {
        let rng = &mut self.rng;
        let mut points = floorplan.reflectors.clone();
        while points.len() < self.cfg.n_env_rays {
            // Synthetic scatterer somewhere in the vicinity of the link.
            let base = tx.lerp(rx, rng.f64());
            points.push(Point2::new(
                base.x + rng.range_f64(-4.0, 4.0),
                base.y + rng.range_f64(-4.0, 4.0),
            ));
        }
        points
            .into_iter()
            .map(|p| {
                let path_len = tx.distance(p) + p.distance(rx);
                let rel_db = self.cfg.env_ray_rel_db + rng.normal(0.0, 3.0);
                let amp = direct_amp * db_to_linear(rel_db).sqrt();
                ray(rng, amp, (path_len / SPEED_OF_LIGHT) - direct_delay)
            })
            .collect()
    }

    /// One phase rotation for each of `n_rays` environmental rays after
    /// `dt`: their phases random-walk with the coherence time
    /// `COHERENCE_TIME_S / coherence_scale` (people moving, doors…).
    pub(crate) fn drift(
        &mut self,
        dt: Duration,
        n_rays: usize,
    ) -> impl Iterator<Item = Complex64> + '_ {
        let sigma = core::f64::consts::TAU
            * (dt.as_secs_f64() / COHERENCE_TIME_S).sqrt()
            * 0.5
            * self.coherence_scale.sqrt();
        (0..n_rays).map(move |_| Complex64::from_polar(1.0, self.rng.normal(0.0, sigma)))
    }

    /// Pass `ppdu` through the array whose direct paths are `direct`
    /// (`n²` of them, `n` the PPDU's stream count) and whose responses
    /// are `h`: `y_j = Σ_i H_ji·x_i + AWGN` on every tone, plus Poisson
    /// interference bursts. A burst lands on every RX antenna, at
    /// `interference_rel_db` over the mean direct-path power; one during
    /// the preamble corrupts the channel estimate itself.
    ///
    /// # Panics
    ///
    /// If the PPDU's stream count `n` does not match the array, or if a
    /// training or DATA symbol does not carry `n` streams of the
    /// response's tone count.
    pub(crate) fn apply_ppdu(&mut self, ppdu: &Ppdu, h: &PpduResponses, direct: &[Ray]) -> Ppdu {
        let n = ppdu.config.mcs.spatial_streams;
        assert_eq!(
            direct.len(),
            n * n,
            "PPDU stream count must match the array"
        );
        check_shape(ppdu.ltfs.iter().chain(&ppdu.symbols), h.slot(0), n);

        // Interference bursts overlapping this PPDU (Poisson arrivals).
        let airtime = ppdu.airtime().as_secs_f64();
        let sym_dur = ppdu.config.guard.symbol_duration().as_secs_f64();
        let preamble = ppdu.config.preamble_duration().as_secs_f64();
        let mut bursts: Vec<(f64, f64)> = Vec::new();
        if self.cfg.interference_rate_hz > 0.0 {
            let mut t = self.rng.exponential(self.cfg.interference_rate_hz);
            while t < airtime {
                let d = self.rng.exponential(1.0 / self.cfg.interference_duration_s);
                bursts.push((t, t + d));
                t += d + self.rng.exponential(self.cfg.interference_rate_hz);
            }
        }
        let sig_power = direct.iter().map(|r| r.amplitude.norm_sqr()).sum::<f64>() / n as f64;
        let intf_var = sig_power * db_to_linear(self.cfg.interference_rel_db);
        // Per-rail burst deviation over [lo, hi): zero outside every burst.
        let burst_std = |lo: f64, hi: f64| {
            if bursts.iter().any(|&(a, b)| a < hi && b > lo) {
                (intf_var / 2.0).sqrt()
            } else {
                0.0
            }
        };

        // The tag holds one state across the whole training field (it
        // cannot see training-symbol boundaries).
        let ltf_std = burst_std(0.0, preamble);
        let ltfs = ppdu
            .ltfs
            .iter()
            .map(|s| self.mix(s, h.slot(0), n, ltf_std))
            .collect();
        let symbols = ppdu
            .symbols
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let lo = preamble + i as f64 * sym_dur;
                self.mix(s, h.slot(i + 1), n, burst_std(lo, lo + sym_dur))
            })
            .collect();
        Ppdu {
            config: ppdu.config.clone(),
            psdu_len: ppdu.psdu_len,
            ltfs,
            symbols,
        }
    }

    /// One symbol through the `n × n` response `h`: per RX antenna and
    /// tone, `Σ_i H_ji·x_i`, then AWGN, then a burst sample of deviation
    /// `burst_std` per rail when it is nonzero. The caller has checked
    /// the symbol's shape against `h` with [`check_shape`].
    pub(crate) fn mix(
        &mut self,
        sym: &OfdmSymbol,
        h: &[Complex64],
        n: usize,
        burst_std: f64,
    ) -> OfdmSymbol {
        let noise_std = (self.noise_var / 2.0).sqrt();
        let rng = &mut self.rng;
        let streams = (0..n)
            .map(|j| {
                h.chunks_exact(n * n)
                    .enumerate()
                    .map(|(pos, block)| {
                        let mut y = Complex64::ZERO;
                        for (hji, s) in block[j * n..].iter().zip(&sym.streams) {
                            y += *hji * s[pos]; // lint:allow(panic_path) pos < h.len()/n², the tone count check_shape holds every stream to
                        }
                        y += c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std);
                        if burst_std > 0.0 {
                            y += c64(rng.gaussian() * burst_std, rng.gaussian() * burst_std);
                        }
                        y
                    })
                    .collect()
            })
            .collect();
        OfdmSymbol { streams }
    }
}

/// Check what [`Medium::mix`] indexes: every symbol carries `n` streams,
/// each with one sample per tone of the `n × n` response `h`. `n` is at
/// least 1.
///
/// # Panics
///
/// If a symbol has another shape.
pub(crate) fn check_shape<'a>(
    symbols: impl IntoIterator<Item = &'a OfdmSymbol>,
    h: &[Complex64],
    n: usize,
) {
    let tones = h.len() / (n * n);
    assert!(
        symbols
            .into_iter()
            .all(|s| s.streams.len() == n && s.streams.iter().all(|t| t.len() == tones)),
        "every symbol must carry {n} streams of {tones} tones"
    );
}
