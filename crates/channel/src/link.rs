//! The link channel model: geometric multipath + switchable tag reflector
//! + noise + ambient interference.
//!
//! A [`Link`] models one TX→RX wireless channel inside a floorplan as a
//! sum of rays:
//!
//! * the **direct path**, with free-space loss plus any obstacle
//!   penetration losses along the straight line (NLOS),
//! * **environmental rays** bounced off floorplan reflectors (walls,
//!   cabinets) — these give the channel its frequency selectivity and,
//!   via slow phase drift, its temporal dynamics (people moving around,
//!   coherence time ≈ 100 ms per the paper's footnote 2),
//! * optionally the **tag ray**: TX → tag → RX, whose complex amplitude
//!   follows the radar-equation 1/(Ds·Dr) field dependence (paper §6.2)
//!   and whose sign/presence is switched *per OFDM symbol* by a
//!   [`TagSchedule`] — this is the backscatter modulation.
//!
//! Everything is evaluated per subcarrier: `h[k] = Σ_p a_p·e^{−j2πf_k τ_p}`,
//! which is what makes the tag's contribution frequency-selective (a real
//! channel change) rather than a common phase rotation that pilot tracking
//! could undo. A `Link` is the 1×1 case of the PPDU pass
//! [`MimoLink`](crate::MimoLink) runs; the two share their scatterer
//! synthesis, noise and interference (`medium.rs`).

use crate::medium::{
    check_shape, Medium, PpduResponses, Ray, BANDWIDTH_HZ, CARRIER_HZ, TAG_FIELD_GAIN, TX_POWER_DBM,
};
use crate::pathloss::{backscatter_amplitude, db_to_linear, freespace_amplitude, SPEED_OF_LIGHT};
use witag_phy::complex::{c64, Complex64};
use witag_phy::legacy::{LegacyLayout, LegacyPpdu};
use witag_phy::params::SubcarrierLayout;
use witag_phy::ppdu::Ppdu;
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::time::Duration;

/// The state of the tag's RF switch during one OFDM symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagMode {
    /// No tag present at all.
    #[default]
    Absent,
    /// Antenna open-circuited: non-reflective (paper §5.1).
    OpenCircuit,
    /// Antenna short-circuited: reflective (paper §5.1).
    ShortCircuit,
    /// Always-reflecting tag, 0° phase path (paper §5.2).
    Phase0,
    /// Always-reflecting tag, 180° phase path (paper §5.2).
    Phase180,
}

impl TagMode {
    /// Multiplier applied to the geometric tag ray.
    pub(crate) fn coefficient(self) -> Complex64 {
        match self {
            TagMode::Absent | TagMode::OpenCircuit => Complex64::ZERO,
            TagMode::ShortCircuit | TagMode::Phase0 => Complex64::ONE,
            TagMode::Phase180 => c64(-1.0, 0.0),
        }
    }
}

/// Per-symbol tag switch states for one PPDU.
#[derive(Debug, Clone)]
pub struct TagSchedule {
    /// Mode during the preamble / LTF (channel estimation window). WiTAG
    /// holds a *constant* state here so the estimate is clean (paper §5.1:
    /// non-reflective during estimation; §5.2: reflecting at 0°).
    pub ltf: TagMode,
    /// Mode during each DATA symbol.
    pub data: Vec<TagMode>,
}

impl TagSchedule {
    /// A schedule with the same mode everywhere (tag idle / absent).
    pub fn constant(mode: TagMode, n_symbols: usize) -> Self {
        TagSchedule {
            ltf: mode,
            data: vec![mode; n_symbols],
        }
    }
}

/// Multipath and interference parameters for a link. The radio itself
/// (carrier, powers, bandwidth, coherence time, tag gain) is the
/// paper's testbed and fixed.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Number of environmental multipath rays to synthesise (in addition
    /// to any floorplan reflectors).
    pub n_env_rays: usize,
    /// Mean power of an environmental ray relative to the direct path (dB,
    /// negative).
    pub env_ray_rel_db: f64,
    /// Ambient interference bursts (microwave ovens, co-channel WiFi…):
    /// Poisson arrival rate (1/s). These are what keep the ambient
    /// subframe error rate above zero (paper §4.1: "we can never
    /// guarantee an error rate of zero").
    pub interference_rate_hz: f64,
    /// Mean interference burst duration (s).
    pub interference_duration_s: f64,
    /// Interference power relative to the *received* signal (dB).
    pub interference_rel_db: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            n_env_rays: 6,
            env_ray_rel_db: -18.0,
            interference_rate_hz: 16.0,
            interference_duration_s: 500e-6,
            interference_rel_db: 3.0,
        }
    }
}

impl LinkConfig {
    /// A scattering-rich indoor profile: more and stronger environmental
    /// rays than the default, giving well-conditioned matrices that
    /// support 2–3 spatial streams (the MOXcatter testbed regime).
    /// Interference is left at the default.
    pub fn rich_scattering() -> Self {
        LinkConfig {
            n_env_rays: 12,
            env_ray_rel_db: -6.0,
            ..LinkConfig::default()
        }
    }
}

/// A TX→RX channel with an optional backscatter tag in the environment.
#[derive(Debug, Clone)]
pub struct Link {
    medium: Medium,
    direct: Ray,
    env: Vec<Ray>,
    /// Geometric tag ray (before the switch coefficient).
    tag: Option<Ray>,
    /// Field amplitude of the TX→tag hop (for the tag's envelope
    /// detector).
    tag_incident_amplitude: f64,
}

impl Link {
    /// Build a link inside `floorplan` from `tx` to `rx`, with an optional
    /// tag at `tag_pos`.
    pub fn new(
        floorplan: &Floorplan,
        tx: Point2,
        rx: Point2,
        tag_pos: Option<Point2>,
        cfg: LinkConfig,
        seed: u64,
    ) -> Self {
        let mut medium = Medium::new(cfg, seed);
        let f = CARRIER_HZ;

        // Direct path.
        let d = tx.distance(rx);
        let pen_db = floorplan.penetration_loss_db(tx, rx);
        let direct_amp = freespace_amplitude(d, f) * db_to_linear(-pen_db).sqrt();
        let direct = Ray {
            amplitude: Complex64::from_polar(
                direct_amp,
                -2.0 * core::f64::consts::PI * f * (d / SPEED_OF_LIGHT),
            ),
            delay: 0.0, // delays are excess over the direct path
        };
        let direct_delay = d / SPEED_OF_LIGHT;

        // Environmental rays, each with a uniformly random phase.
        let env = medium.scatterers(
            floorplan,
            (tx, rx),
            (direct_amp, direct_delay),
            |rng, amp, delay| Ray {
                amplitude: Complex64::from_polar(amp, rng.range_f64(0.0, core::f64::consts::TAU)),
                delay,
            },
        );

        // Tag ray.
        let (tag, tag_incident_amplitude) = match tag_pos {
            Some(p) => {
                let ds = tx.distance(p);
                let dr = p.distance(rx);
                // Penetration on each hop.
                let pen =
                    floorplan.penetration_loss_db(tx, p) + floorplan.penetration_loss_db(p, rx);
                let amp =
                    backscatter_amplitude(ds, dr, f, TAG_FIELD_GAIN) * db_to_linear(-pen).sqrt();
                let ray = Ray {
                    amplitude: Complex64::from_polar(
                        amp,
                        -2.0 * core::f64::consts::PI * f * (ds + dr) / SPEED_OF_LIGHT,
                    ),
                    delay: ((ds + dr) / SPEED_OF_LIGHT) - direct_delay,
                };
                let incident = freespace_amplitude(ds, f)
                    * db_to_linear(-floorplan.penetration_loss_db(tx, p)).sqrt();
                (Some(ray), incident)
            }
            None => (None, 0.0),
        };

        Link {
            medium,
            direct,
            env,
            tag,
            tag_incident_amplitude,
        }
    }

    /// Divide the effective coherence time by `scale` (fault injection:
    /// a coherence collapse — doors slamming, machinery moving through
    /// the Fresnel zone). `1.0` restores the nominal dynamics; the
    /// nominal path is bit-identical to a link without the hook.
    pub fn set_coherence_scale(&mut self, scale: f64) {
        self.medium.coherence_scale = scale.max(1e-9);
    }

    /// The channel's complex response at arbitrary baseband frequencies
    /// for a given tag switch state.
    fn response_at(&self, mode: TagMode, freqs_hz: &[f64]) -> Vec<Complex64> {
        let tag_coeff = mode.coefficient();
        freqs_hz
            .iter()
            .map(|&f| {
                let mut h = self.direct.at(f);
                for ray in &self.env {
                    h += ray.at(f);
                }
                if let Some(tag) = &self.tag {
                    h += tag.at(f) * tag_coeff;
                }
                h
            })
            .collect()
    }

    /// The channel's complex response on every occupied subcarrier for a
    /// given tag switch state.
    pub fn response(&self, mode: TagMode, layout: &SubcarrierLayout) -> Vec<Complex64> {
        self.response_at(mode, layout.freq_offsets_hz())
    }

    /// Mean |Δh| between two tag modes across subcarriers — the channel
    /// displacement the paper's Figure 3 illustrates.
    pub fn tag_delta_magnitude(&self, a: TagMode, b: TagMode, layout: &SubcarrierLayout) -> f64 {
        let ha = self.response(a, layout);
        let hb = self.response(b, layout);
        ha.iter()
            .zip(hb.iter())
            .map(|(&x, &y)| (x - y).abs())
            .sum::<f64>()
            / ha.len() as f64
    }

    /// Per-subcarrier noise variance relative to unit TX power.
    pub fn noise_var(&self) -> f64 {
        self.medium.noise_var
    }

    /// Link SNR if the receiver opened a different bandwidth: the noise
    /// floor grows 3 dB per doubling, the signal does not (the query's
    /// energy is spread, not increased). Used by the query designer when
    /// sweeping 40/80 MHz operation.
    pub fn snr_db_at(&self, bandwidth_hz: f64) -> f64 {
        self.snr_db() - 10.0 * (bandwidth_hz / BANDWIDTH_HZ).log10()
    }

    /// Link SNR in dB (direct + environmental power over noise).
    pub fn snr_db(&self) -> f64 {
        let sig = self.direct.amplitude.norm_sqr()
            + self.env.iter().map(|r| r.amplitude.norm_sqr()).sum::<f64>();
        10.0 * (sig / self.medium.noise_var).log10()
    }

    /// Received power at the tag (dBm) during a symbol with mean TX power
    /// `sym_power` (relative to 1.0) — drives the envelope detector.
    pub fn tag_incident_dbm(&self, sym_power: f64) -> f64 {
        TX_POWER_DBM + 10.0 * (self.tag_incident_amplitude.powi(2) * sym_power.max(1e-12)).log10()
    }

    /// Advance environment time by `dt`: environmental ray phases random-
    /// walk with the channel's coherence time (people moving, doors…).
    pub fn advance(&mut self, dt: Duration) {
        let rots = self.medium.drift(dt, self.env.len());
        for (ray, rot) in self.env.iter_mut().zip(rots) {
            ray.amplitude *= rot;
        }
    }

    /// Pass a single-stream PPDU through the channel with the given tag
    /// schedule, returning what the receiver sees (channel applied +
    /// noise + interference bursts). `schedule.data` must cover every
    /// DATA symbol.
    ///
    /// # Panics
    ///
    /// If the PPDU is not single-stream, if `schedule` is short, or if a
    /// symbol does not carry one sample per occupied tone.
    pub fn apply_ppdu(&mut self, ppdu: &Ppdu, schedule: &TagSchedule) -> Ppdu {
        let h = PpduResponses::new(ppdu, schedule, |mode, freqs| self.response_at(mode, freqs));
        self.medium
            .apply_ppdu(ppdu, &h, core::slice::from_ref(&self.direct))
    }

    /// Pass a legacy (non-HT) PPDU through the channel with the tag held
    /// in a constant state — how control responses like block ACKs travel.
    /// Short control frames get AWGN only (an interference burst hitting
    /// the 32 µs BA is folded into the data-frame interference process).
    ///
    /// # Panics
    ///
    /// If a symbol does not carry one stream of the legacy tone count.
    pub fn apply_legacy(&mut self, ppdu: &LegacyPpdu, mode: TagMode) -> LegacyPpdu {
        let h = self.response_at(mode, LegacyLayout::cached().freq_offsets_hz());
        check_shape(core::iter::once(&ppdu.ltf).chain(&ppdu.symbols), &h, 1);
        LegacyPpdu {
            rate: ppdu.rate,
            psdu_len: ppdu.psdu_len,
            ltf: self.medium.mix(&ppdu.ltf, &h, 1, 0.0),
            symbols: ppdu
                .symbols
                .iter()
                .map(|s| self.medium.mix(s, &h, 1, 0.0))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::mcs::Mcs;
    use witag_phy::ppdu::{transmit, PhyConfig};
    use witag_phy::receiver::receive;

    fn quiet_cfg() -> LinkConfig {
        LinkConfig {
            interference_rate_hz: 0.0,
            ..LinkConfig::default()
        }
    }

    fn los_link(tag: Option<Point2>, cfg: LinkConfig, seed: u64) -> Link {
        let fp = Floorplan::paper_testbed();
        Link::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            tag,
            cfg,
            seed,
        )
    }

    #[test]
    fn los_snr_is_high() {
        let link = los_link(None, quiet_cfg(), 1);
        let snr = link.snr_db();
        assert!(
            (40.0..65.0).contains(&snr),
            "8 m LOS at 15 dBm should be ~50 dB SNR, got {snr}"
        );
    }

    #[test]
    fn nlos_b_snr_much_lower_than_a() {
        let fp = Floorplan::paper_testbed();
        let cfg = quiet_cfg();
        let a = Link::new(
            &fp,
            Floorplan::nlos_a_client_position(),
            Floorplan::ap_position(),
            None,
            cfg.clone(),
            2,
        );
        let b = Link::new(
            &fp,
            Floorplan::nlos_b_client_position(),
            Floorplan::ap_position(),
            None,
            cfg,
            2,
        );
        // B is ~10 m further and behind heavier construction; the paper
        // still operated there, so the gap is a handful of dB, not tens.
        assert!(
            a.snr_db() > b.snr_db() + 2.0,
            "A {} dB should beat B {} dB clearly",
            a.snr_db(),
            b.snr_db()
        );
    }

    #[test]
    fn end_to_end_decode_over_quiet_channel() {
        let mut link = los_link(None, quiet_cfg(), 3);
        let config = PhyConfig::new(Mcs::ht(7));
        let psdu = vec![0xC3u8; 64];
        let tx = transmit(&config, &psdu);
        let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
        let rx = link.apply_ppdu(&tx, &schedule);
        let decoded = receive(&rx, link.noise_var());
        assert_eq!(decoded.bytes, psdu, "quiet LOS link must decode cleanly");
    }

    #[test]
    #[should_panic(expected = "every symbol must carry 1 streams of 56 tones")]
    fn a_short_stream_is_rejected_before_the_pass() {
        let mut link = los_link(None, quiet_cfg(), 3);
        let mut tx = transmit(&PhyConfig::new(Mcs::ht(7)), &[0xC3u8; 64]);
        tx.symbols[1].streams[0].pop();
        let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
        link.apply_ppdu(&tx, &schedule);
    }

    #[test]
    fn tag_phase_flip_corrupts_decode() {
        let tag_pos = Point2::new(1.8, 3.5); // 1 m from client at (0.8, 3.5)?? — near AP actually
        let mut link = los_link(Some(tag_pos), quiet_cfg(), 4);
        let config = PhyConfig::new(Mcs::ht(7));
        let psdu = vec![0x5Au8; 64];
        let tx = transmit(&config, &psdu);
        // Tag: 0° during LTF, flips to 180° for the whole DATA field.
        let schedule = TagSchedule {
            ltf: TagMode::Phase0,
            data: vec![TagMode::Phase180; tx.symbols.len()],
        };
        let rx = link.apply_ppdu(&tx, &schedule);
        let decoded = receive(&rx, link.noise_var());
        assert_ne!(decoded.bytes, psdu, "tag flip must corrupt the frame");

        // Control: tag holds 0° throughout -> clean decode.
        let mut link2 = los_link(Some(tag_pos), quiet_cfg(), 4);
        let idle = TagSchedule::constant(TagMode::Phase0, tx.symbols.len());
        let rx2 = link2.apply_ppdu(&tx, &idle);
        let decoded2 = receive(&rx2, link2.noise_var());
        assert_eq!(decoded2.bytes, psdu, "steady tag must not corrupt");
    }

    #[test]
    fn phase_flip_doubles_channel_displacement_vs_ook() {
        // Paper §5.2 / Figure 3: |h(0°) − h(180°)| = 2·|tag ray| while
        // |h(short) − h(open)| = |tag ray|.
        let link = los_link(Some(Point2::new(4.8, 3.5)), quiet_cfg(), 5);
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let ook = link.tag_delta_magnitude(TagMode::ShortCircuit, TagMode::OpenCircuit, &layout);
        let flip = link.tag_delta_magnitude(TagMode::Phase0, TagMode::Phase180, &layout);
        assert!(
            (flip / ook - 2.0).abs() < 1e-9,
            "flip {flip} should be exactly 2× OOK {ook}"
        );
    }

    #[test]
    fn tag_displacement_minimised_at_midpoint() {
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let client = Floorplan::los_client_position();
        let ap = Floorplan::ap_position();
        let delta_at = |frac: f64| {
            let link = los_link(Some(client.lerp(ap, frac)), quiet_cfg(), 6);
            link.tag_delta_magnitude(TagMode::Phase0, TagMode::Phase180, &layout)
        };
        let near = delta_at(0.125); // 1 m from client
        let mid = delta_at(0.5);
        let far = delta_at(0.875); // 1 m from AP
        assert!(near > mid && far > mid, "U-shape: {near} / {mid} / {far}");
    }

    #[test]
    fn coherence_scale_accelerates_decorrelation_and_is_inert_at_one() {
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let mut nominal = los_link(None, quiet_cfg(), 7);
        let mut collapsed = los_link(None, quiet_cfg(), 7);
        collapsed.set_coherence_scale(100.0);
        let h0 = nominal.response(TagMode::Absent, &layout);
        nominal.advance(Duration::millis(5));
        collapsed.advance(Duration::millis(5));
        let dist = |h: &[Complex64]| -> f64 {
            h0.iter().zip(h).map(|(a, b)| (*a - *b).abs()).sum::<f64>() / h0.len() as f64
        };
        let dn = dist(&nominal.response(TagMode::Absent, &layout));
        let dc = dist(&collapsed.response(TagMode::Absent, &layout));
        assert!(
            dc > dn * 3.0,
            "100× collapse must fade much faster: {dc} vs {dn}"
        );

        // Scale 1.0 must be bit-identical to an untouched link.
        let mut a = los_link(None, quiet_cfg(), 9);
        let mut b = los_link(None, quiet_cfg(), 9);
        b.set_coherence_scale(1.0);
        a.advance(Duration::millis(3));
        b.advance(Duration::millis(3));
        assert_eq!(
            a.response(TagMode::Absent, &layout),
            b.response(TagMode::Absent, &layout)
        );
    }

    #[test]
    fn advance_decorrelates_channel_over_coherence_time() {
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let mut link = los_link(None, quiet_cfg(), 7);
        let h0 = link.response(TagMode::Absent, &layout);
        link.advance(Duration::millis(1));
        let h1 = link.response(TagMode::Absent, &layout);
        link.advance(Duration::millis(500)); // 5× coherence time
        let h2 = link.response(TagMode::Absent, &layout);
        let d01: f64 = h0
            .iter()
            .zip(&h1)
            .map(|(a, b)| (*a - *b).abs())
            .sum::<f64>()
            / h0.len() as f64;
        let d02: f64 = h0
            .iter()
            .zip(&h2)
            .map(|(a, b)| (*a - *b).abs())
            .sum::<f64>()
            / h0.len() as f64;
        assert!(
            d02 > d01 * 3.0,
            "long-horizon drift {d02} must exceed short-horizon {d01}"
        );
    }

    #[test]
    fn interference_bursts_cause_losses() {
        // Crank interference way up: decodes must fail sometimes even
        // without a tag.
        let cfg = LinkConfig {
            interference_rate_hz: 4000.0,
            interference_duration_s: 300e-6,
            interference_rel_db: 10.0,
            ..LinkConfig::default()
        };
        let mut link = los_link(None, cfg, 8);
        let config = PhyConfig::new(Mcs::ht(7));
        let psdu = vec![0x11u8; 64];
        let tx = transmit(&config, &psdu);
        let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
        let mut failures = 0;
        for _ in 0..40 {
            let rx = link.apply_ppdu(&tx, &schedule);
            if receive(&rx, link.noise_var()).bytes != psdu {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "saturating interference must cause some losses"
        );
    }

    #[test]
    fn tag_incident_power_reasonable() {
        let link = los_link(Some(Point2::new(7.8, 3.5)), quiet_cfg(), 10);
        let p = link.tag_incident_dbm(1.0);
        // 1 m from a 15 dBm transmitter: ≈ 15 − 40 = −25 dBm.
        assert!((-32.0..-18.0).contains(&p), "got {p} dBm");
    }

    #[test]
    fn legacy_block_ack_roundtrips_through_channel() {
        use witag_phy::legacy::{legacy_receive, legacy_transmit, LegacyRate};
        let mut link = los_link(Some(Point2::new(7.8, 3.5)), quiet_cfg(), 21);
        let psdu = vec![0x5Cu8; 32];
        let tx = legacy_transmit(LegacyRate::M24, &psdu);
        let rx = link.apply_legacy(&tx, TagMode::Phase0);
        assert_eq!(legacy_receive(&rx, link.noise_var()), psdu);
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn short_schedule_rejected() {
        let mut link = los_link(None, quiet_cfg(), 11);
        let config = PhyConfig::new(Mcs::ht(0));
        let tx = transmit(&config, &[0u8; 100]);
        let schedule = TagSchedule::constant(TagMode::Absent, 1);
        let _ = link.apply_ppdu(&tx, &schedule);
    }
}
