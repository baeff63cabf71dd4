//! Matrix MIMO channel: per-subcarrier `Nss×Nss` responses with a rank-1
//! backscatter tag.
//!
//! A [`MimoLink`] models antenna arrays at both ends of the channel a
//! [`Link`](crate::Link) models between single antennas. The two share
//! the radio, the scatterer placement, the noise floor, the interference
//! bursts, the phase drift and the PPDU pass (`y_j = Σ_i H_ji·x_i +
//! noise` per tone, of which the scalar link is the 1×1 case); only the
//! ray model differs. Each TX element `i` → RX element `j` pair gets its
//! own ray sum, so the channel at subcarrier offset `f` is a full
//! complex matrix `H(f)` rather than a scalar:
//!
//! * the **direct paths** carry per-element geometric phases from the
//!   exact element-to-element distances (λ/2 spacing). In pure LOS
//!   these phases are nearly equal across the array, so the direct
//!   matrix is close to rank-1 — the classical reason LOS MIMO is
//!   ill-conditioned and spatial multiplexing leans on scattering;
//! * **environmental rays** contribute correlated Rayleigh gains per
//!   antenna pair: `g_ji = a·(√ρ·c + √(1−ρ)·z_ji)` with a shared complex
//!   component `c` and i.i.d. per-pair components `z_ji` (ρ = 0.25).
//!   These supply the rank that makes ZF/MMSE separation possible;
//! * the **tag ray** is an *exactly rank-1* perturbation: the tag is one
//!   physical scatterer, so its contribution factors as an outer product
//!   `u_j·v_i` of the RX-side and TX-side hop responses (the two-hop
//!   [`crate::pathloss::backscatter_amplitude`] is separable in the hop
//!   distances). When the tag flips its switch state, **every entry of
//!   `H` moves at once** — the MOXcatter observation that a single backscatter
//!   reflector leaks across all spatial streams simultaneously, which is
//!   what makes WiTAG-style modulation MIMO-agnostic (paper §4).
//!
//! Determinism mirrors [`Link`](crate::Link): everything is seeded, and a
//! given `(floorplan, positions, config, seed)` tuple reproduces the same
//! matrices bit-for-bit.

use crate::link::{LinkConfig, TagMode, TagSchedule};
use crate::medium::{Medium, PpduResponses, Ray, CARRIER_HZ, TAG_FIELD_GAIN};
use crate::pathloss::{db_to_linear, freespace_amplitude, wavelength, SPEED_OF_LIGHT};
use witag_phy::complex::{c64, Complex64};
use witag_phy::mimo::MimoEqualiser;
use witag_phy::params::SubcarrierLayout;
use witag_phy::ppdu::Ppdu;
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::time::Duration;

/// Inter-pair correlation ρ of the environmental Rayleigh gains:
/// lightly correlated indoor arrays (`0` would be i.i.d. fading per
/// antenna pair, `1` fully correlated, a keyhole).
const CORRELATION: f64 = 0.25;

/// The former name of a [`MimoLink`]'s parameters, which are a scalar
/// link's: use [`LinkConfig`] (and [`LinkConfig::rich_scattering`]).
pub type MimoLinkConfig = LinkConfig;

/// An environmental ray: one excess delay shared by the array, plus a
/// correlated-Rayleigh complex gain per antenna pair (`gains[j*nss+i]`).
#[derive(Debug, Clone)]
struct EnvRay {
    delay: f64,
    gains: Vec<Complex64>,
}

/// The tag's rank-1 contribution: `ΔH_ji = u[j]·v[i]·e^{−j2πfτ}·coeff`.
#[derive(Debug, Clone)]
struct TagRay {
    /// RX-side hop factors (one per RX element).
    u: Vec<Complex64>,
    /// TX-side hop factors (one per TX element), carrying the scatterer
    /// gain and penetration losses.
    v: Vec<Complex64>,
    /// Excess delay of the centre two-hop path (s).
    delay: f64,
}

/// A TX array → RX array channel with an optional backscatter tag.
#[derive(Debug, Clone)]
pub struct MimoLink {
    medium: Medium,
    nss: usize,
    /// `direct[j * nss + i]`: TX element `i` → RX element `j`, delays
    /// in excess of the array-centre direct path.
    direct: Vec<Ray>,
    env: Vec<EnvRay>,
    tag: Option<TagRay>,
}

/// Antenna element positions: a uniform linear array centred on `at`,
/// laid out perpendicular to the link axis `axis` (broadside).
fn element_positions(at: Point2, axis: (f64, f64), n: usize, spacing: f64) -> Vec<Point2> {
    let norm = (axis.0 * axis.0 + axis.1 * axis.1).sqrt();
    let (px, py) = if norm > 1e-12 {
        (-axis.1 / norm, axis.0 / norm)
    } else {
        (0.0, 1.0)
    };
    (0..n)
        .map(|k| {
            let off = (k as f64 - (n as f64 - 1.0) / 2.0) * spacing;
            Point2::new(at.x + off * px, at.y + off * py)
        })
        .collect()
}

impl MimoLink {
    /// Build an `nss`-antenna link inside `floorplan` from `tx` to `rx`
    /// (array centres), with an optional tag at `tag_pos`. Elements sit
    /// λ/2 apart at the carrier, at both ends. Deterministic in `seed`.
    pub fn new(
        floorplan: &Floorplan,
        tx: Point2,
        rx: Point2,
        tag_pos: Option<Point2>,
        nss: usize,
        cfg: LinkConfig,
        seed: u64,
    ) -> Self {
        assert!((1..=4).contains(&nss), "1–4 antennas per end, got {nss}");
        let mut medium = Medium::new(cfg, seed);
        let f = CARRIER_HZ;
        let spacing = wavelength(f) / 2.0;
        let axis = (rx.x - tx.x, rx.y - tx.y);
        let tx_el = element_positions(tx, axis, nss, spacing);
        let rx_el = element_positions(rx, axis, nss, spacing);

        // Direct paths: exact element-to-element geometry. Obstacle
        // penetration is evaluated once at the array centres (the array
        // aperture is centimetres; walls do not resolve it).
        let d_ref = tx.distance(rx);
        let pen_amp = db_to_linear(-floorplan.penetration_loss_db(tx, rx)).sqrt();
        let mut direct = Vec::with_capacity(nss * nss);
        for rj in &rx_el {
            for ti in &tx_el {
                let d = ti.distance(*rj);
                direct.push(Ray {
                    amplitude: Complex64::from_polar(
                        freespace_amplitude(d, f) * pen_amp,
                        -2.0 * core::f64::consts::PI * f * (d / SPEED_OF_LIGHT),
                    ),
                    delay: (d - d_ref) / SPEED_OF_LIGHT,
                });
            }
        }
        let direct_amp = freespace_amplitude(d_ref, f) * pen_amp;
        let direct_delay = d_ref / SPEED_OF_LIGHT;

        // Environmental rays, each with a correlated-Rayleigh gain per
        // antenna pair: a shared component (the ray's bulk complex gain)
        // and i.i.d. CN(0,1) per-pair scatter around it.
        let (wc, wz) = (CORRELATION.sqrt(), (1.0 - CORRELATION).sqrt());
        let env = medium.scatterers(
            floorplan,
            (tx, rx),
            (direct_amp, direct_delay),
            |rng, amp, delay| {
                let common = c64(
                    rng.gaussian() / core::f64::consts::SQRT_2,
                    rng.gaussian() / core::f64::consts::SQRT_2,
                );
                let gains = (0..nss * nss)
                    .map(|_| {
                        let z = c64(
                            rng.gaussian() / core::f64::consts::SQRT_2,
                            rng.gaussian() / core::f64::consts::SQRT_2,
                        );
                        (common * wc + z * wz) * amp
                    })
                    .collect();
                EnvRay { delay, gains }
            },
        );

        // Tag ray: exactly rank-1. backscatter_amplitude(ds, dr, …) is
        // separable in the hop distances, so the per-pair amplitude
        // factors as s(ds_i)·r(dr_j); the carrier phases factor the same
        // way. The full scatterer gain (and two-hop penetration loss)
        // rides on the TX-side factor.
        let tag = tag_pos.map(|p| {
            let pen = floorplan.penetration_loss_db(tx, p) + floorplan.penetration_loss_db(p, rx);
            let k = TAG_FIELD_GAIN * 4.0 * core::f64::consts::PI / wavelength(f)
                * db_to_linear(-pen).sqrt();
            let hop = |el: &Point2, gain: f64| {
                let d = el.distance(p);
                Complex64::from_polar(
                    gain * freespace_amplitude(d, f),
                    -2.0 * core::f64::consts::PI * f * d / SPEED_OF_LIGHT,
                )
            };
            TagRay {
                u: rx_el.iter().map(|rj| hop(rj, 1.0)).collect(),
                v: tx_el.iter().map(|ti| hop(ti, k)).collect(),
                delay: ((tx.distance(p) + p.distance(rx)) / SPEED_OF_LIGHT) - direct_delay,
            }
        });

        MimoLink {
            medium,
            nss,
            direct,
            env,
            tag,
        }
    }

    /// Per-subcarrier complex noise variance relative to unit TX power
    /// (per RX antenna).
    pub fn noise_var(&self) -> f64 {
        self.medium.noise_var
    }

    /// The channel matrix at baseband offsets `freqs_hz` for a tag switch
    /// state, flattened as `h[pos·nss² + j·nss + i]` (RX antenna `j`, TX
    /// stream `i`) — the layout `witag_phy::mimo` uses.
    fn response_at(&self, mode: TagMode, freqs_hz: &[f64]) -> Vec<Complex64> {
        let n = self.nss;
        let coeff = mode.coefficient();
        let mut out = vec![Complex64::ZERO; freqs_hz.len() * n * n];
        for (block, &f) in out.chunks_exact_mut(n * n).zip(freqs_hz) {
            for (e, ray) in block.iter_mut().zip(self.direct.iter()) {
                *e = ray.at(f);
            }
            for ray in &self.env {
                let rot = Complex64::from_polar(1.0, -2.0 * core::f64::consts::PI * f * ray.delay);
                for (e, g) in block.iter_mut().zip(ray.gains.iter()) {
                    *e += *g * rot;
                }
            }
            if let Some(tag) = &self.tag {
                if coeff != Complex64::ZERO {
                    let rot = coeff
                        * Complex64::from_polar(1.0, -2.0 * core::f64::consts::PI * f * tag.delay);
                    for (row, uj) in block.chunks_exact_mut(n).zip(&tag.u) {
                        for (e, vi) in row.iter_mut().zip(&tag.v) {
                            *e += *uj * *vi * rot;
                        }
                    }
                }
            }
        }
        out
    }

    /// The channel matrices on every occupied subcarrier of `layout`.
    pub fn response(&self, mode: TagMode, layout: &SubcarrierLayout) -> Vec<Complex64> {
        self.response_at(mode, layout.freq_offsets_hz())
    }

    /// Mean per-RX-antenna link SNR in dB (direct + environmental power
    /// over noise) — the pre-equalisation figure.
    pub fn snr_db(&self) -> f64 {
        let n = self.nss as f64;
        let mut sig = self
            .direct
            .iter()
            .map(|r| r.amplitude.norm_sqr())
            .sum::<f64>();
        for ray in &self.env {
            sig += ray.gains.iter().map(|g| g.norm_sqr()).sum::<f64>();
        }
        10.0 * ((sig / n) / self.medium.noise_var).log10()
    }

    /// Advance environment time by `dt`: each environmental ray's gains
    /// random-walk in phase with the channel's coherence time. The
    /// rotation is common to all antenna pairs of a ray (the scatterer
    /// moves; the array geometry does not), preserving ρ.
    pub fn advance(&mut self, dt: Duration) {
        let rots = self.medium.drift(dt, self.env.len());
        for (ray, rot) in self.env.iter_mut().zip(rots) {
            for g in &mut ray.gains {
                *g *= rot;
            }
        }
    }

    /// Measured post-equalisation SNR per stream (dB, length `k`) when
    /// operating `k ≤ nss` spatial streams through this channel with
    /// equaliser `eq`. For each subcarrier the top-left `k×k` submatrix
    /// of `H` (the first `k` RF chains at each end) is equalised and the
    /// per-stream signal-to-(noise + residual-interference) ratio is
    /// accumulated; subcarriers where the submatrix is singular count as
    /// zero SNR. This is the actual separation cost of this channel that
    /// [`Mcs::required_snr_db`](witag_phy::mcs::Mcs::required_snr_db)'s
    /// +3 dB/stream bookkeeping stands in for.
    pub fn post_eq_snr_db(
        &self,
        k: usize,
        eq: MimoEqualiser,
        layout: &SubcarrierLayout,
    ) -> Vec<f64> {
        assert!(
            (1..=self.nss).contains(&k),
            "1..={} streams, got {k}",
            self.nss
        );
        let h_full = self.response(TagMode::Absent, layout);
        let n = self.nss;
        let n_pos = layout.n_occupied();
        let mut acc = vec![0.0f64; k];
        let mut hsub = [Complex64::ZERO; 16];
        let mut w = [Complex64::ZERO; 16];
        for pos in 0..n_pos {
            let block = &h_full[pos * n * n..(pos + 1) * n * n];
            for j in 0..k {
                for i in 0..k {
                    hsub[j * k + i] = block[j * n + i]; // lint:allow(panic_path) j,i < k <= n; hsub is MAX*MAX, block is n*n
                }
            }
            if !eq.weights(&hsub[..k * k], k, self.medium.noise_var, &mut w) {
                continue; // singular: contributes zero SNR on this tone
            }
            for (si, a) in acc.iter_mut().enumerate() {
                let mut sig = 0.0;
                let mut isi = 0.0;
                for m in 0..k {
                    // (W·H)[si][m]
                    let mut wh = Complex64::ZERO;
                    for j in 0..k {
                        wh += w[si * k + j] * hsub[j * k + m]; // lint:allow(panic_path) si,j,m < k; w and hsub are MAX*MAX with k <= MAX
                    }
                    if m == si {
                        sig = wh.norm_sqr();
                    } else {
                        isi += wh.norm_sqr();
                    }
                }
                let nz: f64 = (0..k).map(|j| w[si * k + j].norm_sqr()).sum::<f64>() // lint:allow(panic_path) si,j < k; w is MAX*MAX with k <= MAX
                    * self.medium.noise_var;
                *a += sig / (isi + nz);
            }
        }
        acc.iter()
            .map(|&s| 10.0 * (s / n_pos as f64).max(1e-30).log10())
            .collect()
    }

    /// Pass a PPDU through the matrix channel with the given tag
    /// schedule: `y_j = Σ_i H_ji·x_i + AWGN` per subcarrier, with
    /// Poisson interference bursts as in the scalar link. The tag holds
    /// `schedule.ltf` across the entire training field (it cannot see
    /// HT-LTF symbol boundaries).
    ///
    /// # Panics
    ///
    /// If the PPDU's stream count does not match the array size, if
    /// `schedule` is short, or if a symbol does not carry one sample per
    /// occupied tone on every stream.
    pub fn apply_ppdu(&mut self, ppdu: &Ppdu, schedule: &TagSchedule) -> Ppdu {
        let h = PpduResponses::new(ppdu, schedule, |mode, freqs| self.response_at(mode, freqs));
        self.medium.apply_ppdu(ppdu, &h, &self.direct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::mcs::Mcs;
    use witag_phy::params::Bandwidth;
    use witag_phy::ppdu::{transmit, PhyConfig};
    use witag_phy::receiver::receive;

    fn quiet_cfg() -> LinkConfig {
        LinkConfig {
            interference_rate_hz: 0.0,
            ..LinkConfig::rich_scattering()
        }
    }

    fn testbed_link(nss: usize, tag: Option<Point2>, seed: u64) -> MimoLink {
        let fp = Floorplan::paper_testbed();
        MimoLink::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            tag,
            nss,
            quiet_cfg(),
            seed,
        )
    }

    #[test]
    fn same_seed_reproduces_matrices_bitwise() {
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let a = testbed_link(3, Some(Point2::new(2.0, 3.5)), 7);
        let b = testbed_link(3, Some(Point2::new(2.0, 3.5)), 7);
        assert_eq!(
            a.response(TagMode::Phase0, &layout),
            b.response(TagMode::Phase0, &layout)
        );
    }

    #[test]
    fn tag_flip_perturbs_every_matrix_entry() {
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let link = testbed_link(2, Some(Point2::new(2.0, 3.5)), 9);
        let h0 = link.response(TagMode::Phase0, &layout);
        let h1 = link.response(TagMode::Phase180, &layout);
        for (e0, e1) in h0.iter().zip(h1.iter()) {
            assert!(
                (*e0 - *e1).abs() > 0.0,
                "a single reflector must move every H entry"
            );
        }
    }

    #[test]
    fn tag_delta_is_exactly_rank_one() {
        // ΔH = H(0°) − H(180°) = 2·(tag ray): det(ΔH) must vanish for the
        // 2×2 case on every subcarrier (up to float noise).
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let link = testbed_link(2, Some(Point2::new(2.0, 3.5)), 11);
        let h0 = link.response(TagMode::Phase0, &layout);
        let h1 = link.response(TagMode::Phase180, &layout);
        for pos in 0..layout.n_occupied() {
            let d: Vec<Complex64> = (0..4).map(|k| h0[pos * 4 + k] - h1[pos * 4 + k]).collect();
            let det = d[0] * d[3] - d[1] * d[2];
            let scale = d.iter().map(|e| e.norm_sqr()).sum::<f64>();
            assert!(
                det.abs() <= 1e-9 * scale.max(1e-300),
                "pos {pos}: det {det:?} vs scale {scale}"
            );
        }
    }

    #[test]
    fn multi_stream_decode_through_nondiagonal_channel() {
        // MCS 8–23 (2 and 3 streams) survive a real scattering channel
        // end-to-end with both equalisers.
        for &idx in &[8usize, 15, 16, 23] {
            let mcs = Mcs::ht(idx);
            for eq in [MimoEqualiser::Zf, MimoEqualiser::Mmse] {
                let mut link = testbed_link(mcs.spatial_streams, None, 20 + idx as u64);
                let mut config = PhyConfig::new(mcs);
                config.equaliser = eq;
                let psdu = vec![0xA7u8; 96];
                let tx = transmit(&config, &psdu);
                let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
                let rx = link.apply_ppdu(&tx, &schedule);
                let decoded = receive(&rx, link.noise_var());
                assert_eq!(
                    decoded.bytes,
                    psdu,
                    "MCS {idx} via {} must decode over quiet scattering link",
                    eq.name()
                );
            }
        }
    }

    #[test]
    fn stream_count_heuristic_matches_measured_penalty() {
        // Mcs::required_snr_db budgets +3 dB per extra stream. Measure
        // the real separation cost on scattering channels: the worst
        // stream's post-equalisation SNR sits below the link's raw
        // per-antenna SNR by a penalty that must be positive (separation
        // is never free) and of the heuristic's order. (Comparing
        // against the single 1×1 pair instead would be misleading — a
        // 2×2 equaliser also buys receive diversity, so that difference
        // can go negative on fade-prone pairs.)
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let mut penalties = Vec::new();
        for seed in 0..8u64 {
            let link = testbed_link(2, None, 40 + seed);
            let s2 = link
                .post_eq_snr_db(2, MimoEqualiser::Mmse, &layout)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            penalties.push(link.snr_db() - s2);
        }
        let lo = penalties.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = penalties.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = penalties.iter().sum::<f64>() / penalties.len() as f64;
        assert!(lo > 0.0, "second stream must cost SNR, min penalty {lo} dB");
        assert!(
            mean > 1.0 && mean < 15.0,
            "mean measured penalty {mean} dB should be the +3 dB heuristic's order"
        );
        assert!(
            lo - 1.0 < 3.0 && 3.0 < hi + 1.0,
            "the +3 dB constant should sit inside the measured envelope [{lo}, {hi}]"
        );
    }

    #[test]
    fn advance_preserves_ray_power() {
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let mut link = testbed_link(2, None, 80);
        let p0: f64 = link
            .response(TagMode::Absent, &layout)
            .iter()
            .map(|h| h.norm_sqr())
            .sum();
        link.advance(Duration::millis(50));
        let p1: f64 = link
            .response(TagMode::Absent, &layout)
            .iter()
            .map(|h| h.norm_sqr())
            .sum();
        // Phase random-walk moves the sum around (rays re-interfere) but
        // the per-ray powers are unchanged; totals stay the same order.
        assert!(p1 > p0 * 0.05 && p1 < p0 * 20.0);
    }
}
