//! The legacy (non-HT) OFDM PHY — clause 17 of 802.11-2016.
//!
//! Control responses (ACKs, block ACKs) and the trigger marker frames are
//! transmitted in this format: 48 data subcarriers, 16-column interleaver,
//! rates 6–54 Mbps, 20 µs preamble. Implementing it for real lets the
//! experiment put the block ACK through an actual reverse-channel decode
//! (instead of a loss probability), and gives the marker frames a concrete
//! on-air identity.
//!
//! The chain shares every component with the HT path (scrambler, coder,
//! constellations) but uses the legacy tone plan and interleaver
//! dimensions.

use crate::complex::Complex64;
use crate::convolutional::encode_stream_punctured;
use crate::interleaver::InterleaverDims;
use crate::mcs::{CodeRate, Modulation};
use crate::params::timing;
use crate::ppdu::{data_field_bits, OfdmSymbol, SymbolMapper};
use crate::receiver::RxScratch;
use std::sync::LazyLock;
use witag_sim::time::Duration;

pub use crate::airtime::LegacyRate;

/// Legacy tone plan: subcarriers −26…26 without DC; pilots at ±7, ±21.
#[derive(Debug, Clone)]
pub struct LegacyLayout {
    /// Baseband frequency (Hz) of each occupied subcarrier, storage order.
    freq_offsets_hz: Vec<f64>,
    data_positions: Vec<usize>,
    pilot_positions: Vec<usize>,
}

impl Default for LegacyLayout {
    fn default() -> Self {
        Self::new()
    }
}

// Backing store for [`LegacyLayout::cached`]: the clause-17 tone plan is
// a compile-time constant, built at most once per process (the builder
// otherwise only runs from tests).
static LEGACY_LAYOUT: LazyLock<LegacyLayout> = LazyLock::new(LegacyLayout::new);

impl LegacyLayout {
    /// Build the clause-17 tone plan.
    pub fn new() -> Self {
        let pilots = [-21i32, -7, 7, 21];
        let indices: Vec<i32> = (-26..=26).filter(|&k| k != 0).collect();
        let mut data_positions = Vec::new();
        let mut pilot_positions = Vec::new();
        for (pos, &k) in indices.iter().enumerate() {
            if pilots.contains(&k) {
                pilot_positions.push(pos);
            } else {
                data_positions.push(pos);
            }
        }
        LegacyLayout {
            freq_offsets_hz: indices.iter().map(|&k| k as f64 * 312_500.0).collect(),
            data_positions,
            pilot_positions,
        }
    }

    /// Process-lifetime cached tone plan (the receive chain used to
    /// rebuild the three position vectors on every call).
    pub fn cached() -> &'static LegacyLayout {
        &LEGACY_LAYOUT
    }

    /// Occupied subcarrier count (52).
    pub fn n_occupied(&self) -> usize {
        self.freq_offsets_hz.len()
    }

    /// Data-bearing storage positions (48).
    pub fn data_positions(&self) -> &[usize] {
        &self.data_positions
    }

    /// Pilot storage positions (4).
    pub fn pilot_positions(&self) -> &[usize] {
        &self.pilot_positions
    }

    /// Baseband frequency (Hz) of every occupied subcarrier, in storage
    /// order.
    pub fn freq_offsets_hz(&self) -> &[f64] {
        &self.freq_offsets_hz
    }
}

impl LegacyRate {
    /// Constellation for this rate.
    pub fn modulation(self) -> Modulation {
        match self {
            LegacyRate::M6 | LegacyRate::M9 => Modulation::Bpsk,
            LegacyRate::M12 | LegacyRate::M18 => Modulation::Qpsk,
            LegacyRate::M24 | LegacyRate::M36 => Modulation::Qam16,
            LegacyRate::M48 | LegacyRate::M54 => Modulation::Qam64,
        }
    }

    /// Code rate for this rate.
    pub fn code_rate(self) -> CodeRate {
        match self {
            LegacyRate::M6 | LegacyRate::M12 | LegacyRate::M24 => CodeRate::R12,
            LegacyRate::M48 => CodeRate::R23,
            LegacyRate::M9 | LegacyRate::M18 | LegacyRate::M36 | LegacyRate::M54 => CodeRate::R34,
        }
    }
}

/// A legacy PPDU in frequency-domain form (single stream).
#[derive(Debug, Clone)]
pub struct LegacyPpdu {
    /// Transmission rate.
    pub rate: LegacyRate,
    /// PSDU length (signalled in L-SIG).
    pub psdu_len: usize,
    /// Long training symbol (all-ones, for channel estimation).
    pub ltf: OfdmSymbol,
    /// DATA symbols.
    pub symbols: Vec<OfdmSymbol>,
}

impl LegacyPpdu {
    /// Airtime: 20 µs preamble + 4 µs per DATA symbol.
    pub fn airtime(&self) -> Duration {
        timing::LEGACY_PREAMBLE + Duration::micros(4) * self.symbols.len() as u64
    }
}

const SCRAMBLER_SEED: u8 = 0x2F;

/// Transmit a PSDU in the legacy format.
pub fn legacy_transmit(rate: LegacyRate, psdu: &[u8]) -> LegacyPpdu {
    assert!(!psdu.is_empty(), "PSDU must be non-empty");
    let layout = LegacyLayout::cached();
    let ndbps = rate.ndbps();
    let n_sym = (16 + 8 * psdu.len() + 6).div_ceil(ndbps);

    let bits = data_field_bits(SCRAMBLER_SEED, psdu, n_sym * ndbps);
    let coded = encode_stream_punctured(&bits, rate.code_rate());
    let symbols = SymbolMapper::new(
        InterleaverDims::legacy(rate.modulation().bits_per_subcarrier()),
        rate.modulation(),
        1,
        layout.data_positions(),
        layout.pilot_positions(),
    )
    .symbols(&coded);

    LegacyPpdu {
        rate,
        psdu_len: psdu.len(),
        ltf: OfdmSymbol {
            streams: vec![vec![Complex64::ONE; layout.n_occupied()]],
        },
        symbols,
    }
}

/// Receive a legacy PPDU: estimate from the LTF, equalise, decode.
///
/// Malformed shapes never panic, by the rule of
/// [`crate::receiver::receive`]: decoding stops at the first DATA symbol
/// that lacks one of the 52 occupied subcarriers, an LTF that lacks one
/// leaves no symbol to decode, and the `psdu_len` bytes the decoded
/// symbols do not carry come back zero.
///
/// This is the allocating convenience wrapper (fresh scratch, fresh
/// output); [`legacy_receive_with_scratch`] reuses the working memory.
pub fn legacy_receive(rx: &LegacyPpdu, noise_var: f64) -> Vec<u8> {
    legacy_receive_with_scratch(rx, noise_var, &mut RxScratch::new())
}

/// [`legacy_receive`] with caller-provided working memory — same contract
/// as [`crate::receiver::receive_with_scratch`] (bit-identical results,
/// allocation-free steady state). An experiment shares one scratch
/// between the HT data chain and this legacy block-ACK chain; the
/// interleaver-permutation cache keeps both dimension sets warm.
pub fn legacy_receive_with_scratch(
    rx: &LegacyPpdu,
    noise_var: f64,
    scratch: &mut RxScratch,
) -> Vec<u8> {
    let mut out = Vec::new();
    let dims = InterleaverDims::legacy(rx.rate.modulation().bits_per_subcarrier());
    let perm = RxScratch::perm(&mut scratch.perms, dims);
    legacy_decode_core(rx, noise_var, perm, &mut scratch.bufs, &mut out);
    out
}

/// The legacy decode chain, given the cached interleaver permutation for
/// the PPDU's rate: its own front half (per-subcarrier divide by the LTF
/// estimate, no pilot tracking), then the shared
/// [`crate::receiver::decode_tail`].
// lint:no_alloc
fn legacy_decode_core(
    rx: &LegacyPpdu,
    noise_var: f64,
    perm: &crate::interleaver::InterleaverPerm,
    bufs: &mut crate::receiver::RxBufs,
    out: &mut Vec<u8>,
) {
    use crate::modulation::{axis_scale, demap_symbol_into};

    let modulation = rx.rate.modulation();
    let layout = LegacyLayout::cached();
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();
    // The shape check: the LTF and each decoded symbol must carry every
    // occupied subcarrier.
    let full = |sym: &OfdmSymbol| {
        sym.streams
            .first()
            .is_some_and(|s| s.len() >= layout.n_occupied())
    };
    let n_sym = if full(&rx.ltf) {
        rx.symbols.iter().take_while(|sym| full(sym)).count()
    } else {
        0
    };

    bufs.eq_streams
        .resize_with(bufs.eq_streams.len().max(1), Vec::new); // lint:allow(no_alloc)
    bufs.coded_llrs.clear();
    if n_sym > 0 {
        // Per-PPDU hoist of `1/h` and the demapper scales (the estimate
        // is static across the PPDU's symbols). `raw·h.inv()` is `raw/h`
        // bit for bit: complex division is multiplication by the inverse.
        let h = &rx.ltf.streams[0];
        bufs.w_mat.clear();
        bufs.w_mat.reserve(n_data);
        bufs.demap_scales.clear();
        bufs.demap_scales.reserve(n_data);
        for &pos in data_pos {
            let hv = h[pos];
            bufs.w_mat.push(hv.inv());
            bufs.demap_scales
                .push(axis_scale(modulation, noise_var / hv.norm_sqr().max(1e-9)));
        }
        bufs.coded_llrs.reserve(n_sym * perm.dims().n_cbps);
    }
    for sym in &rx.symbols[..n_sym] {
        let raw = &sym.streams[0];
        let eq = &mut bufs.eq_streams[0];
        eq.clear();
        eq.reserve(n_data);
        for (&pos, &w) in data_pos.iter().zip(bufs.w_mat.iter()) {
            eq.push(raw[pos] * w);
        }
        bufs.llrs_tx.clear();
        demap_symbol_into(eq, modulation, &bufs.demap_scales, &mut bufs.llrs_tx);
        perm.deinterleave_append(&bufs.llrs_tx, &mut bufs.coded_llrs);
    }

    out.clear();
    out.resize(rx.psdu_len, 0);
    crate::receiver::decode_tail(
        &bufs.coded_llrs,
        rx.rate.code_rate(),
        n_sym * rx.rate.ndbps(),
        SCRAMBLER_SEED,
        &mut bufs.viterbi,
        &mut bufs.bits,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use witag_sim::Rng;

    #[test]
    fn non_finite_samples_decode_like_the_two_step_path() {
        // Same contract as the HT receiver: NaN/±inf samples give bytes,
        // not a panic, identical to the two-step decode of the coded
        // stream left in the scratch.
        let mut scratch = RxScratch::new();
        let cases = [
            (LegacyRate::M6, f64::NAN, false),
            (LegacyRate::M18, f64::INFINITY, false),
            (LegacyRate::M48, f64::NEG_INFINITY, false),
            (LegacyRate::M54, f64::NAN, true),
        ];
        for (rate, poison, in_ltf) in cases {
            let psdu = vec![0x5Au8; 32];
            let mut ppdu = legacy_transmit(rate, &psdu);
            if in_ltf {
                ppdu.ltf.streams[0][10] = c64(poison, 0.0);
            } else {
                for sym in ppdu.symbols.iter_mut() {
                    for pt in sym.streams[0].iter_mut().step_by(5) {
                        *pt = c64(poison, 0.0);
                    }
                }
            }
            let got = legacy_receive_with_scratch(&ppdu, 1e-4, &mut scratch);
            assert!(
                scratch.bufs.coded_llrs.iter().any(|l| !l.is_finite()),
                "{rate:?}"
            );
            let n_total = ppdu.symbols.len() * rate.ndbps();
            let want = crate::receiver::two_step_decode(
                &scratch.bufs.coded_llrs,
                rate.code_rate(),
                n_total,
                SCRAMBLER_SEED,
                ppdu.psdu_len,
            );
            assert_eq!(got.len(), psdu.len(), "{rate:?}");
            assert_eq!(got, want, "{rate:?}");
        }
    }

    #[test]
    fn layout_counts() {
        let l = LegacyLayout::new();
        assert_eq!(l.n_occupied(), 52);
        assert_eq!(l.data_positions().len(), 48);
        assert_eq!(l.pilot_positions().len(), 4);
    }

    #[test]
    fn loopback_all_rates() {
        let mut rng = Rng::seed_from_u64(31);
        for rate in [
            LegacyRate::M6,
            LegacyRate::M9,
            LegacyRate::M12,
            LegacyRate::M18,
            LegacyRate::M24,
            LegacyRate::M36,
            LegacyRate::M48,
            LegacyRate::M54,
        ] {
            let mut psdu = vec![0u8; 32]; // block-ACK sized
            rng.fill_bytes(&mut psdu);
            let ppdu = legacy_transmit(rate, &psdu);
            assert_eq!(legacy_receive(&ppdu, 1e-6), psdu, "{rate:?}");
        }
    }

    #[test]
    fn block_ack_airtime_consistency() {
        // 32-byte BA at 24 Mbps must match the analytic airtime helper.
        let ppdu = legacy_transmit(LegacyRate::M24, &[0u8; 32]);
        assert_eq!(
            ppdu.airtime(),
            crate::airtime::block_ack_airtime(LegacyRate::M24)
        );
    }

    #[test]
    fn survives_noise_at_modest_snr() {
        let mut rng = Rng::seed_from_u64(32);
        let psdu = vec![0xB4u8; 32];
        let mut ppdu = legacy_transmit(LegacyRate::M24, &psdu);
        let noise_var: f64 = 0.005; // 23 dB SNR
        let std = (noise_var / 2.0).sqrt();
        for sym in ppdu
            .symbols
            .iter_mut()
            .chain(core::iter::once(&mut ppdu.ltf))
        {
            for pt in sym.streams[0].iter_mut() {
                *pt += c64(rng.gaussian() * std, rng.gaussian() * std);
            }
        }
        assert_eq!(legacy_receive(&ppdu, noise_var), psdu);
    }

    #[test]
    fn heavy_noise_corrupts() {
        let mut rng = Rng::seed_from_u64(33);
        let psdu = vec![0x22u8; 32];
        let mut ppdu = legacy_transmit(LegacyRate::M54, &psdu);
        let noise_var: f64 = 0.5; // 3 dB SNR, hopeless for 64-QAM
        let std = (noise_var / 2.0).sqrt();
        for sym in ppdu.symbols.iter_mut() {
            for pt in sym.streams[0].iter_mut() {
                *pt += c64(rng.gaussian() * std, rng.gaussian() * std);
            }
        }
        assert_ne!(legacy_receive(&ppdu, noise_var), psdu);
    }
}
