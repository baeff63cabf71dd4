//! Property-based tests for the PHY: the whole transmit chain and each
//! component must satisfy roundtrip/bijection invariants for *arbitrary*
//! inputs, not just the unit tests' examples.

use proptest::prelude::*;
use witag_phy::complex::{c64, Complex64};
use witag_phy::convolutional::{
    bits_to_llrs, decode_punctured, depuncture_into, encode_punctured, encode_stream, puncture,
    viterbi_decode_punctured_into, viterbi_decode_stream, viterbi_decode_stream_into, CodeRate,
    ViterbiScratch,
};
use witag_phy::interleaver::{deinterleave, interleave, InterleaverDims};
use witag_phy::mcs::{Mcs, Modulation};
use witag_phy::modulation::{demodulate_hard, modulate};
use witag_phy::params::Bandwidth;
use witag_phy::ppdu::{bits_to_bytes, bytes_to_bits, transmit, OfdmSymbol, PhyConfig};
use witag_phy::receiver::receive;
use witag_phy::scrambler::Scrambler;

fn bits(n: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=1, n)
}

fn any_rate() -> impl Strategy<Value = CodeRate> {
    prop_oneof![
        Just(CodeRate::R12),
        Just(CodeRate::R23),
        Just(CodeRate::R34),
        Just(CodeRate::R56),
    ]
}

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
        Just(Modulation::Qam256),
    ]
}

const ALL_RATES: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

/// Punctured length of an unterminated stream of `n_bits` information
/// bits at `rate`.
fn punctured_stream_len(n_bits: usize, rate: CodeRate) -> usize {
    puncture(&vec![0u8; 2 * n_bits], rate).len()
}

/// `n` LLRs drawn mostly from `alphabet` (small values make equal path
/// metrics, and so the decoder's tie-breaks, common), one in four from
/// arbitrary finite values.
fn llrs_from(rng: &mut witag_sim::Rng, alphabet: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if rng.next_u64().is_multiple_of(4) {
                rng.range_f64(-40.0, 40.0)
            } else {
                alphabet[(rng.next_u64() % alphabet.len() as u64) as usize]
            }
        })
        .collect()
}

/// The two-step reference: depuncture to the mother stream, then the
/// rate-1/2 stream decoder, on a fresh scratch.
fn two_step_decode(coded: &[f64], rate: CodeRate, n_bits: usize) -> Vec<u8> {
    let mut soft = Vec::new();
    depuncture_into(coded, rate, 2 * n_bits, &mut soft);
    let mut bits = Vec::new();
    viterbi_decode_stream_into(&soft, n_bits, &mut ViterbiScratch::default(), &mut bits);
    bits
}

/// Deform a received PPDU's symbol list (`symbols`), training symbols
/// (`ltfs`) or signalled scrambler seed into one of the malformed shapes
/// a receiver can be handed: `kind` picks the shape, `cut` where it bites.
fn malform(
    symbols: &mut Vec<OfdmSymbol>,
    ltfs: &mut Vec<OfdmSymbol>,
    scrambler_seed: Option<&mut u8>,
    kind: u8,
    cut: usize,
) {
    let pick = |v: &[OfdmSymbol]| cut % v.len().max(1);
    match kind {
        // A truncated symbol list, possibly empty.
        0 => symbols.truncate(pick(symbols)),
        1 => symbols.clear(),
        // A short sample vector in one DATA symbol.
        2 => {
            let i = pick(symbols);
            if let Some(s) = symbols[i].streams.last_mut() {
                s.truncate(cut % s.len().max(1));
            }
        }
        // A missing stream in one DATA symbol.
        3 => {
            let i = pick(symbols);
            symbols[i].streams.pop();
        }
        // Missing or short training symbols.
        4 => ltfs.truncate(pick(ltfs)),
        5 => {
            let i = pick(ltfs);
            if let Some(s) = ltfs[i].streams.first_mut() {
                s.truncate(cut % s.len().max(1));
            }
        }
        // A scrambler seed outside the 7-bit nonzero range: 0 half the
        // time, else one of 0x80..=0xFF (only where the PPDU signals one).
        _ => {
            if let Some(seed) = scrambler_seed {
                *seed = if cut.is_multiple_of(2) {
                    0
                } else {
                    0x80 | (cut >> 1) as u8
                };
            }
        }
    }
}

/// The decoded bytes past what `n_sym` DATA symbols of `ndbps` bits
/// carry after the 16 SERVICE bits must be zero.
fn uncarried_bytes_are_zero(bytes: &[u8], n_sym: usize, ndbps: usize) -> bool {
    let carried = (n_sym * ndbps).saturating_sub(16) / 8;
    bytes.iter().skip(carried).all(|&b| b == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn punctured_decode_equals_depuncture_then_decode(
        seed in any::<u64>(),
        long in 200usize..600,
        short in 0usize..24,
    ) {
        // One warm scratch for every rate and length, decoding long,
        // then short, then long again: a decode must never see survivor
        // words a longer earlier decode left behind. Random lengths
        // cover mother streams that are not a multiple of the pattern
        // period.
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut warm = ViterbiScratch::default();
        let mut out = Vec::new();
        for rate in ALL_RATES {
            for n_bits in [long, short, 0, 1, long + 1] {
                let coded = llrs_from(
                    &mut rng,
                    &[0.0, 1.0, -1.0, 2.0, -2.0],
                    punctured_stream_len(n_bits, rate),
                );
                viterbi_decode_punctured_into(&coded, rate, n_bits, &mut warm, &mut out);
                prop_assert_eq!(&out, &two_step_decode(&coded, rate, n_bits),
                    "{:?} n_bits {}", rate, n_bits);
            }
        }
    }

    #[test]
    fn non_finite_llrs_decode_like_the_two_step_path(
        seed in any::<u64>(),
        n_bits in 0usize..300,
    ) {
        // NaN and ±inf LLRs must not panic, and the in-place decode must
        // take exactly the two-step path's decisions on them.
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut scratch = ViterbiScratch::default();
        let mut out = Vec::new();
        for rate in ALL_RATES {
            let coded = llrs_from(
                &mut rng,
                &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0, -1.0],
                punctured_stream_len(n_bits, rate),
            );
            viterbi_decode_punctured_into(&coded, rate, n_bits, &mut scratch, &mut out);
            prop_assert_eq!(out.len(), n_bits);
            prop_assert_eq!(&out, &two_step_decode(&coded, rate, n_bits), "{:?}", rate);
        }
    }

    #[test]
    fn scrambler_is_an_involution(data in bits(300), seed in 1u8..128) {
        let mut once = data.clone();
        Scrambler::new(seed).apply(&mut once);
        let mut twice = once.clone();
        Scrambler::new(seed).apply(&mut twice);
        prop_assert_eq!(twice, data);
    }

    #[test]
    fn convolutional_clean_roundtrip(data in bits(200), rate in any_rate()) {
        let tx = encode_punctured(&data, rate);
        let rx = decode_punctured(&bits_to_llrs(&tx), rate, data.len());
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn stream_code_roundtrip(data in bits(150)) {
        let tx = encode_stream(&data);
        let rx = viterbi_decode_stream(&bits_to_llrs(&tx), data.len());
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn viterbi_corrects_any_two_scattered_flips(
        data in bits(120),
        p1 in 0usize..100,
        gap in 30usize..120,
    ) {
        // K=7 free distance 10: any two flips >= ~7 positions apart decode.
        let mut tx = encode_punctured(&data, CodeRate::R12);
        let n = tx.len();
        let a = p1 % n;
        let b = (p1 + gap) % n;
        prop_assume!(a.abs_diff(b) > 14);
        tx[a] ^= 1;
        tx[b] ^= 1;
        let rx = decode_punctured(&bits_to_llrs(&tx), CodeRate::R12, data.len());
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn interleaver_bijective_for_all_ht_dims(
        n_bpscs in prop_oneof![Just(1usize), Just(2), Just(4), Just(6), Just(8)],
        bw in prop_oneof![Just(Bandwidth::Mhz20), Just(Bandwidth::Mhz40)],
        seed in any::<u64>(),
    ) {
        let d = InterleaverDims::ht(bw, n_bpscs);
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..d.n_cbps).map(|_| (rng.next_u64() & 1) as u8).collect();
        let rx = deinterleave(&interleave(&data, d), d);
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn modulation_hard_roundtrip(m in any_modulation(), seed in any::<u64>()) {
        let bpsc = m.bits_per_subcarrier();
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..bpsc * 26).map(|_| (rng.next_u64() & 1) as u8).collect();
        let syms = modulate(&data, m);
        prop_assert_eq!(demodulate_hard(&syms, m), data);
    }

    #[test]
    fn constellation_points_bounded(m in any_modulation(), seed in any::<u64>()) {
        let bpsc = m.bits_per_subcarrier();
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..bpsc * 8).map(|_| (rng.next_u64() & 1) as u8).collect();
        for pt in modulate(&data, m) {
            // Max |point| is the 256-QAM corner: |15+15j|/sqrt(170) ~ 1.63.
            prop_assert!(pt.abs() < 1.65, "point {pt:?} out of bounds");
        }
    }

    #[test]
    fn bytes_bits_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn loopback_psdu_roundtrip_any_mcs(
        mcs_idx in 0usize..8,
        data in proptest::collection::vec(any::<u8>(), 30..200),
    ) {
        let config = PhyConfig::new(Mcs::ht(mcs_idx));
        let ppdu = transmit(&config, &data);
        let decoded = receive(&ppdu, 1e-6);
        prop_assert_eq!(decoded.bytes, data);
    }

    #[test]
    fn complex_field_axioms(re1 in -10.0f64..10.0, im1 in -10.0f64..10.0,
                            re2 in -10.0f64..10.0, im2 in -10.0f64..10.0) {
        let a = c64(re1, im1);
        let b = c64(re2, im2);
        // Commutativity and conjugate-multiplication identity.
        prop_assert!(((a * b) - (b * a)).abs() < 1e-12);
        prop_assert!(((a + b) - (b + a)).abs() < 1e-12);
        prop_assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-9);
        prop_assert!((a * a.conj()).im.abs() < 1e-9);
        // Division inverts multiplication away from zero.
        if b.norm_sqr() > 1e-6 {
            prop_assert!(((a * b / b) - a).abs() < 1e-9);
        }
    }

    #[test]
    fn airtime_monotone_in_psdu_len(mcs_idx in 0usize..8, len in 30usize..1000) {
        let config = PhyConfig::new(Mcs::ht(mcs_idx));
        prop_assert!(config.airtime(len) <= config.airtime(len + 100));
        prop_assert!(config.n_symbols(len) >= 1);
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_fresh_scratch(
        seed in any::<u64>(),
        mcs_list in proptest::collection::vec(0usize..16, 1..5),
        corrupt_mask in any::<u8>(),
    ) {
        // One `RxScratch` reused across a burst must decode every PPDU
        // exactly as a fresh scratch does — any MCS mix, clean or corrupted
        // subframes (a mid-frame phase flip is the tag's own corruption
        // mechanism and reliably kills the FCS).
        use witag_phy::receiver::{receive_with_scratch, RxScratch};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let noise_var: f64 = 1e-3;
        let noise_std = noise_var.sqrt();
        let burst: Vec<_> = mcs_list.iter().enumerate().map(|(i, &idx)| {
            let mut psdu = vec![0u8; 64];
            rng.fill_bytes(&mut psdu);
            let mut ppdu = transmit(&PhyConfig::new(Mcs::ht(idx)), &psdu);
            let n_sym = ppdu.symbols.len();
            let flip = corrupt_mask & (1 << (i % 8)) != 0;
            for (s, sym) in ppdu.symbols.iter_mut().enumerate() {
                let flipped = flip && s >= n_sym / 2;
                for stream in sym.streams.iter_mut() {
                    for pt in stream.iter_mut() {
                        let mut v = *pt;
                        if flipped {
                            v = Complex64::ZERO - v;
                        }
                        let re = rng.range_f64(-1.0, 1.0) * noise_std;
                        let im = rng.range_f64(-1.0, 1.0) * noise_std;
                        *pt = v + c64(re, im);
                    }
                }
            }
            ppdu
        }).collect();
        let mut warm = RxScratch::new();
        for (i, rx) in burst.iter().enumerate() {
            let w = receive_with_scratch(rx, noise_var, &mut warm);
            let solo = receive_with_scratch(rx, noise_var, &mut RxScratch::new());
            prop_assert_eq!(&solo.bytes, &w.bytes, "subframe {} bytes diverged", i);
            prop_assert_eq!(&solo.symbol_quality, &w.symbol_quality, "subframe {} quality diverged", i);
        }
    }

    #[test]
    fn zf_weights_invert_any_well_conditioned_channel(
        seed in any::<u64>(),
        n in 1usize..=4,
    ) {
        // ZF is W = H⁻¹: for any diagonally-dominant (hence invertible)
        // channel matrix, W·H must come back to the identity.
        use witag_phy::mimo::{zf_weights, MAX_NSS};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut h = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        for (k, e) in h.iter_mut().take(n * n).enumerate() {
            let diag = if k % (n + 1) == 0 { n as f64 + 1.0 } else { 0.0 };
            *e = c64(rng.gaussian() + diag, rng.gaussian());
        }
        let mut w = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        prop_assert!(zf_weights(&h, n, &mut w), "dominant matrix flagged singular");
        for i in 0..n {
            for j in 0..n {
                let mut acc = Complex64::ZERO;
                for k in 0..n {
                    acc += w[i * n + k] * h[k * n + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((acc - c64(expect, 0.0)).abs() < 1e-9,
                    "WH[{i}][{j}] = {acc:?}");
            }
        }
    }

    #[test]
    fn mmse_collapses_to_zf_as_noise_vanishes(
        seed in any::<u64>(),
        n in 1usize..=4,
    ) {
        // At σ² → 0 the regulariser disappears and unbiased MMSE must
        // agree with ZF entry-for-entry.
        use witag_phy::mimo::{mmse_weights, zf_weights, MAX_NSS};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut h = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        for (k, e) in h.iter_mut().take(n * n).enumerate() {
            let diag = if k % (n + 1) == 0 { n as f64 + 1.0 } else { 0.0 };
            *e = c64(rng.gaussian() + diag, rng.gaussian());
        }
        let mut wz = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        let mut wm = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        prop_assert!(zf_weights(&h, n, &mut wz));
        prop_assert!(mmse_weights(&h, n, 1e-15, &mut wm));
        for k in 0..n * n {
            prop_assert!((wz[k] - wm[k]).abs() < 1e-6,
                "entry {k}: zf {:?} vs mmse {:?}", wz[k], wm[k]);
        }
    }

    #[test]
    fn mu_psdus_roundtrip_any_stream_count(
        nss in 1usize..=4,
        mcs_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        // The MU framing is its own loopback chain: N independent PSDUs
        // in, the same N PSDUs out of the joint-equalised decode.
        use witag_phy::mimo::{receive_mu, transmit_mu};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let psdus: Vec<Vec<u8>> = (0..nss).map(|_| {
            let mut p = vec![0u8; 64];
            rng.fill_bytes(&mut p);
            p
        }).collect();
        let config = PhyConfig::new(Mcs::ht((nss - 1) * 8 + mcs_idx));
        let ppdu = transmit_mu(&config, &psdus);
        let decoded = receive_mu(&ppdu, 1e-6);
        prop_assert_eq!(decoded.len(), nss);
        for (i, d) in decoded.iter().enumerate() {
            prop_assert_eq!(&d.bytes, &psdus[i], "stream {} diverged", i);
        }
    }

    #[test]
    fn phase_flip_never_helps_llr_quality(seed in any::<u64>()) {
        // Flipping the channel can only shrink or scramble LLRs vs the
        // matched channel, never improve the mean |LLR| by a large factor.
        let config = PhyConfig::new(Mcs::ht(7));
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut data = vec![0u8; 130];
        rng.fill_bytes(&mut data);
        let ppdu = transmit(&config, &data);
        let mut flipped = ppdu.clone();
        for sym in flipped.symbols.iter_mut() {
            for pt in sym.streams[0].iter_mut() {
                *pt = Complex64::ZERO - *pt;
            }
        }
        let clean = receive(&ppdu, 1e-4);
        let broken = receive(&flipped, 1e-4);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        prop_assert!(mean(&broken.symbol_quality) <= mean(&clean.symbol_quality) * 1.05);
    }
    #[test]
    fn malformed_ppdu_shapes_never_panic(
        seed in any::<u64>(),
        nss in 1usize..=3,
        mcs_idx in 0usize..8,
        kind in 0u8..7,
        cut in any::<u64>(),
        claimed_nss in 0usize..=5,
    ) {
        // Truncated or empty symbol lists, short sample vectors, missing
        // streams, missing training symbols, an invalid scrambler seed and
        // a config that claims the wrong stream count must all come back
        // as `psdu_len` bytes with zeros where the decoded symbols carry
        // nothing — never a panic.
        // One warm scratch serves every call, so stale buffers of the
        // well-formed decodes are in play.
        use witag_phy::legacy::{legacy_receive_with_scratch, legacy_transmit, LegacyRate};
        use witag_phy::mimo::transmit_mu;
        use witag_phy::receiver::{receive_mu_with_scratch, receive_with_scratch, RxScratch};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let cut = cut as usize;
        let mut scratch = RxScratch::new();
        let config = PhyConfig::new(Mcs::ht((nss - 1) * 8 + mcs_idx));
        let psdus: Vec<Vec<u8>> = (0..nss).map(|_| {
            let mut p = vec![0u8; 48];
            rng.fill_bytes(&mut p);
            p
        }).collect();

        let su = transmit(&config, &psdus[0]);
        prop_assert_eq!(&receive_with_scratch(&su, 1e-4, &mut scratch).bytes, &psdus[0]);
        let mut bad = su.clone();
        malform(&mut bad.symbols, &mut bad.ltfs, Some(&mut bad.config.scrambler_seed), kind, cut);
        let got = receive_with_scratch(&bad, 1e-4, &mut scratch);
        prop_assert_eq!(got.bytes.len(), bad.psdu_len);
        prop_assert!(got.symbol_quality.len() <= bad.symbols.len());
        let decoded = got.symbol_quality.len();
        prop_assert!(uncarried_bytes_are_zero(&got.bytes, decoded, config.ndbps()));
        bad.config.mcs.spatial_streams = claimed_nss;
        let got = receive_with_scratch(&bad, 1e-4, &mut scratch);
        prop_assert_eq!(got.bytes.len(), bad.psdu_len);

        let mut mu = transmit_mu(&config, &psdus);
        malform(&mut mu.symbols, &mut mu.ltfs, Some(&mut mu.config.scrambler_seed), kind, cut);
        let got = receive_mu_with_scratch(&mu, 1e-4, &mut scratch);
        prop_assert_eq!(got.len(), nss);
        for d in &got {
            prop_assert_eq!(d.bytes.len(), mu.psdu_len);
            let decoded = d.symbol_quality.len();
            prop_assert!(uncarried_bytes_are_zero(&d.bytes, decoded, config.ndbps() / nss));
        }
        mu.config.mcs.spatial_streams = claimed_nss;
        let got = receive_mu_with_scratch(&mu, 1e-4, &mut scratch);
        prop_assert_eq!(got.len(), claimed_nss);
        prop_assert!(got.iter().all(|d| d.bytes.len() == mu.psdu_len));

        let rate = [LegacyRate::M6, LegacyRate::M24, LegacyRate::M54][mcs_idx % 3];
        let mut legacy = legacy_transmit(rate, &psdus[0][..32]);
        let mut ltfs = vec![legacy.ltf.clone()];
        malform(&mut legacy.symbols, &mut ltfs, None, kind, cut);
        legacy.ltf = ltfs.pop().unwrap_or(OfdmSymbol { streams: Vec::new() });
        let got = legacy_receive_with_scratch(&legacy, 1e-4, &mut scratch);
        prop_assert_eq!(got.len(), 32);
        let full = |s: &OfdmSymbol| s.streams.first().is_some_and(|c| c.len() == 52);
        let kept = if full(&legacy.ltf) {
            legacy.symbols.iter().take_while(|s| full(s)).count()
        } else {
            0
        };
        prop_assert!(uncarried_bytes_are_zero(&got, kept, rate.ndbps()));
    }
}
