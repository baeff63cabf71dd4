//! Golden equivalence: the optimised PHY kernels must be *bit-identical*
//! to the straightforward per-edge / per-allocation formulations they
//! replaced.
//!
//! The reference implementations below are transcriptions of the seed
//! code (pre-optimisation), kept here as executable specification: the
//! textbook Viterbi with a full predecessor table, the Vec-per-call
//! demapper, and the recompute-the-permutation-every-symbol
//! deinterleaver. Every test drives reference and optimised kernel with
//! the same inputs across the MCS / bandwidth / code-rate space and
//! asserts exact equality — floats included, because the optimised
//! kernels are required to perform the same IEEE operations in the same
//! order, not merely equivalent math.
//!
//! The Viterbi decoder is the exception: it runs on quantised soft
//! inputs with integer path metrics, so the textbook `f64` Viterbi is its
//! oracle in two ways. Fed the decoder's own quantised integers
//! ([`quantise_llrs`]), on which `f64` arithmetic is exact, it must take
//! the same decisions bit for bit; fed the raw LLRs, it bounds what the
//! quantisation costs (the waterfall test).

use proptest::prelude::*;
use witag_phy::complex::Complex64;
use witag_phy::convolutional::{
    bits_to_llrs, depuncture, encode, encode_stream, puncture, quantise_llrs, viterbi_decode,
    viterbi_decode_punctured_into, viterbi_decode_stream, ViterbiScratch, CONSTRAINT, SOFT_MAX,
    TAIL_BITS,
};
use witag_phy::interleaver::{deinterleave, interleave, InterleaverDims};
use witag_phy::mcs::{CodeRate, Mcs, Modulation};
use witag_phy::modulation::{demodulate_llr, modulate};
use witag_phy::params::Bandwidth;
use witag_phy::ppdu::{bytes_to_bits, pilot_values, transmit, OfdmSymbol, PhyConfig};
use witag_phy::receiver::{receive, receive_with_scratch, RxScratch};
use witag_phy::scrambler::Scrambler;
use witag_sim::Rng;

const STATES: usize = 1 << (CONSTRAINT - 1);
const G0: u32 = 0o133;
const G1: u32 = 0o171;

fn parity(x: u32) -> u8 {
    (x.count_ones() & 1) as u8
}

fn branch_output(state: usize, input: u8) -> (u8, u8) {
    let reg = ((state as u32) << 1) | input as u32;
    (parity(reg & G0), parity(reg & G1))
}

/// Seed implementation of the add-compare-select recursion: full
/// predecessor table, NEG_INF skip, per-step `next.fill`.
// Kept textually identical to the seed (indexed loop included) — that is
// the point of a golden reference.
#[allow(clippy::needless_range_loop)]
fn reference_acs(llrs: &[f64], n_steps: usize) -> (Vec<f64>, Vec<u8>) {
    const NEG_INF: f64 = f64::NEG_INFINITY;
    let mut metrics = vec![NEG_INF; STATES];
    metrics[0] = 0.0;
    let mut next = vec![NEG_INF; STATES];
    let mut decisions = vec![0u8; n_steps * STATES];
    for step in 0..n_steps {
        let l0 = llrs[2 * step];
        let l1 = llrs[2 * step + 1];
        next.fill(NEG_INF);
        for state in 0..STATES {
            let m = metrics[state];
            if m == NEG_INF {
                continue;
            }
            for input in 0..2u8 {
                let (o0, o1) = branch_output(state, input);
                let bm = (if o0 == 0 { l0 } else { -l0 }) + (if o1 == 0 { l1 } else { -l1 });
                let ns = ((state << 1) | input as usize) & (STATES - 1);
                let cand = m + bm;
                if cand > next[ns] {
                    next[ns] = cand;
                    decisions[step * STATES + ns] = state as u8;
                }
            }
        }
        core::mem::swap(&mut metrics, &mut next);
    }
    (metrics, decisions)
}

fn reference_traceback(decisions: &[u8], mut state: usize, n_steps: usize) -> Vec<u8> {
    let mut bits = vec![0u8; n_steps];
    for step in (0..n_steps).rev() {
        bits[step] = (state & 1) as u8;
        state = decisions[step * STATES + state] as usize;
    }
    bits
}

fn reference_viterbi_decode(llrs: &[f64], info_bits: usize) -> Vec<u8> {
    const NEG_INF: f64 = f64::NEG_INFINITY;
    let total_steps = info_bits + TAIL_BITS;
    assert_eq!(llrs.len(), 2 * total_steps);
    let (metrics, decisions) = reference_acs(llrs, total_steps);
    let state = if metrics[0] > NEG_INF {
        0usize
    } else {
        metrics
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(s, _)| s)
            .unwrap_or(0)
    };
    let mut bits = reference_traceback(&decisions, state, total_steps);
    bits.truncate(info_bits);
    bits
}

fn reference_viterbi_decode_stream(llrs: &[f64], n_bits: usize) -> Vec<u8> {
    assert_eq!(llrs.len(), 2 * n_bits);
    let (metrics, decisions) = reference_acs(llrs, n_bits);
    let state = metrics
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(s, _)| s)
        .unwrap_or(0);
    reference_traceback(&decisions, state, n_bits)
}

/// Seed implementation of the per-axis max-log demapper (Vec scratch).
fn reference_axis_llrs(y: f64, k: usize, sigma2: f64, out: &mut Vec<f64>) {
    let n_levels = 1usize << k;
    let mut min0 = vec![f64::INFINITY; k];
    let mut min1 = vec![f64::INFINITY; k];
    for index in 0..n_levels {
        let level = (2.0 * index as f64) - (n_levels as f64 - 1.0);
        let d2 = (y - level) * (y - level);
        let g = index as u32 ^ (index as u32 >> 1);
        for bit in 0..k {
            let mask = 1u32 << (k - 1 - bit);
            if g & mask == 0 {
                if d2 < min0[bit] {
                    min0[bit] = d2;
                }
            } else if d2 < min1[bit] {
                min1[bit] = d2;
            }
        }
    }
    let scale = 1.0 / (2.0 * sigma2.max(1e-12));
    for bit in 0..k {
        out.push((min1[bit] - min0[bit]) * scale);
    }
}

fn reference_demodulate_llr(symbols: &[Complex64], m: Modulation, noise_var: f64) -> Vec<f64> {
    let k = match m {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        Modulation::Qam256 => 1.0 / 170f64.sqrt(),
    };
    let ab = match m {
        Modulation::Bpsk => 1,
        _ => m.bits_per_subcarrier() / 2,
    };
    let sigma2_axis = (noise_var / 2.0) / (k * k);
    let mut out = Vec::new();
    for &s in symbols {
        match m {
            Modulation::Bpsk => reference_axis_llrs(s.re / k, 1, sigma2_axis * 2.0, &mut out),
            _ => {
                reference_axis_llrs(s.re / k, ab, sigma2_axis, &mut out);
                reference_axis_llrs(s.im / k, ab, sigma2_axis, &mut out);
            }
        }
    }
    out
}

fn random_llrs(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gaussian() * 4.0).collect()
}

/// The decoder's quantised view of `llrs`, as the `f64` integers the
/// reference decodes exactly.
fn quantised(llrs: &[f64]) -> Vec<f64> {
    quantise_llrs(llrs).into_iter().map(f64::from).collect()
}

#[test]
fn viterbi_terminated_matches_reference_on_noisy_streams() {
    let mut rng = Rng::seed_from_u64(0x60_1D);
    for info_bits in [1usize, 7, 64, 333, 1000] {
        for trial in 0..4 {
            let llrs = random_llrs(&mut rng, 2 * (info_bits + TAIL_BITS));
            assert_eq!(
                viterbi_decode(&llrs, info_bits),
                reference_viterbi_decode(&quantised(&llrs), info_bits),
                "info_bits={info_bits} trial={trial}"
            );
        }
    }
}

#[test]
fn viterbi_stream_matches_reference_on_noisy_streams() {
    let mut rng = Rng::seed_from_u64(0x60_1E);
    for n_bits in [1usize, 6, 52, 471, 2000] {
        for trial in 0..4 {
            let llrs = random_llrs(&mut rng, 2 * n_bits);
            assert_eq!(
                viterbi_decode_stream(&llrs, n_bits),
                reference_viterbi_decode_stream(&quantised(&llrs), n_bits),
                "n_bits={n_bits} trial={trial}"
            );
        }
    }
}

#[test]
fn viterbi_matches_reference_on_clean_coded_data() {
    // Clean encodes produce heavy metric ties (many equal path sums) —
    // exactly where tie-breaking differences would surface.
    let mut rng = Rng::seed_from_u64(0x60_1F);
    for n_bits in [64usize, 500] {
        let data: Vec<u8> = (0..n_bits).map(|_| (rng.next_u64() & 1) as u8).collect();
        let llrs = bits_to_llrs(&encode_stream(&data)[..2 * n_bits]);
        let opt = viterbi_decode_stream(&llrs, n_bits);
        assert_eq!(
            opt,
            reference_viterbi_decode_stream(&quantised(&llrs), n_bits)
        );
        assert_eq!(opt, data, "clean decode must also be correct");
    }
}

const ALL_RATES: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

/// A punctured stream of `n_bits` information bits at `rate` whose soft
/// values sit at the quantiser's rails: ±inf saturates to ±`SOFT_MAX`,
/// and a stream with no finite non-zero value quantises at unit gain.
/// `kind` 0 is a codeword with a few sign errors (the survivor path
/// climbs by the full branch span every step, so the path metrics spread
/// as far as they can), 1 alternates the sign, 2 draws it at random, and
/// 3 mixes saturated values with small finite ones and erasures.
fn saturated_stream(rng: &mut Rng, rate: CodeRate, n_bits: usize, kind: u8) -> Vec<f64> {
    let rail = |bit: bool| {
        if bit {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    };
    let data: Vec<u8> = (0..n_bits).map(|_| rng.below(2) as u8).collect();
    let coded = puncture(&encode_stream(&data), rate);
    coded
        .iter()
        .enumerate()
        .map(|(i, &c)| match kind {
            0 => rail((c == 1) ^ rng.below(64).is_multiple_of(63)),
            1 => rail(i % 2 == 1),
            2 => rail(rng.below(2) == 1),
            _ => match rng.below(4) {
                0 => 0.0,
                1 => rng.range_f64(-3.0, 3.0),
                _ => rail(rng.below(2) == 1),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn modular_metrics_match_the_reference_at_saturation(
        seed in any::<u64>(),
        short in 2usize..24,
        kind in 0u8..4,
    ) {
        // 25 000 steps per rate, 10^5 per case: long enough for any
        // wrapping path metric to cycle through i16 many times. The
        // decoder must still take every decision of the exact reference
        // on its quantised stream, tie-breaks included.
        let mut rng = Rng::seed_from_u64(seed);
        let mut scratch = ViterbiScratch::default();
        let mut out = Vec::new();
        for rate in ALL_RATES {
            for n_bits in [0usize, 1, short, 25_000] {
                let coded = saturated_stream(&mut rng, rate, n_bits, kind);
                let q = quantised(&coded);
                prop_assert!(q.iter().all(|v| v.abs() <= f64::from(SOFT_MAX)));
                if kind != 3 {
                    prop_assert!(q.iter().all(|v| v.abs() == f64::from(SOFT_MAX)));
                }
                viterbi_decode_punctured_into(&coded, rate, n_bits, &mut scratch, &mut out);
                let reference =
                    reference_viterbi_decode_stream(&depuncture(&q, rate, 2 * n_bits), n_bits);
                prop_assert_eq!(&out, &reference, "{:?} n_bits {} kind {}", rate, n_bits, kind);
            }
        }
    }
}

#[test]
fn depuncture_roundtrip_matches_all_rates() {
    let mut rng = Rng::seed_from_u64(0x60_20);
    for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
        for mother_len in [12usize, 24, 120, 1200] {
            let mother: Vec<u8> = (0..mother_len)
                .map(|_| (rng.next_u64() & 1) as u8)
                .collect();
            let kept = puncture(&mother, rate);
            let llrs: Vec<f64> = kept
                .iter()
                .map(|&b| if b == 0 { 1.0 } else { -1.0 })
                .collect();
            let soft = depuncture(&llrs, rate, mother_len);
            assert_eq!(soft.len(), mother_len, "{rate:?}/{mother_len}");
            // Punctured positions are exactly the zeros.
            let zeros = soft.iter().filter(|&&x| x == 0.0).count();
            assert_eq!(zeros, mother_len - llrs.len(), "{rate:?}/{mother_len}");
        }
    }
}

#[test]
fn demapper_matches_reference_for_all_modulations() {
    let mut rng = Rng::seed_from_u64(0x60_21);
    for m in [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ] {
        let bpsc = m.bits_per_subcarrier();
        let bits: Vec<u8> = (0..bpsc * 64).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut syms = modulate(&bits, m);
        for s in syms.iter_mut() {
            *s += witag_phy::c64(rng.gaussian() * 0.1, rng.gaussian() * 0.1);
        }
        for noise_var in [1e-6, 1e-2, 0.3] {
            let opt = demodulate_llr(&syms, m, noise_var);
            let rf = reference_demodulate_llr(&syms, m, noise_var);
            assert_eq!(opt, rf, "{m:?} noise={noise_var} (must be bit-identical)");
        }
    }
}

#[test]
fn interleaver_roundtrips_for_every_dimension_set() {
    let mut rng = Rng::seed_from_u64(0x60_22);
    let mut dims = Vec::new();
    for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80] {
        for n_bpscs in [1usize, 2, 4, 6, 8] {
            dims.push(InterleaverDims::ht(bw, n_bpscs));
        }
    }
    for n_bpscs in [1usize, 2, 4, 6] {
        dims.push(InterleaverDims::legacy(n_bpscs));
    }
    for d in dims {
        let llrs: Vec<f64> = (0..d.n_cbps).map(|_| rng.gaussian()).collect();
        let rt = deinterleave(&interleave(&llrs, d), d);
        assert_eq!(rt, llrs, "{d:?}");
    }
}

#[test]
fn obs_quality_sampling_is_deterministic_and_bounded() {
    // The observability summary ([`DecodedPsdu::quality`]) rides on the
    // allocation-free receive path: it samples at most
    // `QUALITY_SAMPLE_CAP` symbol metrics by striding, touches no heap,
    // and must be bit-identical between the fresh and scratch entry
    // points (it only reads `symbol_quality`, which the test above pins).
    use witag_phy::receiver::DecodedPsdu;
    let psdu = vec![0xC3u8; 416];
    let mut scratch = RxScratch::new();
    for idx in [0usize, 5, 12] {
        let ppdu = transmit(&PhyConfig::new(Mcs::ht(idx)), &psdu);
        let fresh = receive(&ppdu, 1e-3);
        let reused = receive_with_scratch(&ppdu, 1e-3, &mut scratch);
        let qa = fresh.quality();
        let qb = reused.quality();
        assert_eq!(qa, qb, "mcs{idx}: same decode => same quality summary");
        assert_eq!(qa.symbols as usize, fresh.symbol_quality.len());
        assert!(qa.sampled >= 1, "non-empty decode must sample");
        assert!(
            qa.sampled as usize <= DecodedPsdu::QUALITY_SAMPLE_CAP,
            "mcs{idx}: sampled {} over cap",
            qa.sampled
        );
        assert!(qa.sampled <= qa.symbols);
        assert!(
            qa.llr_min <= qa.llr_mean && qa.llr_mean <= qa.llr_max,
            "mcs{idx}: min/mean/max ordering"
        );
        // Repeated summarisation of the same decode is pure.
        assert_eq!(fresh.quality(), qa);
    }
}

#[test]
fn receive_chain_bit_identical_across_mcs_and_scratch_reuse() {
    // The end proof: the whole optimised receive chain — one warm
    // scratch reused across *different* MCS / bandwidth combinations in
    // sequence — returns exactly what the allocating entry point does.
    let psdu = vec![0xC3u8; 416];
    let mut scratch = RxScratch::new();
    for idx in [0usize, 3, 5, 7, 8, 12, 15] {
        for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40] {
            let ppdu = transmit(&PhyConfig::with_bandwidth(Mcs::ht(idx), bw), &psdu);
            for noise_var in [1e-6, 1e-3] {
                let fresh = receive(&ppdu, noise_var);
                let reused = receive_with_scratch(&ppdu, noise_var, &mut scratch);
                assert_eq!(fresh.bytes, reused.bytes, "mcs{idx}/{bw:?}/{noise_var}");
                assert_eq!(
                    fresh.symbol_quality, reused.symbol_quality,
                    "quality metric must be bit-identical too (mcs{idx}/{bw:?})"
                );
                assert_eq!(fresh.bytes, psdu, "clean channel must decode (mcs{idx})");
            }
        }
    }
}

/// Apply a deterministic channel perturbation to a transmitted PPDU:
/// complex AWGN on every carrier plus, optionally, a mid-frame phase flip
/// over a run of symbols (the WiTAG tag's corruption mechanism) — so the
/// warm-scratch test covers subframes that fail their FCS, not just
/// clean ones.
fn perturb(
    ppdu: &witag_phy::ppdu::Ppdu,
    seed: u64,
    noise_std: f64,
    flip: bool,
) -> witag_phy::ppdu::Ppdu {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = ppdu.clone();
    let n_sym = out.symbols.len();
    for (s, sym) in out.symbols.iter_mut().enumerate() {
        let flipped = flip && s >= n_sym / 3 && s < 2 * n_sym / 3;
        for stream in sym.streams.iter_mut() {
            for pt in stream.iter_mut() {
                let mut v = *pt;
                if flipped {
                    v = Complex64::ZERO - v;
                }
                let re = rng.range_f64(-1.0, 1.0) * noise_std;
                let im = rng.range_f64(-1.0, 1.0) * noise_std;
                *pt = v + witag_phy::complex::c64(re, im);
            }
        }
    }
    out
}

#[test]
fn legacy_and_ht_decodes_alternate_through_one_warm_scratch() {
    // An experiment decodes the HT query A-MPDU and the legacy block ACK
    // through one `RxScratch`, so both interleaver dimension sets stay
    // cached side by side. Alternating the two frame families through one
    // warm scratch must give exactly what fresh-scratch decodes give.
    use witag_phy::legacy::{legacy_receive_with_scratch, legacy_transmit, LegacyRate};
    let noise_var: f64 = 1e-3;
    let rates = [
        LegacyRate::M6,
        LegacyRate::M24,
        LegacyRate::M54,
        LegacyRate::M24,
    ];
    let legacy: Vec<_> = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let psdu: Vec<u8> = (0..32).map(|b| (b * 7 + i) as u8).collect();
            let mut noisy = legacy_transmit(r, &psdu);
            let mut rng = Rng::seed_from_u64(77 + i as u64);
            for sym in noisy.symbols.iter_mut() {
                for pt in sym.streams[0].iter_mut() {
                    let re = rng.range_f64(-1.0, 1.0) * noise_var.sqrt();
                    let im = rng.range_f64(-1.0, 1.0) * noise_var.sqrt();
                    *pt += witag_phy::complex::c64(re, im);
                }
            }
            noisy
        })
        .collect();
    let psdu = vec![0x5Au8; 208];
    let ht: Vec<_> = [0usize, 7, 12, 5]
        .iter()
        .enumerate()
        .map(|(i, &idx)| {
            let clean = transmit(&PhyConfig::new(Mcs::ht(idx)), &psdu);
            // Corrupt every other subframe so the FCS-failing path runs too.
            perturb(&clean, 900 + i as u64, noise_var.sqrt(), i % 2 == 0)
        })
        .collect();

    let mut warm = RxScratch::new();
    for round in 0..2 {
        for (i, (h, l)) in ht.iter().zip(legacy.iter()).enumerate() {
            let fresh = receive_with_scratch(h, noise_var, &mut RxScratch::new());
            let got = receive_with_scratch(h, noise_var, &mut warm);
            assert_eq!(fresh.bytes, got.bytes, "round {round} HT frame {i}: bytes");
            assert_eq!(
                fresh.symbol_quality, got.symbol_quality,
                "round {round} HT frame {i}"
            );
            let fresh = legacy_receive_with_scratch(l, noise_var, &mut RxScratch::new());
            let got = legacy_receive_with_scratch(l, noise_var, &mut warm);
            assert_eq!(fresh, got, "round {round} legacy frame {i}");
        }
    }
}

/// Seed encoder: two `count_ones` parities per input bit.
fn reference_encode_stream(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * bits.len());
    let mut state = 0usize;
    for &bit in bits {
        let (o0, o1) = branch_output(state, bit);
        out.push(o0);
        out.push(o1);
        state = ((state << 1) | bit as usize) & (STATES - 1);
    }
    out
}

#[test]
fn encoder_matches_reference_parities() {
    let mut rng = Rng::seed_from_u64(0xC0DE);
    for len in [1usize, 7, 64, 1000] {
        let bits: Vec<u8> = (0..len).map(|_| rng.below(2) as u8).collect();
        assert_eq!(
            encode_stream(&bits),
            reference_encode_stream(&bits),
            "len {len}"
        );
        let mut tailed = bits.clone();
        tailed.extend_from_slice(&[0; TAIL_BITS]);
        assert_eq!(encode(&bits), reference_encode_stream(&tailed), "len {len}");
    }
}

/// 64-bit FNV-1a over the little-endian bytes of `f64::to_bits` of every
/// carrier, training symbols first.
fn hash_symbols<'a>(symbols: impl IntoIterator<Item = &'a OfdmSymbol>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for pt in symbols.into_iter().flat_map(|s| s.streams.iter().flatten()) {
        for x in [pt.re, pt.im] {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn check_pins(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.0 == e.0 && a.1 == e.1);
    if !same {
        let mut table = String::new();
        for (name, hash) in actual {
            table.push_str(&format!("            (\"{name}\", 0x{hash:016x}),\n"));
        }
        panic!("golden mismatch; the frames now give:\n{table}");
    }
}

fn random_psdu(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

// Transmit pins: FNV-1a hashes of the on-air carriers, captured before
// the transmit chain built its interleaver table once per PPDU. Every
// output bit must stay as it was.

#[test]
fn ht_transmit_is_pinned() {
    let mut rows = Vec::new();
    for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40] {
        for idx in [0usize, 1, 2, 3, 4, 5, 6, 7, 15, 23] {
            let ppdu = transmit(
                &PhyConfig::with_bandwidth(Mcs::ht(idx), bw),
                &random_psdu(idx as u64, 333),
            );
            rows.push((
                format!("mcs{idx}/{bw:?}"),
                hash_symbols(ppdu.ltfs.iter().chain(&ppdu.symbols)),
            ));
        }
    }
    check_pins(
        &rows,
        &[
            ("mcs0/Mhz20", 0x208e26838eb89025),
            ("mcs1/Mhz20", 0xe36522046c6a0e65),
            ("mcs2/Mhz20", 0xd477c7d30b189f35),
            ("mcs3/Mhz20", 0xdd4812cd9af2b055),
            ("mcs4/Mhz20", 0x1188ea11553db785),
            ("mcs5/Mhz20", 0x2c695cc11ed583a1),
            ("mcs6/Mhz20", 0x2b4fca264c3c9bf1),
            ("mcs7/Mhz20", 0x8947478db374eb1d),
            ("mcs15/Mhz20", 0xa1115a1c18619622),
            ("mcs23/Mhz20", 0x94251879374c9b99),
            ("mcs0/Mhz40", 0x76e71ce28d4df1e5),
            ("mcs1/Mhz40", 0xd739ae04f8f14a15),
            ("mcs2/Mhz40", 0xbfd8413029694795),
            ("mcs3/Mhz40", 0x831c8de4a4ba5e1d),
            ("mcs4/Mhz40", 0x65096269d412fa09),
            ("mcs5/Mhz40", 0x89f832c12f9d17b9),
            ("mcs6/Mhz40", 0x0b6923af91c8c48d),
            ("mcs7/Mhz40", 0x2e32a4516e639559),
            ("mcs15/Mhz40", 0x1727e0fc8fab00d5),
            ("mcs23/Mhz40", 0x0b0c14638cccd3f1),
        ],
    );
}

#[test]
fn legacy_transmit_is_pinned() {
    use witag_phy::legacy::{legacy_transmit, LegacyRate};
    let rates = [
        LegacyRate::M6,
        LegacyRate::M9,
        LegacyRate::M12,
        LegacyRate::M18,
        LegacyRate::M24,
        LegacyRate::M36,
        LegacyRate::M48,
        LegacyRate::M54,
    ];
    let rows: Vec<(String, u64)> = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let ppdu = legacy_transmit(rate, &random_psdu(100 + i as u64, 57));
            (
                format!("{rate:?}"),
                hash_symbols([&ppdu.ltf].into_iter().chain(&ppdu.symbols)),
            )
        })
        .collect();
    check_pins(
        &rows,
        &[
            ("M6", 0x759369c16c123ca5),
            ("M9", 0x5bc020042f747125),
            ("M12", 0xf1e52a4e4e992765),
            ("M18", 0x8b9828126889e145),
            ("M24", 0x1ed0108d474a79b9),
            ("M36", 0xf3154143473f6d2d),
            ("M48", 0x8b1e9289822012f2),
            ("M54", 0x1ac255725e24d606),
        ],
    );
}

#[test]
fn mu_transmit_is_pinned() {
    use witag_phy::mimo::transmit_mu;
    let mut rows = Vec::new();
    for idx in [8usize, 12, 20, 23] {
        let config = PhyConfig::new(Mcs::ht(idx));
        let psdus: Vec<Vec<u8>> = (0..config.mcs.spatial_streams)
            .map(|s| random_psdu(200 + (idx * 4 + s) as u64, 150))
            .collect();
        let ppdu = transmit_mu(&config, &psdus);
        rows.push((
            format!("mcs{idx}"),
            hash_symbols(ppdu.ltfs.iter().chain(&ppdu.symbols)),
        ));
    }
    check_pins(
        &rows,
        &[
            ("mcs8", 0x08da4b7cfa9b6425),
            ("mcs12", 0x8e4a5b9ca0f5ff9d),
            ("mcs20", 0xc030e923c9b9ba7d),
            ("mcs23", 0xe2b6369abecd0de1),
        ],
    );
}

// Shape pins: FNV-1a hashes of the on-air carriers for the shapes the
// pins above never reach (256-QAM, four streams, 80 MHz, one-byte and
// A-MPDU-sized PSDUs, the extreme scrambler seeds, legacy frames from 1 B
// to 1 500 B), captured from the stage-by-stage transmit chain before
// the transmit path mapped coded bits through per-PPDU gather and point
// tables.

fn ht_pin_row(name: String, config: &PhyConfig, psdu: &[u8]) -> (String, u64) {
    let ppdu = transmit(config, psdu);
    (name, hash_symbols(ppdu.ltfs.iter().chain(&ppdu.symbols)))
}

#[test]
fn transmit_shapes_are_pinned() {
    let mut rows = Vec::new();
    for idx in [8usize, 9] {
        for nss in 1..=4 {
            let config = PhyConfig::with_bandwidth(Mcs::vht(idx, nss), Bandwidth::Mhz80);
            let psdu = random_psdu(300 + (idx * 4 + nss) as u64, 333);
            rows.push(ht_pin_row(format!("vht{idx}x{nss}/Mhz80"), &config, &psdu));
        }
    }
    for idx in 24usize..=31 {
        let psdu = random_psdu(400 + idx as u64, 333);
        rows.push(ht_pin_row(
            format!("mcs{idx}/Mhz20"),
            &PhyConfig::new(Mcs::ht(idx)),
            &psdu,
        ));
    }
    for len in [1usize, 6656] {
        for (name, mcs, bw) in [
            ("mcs0", Mcs::ht(0), Bandwidth::Mhz20),
            ("mcs5", Mcs::ht(5), Bandwidth::Mhz20),
            ("vht9x4", Mcs::vht(9, 4), Bandwidth::Mhz80),
        ] {
            let psdu = random_psdu(500 + len as u64, len);
            let config = PhyConfig::with_bandwidth(mcs, bw);
            rows.push(ht_pin_row(
                format!("len{len}/{name}/{bw:?}"),
                &config,
                &psdu,
            ));
        }
    }
    for seed in [0x01u8, 0x7F] {
        for (idx, bw) in [(5usize, Bandwidth::Mhz20), (15, Bandwidth::Mhz40)] {
            let mut config = PhyConfig::with_bandwidth(Mcs::ht(idx), bw);
            config.scrambler_seed = seed;
            let psdu = random_psdu(600 + idx as u64, 333);
            rows.push(ht_pin_row(
                format!("seed{seed:#04x}/mcs{idx}/{bw:?}"),
                &config,
                &psdu,
            ));
        }
    }
    {
        use witag_phy::legacy::legacy_transmit;
        for len in [1usize, 1500] {
            for (i, rate) in LEGACY_RATES.into_iter().enumerate() {
                let ppdu = legacy_transmit(rate, &random_psdu(700 + (len + i) as u64, len));
                rows.push((
                    format!("legacy{len}/{rate:?}"),
                    hash_symbols([&ppdu.ltf].into_iter().chain(&ppdu.symbols)),
                ));
            }
        }
    }
    check_pins(
        &rows,
        &[
            ("vht8x1/Mhz80", 0x0e556e7c64f4d87b),
            ("vht8x2/Mhz80", 0xed50bb3c8fdf6e17),
            ("vht8x3/Mhz80", 0x8e6dca4192882ce0),
            ("vht8x4/Mhz80", 0x700e5f8416fe5fcf),
            ("vht9x1/Mhz80", 0x7d1667a8dc6b1276),
            ("vht9x2/Mhz80", 0x70277bb7ab3f0cbe),
            ("vht9x3/Mhz80", 0xff8d296c93a130c3),
            ("vht9x4/Mhz80", 0x064338924703fb40),
            ("mcs24/Mhz20", 0x848cd3636b3b8725),
            ("mcs25/Mhz20", 0xe6cfe526c9c7f865),
            ("mcs26/Mhz20", 0x1906ddcf9820b265),
            ("mcs27/Mhz20", 0x4131b88e8494dced),
            ("mcs28/Mhz20", 0x829830a7d51ea3d5),
            ("mcs29/Mhz20", 0xc57c38a1f126ae2e),
            ("mcs30/Mhz20", 0x030a1a6b6a0e4b59),
            ("mcs31/Mhz20", 0x9715ef5fad51e00e),
            ("len1/mcs0/Mhz20", 0xb1c2345b9f531f25),
            ("len1/mcs5/Mhz20", 0x62821bbc4262b01e),
            ("len1/vht9x4/Mhz80", 0x0ee72d2212e54fec),
            ("len6656/mcs0/Mhz20", 0xef8bfb1d76c8d125),
            ("len6656/mcs5/Mhz20", 0x2adf38b2ddfe2d09),
            ("len6656/vht9x4/Mhz80", 0x3346b7fd947f7f4a),
            ("seed0x01/mcs5/Mhz20", 0xf5a2647a4a3a8eaa),
            ("seed0x01/mcs15/Mhz40", 0x27693636ade273b1),
            ("seed0x7f/mcs5/Mhz20", 0x79af8742c749483d),
            ("seed0x7f/mcs15/Mhz40", 0x20f592371c2cd815),
            ("legacy1/M6", 0xb3132b455c684ea5),
            ("legacy1/M9", 0x87b040e9e1e5a225),
            ("legacy1/M12", 0xeacc6d16936d9785),
            ("legacy1/M18", 0x4fc9467b5e974a05),
            ("legacy1/M24", 0xf06f9db51035eb39),
            ("legacy1/M36", 0xf3c164e143a87ab9),
            ("legacy1/M48", 0xf7f5348f7169d329),
            ("legacy1/M54", 0xf578bb84f4be8715),
            ("legacy1500/M6", 0x47f2a46da4e4f9a5),
            ("legacy1500/M9", 0x213b8d94fb1b6125),
            ("legacy1500/M12", 0xd78fe8dba6818fc5),
            ("legacy1500/M18", 0x55f7fc3735584c45),
            ("legacy1500/M24", 0x7174ab3e0bdbe1ad),
            ("legacy1500/M36", 0xe1584ee0389a3bb1),
            ("legacy1500/M48", 0x90a17cd3d7c2fb61),
            ("legacy1500/M54", 0x6bf5a432f7b4c4c5),
        ],
    );
}

const LEGACY_RATES: [witag_phy::legacy::LegacyRate; 8] = {
    use witag_phy::legacy::LegacyRate;
    [
        LegacyRate::M6,
        LegacyRate::M9,
        LegacyRate::M12,
        LegacyRate::M18,
        LegacyRate::M24,
        LegacyRate::M36,
        LegacyRate::M48,
        LegacyRate::M54,
    ]
};

/// The stage-by-stage transmit chain the table-driven encoder replaced,
/// kept as its oracle (`parse_stream_into` inlined): bytes → LSB-first bits, SERVICE ‖ PSDU ‖ tail ‖
/// pad, scramble and re-zero the tail, encode at rate 1/2, puncture, then
/// per symbol and stream parse → interleave → QAM map → place data and
/// pilot carriers.
#[allow(clippy::too_many_arguments)]
fn oracle_data_symbols(
    seed: u8,
    psdu: &[u8],
    ndbps: usize,
    rate: CodeRate,
    m: Modulation,
    dims: InterleaverDims,
    nss: usize,
    data_positions: &[usize],
    pilot_positions: &[usize],
) -> Vec<OfdmSymbol> {
    let n_sym = (16 + 8 * psdu.len() + 6).div_ceil(ndbps);
    let mut bits = vec![0u8; 16];
    bits.extend_from_slice(&bytes_to_bits(psdu));
    bits.resize(n_sym * ndbps, 0);
    Scrambler::new(seed).apply(&mut bits);
    let tail = 16 + 8 * psdu.len();
    bits[tail..tail + 6].fill(0);
    let coded = puncture(&encode_stream(&bits), rate);
    assert_eq!(coded.len(), n_sym * nss * dims.n_cbps);

    let pilots = pilot_values(pilot_positions.len());
    let n_occupied = data_positions.len() + pilot_positions.len();
    coded
        .chunks(nss * dims.n_cbps)
        .map(|chunk| OfdmSymbol {
            streams: (0..nss)
                .map(|ss| {
                    // The 802.11n stream parser: groups of max(1, N_BPSCS/2)
                    // bits dealt round-robin across the streams.
                    let s = (dims.n_bpscs / 2).max(1);
                    let stream_bits: Vec<u8> = chunk
                        .chunks(s)
                        .skip(ss)
                        .step_by(nss)
                        .flatten()
                        .copied()
                        .collect();
                    let points = modulate(&interleave(&stream_bits, dims), m);
                    let mut carriers = vec![Complex64::ZERO; n_occupied];
                    for (&pos, &pt) in data_positions.iter().zip(&points) {
                        carriers[pos] = pt;
                    }
                    for (&pos, &pv) in pilot_positions.iter().zip(&pilots) {
                        carriers[pos] = pv;
                    }
                    carriers
                })
                .collect(),
        })
        .collect()
}

/// Every carrier of `got` has the bits of the same carrier of `want`.
fn assert_same_carriers(got: &[OfdmSymbol], want: &[OfdmSymbol], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: symbol count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.streams.len(),
            w.streams.len(),
            "{what}: stream count, symbol {i}"
        );
        for (ss, (gs, ws)) in g.streams.iter().zip(&w.streams).enumerate() {
            let same = gs.len() == ws.len()
                && gs.iter().zip(ws).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
            assert!(
                same,
                "{what}: symbol {i} stream {ss} differs from the oracle"
            );
        }
    }
}

/// `transmit`, `legacy_transmit` and `transmit_mu` give exactly the
/// carriers of the stage-by-stage oracle over HT MCS 0–31 at 20/40 MHz,
/// VHT MCS 0–9 × Nss 1–4 at 80 MHz, PSDU lengths from 1 B to 6 656 B,
/// scrambler seeds 0x01/0x5D/0x7F and every legacy rate.
#[test]
fn table_driven_transmit_matches_the_stage_by_stage_oracle() {
    let mut configs = Vec::new();
    for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40] {
        configs.extend((0..32).map(|idx| PhyConfig::with_bandwidth(Mcs::ht(idx), bw)));
    }
    for idx in 0..10 {
        for nss in 1..=4 {
            configs.push(PhyConfig::with_bandwidth(
                Mcs::vht(idx, nss),
                Bandwidth::Mhz80,
            ));
        }
    }
    let lens = [1usize, 57, 333, 6656];
    let seeds = [0x01u8, 0x5D, 0x7F];
    let mut checked = 0;
    for (c, config) in configs.iter_mut().enumerate() {
        let (n, d) = config.mcs.code_rate.as_fraction();
        if (config.ncbps() * n) % d != 0 {
            continue; // no whole number of data bits per symbol: not a valid MCS here
        }
        // Each configuration runs two of the lengths and one seed, so
        // the grid covers every pairing without running the product.
        for len in [lens[c % 4], lens[(c + 1) % 4]] {
            config.scrambler_seed = seeds[(c + len) % 3];
            let psdu = random_psdu(800 + c as u64, len);
            let layout = config.layout();
            let want = oracle_data_symbols(
                config.scrambler_seed,
                &psdu,
                config.ndbps(),
                config.mcs.code_rate,
                config.mcs.modulation,
                InterleaverDims::ht(
                    config.bandwidth,
                    config.mcs.modulation.bits_per_subcarrier(),
                ),
                config.mcs.spatial_streams,
                layout.data_positions(),
                layout.pilot_positions(),
            );
            let what = format!("{:?} {:?} len {len}", config.mcs, config.bandwidth);
            assert_same_carriers(&transmit(config, &psdu).symbols, &want, &what);
            checked += 1;
        }
    }
    assert!(checked > 200, "only {checked} HT/VHT frames checked");

    use witag_phy::legacy::{legacy_transmit, LegacyLayout};
    let layout = LegacyLayout::cached();
    for len in [1usize, 32, 1500] {
        for rate in LEGACY_RATES {
            let psdu = random_psdu(900 + len as u64, len);
            let want = oracle_data_symbols(
                0x2F,
                &psdu,
                rate.ndbps(),
                rate.code_rate(),
                rate.modulation(),
                InterleaverDims::legacy(rate.modulation().bits_per_subcarrier()),
                1,
                layout.data_positions(),
                layout.pilot_positions(),
            );
            let what = format!("legacy {rate:?} len {len}");
            assert_same_carriers(&legacy_transmit(rate, &psdu).symbols, &want, &what);
        }
    }

    // MU: stream `s` of the MU frame is the one-stream frame its own
    // scrambler seed gives.
    use witag_phy::mimo::transmit_mu;
    for idx in [8usize, 19, 31] {
        let config = PhyConfig::new(Mcs::ht(idx));
        let nss = config.mcs.spatial_streams;
        let psdus: Vec<Vec<u8>> = (0..nss).map(|s| random_psdu(950 + s as u64, 150)).collect();
        let mu = transmit_mu(&config, &psdus);
        let one = Mcs {
            spatial_streams: 1,
            ..config.mcs
        };
        let layout = config.layout();
        for (s, psdu) in psdus.iter().enumerate() {
            let seed = witag_phy::mimo::mu_stream_seed(config.scrambler_seed, s);
            let want = oracle_data_symbols(
                seed,
                psdu,
                one.data_bits_per_symbol(config.bandwidth),
                one.code_rate,
                one.modulation,
                InterleaverDims::ht(config.bandwidth, one.modulation.bits_per_subcarrier()),
                1,
                layout.data_positions(),
                layout.pilot_positions(),
            );
            let got: Vec<OfdmSymbol> = mu
                .symbols
                .iter()
                .map(|sym| OfdmSymbol {
                    streams: vec![sym.streams[s].clone()],
                })
                .collect();
            assert_same_carriers(&got, &want, &format!("mu mcs{idx} stream {s}"));
        }
    }
}

/// Bit errors of the decoder and of the `f64` oracle, over `frames`
/// frames of `n_bits` random bits coded at `mcs`'s rate and modulation,
/// through AWGN at `snr_db` (Es/N0 per constellation symbol). Both decode
/// the same noisy LLRs, so their difference is the quantisation's alone.
fn waterfall_point(mcs: Mcs, snr_db: f64, frames: usize, n_bits: usize, seed: u64) -> (u64, u64) {
    let m = mcs.modulation;
    let bpsc = m.bits_per_subcarrier();
    let noise_var = 10f64.powf(-snr_db / 10.0);
    let sigma = (noise_var / 2.0).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    let mut scratch = ViterbiScratch::default();
    let mut decoded = Vec::new();
    let (mut kernel, mut oracle) = (0u64, 0u64);
    for _ in 0..frames {
        let data: Vec<u8> = (0..n_bits).map(|_| rng.below(2) as u8).collect();
        let mut coded = puncture(&encode_stream(&data), mcs.code_rate);
        let n_coded = coded.len();
        coded.resize(n_coded.div_ceil(bpsc) * bpsc, 0);
        let mut syms = modulate(&coded, m);
        for s in syms.iter_mut() {
            *s += witag_phy::c64(rng.gaussian() * sigma, rng.gaussian() * sigma);
        }
        let mut llrs = demodulate_llr(&syms, m, noise_var);
        llrs.truncate(n_coded);
        viterbi_decode_punctured_into(&llrs, mcs.code_rate, n_bits, &mut scratch, &mut decoded);
        let reference =
            reference_viterbi_decode_stream(&depuncture(&llrs, mcs.code_rate, 2 * n_bits), n_bits);
        let errors = |bits: &[u8]| bits.iter().zip(&data).filter(|(a, b)| a != b).count() as u64;
        kernel += errors(&decoded);
        oracle += errors(&reference);
    }
    (kernel, oracle)
}

/// The SNR at which a BER curve sampled on `grid` crosses `target`,
/// interpolating log10(BER) linearly between the bracketing points.
fn crossing_db(grid: &[f64], ber: &[f64], target: f64) -> Option<f64> {
    grid.windows(2).zip(ber.windows(2)).find_map(|(s, b)| {
        (b[0] >= target && b[1] < target).then(|| {
            let (l0, l1) = (b[0].log10(), b[1].max(1e-12).log10());
            s[0] + (s[1] - s[0]) * (l0 - target.log10()) / (l0 - l1)
        })
    })
}

/// The quantised decoder's waterfall: at MCS 0, 5 and 7 its BER-vs-SNR
/// curve may sit at most 0.25 dB right of the `f64` oracle's at BER 10⁻³.
/// Release only (`ci.sh` runs it); the oracle is too slow in debug.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: ci.sh runs the release suite"
)]
fn quantised_decoder_loses_at_most_a_quarter_db_at_ber_1e3() {
    const TARGET: f64 = 1e-3;
    const FRAMES: usize = 100;
    const N_BITS: usize = 2000;
    for (idx, lo_db) in [(0usize, -2.0), (5, 14.0), (7, 17.0)] {
        let mcs = Mcs::ht(idx);
        let grid: Vec<f64> = (0..7).map(|i| lo_db + 0.5 * i as f64).collect();
        let (mut kernel, mut oracle) = (Vec::new(), Vec::new());
        for &snr in &grid {
            let (k, o) = waterfall_point(mcs, snr, FRAMES, N_BITS, 0x3A7E + idx as u64);
            let bits = (FRAMES * N_BITS) as f64;
            kernel.push(k as f64 / bits);
            oracle.push(o as f64 / bits);
        }
        let at_kernel =
            crossing_db(&grid, &kernel, TARGET).expect("decoder curve crosses 1e-3 on the grid");
        let at_oracle =
            crossing_db(&grid, &oracle, TARGET).expect("oracle curve crosses 1e-3 on the grid");
        let loss = at_kernel - at_oracle;
        eprintln!(
            "mcs{idx}: BER 1e-3 at {at_kernel:.2} dB (oracle {at_oracle:.2} dB), loss {loss:.3} dB"
        );
        assert!(
            loss <= 0.25,
            "mcs{idx}: quantisation loses {loss:.3} dB at BER 1e-3"
        );
    }
}
