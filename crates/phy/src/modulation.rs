//! Constellation mapping and soft demapping (802.11-2016 §17.3.5.8).
//!
//! Square QAM with binary-reflected Gray coding per axis, normalised to
//! unit average power (K_MOD = 1/√2, 1/√10, 1/√42, 1/√170). The demapper
//! produces per-bit max-log LLRs with the convention
//! `llr = ln P(0) − ln P(1)` (positive favours 0), computed per axis —
//! exact for Gray-mapped square constellations.

use crate::complex::{c64, Complex64};
use crate::mcs::Modulation;

/// Per-axis normalisation factor (K_MOD).
fn k_mod(m: Modulation) -> f64 {
    match m {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        Modulation::Qam256 => 1.0 / 170f64.sqrt(),
    }
}

/// Bits per axis (half of bits per subcarrier for QAM, 1/0 for BPSK).
fn axis_bits(m: Modulation) -> usize {
    match m {
        Modulation::Bpsk => 1,
        _ => m.bits_per_subcarrier() / 2,
    }
}

/// Decode binary-reflected Gray code.
fn gray_decode(mut g: u32) -> u32 {
    let mut b = g;
    while g > 1 {
        g >>= 1;
        b ^= g;
    }
    b
}

/// Map `k` MSB-first bits to an unnormalised axis level in
/// `{-(2^k-1), …, 2^k-1}` via the 802.11 Gray tables.
fn bits_to_level(bits: &[u8]) -> f64 {
    let k = bits.len();
    let g = bits.iter().fold(0u32, |acc, &b| (acc << 1) | b as u32);
    let index = gray_decode(g);
    (2.0 * index as f64) - ((1 << k) as f64 - 1.0)
}

/// The constellation point for one subcarrier's `bits_per_subcarrier`
/// bits, scaled by `k` (K_MOD).
fn point(chunk: &[u8], m: Modulation, k: f64) -> Complex64 {
    match m {
        Modulation::Bpsk => c64(bits_to_level(chunk), 0.0) * k,
        _ => {
            let (i, q) = chunk.split_at(chunk.len() / 2);
            c64(bits_to_level(i), bits_to_level(q)) * k
        }
    }
}

/// Map a bit slice onto constellation points. `bits.len()` must be a
/// multiple of the modulation's bits-per-subcarrier.
pub fn modulate(bits: &[u8], m: Modulation) -> Vec<Complex64> {
    let bpsc = m.bits_per_subcarrier();
    assert!(
        bits.len().is_multiple_of(bpsc),
        "bit count {} not a multiple of {bpsc}",
        bits.len()
    );
    let k = k_mod(m);
    bits.chunks(bpsc).map(|chunk| point(chunk, m, k)).collect()
}

/// The constellation point of every `bits_per_subcarrier`-bit pattern,
/// indexed by the pattern read MSB first (entries past 2^N_BPSCS stay
/// zero). Each entry is the [`modulate`] point of those bits, so a lookup
/// is bit-identical to mapping them; the transmit chain builds one table
/// per PPDU, on the stack.
pub(crate) fn point_table(m: Modulation) -> [Complex64; 256] {
    let bpsc = m.bits_per_subcarrier();
    let k = k_mod(m);
    let mut table = [Complex64::ZERO; 256];
    let mut chunk = [0u8; 8];
    for (v, pt) in table.iter_mut().enumerate().take(1 << bpsc) {
        for (b, bit) in chunk[..bpsc].iter_mut().enumerate() {
            *bit = ((v >> (bpsc - 1 - b)) & 1) as u8;
        }
        *pt = point(&chunk[..bpsc], m, k);
    }
    table
}

/// Max-log LLRs for the `k` Gray-coded bits of one axis observation.
///
/// `y` is the received coordinate (already divided by K_MOD), `sigma2`
/// the per-axis noise variance in the same scale.
fn axis_llrs(y: f64, k: usize, sigma2: f64, out: &mut Vec<f64>) {
    debug_assert!(k <= 4, "axis carries at most 4 bits (256-QAM)");
    let n_levels = 1usize << k;
    // Distances to each level, indexed by the Gray-coded bit pattern.
    // For small k (≤4) brute force over levels is cheap and exact; fixed
    // arrays keep the per-subcarrier hot path allocation-free.
    let mut min0 = [f64::INFINITY; 4];
    let mut min1 = [f64::INFINITY; 4];
    for index in 0..n_levels {
        let level = (2.0 * index as f64) - (n_levels as f64 - 1.0);
        let d2 = (y - level) * (y - level);
        let g = index as u32 ^ (index as u32 >> 1); // binary -> Gray
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

/// Max-log LLRs for one axis with a compile-time bit count and a
/// precomputed output scale (see [`axis_scale`]).
///
/// Bit-identical to [`demodulate_llr_into`]'s per-call path: the distance
/// expression `(y − level)²`, the level grid and the strict `<` minimum
/// updates are the same floating-point operations — only the per-bit
/// minimum bookkeeping is restructured into fully unrolled, branchless
/// form (the minimum over a fixed set of distances is
/// association-independent, so the value is exact). `out[..K]` receives
/// the K MSB-first bit LLRs.
// lint:no_alloc
#[inline(always)]
pub fn axis_llrs_fixed<const K: usize>(y: f64, scale: f64, out: &mut [f64]) {
    let n_levels = 1usize << K;
    let mut min0 = [f64::INFINITY; K];
    let mut min1 = [f64::INFINITY; K];
    for index in 0..n_levels {
        let level = (2.0 * index as f64) - (n_levels as f64 - 1.0);
        let d2 = (y - level) * (y - level);
        let g = (index ^ (index >> 1)) as u32; // binary -> Gray
        for bit in 0..K {
            let mask = 1u32 << (K - 1 - bit);
            // `g & mask` is a constant once the level loop unrolls, so each
            // (level, bit) pair folds to one branchless min update.
            if g & mask == 0 {
                min0[bit] = if d2 < min0[bit] { d2 } else { min0[bit] };
            } else {
                min1[bit] = if d2 < min1[bit] { d2 } else { min1[bit] };
            }
        }
    }
    for bit in 0..K {
        out[bit] = (min1[bit] - min0[bit]) * scale;
    }
}

/// The LLR output scale [`demodulate_llr_into`] applies for `noise_var`:
/// `1 / (2·σ²_axis)` in unnormalised axis coordinates, with the same
/// floating-point operation sequence, so per-subcarrier scales can be
/// hoisted out of per-symbol loops without changing any bit.
pub fn axis_scale(m: Modulation, noise_var: f64) -> f64 {
    let k = k_mod(m);
    let sigma2_axis = (noise_var / 2.0) / (k * k);
    let sigma2 = match m {
        Modulation::Bpsk => sigma2_axis * 2.0,
        _ => sigma2_axis,
    };
    1.0 / (2.0 * sigma2.max(1e-12))
}

/// Chunked soft demap of one symbol's equalised subcarriers with
/// per-subcarrier precomputed scales (`scales[i]` = [`axis_scale`] of
/// subcarrier `i`'s effective noise). Appends
/// `eqs.len() × bits_per_subcarrier` LLRs to `out` in the same order as
/// [`demodulate_llr_into`] — and bit-identical to it (the dispatch on the
/// modulation is hoisted out of the subcarrier loop and the inner kernel
/// is [`axis_llrs_fixed`]). This is the receive chain's demapper.
// lint:no_alloc
pub fn demap_symbol_into(eqs: &[Complex64], m: Modulation, scales: &[f64], out: &mut Vec<f64>) {
    assert_eq!(eqs.len(), scales.len(), "one scale per subcarrier");
    let k = k_mod(m);
    let start = out.len();
    let bpsc = m.bits_per_subcarrier();
    out.resize(start + eqs.len() * bpsc, 0.0);
    let dst = &mut out[start..];
    match m {
        Modulation::Bpsk => {
            for ((o, &s), &sc) in dst.chunks_exact_mut(1).zip(eqs).zip(scales) {
                axis_llrs_fixed::<1>(s.re / k, sc, o);
            }
        }
        Modulation::Qpsk => {
            for ((o, &s), &sc) in dst.chunks_exact_mut(2).zip(eqs).zip(scales) {
                axis_llrs_fixed::<1>(s.re / k, sc, &mut o[..1]);
                axis_llrs_fixed::<1>(s.im / k, sc, &mut o[1..]);
            }
        }
        Modulation::Qam16 => {
            for ((o, &s), &sc) in dst.chunks_exact_mut(4).zip(eqs).zip(scales) {
                axis_llrs_fixed::<2>(s.re / k, sc, &mut o[..2]);
                axis_llrs_fixed::<2>(s.im / k, sc, &mut o[2..]);
            }
        }
        Modulation::Qam64 => {
            for ((o, &s), &sc) in dst.chunks_exact_mut(6).zip(eqs).zip(scales) {
                axis_llrs_fixed::<3>(s.re / k, sc, &mut o[..3]);
                axis_llrs_fixed::<3>(s.im / k, sc, &mut o[3..]);
            }
        }
        Modulation::Qam256 => {
            for ((o, &s), &sc) in dst.chunks_exact_mut(8).zip(eqs).zip(scales) {
                axis_llrs_fixed::<4>(s.re / k, sc, &mut o[..4]);
                axis_llrs_fixed::<4>(s.im / k, sc, &mut o[4..]);
            }
        }
    }
}

/// Soft-demap equalised symbols into per-bit LLRs.
///
/// `noise_var` is the post-equalisation complex noise variance (E|n|²)
/// relative to unit symbol power. Per-axis variance is half of it.
pub fn demodulate_llr(symbols: &[Complex64], m: Modulation, noise_var: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(symbols.len() * m.bits_per_subcarrier());
    demodulate_llr_into(symbols, m, noise_var, &mut out);
    out
}

/// [`demodulate_llr`] appending into a caller-provided buffer instead of
/// returning a fresh `Vec`. The receive chain calls this once per data
/// subcarrier, so buffer reuse removes the dominant allocation source of
/// the whole RX hot path. LLRs are *appended* — callers clear when they
/// need a fresh symbol's worth.
// lint:no_alloc
pub fn demodulate_llr_into(
    symbols: &[Complex64],
    m: Modulation,
    noise_var: f64,
    out: &mut Vec<f64>,
) {
    let k = k_mod(m);
    let ab = axis_bits(m);
    // Work in unnormalised axis coordinates: y' = y / K_MOD, so noise
    // variance scales by 1/K_MOD² as well.
    let sigma2_axis = (noise_var / 2.0) / (k * k);
    for &s in symbols {
        match m {
            Modulation::Bpsk => axis_llrs(s.re / k, 1, sigma2_axis * 2.0, out),
            _ => {
                axis_llrs(s.re / k, ab, sigma2_axis, out);
                axis_llrs(s.im / k, ab, sigma2_axis, out);
            }
        }
    }
}

/// Hard-decision demap (sign of the LLRs with unit noise).
pub fn demodulate_hard(symbols: &[Complex64], m: Modulation) -> Vec<u8> {
    demodulate_llr(symbols, m, 1.0)
        .into_iter()
        .map(|llr| u8::from(llr < 0.0))
        .collect()
}

/// Average constellation power (should be ≈1 for every modulation).
pub fn average_power(m: Modulation) -> f64 {
    let n = 1usize << m.bits_per_subcarrier();
    point_table(m)[..n]
        .iter()
        .map(|pt| pt.norm_sqr())
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_sim::Rng;

    const ALL: [Modulation; 5] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ];

    #[test]
    fn constellations_have_unit_average_power() {
        for m in ALL {
            let p = average_power(m);
            assert!((p - 1.0).abs() < 1e-12, "{m:?}: power {p}");
        }
    }

    #[test]
    fn bpsk_mapping_matches_standard() {
        assert_eq!(modulate(&[0], Modulation::Bpsk)[0], c64(-1.0, 0.0));
        assert_eq!(modulate(&[1], Modulation::Bpsk)[0], c64(1.0, 0.0));
    }

    #[test]
    fn qam16_gray_axis_matches_standard_table() {
        // 802.11 Table 17-15: b0b1 = 00→-3, 01→-1, 11→+1, 10→+3 (×K_MOD).
        let k = 1.0 / 10f64.sqrt();
        let cases = [
            ([0u8, 0], -3.0),
            ([0, 1], -1.0),
            ([1, 1], 1.0),
            ([1, 0], 3.0),
        ];
        for (bits, level) in cases {
            let pt = modulate(&[bits[0], bits[1], 0, 0], Modulation::Qam16)[0];
            assert!((pt.re - level * k).abs() < 1e-12, "{bits:?} -> {pt:?}");
        }
    }

    #[test]
    fn qam64_corner_points() {
        // All-zero bits -> most negative corner (-7, -7)·K_MOD.
        let k = 1.0 / 42f64.sqrt();
        let pt = modulate(&[0, 0, 0, 0, 0, 0], Modulation::Qam64)[0];
        assert!((pt.re + 7.0 * k).abs() < 1e-12 && (pt.im + 7.0 * k).abs() < 1e-12);
        // 100100 -> (+7, +7).
        let pt = modulate(&[1, 0, 0, 1, 0, 0], Modulation::Qam64)[0];
        assert!((pt.re - 7.0 * k).abs() < 1e-12 && (pt.im - 7.0 * k).abs() < 1e-12);
    }

    #[test]
    fn noiseless_demap_roundtrips_all_modulations() {
        let mut rng = Rng::seed_from_u64(5);
        for m in ALL {
            let bpsc = m.bits_per_subcarrier();
            let bits: Vec<u8> = (0..bpsc * 40).map(|_| (rng.next_u64() & 1) as u8).collect();
            let syms = modulate(&bits, m);
            assert_eq!(syms.len(), 40);
            let hard = demodulate_hard(&syms, m);
            assert_eq!(hard, bits, "{m:?}");
        }
    }

    #[test]
    fn llr_sign_flips_with_noise_on_bpsk() {
        // A point pushed across the decision boundary must flip its LLR.
        let clean = modulate(&[1], Modulation::Bpsk)[0];
        let llr_clean = demodulate_llr(&[clean], Modulation::Bpsk, 0.1);
        assert!(llr_clean[0] < 0.0, "bit 1 must give negative LLR");
        let pushed = clean + c64(-2.0, 0.0); // now at -1: looks like bit 0
        let llr_pushed = demodulate_llr(&[pushed], Modulation::Bpsk, 0.1);
        assert!(llr_pushed[0] > 0.0);
    }

    #[test]
    fn llr_magnitude_scales_with_confidence() {
        let pt = modulate(&[0, 0], Modulation::Qpsk)[0];
        let strong = demodulate_llr(&[pt], Modulation::Qpsk, 0.01);
        let weak = demodulate_llr(&[pt], Modulation::Qpsk, 1.0);
        assert!(
            strong[0] > weak[0],
            "lower noise must mean higher confidence"
        );
        assert!(strong[0] > 0.0 && weak[0] > 0.0);
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        // Adjacent 16-QAM axis levels must differ in exactly one bit —
        // the property that keeps near-boundary errors to single bits.
        let axis_patterns: [[u8; 2]; 4] = [[0, 0], [0, 1], [1, 1], [1, 0]];
        for w in axis_patterns.windows(2) {
            let diff: usize = w[0].iter().zip(w[1].iter()).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn phase_flip_scrambles_qam_bits() {
        // The tag's 180° flip turns each point into its negation; for Gray
        // QAM that breaks roughly half the bits — enough to kill a coded
        // subframe. Verify the negated constellation decodes differently.
        let mut rng = Rng::seed_from_u64(6);
        let bits: Vec<u8> = (0..4 * 100).map(|_| (rng.next_u64() & 1) as u8).collect();
        let syms = modulate(&bits, Modulation::Qam16);
        let flipped: Vec<Complex64> = syms.iter().map(|&s| -s).collect();
        let hard = demodulate_hard(&flipped, Modulation::Qam16);
        let errors = hard.iter().zip(bits.iter()).filter(|(a, b)| a != b).count();
        assert!(
            errors > bits.len() / 4,
            "phase flip must corrupt many bits, got {errors}/{}",
            bits.len()
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn partial_symbol_rejected() {
        let _ = modulate(&[1, 0, 1], Modulation::Qam16);
    }
}
