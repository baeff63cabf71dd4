//! The receive chain: channel estimation, equalisation, demapping and
//! decoding.
//!
//! This is where WiTAG's corruption mechanism lives (paper §3.2, §5): the
//! receiver estimates the channel **once**, from the LTF at the start of
//! the PPDU, and equalises every subsequent DATA symbol with that single
//! estimate. If the channel changes mid-frame — because a tag flipped its
//! reflection phase — the stale estimate rotates/scales the affected
//! symbols' constellations, the LLRs go wrong en masse, the Viterbi
//! decoder emits garbage for those bit ranges, and the enclosing MPDU's
//! FCS fails. Nothing here knows about the tag; corruption *emerges*.
//!
//! Pilot handling: receivers track common phase error (CPE) across symbols
//! using the pilot tones and undo it before demapping. This is modelled
//! because it is the one mechanism that could plausibly "heal" a tag flip —
//! the tests show it does not (the tag adds a *frequency-selective* path
//! change, not a common rotation), matching the paper's observation that
//! commodity NICs cannot decode tag-corrupted subframes.

use crate::complex::Complex64;
use crate::convolutional::{viterbi_decode_punctured_into, ViterbiScratch};
use crate::interleaver::{InterleaverDims, InterleaverPerm};
use crate::mcs::CodeRate;
use crate::mimo::{self, MAX_NSS};
use crate::modulation::{axis_scale, demap_symbol_into};
use crate::params::ht_ltf_count;
use crate::ppdu::{deparse_streams_into, pilot_values, OfdmSymbol, PhyConfig, Ppdu};
use crate::scrambler::Scrambler;

/// Reusable working memory for the receive chain.
///
/// One `RxScratch` threaded through [`receive_with_scratch`],
/// [`receive_mu_with_scratch`] and the legacy
/// [`crate::legacy::legacy_receive_with_scratch`] makes the receive hot
/// path allocation-free in steady state: the caches of interleaver
/// permutations and pilot patterns, and every working buffer of a
/// decode, are owned here and reused across calls.
#[derive(Debug, Default)]
pub struct RxScratch {
    /// Cached interleaver permutations, one per dimension set seen (an
    /// experiment alternates HT data frames and legacy block ACKs, so
    /// several sets stay warm at once).
    pub(crate) perms: Vec<InterleaverPerm>,
    /// Cached pilot patterns keyed by pilot count.
    pub(crate) pilots: Vec<Vec<Complex64>>,
    /// The working buffers.
    pub(crate) bufs: RxBufs,
}

/// The working buffers of [`RxScratch`], apart from its caches so that
/// a decode can hold a cached permutation and pilot pattern while these
/// stay mutable.
#[derive(Debug, Default)]
pub(crate) struct RxBufs {
    /// One stream's LLRs for one symbol in transmit (subcarrier) order.
    pub(crate) llrs_tx: Vec<f64>,
    /// Per-stream deinterleaved (code-order) LLRs of the whole PPDU. A
    /// single-stream PPDU decodes `per_stream[0]` in place, a MU PPDU
    /// decodes each stream.
    pub(crate) per_stream: Vec<Vec<f64>>,
    /// The merged coded LLR stream: the stream deparse of a multiplexed
    /// PPDU, or a legacy PPDU's code stream.
    pub(crate) coded_llrs: Vec<f64>,
    /// Decoded (still scrambled, then descrambled in place) bits.
    pub(crate) bits: Vec<u8>,
    /// Viterbi path-metric and survivor storage.
    pub(crate) viterbi: ViterbiScratch,
    /// Per-subcarrier demapper output scales, per stream — hoisted out
    /// of the per-symbol loop, as the estimate is static across a PPDU.
    pub(crate) demap_scales: Vec<f64>,
    /// Channel matrix estimate: `h_mat[pos*nss*nss + j*nss + i]` (RX
    /// antenna `j`, TX stream `i`).
    pub(crate) h_mat: Vec<Complex64>,
    /// Hoisted equaliser weight matrices (row-major `nss×nss` blocks, one
    /// per data subcarrier; the legacy chain keeps `1/h` here).
    pub(crate) w_mat: Vec<Complex64>,
    /// Per-stream equalised data subcarriers for one symbol (SoA form
    /// for the chunked demapper).
    pub(crate) eq_streams: Vec<Vec<Complex64>>,
}

impl RxScratch {
    /// Fresh, empty scratch. Buffers grow to steady-state sizes on the
    /// first call that uses them.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached interleaver permutation for `dims`, built on first
    /// sight.
    pub(crate) fn perm(perms: &mut Vec<InterleaverPerm>, dims: InterleaverDims) -> &InterleaverPerm {
        cached(perms, |p| p.dims() == dims, || InterleaverPerm::new(dims))
    }

    /// The cached permutation and pilot pattern of an HT/VHT `config`,
    /// and the working buffers.
    fn split_for(&mut self, config: &PhyConfig) -> (&InterleaverPerm, &[Complex64], &mut RxBufs) {
        let n_bpscs = config.mcs.modulation.bits_per_subcarrier();
        let dims = InterleaverDims::ht(config.bandwidth, n_bpscs);
        let n_pilots = config.layout().pilot_positions().len();
        let perm = Self::perm(&mut self.perms, dims);
        let pilots = cached(&mut self.pilots, |p| p.len() == n_pilots, || pilot_values(n_pilots));
        (perm, pilots, &mut self.bufs)
    }
}

/// The entry of `cache` that `hit` accepts, built by `build` on first
/// sight.
fn cached<T>(cache: &mut Vec<T>, hit: impl Fn(&T) -> bool, build: impl FnOnce() -> T) -> &T {
    let i = match cache.iter().position(hit) {
        Some(i) => i,
        None => {
            cache.push(build());
            cache.len() - 1
        }
    };
    &cache[i] // lint:allow(panic_path) i is a position() hit or len - 1 after push
}

/// Result of decoding one PPDU.
#[derive(Debug, Clone)]
pub struct DecodedPsdu {
    /// The recovered PSDU bytes (always `psdu_len` long; the MAC layer's
    /// per-MPDU FCS decides what survived).
    pub bytes: Vec<u8>,
    /// Mean |LLR| per DATA symbol — a soft quality indicator the tests use
    /// to verify which symbols a perturbation actually hit.
    pub symbol_quality: Vec<f64>,
}

impl DecodedPsdu {
    /// How many symbols [`quality`](Self::quality) inspects at most: a
    /// fixed-stride subsample keeps the summary O(1)-ish and its cost
    /// independent of PPDU length.
    pub const QUALITY_SAMPLE_CAP: usize = 16;

    /// Reduce `symbol_quality` to an allocation-free observability
    /// summary: min/mean/max of the per-symbol mean |LLR| over a
    /// fixed-stride sample of at most
    /// [`QUALITY_SAMPLE_CAP`](Self::QUALITY_SAMPLE_CAP) symbols.
    /// Deterministic: the stride
    /// depends only on the symbol count, so equal decodes summarise
    /// identically.
    // lint:no_alloc
    pub fn quality(&self) -> witag_obs::RxQuality {
        let n = self.symbol_quality.len();
        if n == 0 {
            return witag_obs::RxQuality::default();
        }
        let stride = n.div_ceil(Self::QUALITY_SAMPLE_CAP).max(1);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut sampled = 0u32;
        let mut i = 0;
        while i < n {
            let q = self.symbol_quality[i];
            min = if q < min { q } else { min };
            max = if q > max { q } else { max };
            sum += q;
            sampled += 1;
            i += stride;
        }
        witag_obs::RxQuality {
            symbols: n as u32,
            sampled,
            llr_min: min,
            llr_mean: sum / f64::from(sampled),
            llr_max: max,
        }
    }
}

/// Receive: estimate the channel from the PPDU's (channel-distorted) LTF,
/// equalise every DATA symbol with that single estimate, demap, decode and
/// descramble.
///
/// `noise_var` is the true post-channel complex noise variance per
/// subcarrier (relative to unit TX power); the demapper uses it to scale
/// LLRs. Real receivers estimate this from the preamble; giving the model
/// the true value removes an estimation error source that is orthogonal to
/// what the reproduction studies.
///
/// Every stream count runs one core: the `Nss×Nss` channel matrix from the
/// P-mapped LTFs, one [`crate::mimo::MimoEqualiser`] weight matrix per data
/// subcarrier, pilot CPE tracking, `x̂ = W·(y·cpe)`. One stream is the 1×1
/// case, where zero-forcing is the per-subcarrier divide by `h`.
///
/// Malformed shapes never panic. Decoding stops at the first DATA symbol
/// that lacks one of the `Nss` streams or one of the occupied subcarriers,
/// and a stream count outside `1..=4`, training symbols that cannot sound
/// every stream or a scrambler seed that is not 7-bit nonzero leave no
/// symbol to decode. The result still carries `psdu_len` bytes: those the
/// decoded symbols do not carry are zero.
///
/// This is the allocating convenience wrapper (fresh scratch, fresh
/// output); [`receive_with_scratch`] reuses the working memory.
pub fn receive(rx: &Ppdu, noise_var: f64) -> DecodedPsdu {
    receive_with_scratch(rx, noise_var, &mut RxScratch::new())
}

/// [`receive`] with caller-provided working memory: once `scratch` is
/// warm, the chain performs no intermediate allocation (only the returned
/// `DecodedPsdu`'s two output vectors are freshly allocated). Results are
/// bit-identical to [`receive`].
pub fn receive_with_scratch(rx: &Ppdu, noise_var: f64, scratch: &mut RxScratch) -> DecodedPsdu {
    let mut out = DecodedPsdu { bytes: Vec::new(), symbol_quality: Vec::new() };
    let (perm, pilots, bufs) = scratch.split_for(&rx.config);
    decode_core(rx, noise_var, perm, pilots, bufs, &mut out);
    out
}

/// Decode one single-user PPDU into `dst`: the shared front half
/// ([`demap_streams`]), then the stream deparse — the identity at
/// `Nss = 1`, so that stream decodes in place — and [`decode_tail`].
// lint:no_alloc
fn decode_core(
    rx: &Ppdu,
    noise_var: f64,
    perm: &InterleaverPerm,
    pilots: &[Complex64],
    bufs: &mut RxBufs,
    dst: &mut DecodedPsdu,
) {
    let config = &rx.config;
    let nss = config.mcs.spatial_streams;
    let n_sym = demap_streams(rx, noise_var, perm, pilots, bufs, &mut dst.symbol_quality);
    dst.bytes.clear();
    dst.bytes.resize(rx.psdu_len, 0);
    if n_sym == 0 {
        return;
    }
    let coded: &[f64] = if nss == 1 {
        &bufs.per_stream[0]
    } else {
        // One quality per symbol: the mean over its streams.
        let q = &mut dst.symbol_quality;
        for s in 0..n_sym {
            let mut acc = 0.0;
            for &qs in &q[s * nss..(s + 1) * nss] {
                acc += qs;
            }
            q[s] = acc / nss as f64;
        }
        q.truncate(n_sym);
        // Each stream's N_CBPSS is a multiple of the parser's block, so
        // one deparse of the whole PPDU deals the blocks exactly as one
        // deparse per symbol would.
        bufs.coded_llrs.clear();
        deparse_streams_into(
            &bufs.per_stream[..nss],
            config.mcs.modulation.bits_per_subcarrier(),
            &mut bufs.coded_llrs,
        );
        &bufs.coded_llrs
    };
    decode_tail(
        coded,
        config.mcs.code_rate,
        n_sym * config.ndbps(),
        config.scrambler_seed,
        &mut bufs.viterbi,
        &mut bufs.bits,
        &mut dst.bytes,
    );
}

/// The decode tail every receive path shares: Viterbi over the punctured
/// coded stream of `n_bits` information bits, descramble, then the PSDU
/// bytes after the 16 SERVICE bits into `psdu`, which arrives zeroed at
/// the signalled length. Bytes the decoded bits do not reach stay zero.
// lint:no_alloc
pub(crate) fn decode_tail(
    coded: &[f64],
    rate: CodeRate,
    n_bits: usize,
    scrambler_seed: u8,
    viterbi: &mut ViterbiScratch,
    bits: &mut Vec<u8>,
    psdu: &mut [u8],
) {
    viterbi_decode_punctured_into(coded, rate, n_bits, viterbi, bits);
    Scrambler::new(scrambler_seed).apply(bits);
    let carried = bits.get(16..).unwrap_or(&[]);
    for (byte, chunk) in psdu.iter_mut().zip(carried.chunks_exact(8)) {
        *byte = chunk
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | (b << i));
    }
}

/// Widest pilot pattern the fixed-size pilot table covers (80 MHz
/// carries 8 pilot tones).
const MAX_PILOTS: usize = 8;

/// The shape check at the entry of the HT/VHT decode: how many leading
/// DATA symbols of `rx` carry every stream on every occupied subcarrier.
/// It is 0 when the stream count is outside `1..=MAX_NSS`, the scrambler
/// seed is not 7-bit nonzero (no descrambler exists for it), or the
/// training symbols cannot sound the channel.
// lint:no_alloc
fn full_symbols(rx: &Ppdu) -> usize {
    let nss = rx.config.mcs.spatial_streams;
    if !(1..=MAX_NSS).contains(&nss) || !(1..0x80).contains(&rx.config.scrambler_seed) {
        return 0;
    }
    let n_occupied = rx.config.layout().n_occupied();
    let full = |sym: &OfdmSymbol| {
        sym.streams.len() >= nss && sym.streams[..nss].iter().all(|s| s.len() >= n_occupied)
    };
    let n_ltf = ht_ltf_count(nss);
    if rx.ltfs.len() < n_ltf || !rx.ltfs[..n_ltf].iter().all(full) {
        return 0;
    }
    rx.symbols.iter().take_while(|sym| full(sym)).count()
}

/// Per-PPDU hoist: estimate the full channel matrix from the P-mapped
/// LTFs, precompute one equaliser weight matrix per data subcarrier and
/// the per-stream demapper scales (effective noise = per-antenna noise
/// amplified by the equaliser row), and return the expected pilot values
/// per RX antenna (what each antenna should see when every stream
/// transmits the common pilot tone).
// lint:no_alloc
fn hoist_weights(
    rx: &Ppdu,
    noise_var: f64,
    pilots: &[Complex64],
    bufs: &mut RxBufs,
) -> [Complex64; MAX_NSS * MAX_PILOTS] {
    let config = &rx.config;
    let layout = config.layout();
    let nss = config.mcs.spatial_streams;
    let modulation = config.mcs.modulation;
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();
    assert!(layout.pilot_positions().len() <= MAX_PILOTS, "pilot table bound");

    mimo::estimate_into(&rx.ltfs[..ht_ltf_count(nss)], nss, layout.n_occupied(), &mut bufs.h_mat);

    bufs.w_mat.clear();
    bufs.w_mat.reserve(n_data * nss * nss);
    bufs.demap_scales.clear();
    bufs.demap_scales.resize(nss * n_data, 0.0);
    let mut wbuf = [Complex64::ZERO; MAX_NSS * MAX_NSS];
    let mut eff_noise = [0.0; MAX_NSS];
    for (idx, &pos) in data_pos.iter().enumerate() {
        let h = &bufs.h_mat[pos * nss * nss..(pos + 1) * nss * nss];
        // A singular subcarrier falls back to identity weights: the
        // decode proceeds and the FCS judges the result — no panic.
        config.equaliser.weights(h, nss, noise_var, &mut wbuf);
        bufs.w_mat.extend_from_slice(&wbuf[..nss * nss]);
        mimo::eff_noise_rows(&wbuf, nss, noise_var, &mut eff_noise);
        let column = bufs.demap_scales.iter_mut().skip(idx).step_by(n_data);
        for (scale, &eff) in column.zip(&eff_noise[..nss]) {
            *scale = axis_scale(modulation, eff);
        }
    }

    let mut pilot_exp = [Complex64::ZERO; MAX_NSS * MAX_PILOTS];
    for j in 0..nss {
        for (p, (&pos, &pv)) in layout
            .pilot_positions()
            .iter()
            .zip(pilots.iter())
            .enumerate()
        {
            let mut hsum = Complex64::ZERO;
            for i in 0..nss {
                hsum += bufs.h_mat[pos * nss * nss + j * nss + i]; // lint:allow(panic_path) estimate_into filled h_mat with n_occupied*nss*nss entries
            }
            pilot_exp[j * MAX_PILOTS + p] = hsum * pv;
        }
    }
    pilot_exp
}

/// Jointly equalise one OFDM symbol into `bufs.eq_streams`: estimate the
/// common phase error across **all** RX antennas (the oscillators are
/// shared, so one CPE per symbol), then apply the hoisted per-subcarrier
/// weight matrix `x̂ = W·(y·cpe)`.
// lint:no_alloc
fn equalise_symbol(
    sym: &OfdmSymbol,
    nss: usize,
    data_pos: &[usize],
    pilot_positions: &[usize],
    pilot_exp: &[Complex64; MAX_NSS * MAX_PILOTS],
    bufs: &mut RxBufs,
) {
    let mut acc = Complex64::ZERO;
    for j in 0..nss {
        let raw = &sym.streams[j];
        for (p, &pos) in pilot_positions.iter().enumerate() {
            acc += raw[pos] * pilot_exp[j * MAX_PILOTS + p].conj();
        }
    }
    let cpe = if acc.abs() > 1e-12 {
        Complex64::from_polar(1.0, -acc.arg())
    } else {
        Complex64::ONE
    };

    let n_data = data_pos.len();
    for ss in 0..nss {
        let eq = &mut bufs.eq_streams[ss];
        eq.clear();
        eq.reserve(n_data);
    }
    for (idx, &pos) in data_pos.iter().enumerate() {
        let w = &bufs.w_mat[idx * nss * nss..(idx + 1) * nss * nss];
        let mut y = [Complex64::ZERO; MAX_NSS];
        for (j, yj) in y.iter_mut().enumerate().take(nss) {
            *yj = sym.streams[j][pos] * cpe;
        }
        for i in 0..nss {
            let mut x = Complex64::ZERO;
            for j in 0..nss {
                x += w[i * nss + j] * y[j]; // lint:allow(panic_path) i,j < nss <= MAX_NSS; w slice is nss*nss, y is MAX_NSS
            }
            bufs.eq_streams[i].push(x);
        }
    }
}

/// The front half every HT/VHT receive shares, single-user and MU alike:
/// the shape check ([`full_symbols`]), the per-PPDU hoist, then per DATA
/// symbol the joint equalise ([`equalise_symbol`]), each stream's demap,
/// and its deinterleave onto the end of `per_stream[ss]`, so each stream's
/// code-order LLRs for the whole PPDU end up in one buffer. Each symbol
/// pushes its `Nss` per-stream mean |LLR| values onto `quality`, stream
/// order. Returns the number of DATA symbols decoded.
// lint:no_alloc
fn demap_streams(
    rx: &Ppdu,
    noise_var: f64,
    perm: &InterleaverPerm,
    pilots: &[Complex64],
    bufs: &mut RxBufs,
    quality: &mut Vec<f64>,
) -> usize {
    quality.clear();
    let n_sym = full_symbols(rx);
    if n_sym == 0 {
        return 0;
    }
    let config = &rx.config;
    let layout = config.layout();
    let nss = config.mcs.spatial_streams;
    let modulation = config.mcs.modulation;
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();

    bufs.per_stream.resize_with(bufs.per_stream.len().max(nss), Vec::new); // lint:allow(no_alloc)
    bufs.eq_streams.resize_with(bufs.eq_streams.len().max(nss), Vec::new); // lint:allow(no_alloc)
    for stream in &mut bufs.per_stream[..nss] {
        stream.clear();
        stream.reserve(n_sym * perm.dims().n_cbps);
    }
    quality.reserve(n_sym * nss);

    let pilot_exp = hoist_weights(rx, noise_var, pilots, bufs);
    for sym in &rx.symbols[..n_sym] {
        equalise_symbol(sym, nss, data_pos, layout.pilot_positions(), &pilot_exp, bufs);
        for ss in 0..nss {
            let scales = &bufs.demap_scales[ss * n_data..(ss + 1) * n_data];
            bufs.llrs_tx.clear();
            demap_symbol_into(&bufs.eq_streams[ss], modulation, scales, &mut bufs.llrs_tx);
            let llrs = &bufs.llrs_tx;
            quality.push(llrs.iter().map(|l| l.abs()).sum::<f64>() / llrs.len() as f64);
            perm.deinterleave_append(llrs, &mut bufs.per_stream[ss]);
        }
    }
    n_sym
}

/// Decode a MU PPDU ([`crate::mimo::transmit_mu`]) carrying one
/// independent PSDU per spatial stream: the same front half as
/// [`receive_with_scratch`] (and the same rule for malformed shapes),
/// but each stream is its own scrambled, punctured codeword (per-stream
/// scrambler seed) and runs the decode tail on its own, yielding one
/// [`DecodedPsdu`] per stream in stream order. This is scenario-layer
/// code (MOXcatter), not the hot receive path — it allocates its output
/// freely.
pub fn receive_mu_with_scratch(
    rx: &Ppdu,
    noise_var: f64,
    scratch: &mut RxScratch,
) -> Vec<DecodedPsdu> {
    let config = &rx.config;
    let nss = config.mcs.spatial_streams;
    let (perm, pilots, bufs) = scratch.split_for(config);
    let mut quality = Vec::new();
    let n_sym = demap_streams(rx, noise_var, perm, pilots, bufs, &mut quality);
    let n_bits = n_sym * (config.ndbps() / nss.max(1));
    (0..nss)
        .map(|ss| {
            let mut dst = DecodedPsdu {
                bytes: vec![0; rx.psdu_len],
                symbol_quality: quality.iter().skip(ss).step_by(nss).copied().collect(),
            };
            if n_sym > 0 {
                decode_tail(
                    &bufs.per_stream[ss],
                    config.mcs.code_rate,
                    n_bits,
                    mimo::mu_stream_seed(config.scrambler_seed, ss),
                    &mut bufs.viterbi,
                    &mut bufs.bits,
                    &mut dst.bytes,
                );
            }
            dst
        })
        .collect()
}

/// Two-step reference decode of a DATA field's coded stream: depuncture
/// `coded` to the mother stream, Viterbi over that, descramble, and
/// extract `psdu_len` bytes. Tests hold the in-place decode to it.
#[cfg(test)]
pub(crate) fn two_step_decode(
    coded: &[f64],
    rate: crate::mcs::CodeRate,
    n_total: usize,
    scrambler_seed: u8,
    psdu_len: usize,
) -> Vec<u8> {
    use crate::convolutional::{depuncture, viterbi_decode_stream};
    use crate::ppdu::bits_to_bytes_into;
    let mut bits = viterbi_decode_stream(&depuncture(coded, rate, 2 * n_total), n_total);
    Scrambler::new(scrambler_seed).apply(&mut bits);
    let mut out = Vec::new();
    bits_to_bytes_into(&bits[16..16 + 8 * psdu_len], &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::mcs::Mcs;
    use crate::ppdu::transmit;
    use witag_sim::Rng;

    fn random_psdu(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn non_finite_samples_decode_like_the_two_step_path() {
        // NaN and ±inf samples, in the DATA field or in the training
        // symbol, must come back as bytes (garbage, but no panic), and
        // the in-place decode must match the two-step path on the coded
        // stream the receive decoded from the scratch.
        let mut rng = Rng::seed_from_u64(19);
        let mut scratch = RxScratch::new();
        let cases = [
            (0usize, f64::NAN, false),
            (3, f64::INFINITY, false),
            (5, f64::NEG_INFINITY, false),
            (7, f64::NAN, true),
            (9, f64::INFINITY, false),
            (12, f64::NAN, true),
        ];
        for (mcs_idx, poison, in_ltf) in cases {
            let config = PhyConfig::new(Mcs::ht(mcs_idx));
            let psdu = random_psdu(&mut rng, 96);
            let mut ppdu = transmit(&config, &psdu);
            if in_ltf {
                ppdu.ltfs[0].streams[0][3] = c64(poison, 0.0);
            } else {
                for sym in ppdu.symbols.iter_mut() {
                    for pt in sym.streams.iter_mut().flat_map(|s| s.iter_mut()).step_by(7) {
                        *pt = c64(poison, 0.0);
                    }
                }
            }
            let got = receive_with_scratch(&ppdu, 1e-4, &mut scratch);
            // One stream decodes its deinterleaved stream in place; more
            // decode the deparsed merge.
            let decoded = if config.mcs.spatial_streams == 1 {
                &scratch.bufs.per_stream[0]
            } else {
                &scratch.bufs.coded_llrs
            };
            assert!(
                decoded.iter().any(|l| !l.is_finite()),
                "MCS{mcs_idx}: the poison must reach the decoder"
            );
            let n_total = ppdu.symbols.len() * config.ndbps();
            let want = two_step_decode(
                decoded,
                config.mcs.code_rate,
                n_total,
                config.scrambler_seed,
                ppdu.psdu_len,
            );
            assert_eq!(got.bytes.len(), psdu.len(), "MCS{mcs_idx}");
            assert_eq!(got.bytes, want, "MCS{mcs_idx}");
        }
    }

    /// The single-stream front half as it ran before `Nss = 1` became the
    /// 1×1 case of the joint equaliser: `raw·cpe/h` with the CPE
    /// reference `h·pilot`, and demapper scales from `σ²/max(|h|², 1e-9)`.
    /// Returns the deinterleaved coded LLRs and the per-symbol quality.
    fn scalar_front_half(rx: &Ppdu, noise_var: f64) -> (Vec<f64>, Vec<f64>) {
        let config = &rx.config;
        let layout = config.layout();
        let modulation = config.mcs.modulation;
        let perm = InterleaverPerm::new(InterleaverDims::ht(
            config.bandwidth,
            modulation.bits_per_subcarrier(),
        ));
        let pilots = pilot_values(layout.pilot_positions().len());
        let h = &rx.ltfs[0].streams[0];
        let scales: Vec<f64> = layout
            .data_positions()
            .iter()
            .map(|&pos| axis_scale(modulation, noise_var / h[pos].norm_sqr().max(1e-9)))
            .collect();
        let (mut coded, mut quality, mut llrs) = (Vec::new(), Vec::new(), Vec::new());
        for sym in &rx.symbols {
            let raw = &sym.streams[0];
            let mut acc = Complex64::ZERO;
            for (&pos, &pv) in layout.pilot_positions().iter().zip(&pilots) {
                acc += raw[pos] * (h[pos] * pv).conj();
            }
            let cpe = if acc.abs() > 1e-12 {
                Complex64::from_polar(1.0, -acc.arg())
            } else {
                Complex64::ONE
            };
            let eq: Vec<Complex64> =
                layout.data_positions().iter().map(|&pos| raw[pos] * cpe / h[pos]).collect();
            llrs.clear();
            demap_symbol_into(&eq, modulation, &scales, &mut llrs);
            quality.push(llrs.iter().map(|l| l.abs()).sum::<f64>() / llrs.len() as f64);
            perm.deinterleave_append(&llrs, &mut coded);
        }
        (coded, quality)
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-14 * g.abs().max(w.abs());
            assert!((g - w).abs() <= tol, "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn one_stream_decodes_as_the_scalar_front_half_did() {
        // A seeded corpus of noisy PPDUs over a two-path channel whose
        // second path flips sign mid-frame (the tag's corruption), at
        // HT MCS 0–7 on 20/40/80 MHz plus VHT single-stream. The joint
        // equaliser's 1×1 case must give the scalar chain's bytes, and
        // its LLRs and symbol quality to a relative 1e-14.
        use crate::params::Bandwidth;
        use core::f64::consts::PI;
        let mut rng = Rng::seed_from_u64(20);
        let mut scratch = RxScratch::new();
        let mut cases = Vec::new();
        for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80] {
            cases.extend((0..8).map(|i| (Mcs::ht(i), bw)));
            cases.push((Mcs::vht(8, 1), bw));
        }
        cases.extend([(Mcs::vht(9, 1), Bandwidth::Mhz40), (Mcs::vht(9, 1), Bandwidth::Mhz80)]);
        let (mut clean, mut corrupt) = (0, 0);
        for (mcs, bw) in cases {
            for _ in 0..3 {
                let config = PhyConfig::with_bandwidth(mcs, bw);
                let psdu = random_psdu(&mut rng, 120);
                let mut ppdu = transmit(&config, &psdu);
                let layout = config.layout();
                let (gain, phase) = (rng.range_f64(0.2, 1.0), rng.range_f64(-3.0, 3.0));
                let direct = Complex64::from_polar(gain, phase);
                let tag = rng.range_f64(0.02, 0.2);
                let tau = rng.range_f64(10e-9, 80e-9);
                let noise_var = 10f64.powf(-rng.range_f64(8.0, 32.0) / 10.0);
                let std = (noise_var / 2.0).sqrt();
                let n_sym = ppdu.symbols.len();
                let flip_from = rng.below(n_sym as u64 + 1) as usize;
                let ltf = ppdu.ltfs.iter_mut().map(|s| (s, false));
                let data = ppdu.symbols.iter_mut().enumerate().map(|(i, s)| (s, i >= flip_from));
                for (sym, flipped) in ltf.chain(data) {
                    for (&f, pt) in layout.freq_offsets_hz().iter().zip(sym.streams[0].iter_mut()) {
                        let path = Complex64::from_polar(tag, -2.0 * PI * f * tau);
                        let h = direct + if flipped { Complex64::ZERO - path } else { path };
                        *pt = *pt * h + c64(rng.gaussian() * std, rng.gaussian() * std);
                    }
                }
                let got = receive_with_scratch(&ppdu, noise_var, &mut scratch);
                let (coded, quality) = scalar_front_half(&ppdu, noise_var);
                let what = format!("{mcs:?} @ {bw:?}");
                assert_close(&scratch.bufs.per_stream[0], &coded, &format!("{what} LLR"));
                assert_close(&got.symbol_quality, &quality, &format!("{what} quality"));
                let want = two_step_decode(
                    &coded,
                    config.mcs.code_rate,
                    n_sym * config.ndbps(),
                    config.scrambler_seed,
                    ppdu.psdu_len,
                );
                assert_eq!(got.bytes, want, "{what}");
                if got.bytes == psdu {
                    clean += 1;
                } else {
                    corrupt += 1;
                }
            }
        }
        // The corpus must hold both outcomes, or it pins nothing about
        // the decisions the corruption turns on.
        assert!(clean >= 10 && corrupt >= 10, "{clean} clean, {corrupt} corrupt");
    }

    /// Identity channel: receive exactly what was sent.
    #[test]
    fn loopback_roundtrip_all_mcs() {
        let mut rng = Rng::seed_from_u64(10);
        for mcs_idx in 0..8 {
            let config = PhyConfig::new(Mcs::ht(mcs_idx));
            let psdu = random_psdu(&mut rng, 64);
            let ppdu = transmit(&config, &psdu);
            let decoded = receive(&ppdu, 1e-4);
            assert_eq!(decoded.bytes, psdu, "MCS{mcs_idx} loopback failed");
        }
    }

    #[test]
    fn loopback_multi_stream() {
        let mut rng = Rng::seed_from_u64(11);
        for mcs_idx in [8usize, 16, 23, 31] {
            let config = PhyConfig::new(Mcs::ht(mcs_idx));
            let psdu = random_psdu(&mut rng, 120);
            let ppdu = transmit(&config, &psdu);
            let decoded = receive(&ppdu, 1e-4);
            assert_eq!(decoded.bytes, psdu, "MCS{mcs_idx} MIMO loopback failed");
        }
    }

    #[test]
    fn loopback_wide_channels_and_vht() {
        let mut rng = Rng::seed_from_u64(18);
        let cases = [
            (Mcs::ht(5), crate::params::Bandwidth::Mhz40),
            (Mcs::ht(7), crate::params::Bandwidth::Mhz40),
            (Mcs::vht(8, 1), crate::params::Bandwidth::Mhz20),
            (Mcs::vht(9, 1), crate::params::Bandwidth::Mhz80),
            (Mcs::vht(8, 2), crate::params::Bandwidth::Mhz80),
        ];
        for (mcs, bw) in cases {
            let config = PhyConfig::with_bandwidth(mcs, bw);
            let psdu = random_psdu(&mut rng, 200);
            let ppdu = transmit(&config, &psdu);
            let decoded = receive(&ppdu, 1e-5);
            assert_eq!(decoded.bytes, psdu, "{mcs:?} @ {bw:?} loopback failed");
        }
    }

    /// A static flat channel (attenuation + rotation) is fully corrected by
    /// LTF estimation.
    #[test]
    fn flat_fading_is_equalised() {
        let mut rng = Rng::seed_from_u64(12);
        let config = PhyConfig::new(Mcs::ht(4));
        let psdu = random_psdu(&mut rng, 80);
        let mut ppdu = transmit(&config, &psdu);
        let h = Complex64::from_polar(0.03, 1.2); // −30 dB path, 69° rotation
        for carriers in ppdu
            .symbols
            .iter_mut()
            .map(|s| &mut s.streams[0])
            .chain(core::iter::once(&mut ppdu.ltfs[0].streams[0]))
        {
            for pt in carriers.iter_mut() {
                *pt *= h;
            }
        }
        let decoded = receive(&ppdu, 1e-9);
        assert_eq!(decoded.bytes, psdu);
    }

    /// Mid-frame channel change (the tag's move): symbols after the change
    /// decode with a stale estimate and the payload is corrupted.
    ///
    /// Uses a high-order MCS: this is the regime WiTAG operates in — the
    /// querier deliberately picks the highest reliable rate (paper §4.1)
    /// precisely because dense constellations have thin error margins that
    /// a modest channel change overwhelms. (A companion test below shows
    /// robust modulations shrugging off small perturbations.)
    #[test]
    fn mid_frame_channel_change_corrupts_payload() {
        let mut rng = Rng::seed_from_u64(13);
        let config = PhyConfig::new(Mcs::ht(7)); // 64-QAM 5/6
        let psdu = random_psdu(&mut rng, 80);
        let mut ppdu = transmit(&config, &psdu);
        // LTF sees h = 1. Later symbols see an extra frequency-selective
        // path (what the tag's reflection change does).
        let layout = config.layout();
        let n_sym = ppdu.symbols.len();
        let half = n_sym / 2;
        for sym in ppdu.symbols.iter_mut().skip(half) {
            for (&f, pt) in layout.freq_offsets_hz().iter().zip(sym.streams[0].iter_mut()) {
                let extra = Complex64::from_polar(0.3, -2.0 * core::f64::consts::PI * f * 120e-9);
                *pt *= Complex64::ONE + extra;
            }
        }
        let decoded = receive(&ppdu, 1e-4);
        assert_ne!(decoded.bytes, psdu, "stale CSI must corrupt the payload");
    }

    /// The flip side of the above: a small perturbation on a robust
    /// modulation is absorbed by the constellation margins and the code —
    /// this is why tag corruption weakens when the reflected path is weak
    /// (tag mid-way between AP and client, paper Figure 5).
    #[test]
    fn small_perturbation_survives_at_robust_mcs() {
        let mut rng = Rng::seed_from_u64(17);
        let config = PhyConfig::new(Mcs::ht(1)); // QPSK 1/2
        let psdu = random_psdu(&mut rng, 80);
        let mut ppdu = transmit(&config, &psdu);
        let layout = config.layout();
        let n_sym = ppdu.symbols.len();
        for sym in ppdu.symbols.iter_mut().skip(n_sym / 2) {
            for (&f, pt) in layout.freq_offsets_hz().iter().zip(sym.streams[0].iter_mut()) {
                let extra = Complex64::from_polar(0.2, -2.0 * core::f64::consts::PI * f * 120e-9);
                *pt *= Complex64::ONE + extra;
            }
        }
        let decoded = receive(&ppdu, 1e-4);
        assert_eq!(
            decoded.bytes, psdu,
            "QPSK 1/2 must absorb a 20% perturbation (max rotation < 45°)"
        );
    }

    /// Common phase error (same rotation on all subcarriers) IS corrected
    /// by pilot tracking — so residual oscillator drift cannot fake a tag.
    #[test]
    fn common_phase_error_is_healed_by_pilots() {
        let mut rng = Rng::seed_from_u64(14);
        let config = PhyConfig::new(Mcs::ht(4));
        let psdu = random_psdu(&mut rng, 80);
        let mut ppdu = transmit(&config, &psdu);
        for (i, sym) in ppdu.symbols.iter_mut().enumerate() {
            let rot = Complex64::from_polar(1.0, 0.08 * i as f64); // growing CPE
            for pt in sym.streams[0].iter_mut() {
                *pt *= rot;
            }
        }
        let decoded = receive(&ppdu, 1e-4);
        assert_eq!(decoded.bytes, psdu, "pilot CPE correction must heal pure rotation");
    }

    /// The tag's 180° phase flip applied to a *portion* of the frame's
    /// symbols — the canonical WiTAG corruption — must break exactly the
    /// flipped span's bytes while leaving a clean frame when absent.
    #[test]
    fn tag_style_reflection_flip_breaks_decoding() {
        let mut rng = Rng::seed_from_u64(15);
        let config = PhyConfig::new(Mcs::ht(7)); // the querier's high MCS
        let psdu = random_psdu(&mut rng, 120);
        let mut ppdu = transmit(&config, &psdu);
        let layout = config.layout();
        // Direct path 1.0; tag path 0.12·e^{jφ(k)} present during LTF with
        // phase 0, flipped to 180° for symbols 4..8 — exactly the §5.2
        // "always reflecting, flip the phase" design. The differential
        // error seen by the equaliser is (1−a)/(1+a) ≈ 1 − 2a: a ~24% EVM
        // hit, far beyond 64-QAM's margins.
        let tag_path = |pos: usize, flip: bool| {
            let f = layout.freq_offsets_hz()[pos];
            let tau = 35e-9;
            let base = Complex64::from_polar(0.12, -2.0 * core::f64::consts::PI * f * tau);
            if flip {
                base * Complex64::from_polar(1.0, core::f64::consts::PI)
            } else {
                base
            }
        };
        for (pos, pt) in ppdu.ltfs[0].streams[0].iter_mut().enumerate() {
            *pt *= Complex64::ONE + tag_path(pos, false);
        }
        let n_sym = ppdu.symbols.len();
        let flip_from = n_sym / 2;
        for (i, sym) in ppdu.symbols.iter_mut().enumerate() {
            let flip = i >= flip_from;
            for (pos, pt) in sym.streams[0].iter_mut().enumerate() {
                *pt *= Complex64::ONE + tag_path(pos, flip);
            }
        }
        let decoded = receive(&ppdu, 1e-4);
        assert_ne!(decoded.bytes, psdu, "flipped span must corrupt the PSDU");
        // Unflipped symbols keep higher quality than flipped ones. (The
        // mean |LLR| is dominated by still-healthy subcarriers, so the gap
        // is modest even when decoding is destroyed.)
        assert!(decoded.symbol_quality[0] > decoded.symbol_quality[n_sym - 1] * 1.1);
    }

    #[test]
    fn noise_floor_alone_is_survivable_at_low_mcs() {
        let mut rng = Rng::seed_from_u64(16);
        let config = PhyConfig::new(Mcs::ht(0));
        let psdu = random_psdu(&mut rng, 60);
        let mut ppdu = transmit(&config, &psdu);
        let noise_var: f64 = 0.02; // ~17 dB SNR, comfortable for BPSK 1/2
        let std = (noise_var / 2.0).sqrt();
        for sym in ppdu.symbols.iter_mut().chain(ppdu.ltfs.iter_mut()) {
            for pt in sym.streams[0].iter_mut() {
                *pt += c64(rng.gaussian() * std, rng.gaussian() * std);
            }
        }
        let decoded = receive(&ppdu, noise_var);
        assert_eq!(decoded.bytes, psdu, "MCS0 must survive 17 dB SNR");
    }
}
