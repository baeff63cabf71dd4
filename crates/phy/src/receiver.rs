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
use crate::mimo::{self, MAX_NSS};
use crate::modulation::{axis_scale, demap_symbol_into};
use crate::ppdu::{bits_to_bytes_into, deparse_streams_into, pilot_values, OfdmSymbol, Ppdu};
use crate::scrambler::Scrambler;

/// Single-stream per-subcarrier channel estimate (CSI), borrowing the
/// received LTF it was estimated from. The transmitted `Nss = 1` LTF is
/// all-ones on every occupied subcarrier, so the received LTF *is* the
/// estimate — the seed implementation cloned the full table every call
/// for nothing. Multi-stream PPDUs estimate the full channel *matrix*
/// instead ([`crate::mimo::estimate_into`]); this diagonal form survives
/// as the `Nss = 1` degenerate case.
#[derive(Debug, Clone, Copy)]
pub struct ChannelEstimate<'a> {
    /// `h[ss][pos]` — estimated coefficient for stream `ss`, storage
    /// position `pos`.
    pub h: &'a [Vec<Complex64>],
}

impl<'a> ChannelEstimate<'a> {
    /// Estimate CSI from the received LTF (transmitted LTF is all-ones on
    /// every occupied subcarrier).
    pub fn from_ltf(rx_ltf: &'a OfdmSymbol) -> Self {
        ChannelEstimate {
            h: &rx_ltf.streams,
        }
    }

    /// Mean channel magnitude across streams and subcarriers (diagnostic).
    pub fn mean_magnitude(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for stream in self.h {
            for c in stream {
                total += c.abs();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// Reusable working memory for the receive chain.
///
/// One `RxScratch` threaded through [`receive_with_scratch`] (and the
/// legacy [`crate::legacy::legacy_receive_with_scratch`]) makes the whole
/// RX hot path allocation-free in steady state: every intermediate buffer
/// — transmit-order LLRs, per-stream deinterleaved LLRs, the punctured
/// coded stream (the decoder reads it in place), decoded bits, Viterbi
/// path metrics and survivors, cached interleaver permutations and pilot
/// patterns — is owned here and reused across calls.
#[derive(Debug, Default)]
pub struct RxScratch {
    /// Cached interleaver permutations, one per dimension set seen (an
    /// experiment alternates HT data frames and legacy block ACKs, so
    /// several sets stay warm at once).
    pub(crate) perms: Vec<InterleaverPerm>,
    /// Cached pilot patterns keyed by pilot count.
    pub(crate) pilots: Vec<Vec<Complex64>>,
    /// One stream's LLRs in transmit (subcarrier) order.
    pub(crate) llrs_tx: Vec<f64>,
    /// Per-stream deinterleaved (code-order) LLRs.
    pub(crate) per_stream: Vec<Vec<f64>>,
    /// The whole DATA field's coded LLR stream.
    pub(crate) coded_llrs: Vec<f64>,
    /// Decoded (still scrambled, then descrambled in place) bits.
    pub(crate) bits: Vec<u8>,
    /// Viterbi path-metric and survivor storage.
    pub(crate) viterbi: ViterbiScratch,
    /// One symbol's equalised data subcarriers (SoA form for the chunked
    /// demapper).
    pub(crate) eq: Vec<Complex64>,
    /// Channel coefficients gathered at the data positions, per stream —
    /// hoisted out of the per-symbol loop (the estimate is static across a
    /// PPDU by construction).
    pub(crate) h_data: Vec<Complex64>,
    /// Per-subcarrier demapper output scales, per stream — likewise
    /// hoisted (they depend only on the channel estimate and noise floor).
    pub(crate) demap_scales: Vec<f64>,
    /// Full channel matrix estimate for multi-stream PPDUs:
    /// `h_mat[pos*nss*nss + j*nss + i]` (RX antenna `j`, TX stream `i`).
    pub(crate) h_mat: Vec<Complex64>,
    /// Hoisted per-data-subcarrier equaliser weight matrices (row-major
    /// `nss×nss` blocks, one per data position).
    pub(crate) w_mat: Vec<Complex64>,
    /// Per-stream jointly-equalised data subcarriers for one symbol (SoA
    /// form for the chunked demapper).
    pub(crate) eq_streams: Vec<Vec<Complex64>>,
}

impl RxScratch {
    /// Fresh, empty scratch. Buffers grow to steady-state sizes on the
    /// first call that uses them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached permutation for `dims`, building it on first sight.
    pub(crate) fn perm(perms: &mut Vec<InterleaverPerm>, dims: InterleaverDims) -> &InterleaverPerm {
        let i = match perms.iter().position(|p| p.dims() == dims) {
            Some(i) => i,
            None => {
                perms.push(InterleaverPerm::new(dims));
                perms.len() - 1
            }
        };
        &perms[i] // lint:allow(panic_path) i is a position() hit or len - 1 after push
    }

    /// Cached pilot pattern for `n_pilots` pilot tones.
    pub(crate) fn pilot_pattern(pilots: &mut Vec<Vec<Complex64>>, n_pilots: usize) -> &[Complex64] {
        let i = match pilots.iter().position(|p| p.len() == n_pilots) {
            Some(i) => i,
            None => {
                pilots.push(pilot_values(n_pilots));
                pilots.len() - 1
            }
        };
        &pilots[i] // lint:allow(panic_path) i is a position() hit or len - 1 after push
    }
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
    let n_bpscs = rx.config.mcs.modulation.bits_per_subcarrier();
    let dims = InterleaverDims::ht(rx.config.bandwidth, n_bpscs);
    let n_pilots = rx.config.layout().pilot_positions().len();
    let (perms, pilots, mut bufs) = scratch.split();
    let perm = RxScratch::perm(perms, dims);
    let pilots = RxScratch::pilot_pattern(pilots, n_pilots);
    decode_core(rx, noise_var, perm, pilots, &mut bufs, &mut out);
    out
}

/// The working buffers of [`RxScratch`] minus the perm/pilot caches —
/// split off so a decode can hold a cached permutation and pilot pattern
/// while the per-PPDU buffers stay mutable.
pub(crate) struct RxBufs<'a> {
    pub(crate) llrs_tx: &'a mut Vec<f64>,
    pub(crate) per_stream: &'a mut Vec<Vec<f64>>,
    pub(crate) coded_llrs: &'a mut Vec<f64>,
    pub(crate) bits: &'a mut Vec<u8>,
    pub(crate) viterbi: &'a mut ViterbiScratch,
    pub(crate) eq: &'a mut Vec<Complex64>,
    pub(crate) h_data: &'a mut Vec<Complex64>,
    pub(crate) demap_scales: &'a mut Vec<f64>,
    pub(crate) h_mat: &'a mut Vec<Complex64>,
    pub(crate) w_mat: &'a mut Vec<Complex64>,
    pub(crate) eq_streams: &'a mut Vec<Vec<Complex64>>,
}

impl RxScratch {
    /// Split-borrow the scratch into its cache vectors and working
    /// buffers.
    pub(crate) fn split(&mut self) -> (&mut Vec<InterleaverPerm>, &mut Vec<Vec<Complex64>>, RxBufs<'_>) {
        let RxScratch {
            perms,
            pilots,
            llrs_tx,
            per_stream,
            coded_llrs,
            bits,
            viterbi,
            eq,
            h_data,
            demap_scales,
            h_mat,
            w_mat,
            eq_streams,
        } = self;
        (
            perms,
            pilots,
            RxBufs {
                llrs_tx,
                per_stream,
                coded_llrs,
                bits,
                viterbi,
                eq,
                h_data,
                demap_scales,
                h_mat,
                w_mat,
                eq_streams,
            },
        )
    }
}

/// Decode one PPDU into `dst` with the cached interleaver permutation
/// and pilot pattern for its configuration. Multi-stream PPDUs go to
/// [`decode_core_mimo`]; the body below is the `Nss = 1` chain.
// lint:no_alloc
pub(crate) fn decode_core(
    rx: &Ppdu,
    noise_var: f64,
    perm: &InterleaverPerm,
    pilots: &[Complex64],
    bufs: &mut RxBufs<'_>,
    dst: &mut DecodedPsdu,
) {
    let config = &rx.config;
    if config.mcs.spatial_streams > 1 {
        // Multi-stream: full-matrix sounding + joint equalisation. The
        // scalar path below is the Nss = 1 degenerate case and stays
        // byte-for-byte what it has always been.
        decode_core_mimo(rx, noise_var, perm, pilots, bufs, dst);
        return;
    }
    let layout = config.layout();
    let modulation = config.mcs.modulation;
    let h = &ChannelEstimate::from_ltf(&rx.ltfs[0]).h[0];
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();

    // Per-PPDU hoisted tables: channel coefficients at the data positions
    // and demapper scales. Both are constant across a PPDU's symbols (the
    // receiver estimates once, from the LTF), so computing them here —
    // not per symbol per subcarrier — changes no arithmetic, only how
    // often it runs.
    bufs.h_data.clear();
    bufs.h_data.reserve(n_data);
    bufs.demap_scales.clear();
    bufs.demap_scales.reserve(n_data);
    for &pos in data_pos {
        let hv = h[pos];
        // ZF noise enhancement: variance grows as 1/|h|².
        let eff_noise = noise_var / hv.norm_sqr().max(1e-9);
        bufs.h_data.push(hv);
        bufs.demap_scales.push(axis_scale(modulation, eff_noise));
    }

    bufs.coded_llrs.clear();
    bufs.coded_llrs.reserve(rx.symbols.len() * config.ncbps());
    dst.symbol_quality.clear();
    dst.symbol_quality.reserve(rx.symbols.len());

    for sym in &rx.symbols {
        let raw = &sym.streams[0];

        // Common-phase-error estimate from pilots.
        let mut acc = Complex64::ZERO;
        for (&pos, &pv) in layout.pilot_positions().iter().zip(pilots.iter()) {
            // Expected pilot after channel: h[pos]·pv.
            acc += raw[pos] * (h[pos] * pv).conj();
        }
        let cpe = if acc.abs() > 1e-12 {
            Complex64::from_polar(1.0, -acc.arg())
        } else {
            Complex64::ONE
        };

        // Zero-forcing equalisation into the SoA buffer (same operation
        // order per subcarrier as the historical fused loop), then the
        // chunked demapper over the whole symbol at once.
        bufs.eq.clear();
        bufs.eq.reserve(n_data);
        for (i, &pos) in data_pos.iter().enumerate() {
            bufs.eq.push(raw[pos] * cpe / bufs.h_data[i]);
        }
        bufs.llrs_tx.clear();
        demap_symbol_into(bufs.eq, modulation, bufs.demap_scales, bufs.llrs_tx);
        dst.symbol_quality
            .push(bufs.llrs_tx.iter().map(|l| l.abs()).sum::<f64>() / bufs.llrs_tx.len() as f64);
        // Single stream: stream deparse is the identity, so deinterleave
        // straight onto the code stream.
        perm.deinterleave_append(bufs.llrs_tx, bufs.coded_llrs);
    }

    // Decode the whole DATA field as one stream.
    let n_sym = rx.symbols.len();
    let n_total = n_sym * config.ndbps();
    viterbi_decode_punctured_into(
        bufs.coded_llrs,
        config.mcs.code_rate,
        n_total,
        bufs.viterbi,
        bufs.bits,
    );

    // Descramble and extract the PSDU.
    let mut scrambler = Scrambler::new(config.scrambler_seed);
    scrambler.apply(bufs.bits);
    let psdu_bits = &bufs.bits[16..16 + 8 * rx.psdu_len];
    bits_to_bytes_into(psdu_bits, &mut dst.bytes);
}

/// Widest pilot pattern the fixed-size MIMO pilot table covers (80 MHz
/// carries 8 pilot tones).
const MAX_PILOTS: usize = 8;

/// Per-PPDU hoist for the multi-stream path: estimate the full channel
/// matrix from the P-mapped LTFs, precompute one equaliser weight matrix
/// per data subcarrier and the per-stream demapper scales (effective
/// noise = per-antenna noise amplified by the equaliser row), and return
/// the expected pilot values per RX antenna (what each antenna should
/// see when every stream transmits the common pilot tone).
// lint:no_alloc
fn mimo_hoist(
    rx: &Ppdu,
    noise_var: f64,
    pilots: &[Complex64],
    bufs: &mut RxBufs<'_>,
) -> [Complex64; MAX_NSS * MAX_PILOTS] {
    let config = &rx.config;
    let layout = config.layout();
    let nss = config.mcs.spatial_streams;
    let modulation = config.mcs.modulation;
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();
    assert!(nss <= MAX_NSS, "at most 4 spatial streams");
    assert!(layout.pilot_positions().len() <= MAX_PILOTS, "pilot table bound");

    mimo::estimate_into(&rx.ltfs, nss, layout.n_occupied(), bufs.h_mat);

    bufs.w_mat.clear();
    bufs.w_mat.reserve(n_data * nss * nss);
    let eq_kind = config.equaliser;
    let mut wbuf = [Complex64::ZERO; MAX_NSS * MAX_NSS];
    for &pos in data_pos {
        let h = &bufs.h_mat[pos * nss * nss..(pos + 1) * nss * nss];
        // A singular subcarrier falls back to identity weights: the
        // decode proceeds and the FCS judges the result — no panic.
        eq_kind.weights(h, nss, noise_var, &mut wbuf);
        bufs.w_mat.extend_from_slice(&wbuf[..nss * nss]);
    }

    bufs.demap_scales.clear();
    bufs.demap_scales.reserve(nss * n_data);
    for ss in 0..nss {
        for idx in 0..n_data {
            let w = &bufs.w_mat[idx * nss * nss..(idx + 1) * nss * nss];
            let mut amp = 0.0;
            for j in 0..nss {
                amp += w[ss * nss + j].norm_sqr(); // lint:allow(panic_path) ss,j < nss, w slice is nss*nss
            }
            bufs.demap_scales.push(axis_scale(modulation, noise_var * amp));
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
fn mimo_equalise_symbol(
    sym: &OfdmSymbol,
    nss: usize,
    data_pos: &[usize],
    pilot_positions: &[usize],
    pilot_exp: &[Complex64; MAX_NSS * MAX_PILOTS],
    bufs: &mut RxBufs<'_>,
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

/// Multi-stream decode core (`Nss ≥ 2`): full-matrix LTF sounding, joint
/// ZF/MMSE equalisation per data subcarrier, then the standard per-stream
/// deinterleave → stream deparse → depuncture → Viterbi → descramble
/// chain over the merged code stream. Same allocation discipline as the
/// scalar core: steady state touches only pre-grown scratch buffers.
// lint:no_alloc
pub(crate) fn decode_core_mimo(
    rx: &Ppdu,
    noise_var: f64,
    perm: &InterleaverPerm,
    pilots: &[Complex64],
    bufs: &mut RxBufs<'_>,
    dst: &mut DecodedPsdu,
) {
    let config = &rx.config;
    let layout = config.layout();
    let nss = config.mcs.spatial_streams;
    let modulation = config.mcs.modulation;
    let n_bpscs = modulation.bits_per_subcarrier();
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();

    bufs.per_stream.resize_with(bufs.per_stream.len().max(nss), Vec::new); // lint:allow(no_alloc)
    bufs.eq_streams.resize_with(bufs.eq_streams.len().max(nss), Vec::new); // lint:allow(no_alloc)

    let pilot_exp = mimo_hoist(rx, noise_var, pilots, bufs);

    bufs.coded_llrs.clear();
    bufs.coded_llrs.reserve(rx.symbols.len() * config.ncbps());
    dst.symbol_quality.clear();
    dst.symbol_quality.reserve(rx.symbols.len());

    for sym in &rx.symbols {
        mimo_equalise_symbol(sym, nss, data_pos, layout.pilot_positions(), &pilot_exp, bufs);
        let mut qual_acc = 0.0;
        for ss in 0..nss {
            let scales = &bufs.demap_scales[ss * n_data..(ss + 1) * n_data];
            bufs.llrs_tx.clear();
            demap_symbol_into(&bufs.eq_streams[ss], modulation, scales, bufs.llrs_tx);
            qual_acc +=
                bufs.llrs_tx.iter().map(|l| l.abs()).sum::<f64>() / bufs.llrs_tx.len() as f64;
            perm.deinterleave_into(bufs.llrs_tx, &mut bufs.per_stream[ss]);
        }
        dst.symbol_quality.push(qual_acc / nss as f64);
        deparse_streams_into(&bufs.per_stream[..nss], n_bpscs, bufs.coded_llrs);
    }

    let n_sym = rx.symbols.len();
    let n_total = n_sym * config.ndbps();
    viterbi_decode_punctured_into(
        bufs.coded_llrs,
        config.mcs.code_rate,
        n_total,
        bufs.viterbi,
        bufs.bits,
    );

    let mut scrambler = Scrambler::new(config.scrambler_seed);
    scrambler.apply(bufs.bits);
    let psdu_bits = &bufs.bits[16..16 + 8 * rx.psdu_len];
    bits_to_bytes_into(psdu_bits, &mut dst.bytes);
}

/// Decode a MU PPDU ([`crate::mimo::transmit_mu`]) carrying one
/// independent PSDU per spatial stream: joint equalisation exactly as in
/// the multiplexed path, but each stream then runs its **own**
/// deinterleave → depuncture → Viterbi → descramble chain (per-stream
/// scrambler seed), yielding one [`DecodedPsdu`] per stream in stream
/// order. This is scenario-layer code (MOXcatter), not the hot receive
/// path — it allocates its output freely.
pub fn receive_mu_with_scratch(
    rx: &Ppdu,
    noise_var: f64,
    scratch: &mut RxScratch,
) -> Vec<DecodedPsdu> {
    let config = &rx.config;
    let layout = config.layout();
    let nss = config.mcs.spatial_streams;
    let modulation = config.mcs.modulation;
    let n_bpscs = modulation.bits_per_subcarrier();
    let dims = InterleaverDims::ht(config.bandwidth, n_bpscs);
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();

    let (perms, pilots, mut bufs) = scratch.split();
    let perm = RxScratch::perm(perms, dims);
    let pilots = RxScratch::pilot_pattern(pilots, layout.pilot_positions().len());
    let bufs = &mut bufs;

    bufs.per_stream.resize_with(bufs.per_stream.len().max(nss), Vec::new);
    bufs.eq_streams.resize_with(bufs.eq_streams.len().max(nss), Vec::new);
    for v in bufs.per_stream[..nss].iter_mut() {
        v.clear(); // accumulates this PPDU's full per-stream code stream
    }

    let pilot_exp = mimo_hoist(rx, noise_var, pilots, bufs);

    let mut out: Vec<DecodedPsdu> = (0..nss)
        .map(|_| DecodedPsdu { bytes: Vec::new(), symbol_quality: Vec::new() })
        .collect();

    for sym in &rx.symbols {
        mimo_equalise_symbol(sym, nss, data_pos, layout.pilot_positions(), &pilot_exp, bufs);
        for (ss, dst) in out.iter_mut().enumerate() {
            let scales = &bufs.demap_scales[ss * n_data..(ss + 1) * n_data];
            bufs.llrs_tx.clear();
            demap_symbol_into(&bufs.eq_streams[ss], modulation, scales, bufs.llrs_tx);
            dst.symbol_quality.push(
                bufs.llrs_tx.iter().map(|l| l.abs()).sum::<f64>() / bufs.llrs_tx.len() as f64,
            );
            perm.deinterleave_append(bufs.llrs_tx, &mut bufs.per_stream[ss]);
        }
    }

    // Per-stream DATA-field decode: each stream is its own scrambled,
    // punctured convolutional codeword.
    let ndbps1 = config.ndbps() / nss;
    let n_total = rx.symbols.len() * ndbps1;
    for (ss, dst) in out.iter_mut().enumerate() {
        viterbi_decode_punctured_into(
            &bufs.per_stream[ss],
            config.mcs.code_rate,
            n_total,
            bufs.viterbi,
            bufs.bits,
        );
        let mut scrambler = Scrambler::new(mimo::mu_stream_seed(config.scrambler_seed, ss));
        scrambler.apply(bufs.bits);
        let psdu_bits = &bufs.bits[16..16 + 8 * rx.psdu_len];
        bits_to_bytes_into(psdu_bits, &mut dst.bytes);
    }
    out
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
    use crate::ppdu::{transmit, PhyConfig};
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
        // stream the receive left in the scratch.
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
            assert!(
                scratch.coded_llrs.iter().any(|l| !l.is_finite()),
                "MCS{mcs_idx}: the poison must reach the decoder"
            );
            let n_total = ppdu.symbols.len() * config.ndbps();
            let want = two_step_decode(
                &scratch.coded_llrs,
                config.mcs.code_rate,
                n_total,
                config.scrambler_seed,
                ppdu.psdu_len,
            );
            assert_eq!(got.bytes.len(), psdu.len(), "MCS{mcs_idx}");
            assert_eq!(got.bytes, want, "MCS{mcs_idx}");
        }
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
