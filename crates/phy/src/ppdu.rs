//! PPDU structures and the transmit chain.
//!
//! A [`Ppdu`] is a PHY frame "on the air" in frequency-domain form: the
//! known long-training symbol (LTF) used for channel estimation, followed
//! by the DATA-field OFDM symbols. The transmit chain implements the
//! 802.11 DATA-field encoding process (§17.3.5 as amended by HT):
//!
//! ```text
//! SERVICE ‖ PSDU ‖ tail ‖ pad
//!   → scramble (tail re-zeroed)
//!   → convolutional encode (rate 1/2 mother)
//!   → puncture to the MCS code rate
//!   → per symbol: parse to spatial streams → interleave → QAM map
//!   → data subcarriers (+ pilot tones)
//! ```
//!
//! MIMO model: multi-stream PPDUs are sounded with P-mapped HT-LTF
//! symbols ([`crate::mimo::ltf_symbols`]) and the receiver estimates the
//! **full** `Nss×Nss` per-subcarrier channel matrix, then jointly
//! equalises (ZF or MMSE, [`crate::mimo::MimoEqualiser`]) — cross-stream
//! leakage is modelled, not assumed away. One stream is the 1×1 case of
//! the same receive core. The tag — one physical reflector — still
//! perturbs every matrix entry at once, which is exactly why WiTAG is
//! MIMO-agnostic (paper §4) where per-symbol-twiddling designs are not.

use crate::complex::{c64, Complex64};
use crate::convolutional::{encode_stream, puncture};
use crate::interleaver::{InterleaverDims, InterleaverPerm};
use crate::mcs::{Mcs, Modulation};
use crate::modulation::modulate_onto;
use crate::params::{ht_preamble_duration, Bandwidth, GuardInterval, SubcarrierLayout};
use crate::scrambler::Scrambler;
use witag_sim::time::Duration;

/// Everything needed to (de)modulate one PPDU.
#[derive(Debug, Clone)]
pub struct PhyConfig {
    /// Modulation and coding scheme.
    pub mcs: Mcs,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Guard interval.
    pub guard: GuardInterval,
    /// 7-bit nonzero scrambler seed for the SERVICE field.
    pub scrambler_seed: u8,
    /// Joint equaliser the receiver applies, at every stream count.
    pub equaliser: crate::mimo::MimoEqualiser,
}

impl PhyConfig {
    /// A sensible default: HT MCS at 20 MHz, long GI, fixed seed.
    pub fn new(mcs: Mcs) -> Self {
        Self::with_bandwidth(mcs, Bandwidth::Mhz20)
    }

    /// Like [`PhyConfig::new`] with an explicit channel width (40/80 MHz
    /// for 802.11n wide / 802.11ac operation).
    pub fn with_bandwidth(mcs: Mcs, bandwidth: Bandwidth) -> Self {
        PhyConfig {
            mcs,
            bandwidth,
            guard: GuardInterval::Long,
            scrambler_seed: 0x5D,
            equaliser: crate::mimo::MimoEqualiser::default(),
        }
    }

    /// Data bits per OFDM symbol.
    pub fn ndbps(&self) -> usize {
        self.mcs.data_bits_per_symbol(self.bandwidth)
    }

    /// Coded bits per OFDM symbol (all streams).
    pub fn ncbps(&self) -> usize {
        self.mcs.coded_bits_per_symbol(self.bandwidth)
    }

    /// Number of DATA OFDM symbols for a PSDU of `len` bytes.
    pub fn n_symbols(&self, len: usize) -> usize {
        let n_info = 16 + 8 * len + 6;
        n_info.div_ceil(self.ndbps())
    }

    /// Subcarrier layout for this bandwidth (process-lifetime cached —
    /// this is on the per-decode hot path).
    pub fn layout(&self) -> &'static SubcarrierLayout {
        SubcarrierLayout::cached(self.bandwidth)
    }

    /// Preamble duration (HT mixed format for this stream count).
    pub fn preamble_duration(&self) -> Duration {
        ht_preamble_duration(self.mcs.spatial_streams)
    }

    /// Airtime of a PPDU carrying `len` PSDU bytes.
    pub fn airtime(&self, len: usize) -> Duration {
        self.preamble_duration()
            + self.guard.symbol_duration() * (self.n_symbols(len) as u64)
    }

    /// Start offset (from PPDU start) of DATA symbol `i`.
    pub fn symbol_start(&self, i: usize) -> Duration {
        self.preamble_duration() + self.guard.symbol_duration() * (i as u64)
    }

    /// Range of DATA symbol indices that carry PSDU bytes
    /// `[byte_lo, byte_hi)`, accounting for the 16-bit SERVICE prefix and
    /// the decoder's constraint-length spill into the following symbol.
    pub fn symbols_for_byte_range(&self, byte_lo: usize, byte_hi: usize) -> (usize, usize) {
        assert!(byte_lo < byte_hi, "empty byte range");
        let ndbps = self.ndbps();
        let first_bit = 16 + 8 * byte_lo;
        let last_bit = 16 + 8 * byte_hi - 1;
        (first_bit / ndbps, last_bit / ndbps)
    }
}

/// One OFDM symbol: per spatial stream, the complex point on every
/// occupied subcarrier (storage order = ascending frequency).
#[derive(Debug, Clone)]
pub struct OfdmSymbol {
    /// `streams[ss][pos]` — constellation point of stream `ss` on
    /// subcarrier storage position `pos`.
    pub streams: Vec<Vec<Complex64>>,
}

impl OfdmSymbol {
    /// Mean transmit power across streams and occupied subcarriers.
    pub fn mean_power(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for stream in &self.streams {
            for pt in stream {
                total += pt.norm_sqr();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// A PHY frame in frequency-domain baseband form.
#[derive(Debug, Clone)]
pub struct Ppdu {
    /// The configuration it was built with.
    pub config: PhyConfig,
    /// PSDU length in bytes (signalled in HT-SIG). For MU framing
    /// ([`crate::mimo::transmit_mu`]) this is the **per-stream** length.
    pub psdu_len: usize,
    /// HT-LTF training symbols, one per training slot
    /// (`ht_ltf_count(nss)` of them): training symbol `n` carries
    /// `P_HTLTF[ss][n]` on every occupied subcarrier of stream `ss`. At
    /// `Nss = 1` this is the single all-ones LTF.
    pub ltfs: Vec<OfdmSymbol>,
    /// DATA-field symbols.
    pub symbols: Vec<OfdmSymbol>,
}

impl Ppdu {
    /// Total airtime. Counts the actual DATA symbols carried (identical
    /// to `config.airtime(psdu_len)` for single-user frames, and correct
    /// for MU frames whose `psdu_len` is per-stream).
    pub fn airtime(&self) -> Duration {
        self.config.preamble_duration()
            + self.config.guard.symbol_duration() * (self.symbols.len() as u64)
    }

    /// Per-DATA-symbol mean transmit power (used by the tag's envelope
    /// detector model).
    pub fn symbol_powers(&self) -> Vec<f64> {
        self.symbols.iter().map(|s| s.mean_power()).collect()
    }
}

/// Pilot tone values in storage order of the pilot positions: the standard
/// 20 MHz pattern {1, 1, 1, −1} extended cyclically to wider bandwidths.
pub fn pilot_values(n_pilots: usize) -> Vec<Complex64> {
    (0..n_pilots)
        .map(|i| {
            if (i + 1) % 4 == 0 {
                c64(-1.0, 0.0)
            } else {
                c64(1.0, 0.0)
            }
        })
        // Cache build: runs once per distinct pilot count when a scratch
        // first sees it, then every decode is lookup-only.
        .collect() // lint:allow(no_alloc_transitive)
}

/// Expand PSDU bytes to LSB-first bits.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Pack LSB-first bits back into bytes (length must be a multiple of 8).
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    bits_to_bytes_into(bits, &mut out);
    out
}

/// [`bits_to_bytes`] into a caller-provided buffer (cleared first), so
/// the batched receive path can reuse output allocations across a burst.
///
/// # Panics
/// Panics if `bits.len()` is not a multiple of 8.
// lint:no_alloc
pub fn bits_to_bytes_into(bits: &[u8], out: &mut Vec<u8>) {
    assert!(bits.len().is_multiple_of(8), "bit count must be a whole number of bytes");
    out.clear();
    out.reserve(bits.len() / 8);
    for chunk in bits.chunks_exact(8) {
        out.push(
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, &b)| acc | (b << i)),
        );
    }
}

/// The 802.11n stream parser: one symbol's coded bits are dealt
/// round-robin across `nss` spatial streams in groups of
/// `s = max(1, N_BPSCS/2)` bits. Writes stream `ss`'s share into `out`
/// (cleared first). At `nss = 1` that is the whole symbol.
pub fn parse_stream_into(coded: &[u8], ss: usize, nss: usize, n_bpscs: usize, out: &mut Vec<u8>) {
    let s = (n_bpscs / 2).max(1);
    out.clear();
    for group in coded.chunks(s).skip(ss).step_by(nss) {
        out.extend_from_slice(group);
    }
}

/// Inverse of [`parse_stream_into`] for receiver-side soft values.
pub fn deparse_streams(streams: &[Vec<f64>], n_bpscs: usize) -> Vec<f64> {
    let total: usize = streams.iter().map(|v| v.len()).sum();
    let mut out = Vec::with_capacity(total);
    deparse_streams_into(streams, n_bpscs, &mut out);
    out
}

/// [`deparse_streams`] appending into a caller-provided buffer (the
/// receive chain accumulates every symbol's coded LLRs into one stream).
// lint:no_alloc
pub fn deparse_streams_into(streams: &[Vec<f64>], n_bpscs: usize, out: &mut Vec<f64>) {
    let s = (n_bpscs / 2).max(1);
    let nss = streams.len();
    let total: usize = streams.iter().map(|v| v.len()).sum();
    out.reserve(total);
    let target = out.len() + total;
    let mut cursors = [0usize; 4]; // ≤ 4 spatial streams (802.11n/ac)
    assert!(nss <= 4, "at most 4 spatial streams");
    let mut stream_idx = 0usize;
    while out.len() < target {
        let c = cursors[stream_idx];
        let take = s.min(streams[stream_idx].len() - c);
        out.extend_from_slice(&streams[stream_idx][c..c + take]);
        cursors[stream_idx] += take;
        stream_idx = (stream_idx + 1) % nss;
    }
}

/// Build the scrambled, tail-zeroed DATA-field bit stream for a PSDU:
/// SERVICE ‖ PSDU ‖ tail ‖ pad up to `n_total` bits, scrambled from
/// `scrambler_seed`, then the 6 tail bits re-zeroed so the trellis
/// (mostly) terminates. The HT and legacy chains share it.
pub(crate) fn data_field_bits(scrambler_seed: u8, psdu: &[u8], n_total: usize) -> Vec<u8> {
    let mut bits = Vec::with_capacity(n_total);
    bits.extend_from_slice(&[0u8; 16]); // SERVICE (scrambler init run-in)
    bits.extend_from_slice(&bytes_to_bits(psdu));
    bits.resize(n_total, 0); // tail + pad
    Scrambler::new(scrambler_seed).apply(&mut bits);
    let tail_start = 16 + 8 * psdu.len();
    for bit in bits.iter_mut().skip(tail_start).take(6) {
        *bit = 0;
    }
    bits
}

/// Maps coded bits onto OFDM carriers, one stream-symbol at a time: the
/// stream parse → interleave → QAM map → data-and-pilot placement step
/// that the HT and legacy transmit chains share. Everything that is the
/// same for every symbol of a PPDU (the interleaver table, the tone
/// plan, the pilot values) is built once, in [`SymbolMapper::new`].
pub(crate) struct SymbolMapper<'a> {
    perm: InterleaverPerm,
    modulation: Modulation,
    n_occupied: usize,
    data_positions: &'a [usize],
    pilot_positions: &'a [usize],
    pilots: Vec<Complex64>,
    stream_bits: Vec<u8>,
    tx_order: Vec<u8>,
}

impl<'a> SymbolMapper<'a> {
    /// A mapper for one PPDU's interleaver dimensions, constellation and
    /// tone plan: `data_positions` carry constellation points,
    /// `pilot_positions` the pilot pattern, and together they are every
    /// occupied carrier.
    pub(crate) fn new(
        dims: InterleaverDims,
        modulation: Modulation,
        data_positions: &'a [usize],
        pilot_positions: &'a [usize],
    ) -> Self {
        SymbolMapper {
            perm: InterleaverPerm::new(dims),
            modulation,
            n_occupied: data_positions.len() + pilot_positions.len(),
            data_positions,
            pilot_positions,
            pilots: pilot_values(pilot_positions.len()),
            stream_bits: Vec::with_capacity(dims.n_cbps),
            tx_order: Vec::with_capacity(dims.n_cbps),
        }
    }

    /// The carriers of spatial stream `ss` (of `nss`) for one symbol's
    /// coded bits (all streams).
    pub(crate) fn stream_carriers(&mut self, coded: &[u8], ss: usize, nss: usize) -> Vec<Complex64> {
        let n_bpscs = self.modulation.bits_per_subcarrier();
        parse_stream_into(coded, ss, nss, n_bpscs, &mut self.stream_bits);
        self.perm.interleave_into(&self.stream_bits, &mut self.tx_order);
        let mut carriers = vec![Complex64::ZERO; self.n_occupied];
        modulate_onto(&self.tx_order, self.modulation, self.data_positions, &mut carriers);
        for (&pos, &pv) in self.pilot_positions.iter().zip(&self.pilots) {
            carriers[pos] = pv;
        }
        carriers
    }
}

/// Transmit: encode a PSDU into a PPDU.
///
/// # Panics
/// Panics if the PSDU is empty.
pub fn transmit(config: &PhyConfig, psdu: &[u8]) -> Ppdu {
    assert!(!psdu.is_empty(), "PSDU must be non-empty");
    let layout = config.layout();
    let nss = config.mcs.spatial_streams;
    let ncbps = config.ncbps();

    let n_total = config.n_symbols(psdu.len()) * config.ndbps();
    let bits = data_field_bits(config.scrambler_seed, psdu, n_total);
    let coded = puncture(&encode_stream(&bits), config.mcs.code_rate);
    debug_assert_eq!(coded.len() % ncbps, 0, "puncturing must align to symbols");

    let mut mapper = SymbolMapper::new(
        InterleaverDims::ht(config.bandwidth, config.mcs.modulation.bits_per_subcarrier()),
        config.mcs.modulation,
        layout.data_positions(),
        layout.pilot_positions(),
    );
    let symbols = coded
        .chunks(ncbps)
        .map(|chunk| OfdmSymbol {
            streams: (0..nss).map(|ss| mapper.stream_carriers(chunk, ss, nss)).collect(),
        })
        .collect();

    Ppdu {
        config: config.clone(),
        psdu_len: psdu.len(),
        ltfs: crate::mimo::ltf_symbols(nss, layout.n_occupied()),
        symbols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::Mcs;

    fn cfg(mcs_idx: usize) -> PhyConfig {
        PhyConfig::new(Mcs::ht(mcs_idx))
    }

    #[test]
    fn bits_bytes_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn bit_order_is_lsb_first() {
        assert_eq!(bytes_to_bits(&[0b0000_0001]), [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes_to_bits(&[0b1000_0000]), [0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn symbol_count_matches_standard_formula() {
        let c = cfg(3); // 16-QAM 1/2: NDBPS = 104
        assert_eq!(c.ndbps(), 104);
        // 100-byte PSDU: (16 + 800 + 6)/104 = 7.9 -> 8 symbols.
        assert_eq!(c.n_symbols(100), 8);
        // Exactly filling: (16+8L+6) = 104k -> L = (104·2−22)/8 = 23.25 — not
        // integral, so check a boundary that is: MCS0 NDBPS=26, L=16 bytes:
        // 16+128+6 = 150/26 = 5.77 -> 6.
        assert_eq!(cfg(0).n_symbols(16), 6);
    }

    #[test]
    fn transmit_produces_expected_symbols() {
        let c = cfg(1); // QPSK 1/2
        let psdu = vec![0xA5u8; 40];
        let ppdu = transmit(&c, &psdu);
        assert_eq!(ppdu.symbols.len(), c.n_symbols(40));
        assert_eq!(ppdu.psdu_len, 40);
        let layout = c.layout();
        for sym in &ppdu.symbols {
            assert_eq!(sym.streams.len(), 1);
            assert_eq!(sym.streams[0].len(), layout.n_occupied());
        }
    }

    #[test]
    fn airtime_arithmetic() {
        let c = cfg(1);
        let n = c.n_symbols(40) as u64;
        assert_eq!(
            c.airtime(40),
            Duration::micros(36) + Duration::micros(4) * n
        );
        assert_eq!(c.symbol_start(0), Duration::micros(36));
        assert_eq!(c.symbol_start(3), Duration::micros(48));
    }

    #[test]
    fn symbol_power_is_near_unity() {
        let c = cfg(4); // 16-QAM
        let ppdu = transmit(&c, &[0x3C; 60]);
        for (i, p) in ppdu.symbol_powers().iter().enumerate() {
            assert!((*p - 1.0).abs() < 0.5, "symbol {i} power {p} too far from 1");
        }
    }

    #[test]
    fn byte_range_to_symbol_range() {
        let c = cfg(0); // NDBPS = 26
        // Byte 0 occupies bits 16..24 -> symbol 0.
        assert_eq!(c.symbols_for_byte_range(0, 1), (0, 0));
        // Byte 10: bits 96..104 -> symbols 3..4 (96/26=3, 103/26=3).
        assert_eq!(c.symbols_for_byte_range(10, 11), (3, 3));
        // Range of bytes 0..20: last bit 175 -> symbol 6.
        assert_eq!(c.symbols_for_byte_range(0, 20), (0, 6));
    }

    #[test]
    fn stream_parse_roundtrip() {
        for nss in 1..=4usize {
            for n_bpscs in [1usize, 2, 4, 6] {
                let n = 52 * n_bpscs * nss;
                let coded: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
                let streams: Vec<Vec<u8>> = (0..nss)
                    .map(|ss| {
                        let mut out = Vec::new();
                        parse_stream_into(&coded, ss, nss, n_bpscs, &mut out);
                        out
                    })
                    .collect();
                assert!(streams.iter().all(|s| s.len() == 52 * n_bpscs));
                let soft: Vec<Vec<f64>> = streams
                    .iter()
                    .map(|s| s.iter().map(|&b| b as f64).collect())
                    .collect();
                let merged = deparse_streams(&soft, n_bpscs);
                let back: Vec<u8> = merged.iter().map(|&f| f as u8).collect();
                assert_eq!(back, coded, "nss={nss} nbpscs={n_bpscs}");
            }
        }
    }

    #[test]
    fn pilot_pattern() {
        let p = pilot_values(4);
        assert_eq!(p[0], c64(1.0, 0.0));
        assert_eq!(p[3], c64(-1.0, 0.0));
        let p6 = pilot_values(6);
        assert_eq!(p6[3], c64(-1.0, 0.0));
        assert_eq!(p6[5], c64(1.0, 0.0));
    }

    #[test]
    fn scrambling_whitens_constant_psdu() {
        let c = cfg(0);
        let ppdu_a = transmit(&c, &[0x00; 30]);
        let ppdu_b = transmit(&c, &[0xFF; 30]);
        // Different payloads must give different on-air symbols.
        let a0 = &ppdu_a.symbols[1].streams[0];
        let b0 = &ppdu_b.symbols[1].streams[0];
        assert_ne!(
            format!("{a0:?}"),
            format!("{b0:?}"),
            "scrambled symbols must differ"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_psdu_rejected() {
        let _ = transmit(&cfg(0), &[]);
    }
}
