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
use crate::convolutional::encode_stream_punctured;
use crate::interleaver::{permutation, InterleaverDims};
use crate::mcs::{Mcs, Modulation};
use crate::modulation::point_table;
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
        self.preamble_duration() + self.guard.symbol_duration() * (self.n_symbols(len) as u64)
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
    assert!(
        bits.len().is_multiple_of(8),
        "bit count must be a whole number of bytes"
    );
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

/// Inverse of the 802.11n stream parser for soft values: takes
/// `max(1, N_BPSCS/2)` values from each stream in turn and appends them
/// to `out` (the receive chain accumulates every symbol's coded LLRs).
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
    let mut scrambler = Scrambler::new(scrambler_seed);
    let mut bits = Vec::with_capacity(n_total);
    // SERVICE: 16 zeros, so its bits are the scrambler's run-in.
    bits.extend((0..16).map(|_| scrambler.next_bit()));
    for &byte in psdu {
        bits.extend((0..8).map(|i| ((byte >> i) & 1) ^ scrambler.next_bit()));
    }
    // Tail and pad: the 6 tail bits are re-zeroed after scrambling.
    let tail = bits.len();
    bits.extend((tail..n_total).map(|i| scrambler.next_bit() * u8::from(i >= tail + 6)));
    bits
}

/// Maps a PPDU's coded bits onto OFDM carriers, for the HT and legacy
/// chains alike. The stream parse, the interleaver and the QAM bit order
/// compose into one gather table, built once per PPDU with the
/// constellation's point table, so a data subcarrier costs N_BPSCS
/// loads and one table lookup.
pub(crate) struct SymbolMapper<'a> {
    /// `gather[ss][j·N_BPSCS + b]`, streams end to end: the index within
    /// a symbol's coded bits (all streams) of bit `b`, MSB first, of data
    /// subcarrier `j` on stream `ss`.
    gather: Vec<u16>,
    points: [Complex64; 256],
    n_bpscs: usize,
    data_positions: &'a [usize],
    /// Every occupied carrier: the pilots in place, zeros for the data.
    template: Vec<Complex64>,
}

impl<'a> SymbolMapper<'a> {
    /// A mapper for `nss` streams of the per-stream interleaver `dims`,
    /// on a tone plan whose data and pilot positions cover every
    /// occupied carrier.
    pub(crate) fn new(
        dims: InterleaverDims,
        modulation: Modulation,
        nss: usize,
        data_positions: &'a [usize],
        pilot_positions: &'a [usize],
    ) -> Self {
        // At most 4 streams × 234 carriers × 8 bits = 7 488 coded bits.
        assert!(
            nss * dims.n_cbps <= 1 << 16,
            "symbol too wide for the gather table"
        );
        // The parser deals groups of `s = max(1, N_BPSCS/2)` coded bits
        // round-robin, so stream bit `k` of stream `ss` is coded bit
        // `(k/s·nss + ss)·s + k%s`; the interleaver moves it to `perm[k]`.
        let s = (dims.n_bpscs / 2).max(1);
        let perm = permutation(dims);
        let mut gather = vec![0u16; nss * dims.n_cbps];
        for (ss, table) in gather.chunks_exact_mut(dims.n_cbps).enumerate() {
            for (k, &p) in perm.iter().enumerate() {
                table[p] = ((k / s * nss + ss) * s + k % s) as u16;
            }
        }
        let mut template = vec![Complex64::ZERO; data_positions.len() + pilot_positions.len()];
        for (&pos, pv) in pilot_positions
            .iter()
            .zip(pilot_values(pilot_positions.len()))
        {
            template[pos] = pv;
        }
        SymbolMapper {
            gather,
            points: point_table(modulation),
            n_bpscs: dims.n_bpscs,
            data_positions,
            template,
        }
    }

    /// Every OFDM symbol of a DATA field's coded bits.
    pub(crate) fn symbols(&self, coded: &[u8]) -> Vec<OfdmSymbol> {
        match self.n_bpscs {
            1 => self.symbols_of::<1>(coded),
            2 => self.symbols_of::<2>(coded),
            4 => self.symbols_of::<4>(coded),
            6 => self.symbols_of::<6>(coded),
            _ => self.symbols_of::<8>(coded),
        }
    }

    /// [`Self::symbols`] with `B` = N_BPSCS fixed, so the gather unrolls.
    fn symbols_of<const B: usize>(&self, coded: &[u8]) -> Vec<OfdmSymbol> {
        let width = self.data_positions.len() * B;
        debug_assert_eq!(
            coded.len() % self.gather.len(),
            0,
            "puncturing must align to symbols"
        );
        coded
            .chunks(self.gather.len())
            .map(|symbol| OfdmSymbol {
                streams: (self.gather.chunks_exact(width))
                    .map(|gather| {
                        let mut carriers = self.template.clone();
                        for (&pos, bits) in self.data_positions.iter().zip(gather.chunks_exact(B)) {
                            let v = bits
                                .iter()
                                .fold(0, |v, &i| (v << 1) | symbol[i as usize] as usize);
                            carriers[pos] = self.points[v & 0xFF];
                        }
                        carriers
                    })
                    .collect(),
            })
            .collect()
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

    let n_total = config.n_symbols(psdu.len()) * config.ndbps();
    let bits = data_field_bits(config.scrambler_seed, psdu, n_total);
    let coded = encode_stream_punctured(&bits, config.mcs.code_rate);
    let symbols = SymbolMapper::new(
        InterleaverDims::ht(
            config.bandwidth,
            config.mcs.modulation.bits_per_subcarrier(),
        ),
        config.mcs.modulation,
        nss,
        layout.data_positions(),
        layout.pilot_positions(),
    )
    .symbols(&coded);

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
        for (i, sym) in ppdu.symbols.iter().enumerate() {
            let carriers = &sym.streams[0];
            let p = carriers.iter().map(|pt| pt.norm_sqr()).sum::<f64>() / carriers.len() as f64;
            assert!((p - 1.0).abs() < 0.5, "symbol {i} power {p} too far from 1");
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
        // The gather table's parse and interleave, undone by the receiver's
        // deinterleave and deparse.
        use crate::interleaver::InterleaverPerm;
        use crate::params::Bandwidth;
        let data_positions: Vec<usize> = (0..52).collect();
        for nss in 1..=4usize {
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
                Modulation::Qam256,
            ] {
                let dims = InterleaverDims::ht(Bandwidth::Mhz20, m.bits_per_subcarrier());
                let mapper = SymbolMapper::new(dims, m, nss, &data_positions, &[]);
                // Send each coded bit's own index: the receive chain must
                // put every index back where it came from.
                let per_stream: Vec<Vec<f64>> = mapper
                    .gather
                    .chunks_exact(dims.n_cbps)
                    .map(|g| {
                        let on_air: Vec<f64> = g.iter().map(|&i| i as f64).collect();
                        let mut code_order = Vec::new();
                        InterleaverPerm::new(dims).deinterleave_into(&on_air, &mut code_order);
                        code_order
                    })
                    .collect();
                let mut merged = Vec::new();
                deparse_streams_into(&per_stream, dims.n_bpscs, &mut merged);
                let want: Vec<f64> = (0..nss * dims.n_cbps).map(|i| i as f64).collect();
                assert_eq!(merged, want, "nss={nss} {m:?}");
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
