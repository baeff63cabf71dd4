//! Forward error correction over the tag bit-channel.
//!
//! The paper leaves error handling as future work (§4.1: "WiTAG requires
//! a mechanism to detect and correct possible errors, which is a topic of
//! future work"). This module implements a concrete instance so the
//! extension can be evaluated:
//!
//! * **Hamming(7,4)** block code — corrects any single bit error per
//!   codeword, detects doubles;
//! * a **block interleaver** across the codewords of one query, so a
//!   burst of consecutive subframe losses (one interference flash kills
//!   neighbouring subframes) lands in different codewords.
//!
//! With 62 data subframes per query, 8 interleaved codewords (56 bits)
//! carry 32 payload bits, a rate-0.52 outer code on top of the raw tag
//! channel. The `fec` benchmark compares raw vs coded error rates.
//!
//! Codewords are packed: a nibble holds 4 data bits (the first bit in
//! bit 3) and a `u8` holds 7 code bits (position `j` in bit `j`). The
//! bit-vector [`FecLayout::encode`] / [`FecLayout::decode`] and the
//! tagnet chunk framing share this one code and one interleaver.

/// Encode a data nibble (`d1` in bit 3 … `d4` in bit 0) into a
/// Hamming(7,4) codeword.
///
/// Layout: positions `[p1, p2, d1, p3, d2, d3, d4]` (classic positions
/// 1..7 with parity at the powers of two), position `j` in bit `j`.
// lint:no_alloc
pub const fn hamming74_encode(nibble: u8) -> u8 {
    let d1 = (nibble >> 3) & 1;
    let d2 = (nibble >> 2) & 1;
    let d3 = (nibble >> 1) & 1;
    let d4 = nibble & 1;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p3 = d2 ^ d3 ^ d4;
    p1 | (p2 << 1) | (d1 << 2) | (p3 << 3) | (d2 << 4) | (d3 << 5) | (d4 << 6)
}

/// Decode a Hamming(7,4) codeword (position `j` in bit `j`), correcting
/// up to one flipped bit. Returns the data nibble and whether a
/// correction was applied.
// lint:no_alloc
pub fn hamming74_decode(cw: u8) -> (u8, bool) {
    let w = |j: u8| (cw >> j) & 1;
    // Syndrome: which parity checks fail (1-indexed position).
    let s1 = w(0) ^ w(2) ^ w(4) ^ w(6);
    let s2 = w(1) ^ w(2) ^ w(5) ^ w(6);
    let s3 = w(3) ^ w(4) ^ w(5) ^ w(6);
    let syndrome = s1 | (s2 << 1) | (s3 << 2);
    let corrected = syndrome != 0;
    let fixed = if corrected {
        cw ^ (1 << (syndrome - 1))
    } else {
        cw
    };
    let d = |j: u8| (fixed >> j) & 1;
    ((d(2) << 3) | (d(4) << 2) | (d(5) << 1) | d(6), corrected)
}

/// Interleave `n` codewords into `out[..7 * n]`: bit `j` of every
/// codeword before bit `j + 1` of any, so `out[j * n + i]` is bit `j`
/// of codeword `i`. Codeword `i` is `cws[i]`, or `pad` past the end of
/// `cws`.
// lint:no_alloc
pub(crate) fn interleave(cws: &[u8], pad: u8, n: usize, out: &mut [u8]) {
    if n == 0 {
        return;
    }
    for (j, row) in out.chunks_exact_mut(n).take(7).enumerate() {
        for (i, o) in row.iter_mut().enumerate() {
            *o = (cws.get(i).copied().unwrap_or(pad) >> j) & 1;
        }
    }
}

/// Gather codewords `0..cws.len()` of an `n`-codeword interleaved block
/// (the inverse of [`interleave`]); channel bits are 0/1.
// lint:no_alloc
pub(crate) fn deinterleave(channel: &[u8], n: usize, cws: &mut [u8]) {
    cws.fill(0);
    if n == 0 {
        return;
    }
    for (j, row) in channel.chunks_exact(n).take(7).enumerate() {
        for (cw, &b) in cws.iter_mut().zip(row) {
            *cw |= (b & 1) << j;
        }
    }
}

/// Parameters of one query's worth of FEC.
#[derive(Debug, Clone, Copy)]
pub struct FecLayout {
    /// Number of interleaved codewords.
    pub codewords: usize,
}

impl FecLayout {
    /// The largest layout fitting `channel_bits` tag bits per query.
    pub fn fit(channel_bits: usize) -> FecLayout {
        FecLayout {
            codewords: channel_bits / 7,
        }
    }

    /// Payload bits per query under this layout.
    pub fn data_bits(&self) -> usize {
        self.codewords * 4
    }

    /// Channel (tag) bits consumed per query.
    pub fn channel_bits(&self) -> usize {
        self.codewords * 7
    }

    /// Encode payload bits into interleaved channel bits.
    ///
    /// # Panics
    /// Panics unless `data.len() == self.data_bits()`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.data_bits(), "payload size mismatch");
        let codewords: Vec<u8> = data
            .chunks_exact(4)
            .map(|c| hamming74_encode(c.iter().fold(0, |acc, &b| (acc << 1) | (b & 1))))
            .collect();
        let mut out = vec![0u8; self.channel_bits()];
        interleave(&codewords, 0, self.codewords, &mut out);
        out
    }

    /// Decode interleaved channel bits back into payload bits, returning
    /// the number of codewords that needed correction.
    ///
    /// # Panics
    /// Panics unless `channel.len() == self.channel_bits()`.
    pub fn decode(&self, channel: &[u8]) -> (Vec<u8>, usize) {
        assert_eq!(channel.len(), self.channel_bits(), "channel size mismatch");
        let mut codewords = vec![0u8; self.codewords];
        deinterleave(channel, self.codewords, &mut codewords);
        let mut corrected = 0usize;
        let mut data = Vec::with_capacity(self.data_bits());
        for &cw in &codewords {
            let (nibble, fixed) = hamming74_decode(cw);
            corrected += usize::from(fixed);
            data.extend((0..4).rev().map(|i| (nibble >> i) & 1));
        }
        (data, corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_sim::Rng;

    #[test]
    fn hamming_all_codewords_roundtrip() {
        for v in 0..16u8 {
            let cw = hamming74_encode(v);
            assert!(cw < 0x80, "seven code bits");
            let (decoded, corrected) = hamming74_decode(cw);
            assert_eq!(decoded, v);
            assert!(!corrected);
        }
    }

    #[test]
    fn hamming_corrects_every_single_error() {
        for v in 0..16u8 {
            let cw = hamming74_encode(v);
            for flip in 0..7 {
                let (decoded, corrected) = hamming74_decode(cw ^ (1 << flip));
                assert_eq!(decoded, v, "flip at {flip}");
                assert!(corrected);
            }
        }
    }

    #[test]
    fn hamming_positions_follow_the_classic_layout() {
        // d1 alone sets position 2 and the parities that cover it
        // (p1 at 0, p2 at 1); d4 alone sets position 6 and every parity.
        assert_eq!(hamming74_encode(0b1000), 0b000_0111);
        assert_eq!(hamming74_encode(0b0001), 0b100_1011);
    }

    #[test]
    fn layout_fits_query() {
        let l = FecLayout::fit(62);
        assert_eq!(l.codewords, 8);
        assert_eq!(l.data_bits(), 32);
        assert_eq!(l.channel_bits(), 56);
    }

    #[test]
    fn interleaved_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let l = FecLayout::fit(62);
        let data: Vec<u8> = (0..l.data_bits())
            .map(|_| (rng.next_u64() & 1) as u8)
            .collect();
        let channel = l.encode(&data);
        assert_eq!(channel.len(), 56);
        let (decoded, corrected) = l.decode(&channel);
        assert_eq!(decoded, data);
        assert_eq!(corrected, 0);
    }

    #[test]
    fn burst_of_losses_corrected() {
        // A burst of `codewords` consecutive channel-bit errors lands one
        // error in each codeword — all corrected.
        let mut rng = Rng::seed_from_u64(2);
        let l = FecLayout::fit(62);
        let data: Vec<u8> = (0..l.data_bits())
            .map(|_| (rng.next_u64() & 1) as u8)
            .collect();
        let mut channel = l.encode(&data);
        for bit in channel.iter_mut().skip(16).take(l.codewords) {
            *bit ^= 1;
        }
        let (decoded, corrected) = l.decode(&channel);
        assert_eq!(decoded, data, "burst of {} must be healed", l.codewords);
        assert_eq!(corrected, l.codewords);
    }

    #[test]
    fn double_error_in_one_codeword_not_corrected() {
        let l = FecLayout { codewords: 1 };
        let data = vec![1u8, 0, 1, 1];
        let mut channel = l.encode(&data);
        channel[0] ^= 1;
        channel[3] ^= 1;
        let (decoded, _) = l.decode(&channel);
        assert_ne!(decoded, data, "Hamming(7,4) cannot fix double errors");
    }
}
