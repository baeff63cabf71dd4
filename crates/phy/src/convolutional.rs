//! The 802.11 binary convolutional code: K = 7, generators 133/171 (octal),
//! with the standard puncturing patterns for rates 2/3, 3/4 and 5/6, and a
//! soft-decision Viterbi decoder.
//!
//! This is the component that makes subframe corruption in WiTAG a real
//! phenomenon: a brief channel change that corrupts only *some* coded bits
//! may still decode cleanly at low MCS (the code "heals" the subframe — a
//! tag bit lost), while a large perturbation overwhelms the code and the
//! FCS fails (the tag bit is delivered). Both regimes appear in the
//! experiments, so the code must actually operate.
//!
//! Soft inputs are log-likelihood ratios with the convention
//! `llr = ln P(bit = 0) − ln P(bit = 1)`: positive favours 0. Punctured
//! positions carry `llr = 0` (erasure).

/// Generator polynomial g0 = 133₈.
const G0: u32 = 0o133;
/// Generator polynomial g1 = 171₈.
const G1: u32 = 0o171;
/// Constraint length.
pub const CONSTRAINT: usize = 7;
/// Number of trellis states.
const STATES: usize = 1 << (CONSTRAINT - 1);
/// Tail bits appended to terminate the trellis.
pub const TAIL_BITS: usize = CONSTRAINT - 1;

/// Code rate selector (re-exported type from [`crate::mcs`]).
pub use crate::mcs::CodeRate;

/// Precomputed branch-output table: `OUTPUT_CODE[reg]` for the 7-bit
/// encoder register `reg = (state << 1) | input` gives the two coded bits
/// packed as `(o0 << 1) | o1` — an index into the 4 per-step branch
/// metrics, and the encoder's output. Replaces two `count_ones`
/// parities per trellis edge and per encoded bit.
const OUTPUT_CODE: [u8; 2 * STATES] = {
    let mut table = [0u8; 2 * STATES];
    let mut reg = 0usize;
    while reg < 2 * STATES {
        let o0 = ((reg as u32 & G0).count_ones() & 1) as u8;
        let o1 = ((reg as u32 & G1).count_ones() & 1) as u8;
        table[reg] = (o0 << 1) | o1;
        reg += 1;
    }
    table
};

/// Encode `data` at the mother rate 1/2, appending [`TAIL_BITS`] zeros to
/// terminate the trellis. Output length is `2 * (data.len() + TAIL_BITS)`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * (data.len() + TAIL_BITS));
    encode_into(data.iter().chain(core::iter::repeat_n(&0u8, TAIL_BITS)), &mut out);
    out
}

/// Run the encoder over `bits` from the all-zero state, appending the two
/// coded bits of each input bit to `out`.
fn encode_into<'a>(bits: impl IntoIterator<Item = &'a u8>, out: &mut Vec<u8>) {
    let mut state = 0usize;
    for &bit in bits {
        debug_assert!(bit <= 1);
        let reg = (state << 1) | bit as usize;
        // The generators tap only the register's low 7 bits.
        let code = OUTPUT_CODE[reg & (2 * STATES - 1)];
        out.push(code >> 1);
        out.push(code & 1);
        state = reg & (STATES - 1);
    }
}

/// Puncturing pattern: `true` positions are transmitted, `false` dropped.
/// Patterns from 802.11-2016 §17.3.5.7 (period over (A,B) output pairs).
fn puncture_pattern(rate: CodeRate) -> &'static [bool] {
    match rate {
        CodeRate::R12 => &[true, true],
        // A1 B1 A2 (B2 dropped)
        CodeRate::R23 => &[true, true, true, false],
        // A1 B1 A2 B3 (B2, A3 dropped)
        CodeRate::R34 => &[true, true, true, false, false, true],
        // A1 B1 A2 B3 A4 B5 (B2, A3, B4, A5 dropped)
        CodeRate::R56 => &[true, true, true, false, false, true, true, false, false, true],
    }
}

/// Number of surviving (transmitted) positions the pattern keeps over a
/// mother stream of `mother_len` bits.
fn punctured_len(pattern: &[bool], mother_len: usize) -> usize {
    let keep_per_period = pattern.iter().filter(|&&k| k).count();
    let full = mother_len / pattern.len();
    let rem = pattern[..mother_len % pattern.len()].iter().filter(|&&k| k).count();
    full * keep_per_period + rem
}

/// Drop coded bits according to the puncturing pattern for `rate`. The
/// output is reserved exactly (no growth reallocations on the TX hot
/// path).
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let pattern = puncture_pattern(rate);
    let mut out = Vec::with_capacity(punctured_len(pattern, coded.len()));
    for (&b, &keep) in coded.iter().zip(pattern.iter().cycle()) {
        if keep {
            out.push(b);
        }
    }
    out
}

/// Re-insert erasures (`llr = 0`) at punctured positions, restoring a
/// soft stream of length `mother_len` (the pre-puncture coded length).
///
/// # Panics
/// Panics if `received` does not contain exactly the number of surviving
/// positions the pattern dictates for `mother_len`.
pub fn depuncture(received: &[f64], rate: CodeRate, mother_len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(mother_len);
    depuncture_into(received, rate, mother_len, &mut out);
    out
}

/// [`depuncture`] into a caller-provided buffer (cleared first, reserved
/// exactly). The receive chain reuses one buffer across calls so the
/// steady state performs no allocation.
///
/// # Panics
/// Same contract as [`depuncture`].
// lint:no_alloc
pub fn depuncture_into(received: &[f64], rate: CodeRate, mother_len: usize, out: &mut Vec<f64>) {
    let pattern = puncture_pattern(rate);
    assert_punctured_len(received, pattern, mother_len);
    out.clear();
    out.resize(mother_len, 0.0);
    // Chunked by pattern period: each full period copies a fixed set of
    // positions (a straight-line, branch-free body the compiler unrolls),
    // leaving erased positions at the 0.0 the resize wrote. A scalar
    // cursor loop handles the partial tail period.
    let period = pattern.len();
    let keep: usize = pattern.iter().filter(|&&k| k).count();
    let full = mother_len / period;
    {
        let src = &received[..full * keep];
        let dst = &mut out[..full * period];
        for (d, s) in dst.chunks_exact_mut(period).zip(src.chunks_exact(keep)) {
            let mut next = 0usize;
            for (slot, &keep_it) in d.iter_mut().zip(pattern.iter()) {
                if keep_it {
                    *slot = s[next];
                    next += 1;
                }
            }
        }
    }
    let mut next = full * keep;
    for i in full * period..mother_len {
        if pattern[i % period] {
            out[i] = received[next];
            next += 1;
        }
    }
}

/// Number of transmitted coded bits for `info_bits` data bits at `rate`
/// (including trellis termination).
pub fn coded_len(info_bits: usize, rate: CodeRate) -> usize {
    let mother = 2 * (info_bits + TAIL_BITS);
    let pattern = puncture_pattern(rate);
    let keep_per_period: usize = pattern.iter().filter(|&&k| k).count();
    let full = mother / pattern.len();
    let rem = mother % pattern.len();
    let rem_keep = pattern[..rem].iter().filter(|&&k| k).count();
    full * keep_per_period + rem_keep
}

const NEG_INF: f64 = f64::NEG_INFINITY;

/// Half the state count: the butterfly index range.
const HALF: usize = STATES / 2;

/// Butterflies per add-compare-select chunk in [`butterfly_step`], tuned
/// for narrow (SSE2-class) baseline targets.
const LANES: usize = 4;

/// Sign of `l0` in the branch metric of the low branch into state `2j`:
/// `B[j] = S0[j]*l0 + S1[j]*l1` reproduces `bm[OUTPUT_CODE[2j]]` exactly
/// (multiplication by ±1.0 is exact in IEEE arithmetic).
const BF_S0: [f64; HALF] = {
    let mut s = [0.0; HALF];
    let mut j = 0;
    while j < HALF {
        s[j] = if OUTPUT_CODE[2 * j] & 2 == 0 { 1.0 } else { -1.0 };
        j += 1;
    }
    s
};

/// Sign of `l1` in the branch metric of the low branch into state `2j`.
const BF_S1: [f64; HALF] = {
    let mut s = [0.0; HALF];
    let mut j = 0;
    while j < HALF {
        s[j] = if OUTPUT_CODE[2 * j] & 1 == 0 { 1.0 } else { -1.0 };
        j += 1;
    }
    s
};

/// Reusable Viterbi working memory: ping-pong path-metric arrays plus
/// survivor storage (one `u64` per trellis step — bit `s` of word
/// `step` says whether state `s` was reached from its high predecessor).
/// Hold one per long-lived decoder (e.g. inside a `RxScratch`) so
/// steady-state decoding allocates nothing beyond the survivor buffer's
/// high-water mark.
#[derive(Debug, Clone)]
pub struct ViterbiScratch {
    /// Path metrics entering the current step.
    metrics: [f64; STATES],
    /// Path metrics being built for the next step.
    next: [f64; STATES],
    /// One survivor word per step, one decision bit per state.
    survivors: Vec<u64>,
}

impl Default for ViterbiScratch {
    fn default() -> Self {
        ViterbiScratch { metrics: [NEG_INF; STATES], next: [NEG_INF; STATES], survivors: Vec::new() }
    }
}

/// One trellis step of the butterfly add-compare-select, `LANES`
/// butterflies at a time. Lane `j` handles the successor pair
/// `(2j, 2j+1)`, whose predecessors are `j` (low) and `j + 32` (high):
/// with `B = bm[OUTPUT_CODE[2j]]` the four candidates are
/// `m_lo + B` / `m_hi − B` into `2j` and `m_lo − B` / `m_hi + B` into
/// `2j+1`. This is bit-identical to the per-edge table formulation
/// because `OUTPUT_CODE[r ^ 1] = OUTPUT_CODE[r | 64] = OUTPUT_CODE[r] ^ 3`
/// (generators 133/171 both have taps on register bits 0 and 6) and
/// `bm[c ^ 3] = −bm[c]` holds exactly (IEEE rounding is sign-symmetric:
/// `fl(−a − b) = −fl(a + b)`). The compare is branchless — data-dependent
/// `hi > lo` branches are unpredictable on noisy LLRs and dominated the
/// flat kernel's runtime — and the step's decisions are written as bytes
/// into a 64-byte array so the whole lane loop autovectorises; the
/// kernel packs that array into the step's survivor word.
// lint:no_alloc
#[inline(always)]
fn butterfly_step(l0: f64, l1: f64, cur: &[f64; STATES], nxt: &mut [f64; STATES], surv: &mut [u8; STATES]) {
    let (m_lo, m_hi) = cur.split_at(HALF);
    // Pass 1: branch metrics for all butterflies (a pure mul/add sweep the
    // vectoriser handles without select pressure).
    let mut b_arr = [0.0f64; HALF];
    for (j, b) in b_arr.iter_mut().enumerate() {
        *b = BF_S0[j] * l0 + BF_S1[j] * l1;
    }
    // Pass 2: add-compare-select, `LANES` butterflies at a time.
    for c in 0..HALF / LANES {
        let base = c * LANES;
        for k in 0..LANES {
            let j = base + k;
            let b = b_arr[j];
            let lo0 = m_lo[j] + b;
            let hi0 = m_hi[j] - b;
            let lo1 = m_lo[j] - b;
            let hi1 = m_hi[j] + b;
            // Strict '>' keeps the low predecessor on ties, matching the
            // ascending-state scan of the reference implementation.
            let t0 = hi0 > lo0;
            let t1 = hi1 > lo1;
            nxt[2 * j] = if t0 { hi0 } else { lo0 };
            nxt[2 * j + 1] = if t1 { hi1 } else { lo1 };
            surv[2 * j] = t0 as u8;
            surv[2 * j + 1] = t1 as u8;
        }
    }
}

/// Pack one step's decision bytes (each 0 or 1) into a survivor word,
/// byte `s` to bit `s`. Each group of eight bytes is assembled
/// little-endian with shifts and gathered into eight bits by one
/// multiply: `GATHER` has one tap per byte, placing byte `i`'s bit at
/// position `56 + i`; every (byte, tap) pair lands on a distinct bit, so
/// no carry reaches the top byte.
// lint:no_alloc
#[inline(always)]
fn pack_decisions(surv: &[u8; STATES]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u64;
    for (g, group) in surv.chunks_exact(8).enumerate() {
        let mut x = 0u64;
        for (i, &d) in group.iter().enumerate() {
            x |= (d as u64) << (8 * i);
        }
        word |= (x.wrapping_mul(GATHER) >> 56) << (8 * g);
    }
    word
}

/// Flat add-compare-select over all trellis steps, reading the punctured
/// coded stream `coded` in place: mother-stream position `i` is the next
/// unread `coded` value when `pattern[i % pattern.len()]` keeps it, and an
/// erasure (`0.0`, exactly what [`depuncture_into`] writes) when it was
/// dropped. `coded.len()` must equal `punctured_len(pattern, 2 * n_steps)`
/// (the public entry points assert it). `terminated` selects the
/// traceback start: state 0 for a terminated trellis (falling back to the
/// best state when 0 is unreachable), the best-metric state otherwise.
/// Decoded bits (one per step, tail included) land in `out`.
///
/// Bit-identical to the textbook per-edge formulation over the
/// depunctured stream: branch metrics use the same additions in the same
/// order (see [`butterfly_step`] for the proof sketch), and ties keep the
/// low predecessor / the last-scanned best end state, exactly as the
/// original per-state scan did.
// lint:no_alloc
fn viterbi_kernel(
    coded: &[f64],
    pattern: &[bool],
    n_steps: usize,
    terminated: bool,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    scratch.metrics = [NEG_INF; STATES];
    scratch.metrics[0] = 0.0; // encoder starts in state 0
    scratch.survivors.clear();
    scratch.survivors.resize(n_steps, 0);

    let ViterbiScratch { metrics, next, survivors } = scratch;
    let mut cur: &mut [f64; STATES] = metrics;
    let mut nxt: &mut [f64; STATES] = next;
    let mut surv = [0u8; STATES];
    // Pattern cursor (always even: one (A, B) pair per step; every
    // pattern has even length) and read cursor into `coded`.
    let mut p = 0usize;
    let mut next_in = 0usize;
    for word in survivors.iter_mut() {
        let l0 = if pattern[p] { // lint:allow(panic_path) p is even and < pattern.len(), wrapped below
            next_in += 1;
            coded[next_in - 1] // lint:allow(panic_path) kept positions over 2 * n_steps equal coded.len(), asserted by every entry point
        } else {
            0.0
        };
        let l1 = if pattern[p + 1] { // lint:allow(panic_path) p + 1 < pattern.len(), which is even
            next_in += 1;
            coded[next_in - 1] // lint:allow(panic_path) kept positions over 2 * n_steps equal coded.len(), asserted by every entry point
        } else {
            0.0
        };
        p += 2;
        if p == pattern.len() {
            p = 0;
        }
        butterfly_step(l0, l1, cur, nxt, &mut surv);
        *word = pack_decisions(&surv);
        core::mem::swap(&mut cur, &mut nxt);
    }

    // Last-scanned best state, mirroring Iterator::max_by tie behaviour.
    let mut best = NEG_INF;
    let mut best_state = 0usize;
    for (s, &m) in cur.iter().enumerate() {
        if m >= best {
            best = m;
            best_state = s;
        }
    }
    let mut state = if terminated && cur[0] > NEG_INF { 0usize } else { best_state };

    out.clear();
    out.resize(n_steps, 0);
    for (bit, &word) in out.iter_mut().zip(survivors.iter()).rev() {
        *bit = (state & 1) as u8; // input bit is the successor's LSB
        let from_high = (word >> state) & 1;
        state = (state >> 1) | ((from_high as usize) << (CONSTRAINT - 2));
    }
}

/// Assert that `coded` holds exactly the positions `pattern` keeps over a
/// mother stream of `mother_len` bits (the [`depuncture`] contract).
fn assert_punctured_len(coded: &[f64], pattern: &[bool], mother_len: usize) {
    let want = punctured_len(pattern, mother_len);
    assert_eq!(
        coded.len(),
        want,
        "received stream too {} for mother length",
        if coded.len() < want { "short" } else { "long" }
    );
}

/// Soft-decision Viterbi decode of a terminated mother-rate stream.
///
/// `llrs.len()` must equal `2 * (info_bits + TAIL_BITS)`. Returns the
/// `info_bits` decoded data bits (tail stripped).
pub fn viterbi_decode(llrs: &[f64], info_bits: usize) -> Vec<u8> {
    let mut scratch = ViterbiScratch::default();
    let mut bits = Vec::new();
    viterbi_decode_into(llrs, info_bits, &mut scratch, &mut bits);
    bits
}

/// [`viterbi_decode`] with caller-provided scratch and output buffers
/// (allocation-free once both are warm).
// lint:no_alloc
pub fn viterbi_decode_into(
    llrs: &[f64],
    info_bits: usize,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    let total_steps = info_bits + TAIL_BITS;
    assert_eq!(
        llrs.len(),
        2 * total_steps,
        "LLR stream length must be 2*(info+tail)"
    );
    viterbi_kernel(llrs, puncture_pattern(CodeRate::R12), total_steps, true, scratch, out);
    out.truncate(info_bits);
}

/// Encode a bit stream at the mother rate 1/2 **without** appending tail
/// bits. This is the form the 802.11 DATA field uses: the 6 tail bits are
/// part of the (scrambled, then re-zeroed) stream itself, followed by pad
/// bits, so the encoder just runs over everything.
pub fn encode_stream(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * bits.len());
    encode_into(bits, &mut out);
    out
}

/// Soft-decision Viterbi decode of an *unterminated* mother-rate stream of
/// `n_bits` information bits (`llrs.len() == 2 * n_bits`). Traceback starts
/// from the best-metric final state.
pub fn viterbi_decode_stream(llrs: &[f64], n_bits: usize) -> Vec<u8> {
    let mut scratch = ViterbiScratch::default();
    let mut bits = Vec::new();
    viterbi_decode_stream_into(llrs, n_bits, &mut scratch, &mut bits);
    bits
}

/// [`viterbi_decode_stream`] with caller-provided scratch and output
/// buffers (allocation-free once both are warm). This is the form the
/// receive chain uses every round.
// lint:no_alloc
pub fn viterbi_decode_stream_into(
    llrs: &[f64],
    n_bits: usize,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    assert_eq!(llrs.len(), 2 * n_bits, "LLR stream length must be 2*n_bits");
    viterbi_kernel(llrs, puncture_pattern(CodeRate::R12), n_bits, false, scratch, out);
}

/// Soft-decision Viterbi decode of an unterminated stream of `n_bits`
/// information bits straight from its punctured form: `coded` holds one
/// LLR per *transmitted* coded bit at `rate`. Decodes exactly what
/// [`depuncture_into`] (to `2 * n_bits`) followed by
/// [`viterbi_decode_stream_into`] decodes, without materialising the
/// depunctured stream. This is the form the receive chain uses.
///
/// # Panics
/// Same length contract as [`depuncture`] with `mother_len = 2 * n_bits`.
// lint:no_alloc
pub fn viterbi_decode_punctured_into(
    coded: &[f64],
    rate: CodeRate,
    n_bits: usize,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    let pattern = puncture_pattern(rate);
    assert_punctured_len(coded, pattern, 2 * n_bits);
    viterbi_kernel(coded, pattern, n_bits, false, scratch, out);
}

/// Convenience: encode + puncture in one call.
pub fn encode_punctured(data: &[u8], rate: CodeRate) -> Vec<u8> {
    puncture(&encode(data), rate)
}

/// Convenience: Viterbi decode of a terminated, punctured stream in one
/// call (the decoder reads the punctured positions as erasures).
/// `received` holds one LLR per *transmitted* coded bit.
pub fn decode_punctured(received: &[f64], rate: CodeRate, info_bits: usize) -> Vec<u8> {
    let pattern = puncture_pattern(rate);
    let total_steps = info_bits + TAIL_BITS;
    assert_punctured_len(received, pattern, 2 * total_steps);
    let mut scratch = ViterbiScratch::default();
    let mut bits = Vec::new();
    viterbi_kernel(received, pattern, total_steps, true, &mut scratch, &mut bits);
    bits.truncate(info_bits);
    bits
}

/// Convert hard bits to strong LLRs (for loss-free test paths).
pub fn bits_to_llrs(bits: &[u8]) -> Vec<f64> {
    bits.iter().map(|&b| if b == 0 { 10.0 } else { -10.0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_sim::Rng;

    fn random_bits(rng: &mut Rng, n: usize) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    #[test]
    fn encode_known_short_vector() {
        // Hand-computed: input [1], state 0.
        // reg = 0b0000001; g0=0b1011011 -> parity(0b0000001)=1;
        // g1=0b1111001 -> parity(1)=1. Then 6 tail zeros from state 1.
        let coded = encode(&[1]);
        assert_eq!(coded.len(), 2 * (1 + TAIL_BITS));
        assert_eq!(&coded[..2], &[1, 1]);
    }

    #[test]
    fn encode_output_length() {
        assert_eq!(encode(&[0; 100]).len(), 212);
    }

    #[test]
    fn clean_roundtrip_all_rates() {
        let mut rng = Rng::seed_from_u64(1);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
            for len in [1usize, 2, 3, 5, 24, 100, 241] {
                let data = random_bits(&mut rng, len);
                let tx = encode_punctured(&data, rate);
                assert_eq!(tx.len(), coded_len(len, rate), "len mismatch at {rate:?}/{len}");
                let llrs = bits_to_llrs(&tx);
                let decoded = decode_punctured(&llrs, rate, len);
                assert_eq!(decoded, data, "roundtrip failed at {rate:?} len {len}");
            }
        }
    }

    #[test]
    fn corrects_scattered_hard_errors_at_rate_half() {
        let mut rng = Rng::seed_from_u64(2);
        let data = random_bits(&mut rng, 200);
        let mut tx = encode_punctured(&data, CodeRate::R12);
        // Flip ~4% of coded bits, well within the free-distance budget when
        // scattered.
        let n = tx.len();
        for i in (0..n).step_by(25) {
            tx[i] ^= 1;
        }
        let decoded = decode_punctured(&bits_to_llrs(&tx), CodeRate::R12, 200);
        assert_eq!(decoded, data);
    }

    #[test]
    fn soft_erasures_decode_better_than_wrong_hard_bits() {
        let mut rng = Rng::seed_from_u64(3);
        let data = random_bits(&mut rng, 120);
        let tx = encode_punctured(&data, CodeRate::R12);
        // Erase (llr = 0) a contiguous run of 8 coded bits.
        let mut llrs = bits_to_llrs(&tx);
        for llr in llrs.iter_mut().skip(40).take(8) {
            *llr = 0.0;
        }
        let decoded = decode_punctured(&llrs, CodeRate::R12, 120);
        assert_eq!(decoded, data, "8-bit erasure burst must be recoverable");
    }

    #[test]
    fn heavy_corruption_breaks_decoding() {
        // Sanity check the *other* regime WiTAG relies on: enough channel
        // damage defeats the code.
        let mut rng = Rng::seed_from_u64(4);
        let data = random_bits(&mut rng, 120);
        let mut tx = encode_punctured(&data, CodeRate::R34);
        for (i, b) in tx.iter_mut().enumerate() {
            if i % 2 == 0 {
                *b ^= (rng.next_u64() & 1) as u8;
            }
        }
        let decoded = decode_punctured(&bits_to_llrs(&tx), CodeRate::R34, 120);
        assert_ne!(decoded, data, "50% random flips on half the bits must break R3/4");
    }

    #[test]
    fn punctured_rates_have_correct_lengths() {
        // 96 info bits + 6 tail = 204 mother bits.
        assert_eq!(coded_len(96, CodeRate::R12), 204);
        assert_eq!(coded_len(96, CodeRate::R23), 153);
        assert_eq!(coded_len(96, CodeRate::R34), 136);
        // 5/6: 204 * (6/10) with pattern alignment.
        let tx = encode_punctured(&[0u8; 96], CodeRate::R56);
        assert_eq!(tx.len(), coded_len(96, CodeRate::R56));
    }

    #[test]
    fn depuncture_restores_positions() {
        let data = vec![1u8, 0, 1, 1, 0, 1, 0, 0, 1, 0];
        let mother = encode(&data);
        let tx = puncture(&mother, CodeRate::R34);
        let soft = depuncture(&bits_to_llrs(&tx), CodeRate::R34, mother.len());
        assert_eq!(soft.len(), mother.len());
        // Surviving positions carry the coded bit's sign, erased carry 0.
        let pattern = [true, true, true, false, false, true];
        for (i, &s) in soft.iter().enumerate() {
            if pattern[i % 6] {
                let expect = if mother[i] == 0 { 10.0 } else { -10.0 };
                assert_eq!(s, expect, "position {i}");
            } else {
                assert_eq!(s, 0.0, "position {i} should be erased");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn depuncture_rejects_short_stream() {
        let _ = depuncture(&[1.0; 3], CodeRate::R12, 8);
    }

    #[test]
    fn stream_roundtrip_without_termination() {
        let mut rng = Rng::seed_from_u64(7);
        for len in [8usize, 64, 402] {
            let data = random_bits(&mut rng, len);
            let tx = encode_stream(&data);
            assert_eq!(tx.len(), 2 * len);
            let decoded = viterbi_decode_stream(&bits_to_llrs(&tx), len);
            assert_eq!(decoded, data, "stream roundtrip failed at len {len}");
        }
    }

    #[test]
    fn stream_decoder_tolerates_scattered_errors() {
        let mut rng = Rng::seed_from_u64(8);
        let data = random_bits(&mut rng, 300);
        let mut tx = encode_stream(&data);
        for i in (0..tx.len()).step_by(30) {
            tx[i] ^= 1;
        }
        let decoded = viterbi_decode_stream(&bits_to_llrs(&tx), 300);
        assert_eq!(decoded, data);
    }

    #[test]
    fn all_zero_input_encodes_to_zero() {
        let coded = encode(&[0; 50]);
        assert!(coded.iter().all(|&b| b == 0));
    }
}
