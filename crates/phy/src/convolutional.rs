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
//! positions carry `llr = 0` (erasure). The decoder works as a NIC's
//! does: it quantises the LLRs to saturating integers (see [`SOFT_MAX`])
//! and runs the trellis on wrapping `i16` path metrics.

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
    encode_punctured(data, CodeRate::R12)
}

/// The one encoder: runs over `bits` and then `tail` zeros from the
/// all-zero state and keeps the coded bits `rate`'s pattern transmits,
/// in one pass with no mother-rate stream.
fn encode_and_puncture(bits: &[u8], tail: usize, rate: CodeRate) -> Vec<u8> {
    let pattern = puncture_pattern(rate);
    let n_out = punctured_len(pattern, 2 * (bits.len() + tail));
    // Branch-free: write both coded bits, advance past the kept ones; two
    // slack slots take the writes past the last kept bit.
    let mut out = vec![0u8; n_out + 2];
    let mut at = 0usize;
    let mut state = 0usize;
    let mut phase = 0usize;
    for bit in bits.iter().copied().chain(core::iter::repeat_n(0, tail)) {
        debug_assert!(bit <= 1);
        let reg = (state << 1) | bit as usize;
        // The generators tap only the register's low 7 bits.
        let code = OUTPUT_CODE[reg & (2 * STATES - 1)];
        out[at] = code >> 1;
        at += pattern[phase] as usize;
        out[at] = code & 1;
        at += pattern[phase + 1] as usize;
        phase += 2;
        if phase == pattern.len() {
            phase = 0;
        }
        state = reg & (STATES - 1);
    }
    out.truncate(n_out);
    out
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
        CodeRate::R56 => &[
            true, true, true, false, false, true, true, false, false, true,
        ],
    }
}

/// Number of surviving (transmitted) positions the pattern keeps over a
/// mother stream of `mother_len` bits.
fn punctured_len(pattern: &[bool], mother_len: usize) -> usize {
    let keep_per_period = pattern.iter().filter(|&&k| k).count();
    let full = mother_len / pattern.len();
    let rem = pattern[..mother_len % pattern.len()]
        .iter()
        .filter(|&&k| k)
        .count();
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
    punctured_len(puncture_pattern(rate), 2 * (info_bits + TAIL_BITS))
}

/// Saturation of the quantised soft inputs: the decoder sees each LLR as
/// an integer in `±SOFT_MAX` (11-bit soft decisions).
///
/// The width comes from the path-metric range. A branch metric
/// `±l0 ± l1` spans `4·SOFT_MAX`, and every state is reachable from every
/// other in `K − 1` steps, so the metrics of one step spread by at most
/// `(K − 1)·4·SOFT_MAX`. A compare adds one more branch span, so two
/// candidates differ by at most `K·4·SOFT_MAX = 28 644`, inside `i16`'s
/// `2¹⁵`: the wrapping metrics never need renormalising and the
/// wrapping difference is always the true one.
pub const SOFT_MAX: i16 = 1023;

/// The AGC target: a stream's mean |LLR| (over its finite, non-zero
/// values) is scaled to this many quantisation steps, an eighth of the
/// range, so LLRs up to eight times the mean keep full resolution and
/// the rest saturate.
const AGC_MEAN: f64 = SOFT_MAX as f64 / 8.0;

/// Trellis steps quantised per block into the kernel's stack buffer: a
/// whole number of periods of every puncturing pattern (1, 2, 3 and 5
/// steps), so every block starts at pattern phase 0.
const BLOCK: usize = 60;
const _: () = assert!(BLOCK.is_multiple_of(30));

/// Half the state count: the butterfly index range.
const HALF: usize = STATES / 2;

/// Sign of `l0` in the branch metric of the low branch into state `2j`:
/// `B[j] = S0[j]·l0 + S1[j]·l1` is the metric of output code
/// `OUTPUT_CODE[2j]`.
const BF_S0: [i16; HALF] = {
    let mut s = [0; HALF];
    let mut j = 0;
    while j < HALF {
        s[j] = if OUTPUT_CODE[2 * j] & 2 == 0 { 1 } else { -1 };
        j += 1;
    }
    s
};

/// Sign of `l1` in the branch metric of the low branch into state `2j`.
const BF_S1: [i16; HALF] = {
    let mut s = [0; HALF];
    let mut j = 0;
    while j < HALF {
        s[j] = if OUTPUT_CODE[2 * j] & 1 == 0 { 1 } else { -1 };
        j += 1;
    }
    s
};

/// Reusable Viterbi working memory: the survivor storage, one `u64` per
/// trellis step. Bit `(s & 1)·32 + (s >> 1)` of word `step` says whether
/// state `s` was reached from its high predecessor. Hold one per
/// long-lived decoder (e.g. inside a `RxScratch`) so steady-state
/// decoding allocates nothing beyond the buffer's high-water mark.
#[derive(Debug, Clone, Default)]
pub struct ViterbiScratch {
    survivors: Vec<u64>,
}

/// The AGC gain of a soft stream: [`AGC_MEAN`] over the mean |LLR| of
/// its finite values, zeros excluded. Erasures and the zeros
/// [`depuncture_into`] writes add nothing to the sum or the count, so a
/// punctured stream and its depunctured view get the same gain.
fn agc_gain(llrs: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for &x in llrs {
        if x.is_finite() {
            sum += x.abs();
            n += (x != 0.0) as u64;
        }
    }
    if n == 0 {
        1.0
    } else {
        AGC_MEAN * n as f64 / sum
    }
}

/// Quantise one LLR: scale by `gain`, saturate to `±SOFT_MAX`, round to
/// the nearest integer (ties to even). NaN becomes 0, an erasure; ±inf
/// saturates. Adding `1.5·2⁵²` leaves the rounded value in the low
/// mantissa bits, so the whole map is branch-free and vectorises.
#[inline(always)]
fn quantise(x: f64, gain: f64) -> i16 {
    const MAX: f64 = SOFT_MAX as f64;
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let v = x * gain;
    let v = if v.is_nan() { 0.0 } else { v.clamp(-MAX, MAX) };
    (v + ROUND).to_bits() as i16
}

/// The decoder's view of a soft stream: each LLR quantised with the
/// stream's AGC gain (see [`SOFT_MAX`]). The decoders quantise internally;
/// this is for tests and references that need the same integers.
pub fn quantise_llrs(llrs: &[f64]) -> Vec<i16> {
    let gain = agc_gain(llrs);
    llrs.iter().map(|&x| quantise(x, gain)).collect()
}

/// Spread a block's quantised coded values over the mother-stream
/// positions `pattern` keeps (from phase 0), with erasures (0) at the
/// dropped ones.
// lint:no_alloc
fn spread(kept: &[i16], pattern: &[bool], soft: &mut [i16]) {
    if kept.len() == soft.len() {
        soft.copy_from_slice(kept); // rate 1/2: nothing dropped
        return;
    }
    let mut src = kept.iter().copied();
    for (slot, &keep) in soft.iter_mut().zip(pattern.iter().cycle()) {
        *slot = if keep { src.next().unwrap_or(0) } else { 0 };
    }
}

/// One trellis step of the butterfly add-compare-select on wrapping
/// `i16` path metrics. Lane `j` handles the successor pair `(2j, 2j+1)`,
/// whose predecessors are `j` (low) and `j + 32` (high): with
/// `B = bm[OUTPUT_CODE[2j]]` the four candidates are `m_lo + B` /
/// `m_hi − B` into `2j` and `m_lo − B` / `m_hi + B` into `2j+1`, because
/// `OUTPUT_CODE[r ^ 1] = OUTPUT_CODE[r | 64] = OUTPUT_CODE[r] ^ 3`
/// (generators 133/171 both tap register bits 0 and 6) and
/// `bm[c ^ 3] = −bm[c]`. The high candidate wins only if the wrapping
/// difference is strictly positive, so ties keep the low predecessor.
/// The loop writes even successors' metrics to one array and odd ones'
/// to another, and their decisions to bytes 0–31 and 32–63, so every
/// store is contiguous. A second loop interleaves the metrics into state
/// order eight pairs at a time, writing whole 16-element rows so the
/// next step's vector loads read back whole stores. The decision bytes
/// pack into the survivor word in that even/odd order.
// lint:no_alloc
#[inline(always)]
fn acs_step(l0: i16, l1: i16, cur: &[i16; STATES], nxt: &mut [i16; STATES]) -> u64 {
    let (m_lo, m_hi) = cur.split_at(HALF);
    let mut even = [0i16; HALF];
    let mut odd = [0i16; HALF];
    let mut surv = [0u8; STATES];
    let (d_even, d_odd) = surv.split_at_mut(HALF);
    for j in 0..HALF {
        let b = BF_S0[j] * l0 + BF_S1[j] * l1;
        let lo0 = m_lo[j].wrapping_add(b);
        let hi0 = m_hi[j].wrapping_sub(b);
        let lo1 = m_lo[j].wrapping_sub(b);
        let hi1 = m_hi[j].wrapping_add(b);
        // The wrapping difference is the true one (see SOFT_MAX), so
        // `lo + max(hi − lo, 0)` selects the winner.
        let d0 = hi0.wrapping_sub(lo0);
        let d1 = hi1.wrapping_sub(lo1);
        even[j] = lo0.wrapping_add(d0.max(0));
        odd[j] = lo1.wrapping_add(d1.max(0));
        d_even[j] = (d0 > 0) as u8;
        d_odd[j] = (d1 > 0) as u8;
    }
    for ((dst, e), o) in nxt
        .chunks_exact_mut(16)
        .zip(even.chunks_exact(8))
        .zip(odd.chunks_exact(8))
    {
        let mut pairs = [0i16; 16];
        for k in 0..8 {
            pairs[2 * k] = e[k];
            pairs[2 * k + 1] = o[k];
        }
        dst.copy_from_slice(&pairs);
    }
    pack_decisions(&surv)
}

/// One of the first `K − 1` trellis steps, where only states below
/// `2^step` are reachable from the start state 0 and no high predecessor
/// is: every successor takes its low predecessor. Unreachable states get
/// values that no reachable state ever reads, and by step `K − 1` every
/// state holds a true path metric.
// lint:no_alloc
fn warmup_step(l0: i16, l1: i16, cur: &[i16; STATES], nxt: &mut [i16; STATES]) {
    for j in 0..HALF {
        let b = BF_S0[j] * l0 + BF_S1[j] * l1;
        nxt[2 * j] = cur[j].wrapping_add(b);
        nxt[2 * j + 1] = cur[j].wrapping_sub(b);
    }
}

/// Pack one step's decision bytes (each 0 or 1) into a survivor word,
/// byte `i` to bit `i`. Each group of eight bytes is assembled
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

/// Fixed-point add-compare-select over all trellis steps, reading the
/// punctured coded stream `coded` in place: mother-stream position `i` is
/// the next unread `coded` value when `pattern[i % pattern.len()]` keeps
/// it, and an erasure (0, exactly what [`depuncture_into`] writes) when
/// it was dropped. The stream is quantised with its AGC gain
/// ([`agc_gain`]) [`BLOCK`] steps at a time into a stack buffer.
/// `coded.len()` must equal `punctured_len(pattern, 2 * n_steps)` (the
/// public entry points assert it). `terminated` selects the traceback
/// start: state 0 for a terminated trellis, the best-metric state
/// otherwise (the last of equals). Decoded bits (one per step, tail
/// included) land in `out`.
///
/// Takes exactly the decisions of the textbook per-edge Viterbi run in
/// exact arithmetic over the quantised, depunctured stream: integer
/// metrics are exact, the wrapping compare equals the true one (see
/// [`SOFT_MAX`]), and ties keep the low predecessor / the last-scanned
/// best end state, as the per-state scan does.
// lint:no_alloc
fn viterbi_kernel(
    coded: &[f64],
    pattern: &[bool],
    n_steps: usize,
    terminated: bool,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    let gain = agc_gain(coded);
    let survivors = &mut scratch.survivors;
    survivors.clear();
    survivors.resize(n_steps, 0);

    let mut metrics = [[0i16; STATES]; 2];
    let (a, b) = metrics.split_at_mut(1);
    let mut cur = &mut a[0];
    let mut nxt = &mut b[0];
    let mut soft = [0i16; 2 * BLOCK];
    let mut kept = [0i16; 2 * BLOCK];
    let mut rest = coded;
    let mut step = 0usize;
    for words in survivors.chunks_mut(BLOCK) {
        // A block spans whole pattern periods, so it starts at phase 0
        // and reads its coded values contiguously: quantise them in one
        // pass, then spread them over the positions the pattern keeps.
        let soft = &mut soft[..2 * words.len()];
        let (src, tail) = rest.split_at(punctured_len(pattern, soft.len()).min(rest.len()));
        rest = tail;
        let kept = &mut kept[..src.len()];
        for (q, &x) in kept.iter_mut().zip(src) {
            *q = quantise(x, gain);
        }
        spread(kept, pattern, soft);
        for (word, pair) in words.iter_mut().zip(soft.chunks_exact(2)) {
            if step < TAIL_BITS {
                warmup_step(pair[0], pair[1], cur, nxt);
            } else {
                *word = acs_step(pair[0], pair[1], cur, nxt);
            }
            step += 1;
            core::mem::swap(&mut cur, &mut nxt);
        }
    }

    // Last-scanned best reachable state. Metrics wrap, so compare each
    // against state 0's: the spread bound keeps the differences exact.
    let reachable = if n_steps < TAIL_BITS {
        1 << n_steps
    } else {
        STATES
    };
    let mut best = i16::MIN;
    let mut best_state = 0usize;
    for (s, &m) in cur.iter().enumerate().take(reachable) {
        let d = m.wrapping_sub(cur[0]);
        if d >= best {
            best = d;
            best_state = s;
        }
    }
    let mut state = if terminated { 0 } else { best_state };

    out.clear();
    out.resize(n_steps, 0);
    for (bit, &word) in out.iter_mut().zip(survivors.iter()).rev() {
        *bit = (state & 1) as u8; // input bit is the successor's LSB
        let from_high = (word >> ((state & 1) * HALF + (state >> 1))) & 1;
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
    let total_steps = info_bits + TAIL_BITS;
    assert_eq!(
        llrs.len(),
        2 * total_steps,
        "LLR stream length must be 2*(info+tail)"
    );
    let mut bits = Vec::new();
    viterbi_kernel(
        llrs,
        puncture_pattern(CodeRate::R12),
        total_steps,
        true,
        &mut ViterbiScratch::default(),
        &mut bits,
    );
    bits.truncate(info_bits);
    bits
}

/// Encode a bit stream at the mother rate 1/2 **without** appending tail
/// bits. This is the form the 802.11 DATA field uses: the 6 tail bits are
/// part of the (scrambled, then re-zeroed) stream itself, followed by pad
/// bits, so the encoder just runs over everything.
pub fn encode_stream(bits: &[u8]) -> Vec<u8> {
    encode_stream_punctured(bits, CodeRate::R12)
}

/// [`encode_stream`] punctured to `rate` in the same pass: exactly
/// `puncture(&encode_stream(bits), rate)`. This is the DATA-field
/// encoder of the transmit chains.
pub fn encode_stream_punctured(bits: &[u8], rate: CodeRate) -> Vec<u8> {
    encode_and_puncture(bits, 0, rate)
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
    viterbi_kernel(
        llrs,
        puncture_pattern(CodeRate::R12),
        n_bits,
        false,
        scratch,
        out,
    );
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

/// [`encode`] punctured to `rate` in the same pass: exactly
/// `puncture(&encode(data), rate)`.
pub fn encode_punctured(data: &[u8], rate: CodeRate) -> Vec<u8> {
    encode_and_puncture(data, TAIL_BITS, rate)
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
    viterbi_kernel(
        received,
        pattern,
        total_steps,
        true,
        &mut scratch,
        &mut bits,
    );
    bits.truncate(info_bits);
    bits
}

/// Convert hard bits to strong LLRs (for loss-free test paths).
pub fn bits_to_llrs(bits: &[u8]) -> Vec<f64> {
    bits.iter()
        .map(|&b| if b == 0 { 10.0 } else { -10.0 })
        .collect()
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
                assert_eq!(
                    tx.len(),
                    coded_len(len, rate),
                    "len mismatch at {rate:?}/{len}"
                );
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
        assert_ne!(
            decoded, data,
            "50% random flips on half the bits must break R3/4"
        );
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
    fn fused_encoders_equal_encode_then_puncture() {
        let mut rng = Rng::seed_from_u64(9);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
            for len in [0usize, 1, 2, 3, 5, 30, 241] {
                let data = random_bits(&mut rng, len);
                let want = puncture(&encode_stream(&data), rate);
                assert_eq!(encode_stream_punctured(&data, rate), want, "{rate:?}/{len}");
                let want = puncture(&encode(&data), rate);
                assert_eq!(encode_punctured(&data, rate), want, "{rate:?}/{len}");
            }
        }
    }

    #[test]
    fn all_zero_input_encodes_to_zero() {
        let coded = encode(&[0; 50]);
        assert!(coded.iter().all(|&b| b == 0));
    }
}
