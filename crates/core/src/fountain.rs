//! Rateless fountain (LT) coding for the tag bit-channel.
//!
//! The selective-repeat session transport ([`crate::tagnet`]) keeps
//! per-chunk ARQ state — which chunk is missing, which window slot to
//! re-ask — and that state is exactly what bursty Gilbert–Elliott loss
//! attacks: every lost base report stalls the window and every stall
//! burns queries that carry no new information. A fountain code removes
//! the state: the tag streams *coded symbols* (XORs of source chunks
//! drawn from a robust-soliton degree distribution), any `k(1+ε)` of
//! which reconstruct the `k` source chunks. Loss costs overhead, never
//! coordination. The code is systematic (the first `k` symbols are the
//! source chunks themselves), so on a clean channel the fountain costs
//! exactly what uncoded streaming would.
//!
//! The pieces, bottom-up:
//!
//! * [`DegreeDistribution`] — the robust-soliton distribution over
//!   symbol degrees, plus the seeded neighbour selection both ends
//!   derive independently (the symbol id *is* the randomness seed, so
//!   nothing about the code needs to be negotiated).
//! * [`FountainEncoder`] / [`FountainDecoder`] — XOR encoding and the
//!   peeling (belief-propagation) decoder with a Gaussian-elimination
//!   inactivation fallback for the stalled tail.
//! * [`FountainSender`] / [`FountainReceiver`] — the tag-side and
//!   client-side protocol state machines: SYMBOL / INFO / SYNC queries
//!   over the existing chunk framing, with the 4-bit chunk sequence
//!   field carrying `esi mod 16` so the client can track the tag's
//!   symbol counter through losses without any per-chunk feedback.
//!
//! The session driver ([`crate::tagnet::run_fountain_session`]) and the
//! `witag-net` fleet layer both drive these state machines; the framing
//! (`encode_chunk`/`decode_chunk`, CRC-8, Hamming FEC) is shared with
//! the ARQ transport unchanged.

use crate::tagnet::{
    base_report_payload, decode_chunk, encode_chunk, parse_base_report, TagnetError,
    CHUNK_PAYLOAD_BITS, MAX_MESSAGE_BYTES,
};
use std::collections::BTreeSet;
use witag_crypto::crc8;
use witag_sim::Rng;

/// Robust-soliton spike parameter `c` (controls how much probability
/// mass the spike at degree `k/S` and the low-degree boost receive).
pub const ROBUST_SOLITON_C: f64 = 0.1;

/// Robust-soliton failure-bound parameter `δ`: the classical analysis
/// bounds the decode-failure probability at `k + O(√k·ln²(k/δ))`
/// received symbols by `δ`.
pub const ROBUST_SOLITON_DELTA: f64 = 0.5;

/// Vanished-readout count between counter anchors beyond which the
/// receiver starts soliciting SYNC reports (alternating them with
/// SYMBOL queries, never spinning). Each vanished readout advances the
/// tag's counter with probability [`ESI_NONE_ADVANCE_RATE`], so after
/// `j` of them the true advance is Binomial-concentrated around
/// `0.8·j` with deviation `√(0.16·j)`; nearest-residue placement
/// tolerates an error up to ±7, which `3σ` respects while `j ≤ 32`.
/// Past the guard a SYNC re-anchors the counter exactly.
pub const ESI_AMBIGUITY_GUARD: u64 = 32;

/// Modulus of the 12-bit symbol counter a SYNC report carries.
pub const SYNC_ESI_MOD: u64 = 1 << 12;

/// Probability that a SYMBOL round whose readout vanished entirely
/// still advanced the tag's counter. A readout vanishes when the
/// block-ACK path is lost (the tag heard the trigger and advanced) or
/// when the query itself was lost (it did not); across the fault
/// family both rates scale together, so their ratio — and this
/// estimate — is intensity-independent. Placement tolerates a ±7
/// error, so even a badly miscalibrated rate only matters after
/// dozens of consecutive vanished readouts, which is exactly when the
/// guard forces a SYNC anyway.
pub const ESI_NONE_ADVANCE_RATE: f64 = 0.8;

/// Consecutive clean idle-pattern readouts after which the receiver
/// judges the tag dormant — duty-cycled asleep or browned out. A
/// dormant tag hears nothing, so its symbol counter is frozen: while
/// the streak holds, a vanished readout is almost certainly a lost
/// query to a deaf tag (no advance, no ambiguity) and an undecodable
/// readout is almost certainly a collision-corrupted idle (charged as
/// ambiguity rather than a certain advance, and it ends the streak in
/// case the tag actually woke). Without this, a sleeping tag's belief
/// drifts upward for the whole sleep and every real symbol after
/// wake-up is rejected as implausible.
pub const IDLE_STREAK_DORMANT: u64 = 2;

/// Idle-pattern readouts since the last counter anchor beyond which a
/// rejected placement is blamed on belief drift (solicit a SYNC)
/// rather than on readout corruption (advance and move on). The
/// belief only drifts while the tag is dormant — each phantom advance
/// consumes a collision-corrupted idle readout — so a long-dormant
/// tag whose first decodable symbol looks implausible probably woke
/// with a frozen counter the belief ran away from, while after a mere
/// brownout-length idle spell the same rejection is almost certainly
/// a chance CRC pass on a mangled readout.
pub const ESI_DRIFT_IDLES: u64 = 12;

/// Most exactly-placed symbols held before the block size is known.
/// The systematic symbol 0 *is* the header chunk, so a clean start
/// learns the length from the symbol stream itself; symbols placed
/// before that land here and replay into the decoder the moment the
/// length arrives (from symbol 0 or an INFO report).
pub const PLACED_SYMBOL_CAP: usize = 32;

/// Most raw symbols the leave-out repair search will re-decode over.
/// A poisoned block (solved to full rank, end-to-end CRC rejected)
/// keeps absorbing symbols and retrying repair as the raw set grows;
/// past this size the search is abandoned and the block reports
/// complete-but-unverifiable, freeing the channel — by then dozens of
/// clean symbols have failed to exonerate any exclusion, so more than
/// two corrupt symbols made it through and the block is lost anyway.
pub const REPAIR_SYMBOL_MAX: usize = 64;

/// Largest source block that uses dense random repair symbols instead
/// of robust-soliton draws. With `m` chunks missing after the
/// systematic pass, a soliton-degree repair symbol degenerates to a
/// trivial equation with probability `((k-m)/k)^d`, so roughly half the
/// repair stream is wasted on small blocks; dense rows (each chunk
/// included with probability ½) are linearly independent with high
/// probability, so `m + O(1)` repair symbols finish the block — and the
/// decoder's Gaussian inactivation path solves them at negligible cost
/// for blocks this size. Above the threshold, peeling cost matters and
/// the classic soliton draw takes over.
pub const DENSE_REPAIR_MAX: usize = 64;

/// Source chunks a message of `len` bytes splits into: the header chunk
/// (`[len(12) ‖ crc8(8)]`) plus one 20-bit chunk per payload slice —
/// identical to the session transport's chunking, so `k` is derivable
/// from the INFO report alone.
pub fn source_count_for_len(len: usize) -> usize {
    1 + (len * 8).div_ceil(CHUNK_PAYLOAD_BITS)
}

/// Mix a source-block size and a symbol id into one RNG seed. Both ends
/// compute this independently; the constants are arbitrary odd mixers
/// (splitmix-style), not negotiated state.
fn symbol_seed(k: usize, esi: u64) -> u64 {
    (k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(esi.wrapping_mul(0xD1B5_4A32_D192_ED03))
        ^ 0xF0A7_5EED_F0A7_5EED
}

/// The robust-soliton degree distribution over `1..=k`, with the seeded
/// neighbour selection that turns a symbol id into a source-chunk set.
///
/// Construction follows Luby's LT-code analysis: the ideal soliton
/// `ρ(1)=1/k, ρ(d)=1/(d(d-1))` plus the robustifying term
/// `τ(d)=S/(dk)` for `d < k/S` and `τ(k/S)=S·ln(S/δ)/k`, normalised to
/// sum to one (`S = c·ln(k/δ)·√k`). The distribution is a pure function
/// of `k`, so encoder and decoder agree without negotiation.
#[derive(Debug, Clone)]
pub struct DegreeDistribution {
    k: usize,
    pdf: Vec<f64>,
    cdf: Vec<f64>,
}

impl DegreeDistribution {
    /// Build the robust-soliton distribution for `k ≥ 1` source chunks.
    pub fn robust_soliton(k: usize) -> DegreeDistribution {
        let k = k.max(1);
        if k == 1 {
            return DegreeDistribution {
                k,
                pdf: vec![1.0],
                cdf: vec![1.0],
            };
        }
        let kf = k as f64;
        let s = (ROBUST_SOLITON_C * (kf / ROBUST_SOLITON_DELTA).ln() * kf.sqrt()).max(1.0);
        let spike = ((kf / s).round() as usize).clamp(1, k);
        let mut pdf = vec![0.0f64; k];
        // Ideal soliton ρ.
        pdf[0] = 1.0 / kf;
        for (d0, p) in pdf.iter_mut().enumerate().skip(1) {
            let d = (d0 + 1) as f64;
            *p = 1.0 / (d * (d - 1.0));
        }
        // Robustifying τ.
        for (d0, p) in pdf.iter_mut().enumerate().take(spike.saturating_sub(1)) {
            *p += s / ((d0 + 1) as f64 * kf);
        }
        pdf[spike - 1] += s * (s / ROBUST_SOLITON_DELTA).ln().max(0.0) / kf; // lint:allow(panic_path) spike is clamped to 1..=k == pdf.len()
                                                                             // Normalise and integrate.
        let beta: f64 = pdf.iter().sum();
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for p in pdf.iter_mut() {
            *p /= beta;
            acc += *p;
            cdf.push(acc);
        }
        // Pin the top so a u ~ 1.0 draw cannot fall off the table.
        if let Some(top) = cdf.last_mut() {
            *top = 1.0;
        }
        DegreeDistribution { k, pdf, cdf }
    }

    /// The source-block size this distribution was built for.
    pub fn source_count(&self) -> usize {
        self.k
    }

    /// The probability mass function over degrees `1..=k` (index `d-1`
    /// holds `P(degree = d)`); sums to 1.
    pub fn probabilities(&self) -> &[f64] {
        &self.pdf
    }

    /// Sample a degree from a uniform draw `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        match self.cdf.iter().position(|&c| u < c) {
            Some(i) => i + 1,
            None => self.k,
        }
    }

    /// The source-chunk neighbour set of symbol `esi`, in ascending
    /// order. The code is **systematic**: the first `k` symbols are the
    /// source chunks verbatim (`esi < k → {esi}`), so a loss-free pass
    /// costs exactly `k` symbols and coding overhead is only paid on
    /// the repair symbols that follow. Repair symbols (`esi ≥ k`) use
    /// dense random rows up to [`DENSE_REPAIR_MAX`] chunks and a seeded
    /// robust-soliton degree draw with partial Fisher–Yates selection
    /// beyond that. Deterministic in `(k, esi)` — this is the whole
    /// "negotiation" of the code.
    pub fn neighbors(&self, esi: u64) -> Vec<usize> {
        if (esi as u128) < self.k as u128 {
            return vec![esi as usize];
        }
        let mut rng = Rng::seed_from_u64(symbol_seed(self.k, esi));
        if self.k <= DENSE_REPAIR_MAX {
            // Dense repair: each chunk joins with probability ½. A row
            // that comes up empty falls back to the chunk a fresh draw
            // names, so every symbol carries information.
            let picked: Vec<usize> = (0..self.k).filter(|_| rng.chance(0.5)).collect();
            if picked.is_empty() {
                return vec![rng.below(self.k as u64) as usize];
            }
            return picked;
        }
        let degree = self.sample(rng.f64());
        let mut pool: Vec<usize> = (0..self.k).collect();
        for i in 0..degree {
            let j = i + rng.below((self.k - i) as u64) as usize;
            pool.swap(i, j);
        }
        let mut picked = pool[..degree].to_vec();
        picked.sort_unstable();
        picked
    }
}

/// Split a message into the fountain source block: header chunk
/// (`[len(12) ‖ crc8(8)]`, zero-padded to 20 bits) followed by 20-bit
/// payload chunks — byte-identical to the session transport's chunking.
fn source_chunks(message: &[u8]) -> Result<Vec<Vec<u8>>, TagnetError> {
    if message.len() > MAX_MESSAGE_BYTES {
        return Err(TagnetError::MessageTooLong {
            bytes: message.len(),
            max: MAX_MESSAGE_BYTES,
        });
    }
    let len = message.len() as u16;
    let hcrc = crc8(message);
    let mut header = Vec::with_capacity(CHUNK_PAYLOAD_BITS);
    for i in (0..12).rev() {
        header.push(((len >> i) & 1) as u8);
    }
    for i in (0..8).rev() {
        header.push((hcrc >> i) & 1);
    }
    let mut chunks = vec![header];
    let mut bits: Vec<u8> = message
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
        .collect();
    let n = bits.len().div_ceil(CHUNK_PAYLOAD_BITS);
    bits.resize(n * CHUNK_PAYLOAD_BITS, 0);
    chunks.extend(bits.chunks(CHUNK_PAYLOAD_BITS).map(|c| c.to_vec()));
    Ok(chunks)
}

/// Reassemble message bytes from a fully solved source block and verify
/// the header's end-to-end CRC. `None` on any inconsistency.
fn assemble_chunks(chunks: &[Option<Vec<u8>>], k: usize) -> Option<Vec<u8>> {
    let header = chunks.first()?.as_deref()?;
    let len = header[..12]
        .iter()
        .fold(0usize, |acc, &b| (acc << 1) | b as usize);
    let hcrc = header[12..20].iter().fold(0u8, |acc, &b| (acc << 1) | b);
    if source_count_for_len(len) != k {
        return None; // header decoded to a block size we did not solve
    }
    let mut bits = Vec::with_capacity(k.saturating_sub(1) * CHUNK_PAYLOAD_BITS);
    for abs in 1..k {
        bits.extend_from_slice(chunks.get(abs)?.as_deref()?);
    }
    let bytes: Vec<u8> = bits
        .chunks(8)
        .take(len)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b))
        .collect();
    (bytes.len() == len && crc8(&bytes) == hcrc).then_some(bytes)
}

/// Rateless encoder: produces coded symbol `esi` as the XOR of that
/// symbol's neighbour chunks. Stateless per symbol — any subset of the
/// (unbounded) symbol stream is useful to the decoder.
#[derive(Debug, Clone)]
pub struct FountainEncoder {
    chunks: Vec<Vec<u8>>,
    dist: DegreeDistribution,
    len: usize,
}

impl FountainEncoder {
    /// Frame a message as a fountain source block.
    pub fn new(message: &[u8]) -> Result<FountainEncoder, TagnetError> {
        let chunks = source_chunks(message)?;
        let dist = DegreeDistribution::robust_soliton(chunks.len());
        Ok(FountainEncoder {
            chunks,
            dist,
            len: message.len(),
        })
    }

    /// Source chunks in the block (header included).
    pub fn source_count(&self) -> usize {
        self.chunks.len()
    }

    /// The message length in bytes (the INFO report's payload).
    pub fn message_len(&self) -> usize {
        self.len
    }

    /// Coded symbol `esi`: XOR of its neighbour chunks, 20 bits.
    pub fn symbol(&self, esi: u64) -> Vec<u8> {
        let mut out = vec![0u8; CHUNK_PAYLOAD_BITS];
        for idx in self.dist.neighbors(esi) {
            for (o, &b) in out.iter_mut().zip(self.chunks[idx].iter()) {
                *o ^= b;
            }
        }
        out
    }
}

/// One undecoded coded symbol: its payload with every already-solved
/// neighbour XORed out, plus the still-unsolved neighbour set.
#[derive(Debug, Clone)]
struct PendingSymbol {
    neighbors: Vec<usize>,
    payload: Vec<u8>,
}

/// Peeling (belief-propagation) fountain decoder with a
/// Gaussian-elimination inactivation fallback.
///
/// Symbols arrive via [`absorb`](Self::absorb) in any order, with any
/// subset lost. Degree-1 symbols solve their chunk directly; each solve
/// propagates through the pending set (classic peeling). When peeling
/// stalls but the pending equations span the unsolved chunks, the
/// decoder falls back to dense GF(2) elimination over the stalled tail
/// — the "inactivation" step that buys the last few percent of
/// overhead efficiency.
#[derive(Debug, Clone)]
pub struct FountainDecoder {
    dist: DegreeDistribution,
    solved: Vec<Option<Vec<u8>>>,
    pending: Vec<PendingSymbol>,
    seen: BTreeSet<u64>,
    raw: Vec<(u64, Vec<u8>)>,
    repair: bool,
    poisoned: bool,
    received: usize,
    solved_count: usize,
}

impl FountainDecoder {
    /// A decoder for a `k`-chunk source block.
    pub fn new(k: usize) -> FountainDecoder {
        let k = k.max(1);
        FountainDecoder {
            dist: DegreeDistribution::robust_soliton(k),
            solved: vec![None; k],
            pending: Vec::new(),
            seen: BTreeSet::new(),
            raw: Vec::new(),
            repair: true,
            poisoned: false,
            received: 0,
            solved_count: 0,
        }
    }

    /// Source chunks in the block.
    pub fn source_count(&self) -> usize {
        self.solved.len()
    }

    /// Chunks recovered so far.
    pub fn solved_count(&self) -> usize {
        self.solved_count
    }

    /// Distinct coded symbols absorbed so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Whether every source chunk is recovered *and* the block
    /// verifies end to end. A poisoned block — full rank, end-to-end
    /// CRC rejected, leave-out repair so far unsuccessful — reports
    /// incomplete so the session keeps pulling symbols and repair
    /// keeps retrying with a richer raw set; only once the repair
    /// search is exhausted ([`REPAIR_SYMBOL_MAX`]) does the block
    /// report complete (and [`assemble`](Self::assemble) `None`),
    /// releasing the channel.
    pub fn complete(&self) -> bool {
        self.solved_count == self.solved.len() && (!self.poisoned || !self.repairable())
    }

    /// Whether the leave-out repair search still applies to this
    /// block.
    fn repairable(&self) -> bool {
        self.solved.len() <= DENSE_REPAIR_MAX && self.raw.len() <= REPAIR_SYMBOL_MAX
    }

    /// End-to-end CRC over the solved block, ignoring the poisoned
    /// flag — the internal check that *sets* it.
    fn check_crc(&self) -> Option<Vec<u8>> {
        assemble_chunks(&self.solved, self.solved.len())
    }

    /// Absorb coded symbol `esi`; returns the number of source chunks
    /// newly solved by this symbol (directly or via propagation).
    /// Duplicate symbol ids are ignored.
    pub fn absorb(&mut self, esi: u64, payload: &[u8]) -> usize {
        if payload.len() != CHUNK_PAYLOAD_BITS || self.complete() || !self.seen.insert(esi) {
            return 0;
        }
        self.received += 1;
        self.raw.push((esi, payload.to_vec()));
        let before = self.solved_count;
        let mut neighbors = Vec::new();
        let mut bits = payload.to_vec();
        for idx in self.dist.neighbors(esi) {
            match self.solved[idx].as_deref() {
                Some(known) => xor_into(&mut bits, known),
                None => neighbors.push(idx),
            }
        }
        match neighbors.len() {
            0 => {} // fully redundant
            1 => {
                let idx = neighbors[0];
                self.solve(idx, bits);
                self.peel_from(idx);
            }
            _ => self.pending.push(PendingSymbol {
                neighbors,
                payload: bits,
            }),
        }
        if self.solved_count < self.solved.len() {
            self.try_inactivation();
        }
        if self.solved_count == self.solved.len() {
            if self.repair && self.check_crc().is_none() {
                self.try_repair();
            }
            self.poisoned = self.check_crc().is_none();
        }
        self.solved_count - before
    }

    /// Leave-out repair: the block solved to a full rank but the
    /// end-to-end CRC rejected it, so some absorbed symbol was corrupt
    /// in a way the per-chunk checks missed — a collision-mangled
    /// readout that drew a valid chunk CRC by chance. Re-decode the
    /// raw symbol set excluding each symbol in turn; an exclusion
    /// whose re-decode completes *and* passes the end-to-end CRC
    /// identifies the poisoned symbol, and the repaired state replaces
    /// the poisoned one (the bad symbol id is forgotten entirely so a
    /// clean copy can still arrive). If no single exclusion verifies,
    /// pairs are tried on small blocks — two corrupt symbols in one
    /// block is rare but not negligible on a hostile channel. If
    /// nothing verifies the block stays poisoned (and reports
    /// incomplete), so later symbols keep arriving and the search
    /// retries with a richer raw set. Gated to small blocks
    /// ([`DENSE_REPAIR_MAX`]) and bounded raw sets
    /// ([`REPAIR_SYMBOL_MAX`]) where the O(n·k³) (respectively
    /// O(n²·k³) for pairs) worst case is negligible.
    fn try_repair(&mut self) {
        if !self.repairable() {
            return;
        }
        let n = self.raw.len();
        for skip in 0..n {
            if let Some(cand) = self.rebuild_without(&[skip]) {
                *self = cand;
                return;
            }
        }
        if self.solved.len() <= 24 && n <= 32 {
            for a in 0..n {
                for b in a + 1..n {
                    if let Some(cand) = self.rebuild_without(&[a, b]) {
                        *self = cand;
                        return;
                    }
                }
            }
        }
    }

    /// Re-decode the raw symbol set with the given indices excluded;
    /// `Some` only if the survivors complete the block *and* pass the
    /// end-to-end CRC.
    fn rebuild_without(&self, skips: &[usize]) -> Option<FountainDecoder> {
        let mut cand = FountainDecoder::new(self.solved.len());
        cand.repair = false;
        for (i, (esi, payload)) in self.raw.iter().enumerate() {
            if !skips.contains(&i) {
                cand.absorb(*esi, payload);
            }
        }
        if cand.complete() && cand.assemble().is_some() {
            cand.repair = true;
            cand.received = self.received;
            Some(cand)
        } else {
            None
        }
    }

    // Callers pass chunk ids validated against `solved.len()` on ingest.
    fn solve(&mut self, idx: usize, bits: Vec<u8>) {
        let slot = &mut self.solved[idx]; // lint:allow(panic_path) idx < k validated on symbol ingest
        if slot.is_none() {
            *slot = Some(bits);
            self.solved_count += 1;
        }
    }

    /// Propagate one newly solved chunk through the pending set,
    /// cascading any follow-on solves (iterative worklist, no
    /// recursion).
    fn peel_from(&mut self, first: usize) {
        let mut work = vec![first];
        while let Some(idx) = work.pop() {
            // Panic-free by construction: `idx` only enters the worklist
            // after `solve` stored the chunk.
            let slot = self.solved[idx].clone(); // lint:allow(panic_path) worklist only holds ids stored via solve()
            let known = match slot {
                Some(k) => k,
                None => continue,
            };
            let mut i = 0;
            while i < self.pending.len() {
                if let Some(pos) = self.pending[i].neighbors.iter().position(|&n| n == idx) {
                    self.pending[i].neighbors.swap_remove(pos);
                    let payload = &mut self.pending[i].payload;
                    xor_into(payload, &known);
                    match self.pending[i].neighbors.len() {
                        0 => {
                            self.pending.swap_remove(i);
                            continue; // don't advance: swapped row takes slot i
                        }
                        1 => {
                            let row = self.pending.swap_remove(i);
                            let target = row.neighbors[0];
                            let unsolved = self.solved[target].is_none(); // lint:allow(panic_path) neighbor ids validated on symbol ingest
                            if unsolved {
                                self.solve(target, row.payload);
                                work.push(target);
                            }
                            continue;
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
        }
    }

    /// Dense GF(2) elimination over the stalled tail. Only attempted
    /// when the pending equations could plausibly span the unsolved
    /// chunks; solves everything or nothing (full-rank check), then
    /// lets the ordinary peeling path observe the new solves.
    fn try_inactivation(&mut self) {
        let unsolved: Vec<usize> = (0..self.solved.len())
            .filter(|&i| self.solved[i].is_none())
            .collect();
        let u = unsolved.len();
        if u == 0 || self.pending.len() < u {
            return;
        }
        // Column index per chunk id.
        let mut col_of = vec![usize::MAX; self.solved.len()];
        for (c, &idx) in unsolved.iter().enumerate() {
            col_of[idx] = c;
        }
        let words = u.div_ceil(64);
        // Build the augmented system [mask | payload].
        let mut rows: Vec<(Vec<u64>, Vec<u8>)> = self
            .pending
            .iter()
            .map(|p| {
                let mut mask = vec![0u64; words];
                for &n in &p.neighbors {
                    let c = col_of[n];
                    mask[c / 64] |= 1u64 << (c % 64);
                }
                (mask, p.payload.clone())
            })
            .collect();
        // Forward elimination: one pivot row per column. Column c's
        // pivot always lands in row c (a missing pivot aborts the
        // whole pass), so no separate pivot bookkeeping is needed.
        for c in 0..u {
            let (w, b) = (c / 64, 1u64 << (c % 64));
            let Some(p) = (c..rows.len()).find(|&r| rows[r].0[w] & b != 0) else {
                return; // rank-deficient: wait for more symbols
            };
            rows.swap(c, p);
            for r in 0..rows.len() {
                if r != c && rows[r].0[w] & b != 0 {
                    let (head, tail) = rows.split_at_mut(r.max(c));
                    let (src, dst) = if r > c {
                        (&head[c], &mut tail[0])
                    } else {
                        (&tail[0], &mut head[r])
                    };
                    for (d, s) in dst.0.iter_mut().zip(src.0.iter()) {
                        *d ^= s;
                    }
                    let src_payload = src.1.clone();
                    xor_into(&mut dst.1, &src_payload);
                }
            }
        }
        // Full rank: row c now holds exactly one unknown — column c's.
        for (c, &idx) in unsolved.iter().enumerate() {
            let bits = rows[c].1.clone();
            self.solve(idx, bits);
        }
        self.pending.clear();
    }

    /// Reassemble the message once [`complete`](Self::complete); `None`
    /// on the end-to-end CRC mismatch (a corrupt symbol survived the
    /// per-chunk checks and poisoned the block).
    pub fn assemble(&self) -> Option<Vec<u8>> {
        if !self.complete() {
            return None;
        }
        assemble_chunks(&self.solved, self.solved.len())
    }
}

/// XOR `src` into `dst` element-wise over the common prefix.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

/// One query flavour of the fountain protocol. Like the session
/// transport's queries, each maps to a distinct trigger signature the
/// tag matches in hardware — the client's signature choice is the only
/// downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FountainQuery {
    /// "Send your next coded symbol." The tag's symbol counter advances
    /// by one for every SYMBOL query it *hears*.
    Symbol,
    /// "Report the message length." The tag answers with a base-report
    /// chunk carrying the 12-bit byte length — everything the client
    /// needs to derive `k` and build the decoder.
    Info,
    /// "Report your symbol counter (mod 4096)." Repairs the client's
    /// esi tracking after a long loss streak. Never changes tag state.
    Sync,
    /// No query this round — the client backs off and lets the channel
    /// recover.
    Idle,
}

/// Tag-side fountain state machine: an encoder plus the symbol counter.
///
/// Mirrors [`SessionSender`](crate::tagnet::SessionSender)'s
/// serve/commit split: [`serve`](Self::serve) is pure, and
/// [`commit`](Self::commit) is applied only when the tag physically
/// decoded the trigger — so a SYMBOL query the tag never heard does not
/// advance the counter, and the client's esi tracking stays sound.
#[derive(Debug, Clone)]
pub struct FountainSender {
    enc: FountainEncoder,
    esi: u64,
}

impl FountainSender {
    /// Frame a message for fountain streaming.
    pub fn new(message: &[u8]) -> Result<FountainSender, TagnetError> {
        Ok(FountainSender {
            enc: FountainEncoder::new(message)?,
            esi: 0,
        })
    }

    /// The tag's current symbol counter.
    pub fn esi(&self) -> u64 {
        self.esi
    }

    /// Source chunks in the queued message's block.
    pub fn source_count(&self) -> usize {
        self.enc.source_count()
    }

    /// Build the response to one query. Pure: call
    /// [`commit`](Self::commit) afterwards iff the tag heard the
    /// trigger.
    pub fn serve(
        &self,
        query: &FountainQuery,
        channel_bits: usize,
    ) -> Result<Vec<u8>, TagnetError> {
        match *query {
            FountainQuery::Symbol => encode_chunk(
                (self.esi % 16) as u8,
                &self.enc.symbol(self.esi),
                channel_bits,
            ),
            FountainQuery::Info => {
                let len = self.enc.message_len();
                encode_chunk((len % 16) as u8, &base_report_payload(len), channel_bits)
            }
            FountainQuery::Sync => {
                let counter = (self.esi % SYNC_ESI_MOD) as usize;
                encode_chunk(
                    (counter % 16) as u8,
                    &base_report_payload(counter),
                    channel_bits,
                )
            }
            FountainQuery::Idle => Ok(vec![1u8; channel_bits]),
        }
    }

    /// Apply the state effect of a query the tag *did* hear.
    pub fn commit(&mut self, query: &FountainQuery) {
        if matches!(query, FountainQuery::Symbol) {
            self.esi += 1;
        }
    }
}

/// Client-side fountain state machine: symbol-counter tracking by
/// nearest-residue placement, the header-first length handshake and
/// the decoder, reduced to the step-per-round shape both the session
/// driver and the fleet layer can multiplex.
///
/// The esi-tracking model: `esi_lo` is the exact counter belief as of
/// the last *anchor* (an accepted SYMBOL placement or SYNC report),
/// advanced by one for every round since that provably advanced the
/// tag's counter (a served-but-undecodable readout); `ambiguity`
/// counts the rounds since whose readout vanished entirely — each of
/// those advanced the counter with probability
/// [`ESI_NONE_ADVANCE_RATE`]. The belief therefore centers on
/// `esi_lo + 0.8·ambiguity` with a Binomial deviation of
/// `√(0.16·ambiguity)`, and a decodable symbol is placed at the
/// counter value nearest the center whose `esi mod 16` residue matches
/// the chunk sequence field: candidates are 16 apart, so the nearest
/// match is unique and at most 8 from the center — far outside the
/// deviation for any ambiguity the guard permits. Every placement is
/// an anchor: the belief collapses back to exact. A decode whose
/// nearest candidate is still implausibly far from the center
/// (distance over `2 + ambiguity/3`) is rejected as a corrupt readout
/// that drew a valid chunk CRC by chance — the round still advanced
/// the counter, but the payload would poison the decoder.
#[derive(Debug, Clone)]
pub struct FountainReceiver {
    len: Option<usize>,
    decoder: Option<FountainDecoder>,
    esi_lo: u64,
    ambiguity: u64,
    idle_streak: u64,
    idles_since_anchor: u64,
    sync_pending: bool,
    sync_flip: bool,
    placed: Vec<(u64, Vec<u8>)>,
}

/// What one absorbed round did, for stats and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FountainAbsorb {
    /// Payload bits newly recovered (source chunks solved ×
    /// [`CHUNK_PAYLOAD_BITS`]).
    pub solved_bits: usize,
    /// Whether the round's readout was accepted (a symbol folded into
    /// the decoder, or a control report decoded).
    pub accepted: bool,
}

impl Default for FountainReceiver {
    fn default() -> Self {
        FountainReceiver::new()
    }
}

impl FountainReceiver {
    /// A fresh receiver: no length, no decoder, counter belief at 0.
    pub fn new() -> FountainReceiver {
        FountainReceiver {
            len: None,
            decoder: None,
            esi_lo: 0,
            ambiguity: 0,
            idle_streak: 0,
            idles_since_anchor: 0,
            sync_pending: false,
            sync_flip: false,
            placed: Vec::new(),
        }
    }

    /// The next query the client should issue.
    ///
    /// Header-first: the systematic symbol 0 *is* the header chunk
    /// (`[len(12) ‖ crc8(8)]`), so while the length is unknown and the
    /// counter belief still sits at 0 the client asks for SYMBOLs
    /// straight away — on a clean channel the INFO round never
    /// happens. Once the counter may have moved past 0 the length can
    /// only arrive via INFO, so the client *alternates* INFO and
    /// SYMBOL rounds: symbols decoded before the length is known are
    /// held and replayed into the decoder the moment it is.
    ///
    /// Likewise while a SYNC is needed the client alternates SYNC and
    /// SYMBOL rounds rather than spinning on SYNC: on a channel bad
    /// enough to have caused the ambiguity, SYNC reports are lost at
    /// the same rate as symbols, and a decodable symbol round is never
    /// wasted — nearest-residue placement anchors the counter just as
    /// well as a SYNC report does.
    pub fn next_query(&self) -> FountainQuery {
        if self.len.is_none() {
            if (self.esi_lo == 0 && self.ambiguity == 0) || self.sync_flip {
                FountainQuery::Symbol
            } else {
                FountainQuery::Info
            }
        } else if self.sync_pending || self.ambiguity >= ESI_AMBIGUITY_GUARD {
            if self.sync_flip {
                FountainQuery::Symbol
            } else {
                FountainQuery::Sync
            }
        } else {
            FountainQuery::Symbol
        }
    }

    /// Source chunks in the block, once the INFO handshake completed.
    pub fn source_count(&self) -> Option<usize> {
        self.decoder.as_ref().map(FountainDecoder::source_count)
    }

    /// Source chunks recovered so far.
    pub fn solved_count(&self) -> usize {
        self.decoder
            .as_ref()
            .map_or(0, FountainDecoder::solved_count)
    }

    /// Distinct coded symbols absorbed so far.
    pub fn received(&self) -> usize {
        self.decoder.as_ref().map_or(0, FountainDecoder::received)
    }

    /// The client's lower bound on the tag's symbol counter.
    pub fn esi_belief(&self) -> u64 {
        self.esi_lo
    }

    /// Whether every source chunk is recovered.
    pub fn complete(&self) -> bool {
        self.decoder.as_ref().is_some_and(FountainDecoder::complete)
    }

    /// Reassemble the message once [`complete`](Self::complete); `None`
    /// on the end-to-end CRC mismatch.
    pub fn assemble(&self) -> Option<Vec<u8>> {
        self.decoder.as_ref().and_then(FountainDecoder::assemble)
    }

    /// Ask for a SYNC on the next query even though the ambiguity
    /// window has not hit the guard — cheap insurance after an event
    /// (e.g. a backoff quiet period) that makes counter drift likelier.
    pub fn request_sync(&mut self) {
        if self.len.is_some() {
            self.sync_pending = true;
        }
    }

    /// The expected value of the tag's counter: the exact belief as of
    /// the last anchor plus [`ESI_NONE_ADVANCE_RATE`] per vanished
    /// readout since, rounded to the nearest integer.
    fn center(&self) -> u64 {
        self.esi_lo + (ESI_NONE_ADVANCE_RATE * self.ambiguity as f64 + 0.5) as u64
    }

    /// Resolve a decoded chunk's 4-bit sequence residue to a symbol id:
    /// the counter value nearest the belief center whose `esi mod 16`
    /// matches. Candidates are 16 apart so the nearest is unique and
    /// at most 8 away; a candidate outside the plausibility tolerance
    /// (`2 + ambiguity/3`, sized to cover both the Binomial deviation
    /// of the vanished-readout advances and a phantom advance or two
    /// from collision-corrupted idle readouts) is rejected — it is far
    /// likelier to be a mangled readout that drew a valid chunk CRC by
    /// chance than a genuine symbol.
    fn place(&self, seq: u8) -> Option<u64> {
        let center = self.center();
        let fwd = (16 + u64::from(seq) - center % 16) % 16;
        let up = center + fwd;
        let cand = if fwd <= 8 {
            up
        } else {
            up.checked_sub(16).unwrap_or(up)
        };
        let tol = (2 + self.ambiguity / 3).min(7);
        (cand.abs_diff(center) <= tol).then_some(cand)
    }

    /// Learn the message length — from an INFO report or from the
    /// header chunk arriving as symbol 0 — build the decoder, and
    /// replay every symbol placed before the length was known.
    /// Returns the source chunks the replay solved.
    fn install_decoder(&mut self, len: usize) -> usize {
        self.len = Some(len);
        let mut dec = FountainDecoder::new(source_count_for_len(len));
        let mut solved = 0;
        for (esi, payload) in std::mem::take(&mut self.placed) {
            solved += dec.absorb(esi, &payload);
        }
        self.decoder = Some(dec);
        solved
    }

    /// Fold one round's readout in. `query` must be the flavour the
    /// round actually carried (the one [`next_query`](Self::next_query)
    /// returned when the round was issued).
    pub fn absorb(
        &mut self,
        query: &FountainQuery,
        readout: Option<&[u8]>,
        channel_bits: usize,
    ) -> FountainAbsorb {
        let miss = FountainAbsorb {
            solved_bits: 0,
            accepted: false,
        };
        let symbol_round = matches!(query, FountainQuery::Symbol);
        // Drive the INFO/SYMBOL and SYNC/SYMBOL alternation (see
        // [`next_query`](Self::next_query)).
        match query {
            FountainQuery::Sync | FountainQuery::Info => self.sync_flip = true,
            FountainQuery::Symbol => self.sync_flip = false,
            FountainQuery::Idle => {}
        }
        let dormant = self.idle_streak >= IDLE_STREAK_DORMANT;
        let Some(bits) = readout else {
            // Nothing read back at all: the tag may or may not have
            // heard a SYMBOL trigger, so the belief widens — unless
            // the tag looks dormant, in which case the lost query
            // almost certainly fell on deaf ears and the counter is
            // frozen.
            if symbol_round && !dormant {
                self.ambiguity += 1;
            }
            return miss;
        };
        if bits.iter().all(|&b| b == 1) {
            // Idle pattern: the tag never modulated, so it never heard
            // the trigger and its counter is untouched.
            self.idle_streak += 1;
            self.idles_since_anchor += 1;
            return miss;
        }
        let Some((seq, payload)) = decode_chunk(bits, channel_bits) else {
            // Modulated but undecodable (noise, collision overlap): the
            // tag almost certainly heard the query, so a SYMBOL trigger
            // advanced its counter by exactly one — the symbol is lost
            // but the belief stays sharp. "Almost": a collision can
            // corrupt an *idle* readout into looking modulated. On a
            // dormant-looking tag that reading dominates, so the round
            // is charged as ambiguity (and ends the streak, in case
            // the tag actually woke); on an active tag the placement
            // tolerance absorbs a phantom advance or two and the next
            // placement re-anchors the belief exactly.
            if symbol_round {
                if dormant {
                    self.ambiguity += 1;
                } else {
                    self.esi_lo += 1;
                }
            }
            self.idle_streak = 0;
            return miss;
        };
        self.idle_streak = 0;
        match *query {
            FountainQuery::Info => {
                let Some(len) = parse_base_report(seq, &payload) else {
                    return miss;
                };
                let solved = if self.len.is_none() {
                    self.install_decoder(len)
                } else {
                    0
                };
                FountainAbsorb {
                    solved_bits: solved * CHUNK_PAYLOAD_BITS,
                    accepted: true,
                }
            }
            FountainQuery::Sync => {
                let Some(counter) = parse_base_report(seq, &payload) else {
                    return miss;
                };
                // A CRC-valid SYNC report is authoritative: it carries
                // the tag's counter mod 4096 exactly. Resolve the
                // 12-bit counter to the candidate nearest the belief
                // center; drift is bounded by rounds since the last
                // anchor, far inside the 4096 wrap.
                let counter = counter as u64;
                let center = self.center();
                let base = center - (center % SYNC_ESI_MOD);
                let candidate = [
                    base.checked_sub(SYNC_ESI_MOD),
                    Some(base),
                    base.checked_add(SYNC_ESI_MOD),
                ]
                .into_iter()
                .flatten()
                .map(|b| b + counter)
                .min_by_key(|&e| e.abs_diff(center));
                let Some(esi) = candidate else { return miss };
                self.esi_lo = esi;
                self.ambiguity = 0;
                self.idles_since_anchor = 0;
                self.sync_pending = false;
                FountainAbsorb {
                    solved_bits: 0,
                    accepted: true,
                }
            }
            FountainQuery::Symbol => {
                let Some(esi) = self.place(seq) else {
                    // Decodable but implausibly far from the belief
                    // center. The payload is always dropped rather
                    // than risked against the decoder — but what to
                    // believe about the counter depends on context.
                    // If the tag has spent a long dormant stretch
                    // since the last anchor ([`ESI_DRIFT_IDLES`]), the
                    // belief itself probably drifted while the counter
                    // was frozen, so widen it and solicit a SYNC to
                    // re-anchor — silently advancing here would reject
                    // every real symbol while drifting further. A
                    // short idle spell (a brownout) cannot have
                    // drifted the belief past the tolerance, so then
                    // the belief is sound and this is a corrupted
                    // readout that drew a valid chunk CRC by chance:
                    // the tag still served *something*, so the counter
                    // advanced by one.
                    if self.idles_since_anchor >= ESI_DRIFT_IDLES {
                        self.ambiguity += 1;
                        self.sync_pending = true;
                    } else {
                        self.esi_lo += 1;
                    }
                    return miss;
                };
                let solved = match self.decoder.as_mut() {
                    Some(dec) => dec.absorb(esi, &payload),
                    None => {
                        // Pre-length: hold exactly-placed symbols for
                        // replay, and read the length straight out of
                        // the header chunk if this *is* symbol 0.
                        if self.placed.len() < PLACED_SYMBOL_CAP {
                            self.placed.push((esi, payload.clone()));
                        }
                        if esi == 0 {
                            let len = payload[..12]
                                .iter()
                                .fold(0usize, |acc, &b| (acc << 1) | b as usize);
                            if len <= MAX_MESSAGE_BYTES {
                                self.install_decoder(len)
                            } else {
                                0
                            }
                        } else {
                            0
                        }
                    }
                };
                // Every placement is an anchor: the tag's counter is
                // now exactly esi + 1.
                self.esi_lo = esi + 1;
                self.ambiguity = 0;
                self.idles_since_anchor = 0;
                self.sync_pending = false;
                FountainAbsorb {
                    solved_bits: solved * CHUNK_PAYLOAD_BITS,
                    accepted: true,
                }
            }
            FountainQuery::Idle => miss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_sim::Rng;

    #[test]
    fn degree_distribution_is_normalised() {
        for k in [1usize, 2, 3, 7, 20, 100, 1000] {
            let d = DegreeDistribution::robust_soliton(k);
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "k={k} sum={sum}");
            assert!(d.probabilities().iter().all(|&p| p >= 0.0));
            assert_eq!(d.probabilities().len(), k);
        }
    }

    #[test]
    fn neighbor_selection_is_deterministic_and_in_range() {
        let d = DegreeDistribution::robust_soliton(17);
        for esi in 0..200u64 {
            let a = d.neighbors(esi);
            let b = d.neighbors(esi);
            assert_eq!(a, b);
            assert!(!a.is_empty() && a.len() <= 17);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(a.iter().all(|&i| i < 17));
        }
    }

    #[test]
    fn encoder_decoder_roundtrip_in_order() {
        let message = b"fountain codes need no feedback per chunk";
        let enc = FountainEncoder::new(message).unwrap();
        let mut dec = FountainDecoder::new(enc.source_count());
        let mut esi = 0u64;
        while !dec.complete() {
            dec.absorb(esi, &enc.symbol(esi));
            esi += 1;
            assert!(esi < 10_000, "decoder must converge");
        }
        assert_eq!(dec.assemble().unwrap(), message);
        // Mild overhead: well under 2x for a ~18-chunk block.
        assert!(esi < 2 * enc.source_count() as u64 + 8, "esi={esi}");
    }

    #[test]
    fn decoder_survives_loss_and_reordering() {
        let message = b"any k(1+e) symbols will do, in any order";
        let enc = FountainEncoder::new(message).unwrap();
        let mut rng = Rng::seed_from_u64(77);
        // Drop 40% of the first 4k symbols, shuffle the survivors.
        let mut esis: Vec<u64> = (0..4 * enc.source_count() as u64)
            .filter(|_| !rng.chance(0.4))
            .collect();
        rng.shuffle(&mut esis);
        let mut dec = FountainDecoder::new(enc.source_count());
        for esi in esis {
            if dec.complete() {
                break;
            }
            dec.absorb(esi, &enc.symbol(esi));
        }
        assert!(dec.complete());
        assert_eq!(dec.assemble().unwrap(), message);
    }

    #[test]
    fn inactivation_rescues_a_stalled_tail() {
        // Feed only degree>=2 symbols (skip any whose neighbour set is
        // a singleton): pure peeling cannot start, so completion proves
        // the Gaussian fallback engaged.
        let message = b"stalls happen";
        let enc = FountainEncoder::new(message).unwrap();
        let dist = DegreeDistribution::robust_soliton(enc.source_count());
        let mut dec = FountainDecoder::new(enc.source_count());
        let mut fed = 0;
        for esi in 0..20_000u64 {
            if dist.neighbors(esi).len() < 2 {
                continue;
            }
            dec.absorb(esi, &enc.symbol(esi));
            fed += 1;
            if dec.complete() {
                break;
            }
        }
        assert!(dec.complete(), "fed {fed} degree>=2 symbols");
        assert_eq!(dec.assemble().unwrap(), message);
    }

    #[test]
    fn duplicate_symbols_are_ignored() {
        let enc = FountainEncoder::new(b"dup").unwrap();
        let mut dec = FountainDecoder::new(enc.source_count());
        let first = dec.absorb(3, &enc.symbol(3));
        let again = dec.absorb(3, &enc.symbol(3));
        assert_eq!(again, 0);
        let _ = first;
        assert_eq!(dec.received(), 1);
    }

    #[test]
    fn empty_message_roundtrips() {
        let enc = FountainEncoder::new(b"").unwrap();
        assert_eq!(enc.source_count(), 1);
        let mut dec = FountainDecoder::new(1);
        let mut esi = 0;
        while !dec.complete() {
            dec.absorb(esi, &enc.symbol(esi));
            esi += 1;
        }
        assert_eq!(dec.assemble().unwrap(), b"");
    }

    #[test]
    fn sender_receiver_protocol_on_clean_channel() {
        let message = b"protocol state machines agree end to end";
        let mut sender = FountainSender::new(message).unwrap();
        let mut recv = FountainReceiver::new();
        let mut rounds = 0;
        while !recv.complete() {
            let q = recv.next_query();
            // Header-first: symbol 0 carries the length, so a clean
            // start never needs an INFO round.
            assert_ne!(q, FountainQuery::Info);
            let tx = sender.serve(&q, 62).unwrap();
            sender.commit(&q);
            let out = recv.absorb(&q, Some(&tx), 62);
            assert!(out.accepted, "clean channel must accept every round");
            rounds += 1;
            assert!(rounds < 1000);
        }
        assert_eq!(recv.assemble().unwrap(), message);
        assert_eq!(recv.source_count(), Some(sender.source_count()));
        // Systematic + header-first: a clean pass costs exactly k rounds.
        assert_eq!(rounds, sender.source_count());
    }

    #[test]
    fn placement_recovers_a_phantom_advance() {
        let message = b"phantom advances are absorbed by placement";
        let mut sender = FountainSender::new(message).unwrap();
        let mut recv = FountainReceiver::new();
        // Learn the length from the header symbol.
        let q = recv.next_query();
        let tx = sender.serve(&q, 62).unwrap();
        sender.commit(&q);
        recv.absorb(&q, Some(&tx), 62);
        // A collision corrupts an *idle* readout into modulated
        // garbage: the tag never heard the query (no commit), but the
        // client sees an undecodable readout and infers an advance.
        let mut garbage = vec![1u8; 62];
        for (i, b) in garbage.iter_mut().enumerate() {
            if i % 3 == 0 {
                *b = 0;
            }
        }
        assert!(decode_chunk(&garbage, 62).is_none());
        let q = recv.next_query();
        assert_eq!(q, FountainQuery::Symbol);
        recv.absorb(&q, Some(&garbage), 62);
        assert_eq!(recv.esi_belief(), sender.esi() + 1);
        // The next clean symbol is placed at the residue candidate
        // nearest the belief — one *below* it — re-anchoring exactly.
        let q = recv.next_query();
        let tx = sender.serve(&q, 62).unwrap();
        sender.commit(&q);
        let out = recv.absorb(&q, Some(&tx), 62);
        assert!(out.accepted);
        assert_eq!(recv.esi_belief(), sender.esi());
    }

    #[test]
    fn leave_one_out_repair_heals_a_poisoned_block() {
        let message = b"one corrupt symbol cannot hold the block hostage";
        let enc = FountainEncoder::new(message).unwrap();
        let k = enc.source_count() as u64;
        let mut dec = FountainDecoder::new(enc.source_count());
        // A corrupt symbol claiming esi 2 lands first; the real symbol
        // 2 (and a few others) never arrive, so chunk 2's only clean
        // coverage is the dense repair rows.
        let mut bad = enc.symbol(2);
        for b in bad.iter_mut().take(6) {
            *b ^= 1;
        }
        dec.absorb(2, &bad);
        let skip = [2u64, 5, 9, 13];
        for esi in 0..k {
            if !skip.contains(&esi) {
                dec.absorb(esi, &enc.symbol(esi));
            }
        }
        let mut esi = k;
        while !dec.complete() && esi < k + 200 {
            dec.absorb(esi, &enc.symbol(esi));
            esi += 1;
        }
        // Completion triggered the CRC check, the check failed, and
        // leave-one-out re-decoding identified and evicted the corrupt
        // symbol.
        assert!(dec.complete());
        assert_eq!(dec.assemble().unwrap(), message);
    }

    #[test]
    fn receiver_tracks_esi_through_losses() {
        // Lose 50% of rounds (tag still hears and advances on heard
        // ones only); esi tracking must stay consistent and the message
        // must come through without a single wrong-chunk insertion.
        let message = b"esi tracking through heavy loss";
        let mut sender = FountainSender::new(message).unwrap();
        let mut recv = FountainReceiver::new();
        let mut rng = Rng::seed_from_u64(5);
        let mut rounds = 0;
        while !recv.complete() && rounds < 5000 {
            let q = recv.next_query();
            let tx = sender.serve(&q, 62).unwrap();
            let heard = !rng.chance(0.3); // tag misses 30% of triggers
            if heard {
                sender.commit(&q);
            }
            let lost = rng.chance(0.3); // and 30% of readouts vanish
            let readout = if !heard {
                Some(vec![1u8; 62]) // tag silent: idle pattern
            } else if lost {
                None
            } else {
                Some(tx)
            };
            recv.absorb(&q, readout.as_deref(), 62);
            rounds += 1;
        }
        assert!(recv.complete(), "rounds={rounds}");
        assert_eq!(recv.assemble().unwrap(), message);
    }

    #[test]
    fn sync_repairs_a_long_ambiguity_window() {
        let message = b"sync heals the counter";
        let mut sender = FountainSender::new(message).unwrap();
        let mut recv = FountainReceiver::new();
        // Learn the length from the header symbol.
        let q = recv.next_query();
        assert_eq!(q, FountainQuery::Symbol);
        let tx = sender.serve(&q, 62).unwrap();
        sender.commit(&q);
        recv.absorb(&q, Some(&tx), 62);
        // Burn SYMBOL rounds with lost readouts (tag hears, client
        // gets nothing) until the ambiguity guard trips and a SYNC is
        // solicited.
        let mut saw_sync = false;
        for _ in 0..2 * ESI_AMBIGUITY_GUARD + 2 {
            let q = recv.next_query();
            if q == FountainQuery::Sync {
                saw_sync = true;
                let tx = sender.serve(&q, 62).unwrap();
                sender.commit(&q);
                let out = recv.absorb(&q, Some(&tx), 62);
                assert!(out.accepted);
                break;
            }
            assert_eq!(q, FountainQuery::Symbol);
            let _ = sender.serve(&q, 62).unwrap();
            sender.commit(&q);
            recv.absorb(&q, None, 62);
        }
        assert!(saw_sync, "the guard must eventually solicit a SYNC");
        assert_eq!(recv.esi_belief(), sender.esi());
        // And symbols flow again.
        assert_eq!(recv.next_query(), FountainQuery::Symbol);
    }
}
