//! Property tests for the rateless fountain codec: whatever loss and
//! reordering pattern the generator dreams up, the decoder either
//! reconstructs the exact bytes or keeps asking for more symbols —
//! never silent corruption — and the degree distribution stays a
//! proper probability distribution for every block size.

mod common;

use common::test_message;
use proptest::prelude::*;
use witag::fountain::{DegreeDistribution, FountainDecoder, FountainEncoder};
use witag_crypto::crc8;
use witag_sim::Rng;

/// Hard ceiling on symbols fed per case — far beyond the `k + O(√k)`
/// overhead the robust soliton needs, so hitting it means a real bug,
/// not an unlucky draw.
const SYMBOL_BUDGET: u64 = 4096;

/// Feed symbols from `esis` (in the given order) until the decoder
/// completes, then keep pulling fresh sequential ids if the supplied
/// set was rank-deficient. Returns the number of symbols consumed.
fn decode_from(enc: &mut FountainEncoder, dec: &mut FountainDecoder, esis: &[u64]) -> u64 {
    let mut fed = 0u64;
    for &esi in esis {
        if dec.complete() {
            break;
        }
        dec.absorb(esi, enc.symbol(esi));
        fed += 1;
    }
    let mut next = esis.iter().copied().max().map_or(0, |m| m + 1);
    while !dec.complete() && fed < SYMBOL_BUDGET {
        dec.absorb(next, enc.symbol(next));
        next += 1;
        fed += 1;
    }
    fed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// In-order delivery with random per-symbol loss: the decoder
    /// finishes within the symbol budget and hands back the exact
    /// message, whatever the overhead the loss pattern forces.
    #[test]
    fn roundtrip_at_random_overhead(
        msg_len in 1usize..192,
        msg_seed in any::<u64>(),
        loss_seed in any::<u64>(),
        loss in 0.0f64..0.7,
    ) {
        let message = test_message(msg_len, msg_seed);
        let mut enc = FountainEncoder::new(&message).expect("valid message");
        let mut dec = FountainDecoder::new(enc.source_count());
        let mut drop = Rng::seed_from_u64(loss_seed);
        let kept: Vec<u64> = (0..SYMBOL_BUDGET).filter(|_| !drop.chance(loss)).collect();
        let fed = decode_from(&mut enc, &mut dec, &kept);
        prop_assert!(dec.complete(), "budget exhausted after {fed} symbols");
        prop_assert_eq!(dec.assemble(), Some(message));
    }

    /// Arbitrary reordering on top of loss: shuffle a window of symbol
    /// ids, drop a prefix of it, and deliver the rest out of order. The
    /// decoder neither needs sequencing nor duplicates suppression from
    /// the channel — any sufficiently large symbol subset reconstructs
    /// the block byte-identically.
    #[test]
    fn survives_loss_and_reordering(
        msg_len in 1usize..160,
        msg_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        drop_frac in 0.0f64..0.5,
    ) {
        let message = test_message(msg_len, msg_seed);
        let mut enc = FountainEncoder::new(&message).expect("valid message");
        let k = enc.source_count() as u64;
        let mut esis: Vec<u64> = (0..3 * k + 24).collect();
        let mut rng = Rng::seed_from_u64(shuffle_seed);
        rng.shuffle(&mut esis);
        let dropped = (esis.len() as f64 * drop_frac) as usize;
        let survivors = &esis[dropped..];
        let mut dec = FountainDecoder::new(enc.source_count());
        decode_from(&mut enc, &mut dec, survivors);
        prop_assert!(dec.complete());
        prop_assert_eq!(dec.assemble(), Some(message));
        prop_assert!(dec.received() as u64 >= k, "cannot finish below rank k");
    }

    /// The robust-soliton table is a probability distribution for every
    /// block size: strictly non-negative, sums to one, and sampling any
    /// quantile lands on a degree in `1..=k`.
    #[test]
    fn degree_distribution_sums_to_one(
        k in 1usize..400,
        u in 0.0f64..1.0,
    ) {
        let dist = DegreeDistribution::robust_soliton(k);
        let total: f64 = dist.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "pdf sums to {total}");
        prop_assert!(dist.probabilities().iter().all(|&p| p >= 0.0));
        let d = dist.sample(u);
        prop_assert!((1..=k).contains(&d), "degree {d} outside 1..={k}");
    }
}

/// The bit-vector LT decoder the packed one replaced, kept as the
/// reference: one byte per payload bit, one neighbour vec per symbol,
/// the same peeling, inactivation and leave-out repair.
mod reference {
    use super::{crc8, DegreeDistribution, Rng};
    use std::collections::BTreeSet;

    const PAYLOAD_BITS: usize = 20;
    const DENSE_REPAIR_MAX: usize = 64;
    const REPAIR_SYMBOL_MAX: usize = 64;

    fn symbol_seed(k: usize, esi: u64) -> u64 {
        (k as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(esi.wrapping_mul(0xD1B5_4A32_D192_ED03))
            ^ 0xF0A7_5EED_F0A7_5EED
    }

    fn neighbors(dist: &DegreeDistribution, k: usize, esi: u64) -> Vec<usize> {
        if esi < k as u64 {
            return vec![esi as usize];
        }
        let mut rng = Rng::seed_from_u64(symbol_seed(k, esi));
        if k <= DENSE_REPAIR_MAX {
            let picked: Vec<usize> = (0..k).filter(|_| rng.chance(0.5)).collect();
            if picked.is_empty() {
                return vec![rng.below(k as u64) as usize];
            }
            return picked;
        }
        let degree = dist.sample(rng.f64());
        let mut pool: Vec<usize> = (0..k).collect();
        for i in 0..degree {
            let j = i + rng.below((k - i) as u64) as usize;
            pool.swap(i, j);
        }
        let mut picked = pool[..degree].to_vec();
        picked.sort_unstable();
        picked
    }

    fn fold(bits: &[u8]) -> usize {
        bits.iter().fold(0usize, |acc, &b| (acc << 1) | b as usize)
    }

    fn assemble_chunks(chunks: &[Option<Vec<u8>>], k: usize) -> Option<Vec<u8>> {
        let header = chunks.first()?.as_deref()?;
        let len = fold(&header[..12]);
        let hcrc = fold(&header[12..20]) as u8;
        if 1 + (len * 8).div_ceil(PAYLOAD_BITS) != k {
            return None;
        }
        let mut bits = Vec::new();
        for abs in 1..k {
            bits.extend_from_slice(chunks.get(abs)?.as_deref()?);
        }
        let bytes: Vec<u8> = bits.chunks(8).take(len).map(|c| fold(c) as u8).collect();
        (bytes.len() == len && crc8(&bytes) == hcrc).then_some(bytes)
    }

    fn xor_into(dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    #[derive(Clone)]
    struct Pending {
        neighbors: Vec<usize>,
        payload: Vec<u8>,
    }

    #[derive(Clone)]
    pub struct Decoder {
        dist: DegreeDistribution,
        solved: Vec<Option<Vec<u8>>>,
        pending: Vec<Pending>,
        seen: BTreeSet<u64>,
        raw: Vec<(u64, Vec<u8>)>,
        repair: bool,
        poisoned: bool,
        solved_count: usize,
    }

    impl Decoder {
        pub fn new(k: usize) -> Decoder {
            Decoder {
                dist: DegreeDistribution::robust_soliton(k),
                solved: vec![None; k],
                pending: Vec::new(),
                seen: BTreeSet::new(),
                raw: Vec::new(),
                repair: true,
                poisoned: false,
                solved_count: 0,
            }
        }

        pub fn complete(&self) -> bool {
            self.solved_count == self.solved.len() && (!self.poisoned || !self.repairable())
        }

        fn repairable(&self) -> bool {
            self.solved.len() <= DENSE_REPAIR_MAX && self.raw.len() <= REPAIR_SYMBOL_MAX
        }

        pub fn assemble(&self) -> Option<Vec<u8>> {
            if !self.complete() {
                return None;
            }
            assemble_chunks(&self.solved, self.solved.len())
        }

        pub fn absorb(&mut self, esi: u64, payload: &[u8]) -> usize {
            if payload.len() != PAYLOAD_BITS || self.complete() || !self.seen.insert(esi) {
                return 0;
            }
            self.raw.push((esi, payload.to_vec()));
            let before = self.solved_count;
            let mut neighbors = Vec::new();
            let mut bits = payload.to_vec();
            for idx in neighbors_of(self, esi) {
                match self.solved[idx].as_deref() {
                    Some(known) => xor_into(&mut bits, known),
                    None => neighbors.push(idx),
                }
            }
            match neighbors.len() {
                0 => {}
                1 => {
                    let idx = neighbors[0];
                    self.solve(idx, bits);
                    self.peel_from(idx);
                }
                _ => self.pending.push(Pending {
                    neighbors,
                    payload: bits,
                }),
            }
            if self.solved_count < self.solved.len() {
                self.try_inactivation();
            }
            if self.solved_count == self.solved.len() {
                let k = self.solved.len();
                if self.repair && assemble_chunks(&self.solved, k).is_none() {
                    self.try_repair();
                }
                self.poisoned = assemble_chunks(&self.solved, k).is_none();
            }
            self.solved_count - before
        }

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

        fn rebuild_without(&self, skips: &[usize]) -> Option<Decoder> {
            let mut cand = Decoder::new(self.solved.len());
            cand.repair = false;
            for (i, (esi, payload)) in self.raw.iter().enumerate() {
                if !skips.contains(&i) {
                    cand.absorb(*esi, payload);
                }
            }
            if cand.complete() && cand.assemble().is_some() {
                cand.repair = true;
                Some(cand)
            } else {
                None
            }
        }

        fn solve(&mut self, idx: usize, bits: Vec<u8>) {
            if self.solved[idx].is_none() {
                self.solved[idx] = Some(bits);
                self.solved_count += 1;
            }
        }

        fn peel_from(&mut self, first: usize) {
            let mut work = vec![first];
            while let Some(idx) = work.pop() {
                let Some(known) = self.solved[idx].clone() else {
                    continue;
                };
                let mut i = 0;
                while i < self.pending.len() {
                    if let Some(pos) = self.pending[i].neighbors.iter().position(|&n| n == idx) {
                        self.pending[i].neighbors.swap_remove(pos);
                        xor_into(&mut self.pending[i].payload, &known);
                        match self.pending[i].neighbors.len() {
                            0 => {
                                self.pending.swap_remove(i);
                                continue;
                            }
                            1 => {
                                let row = self.pending.swap_remove(i);
                                let target = row.neighbors[0];
                                if self.solved[target].is_none() {
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

        fn try_inactivation(&mut self) {
            let unsolved: Vec<usize> = (0..self.solved.len())
                .filter(|&i| self.solved[i].is_none())
                .collect();
            let u = unsolved.len();
            if u == 0 || self.pending.len() < u {
                return;
            }
            let mut col_of = vec![usize::MAX; self.solved.len()];
            for (c, &idx) in unsolved.iter().enumerate() {
                col_of[idx] = c;
            }
            let words = u.div_ceil(64);
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
            for c in 0..u {
                let (w, b) = (c / 64, 1u64 << (c % 64));
                let Some(p) = (c..rows.len()).find(|&r| rows[r].0[w] & b != 0) else {
                    return;
                };
                rows.swap(c, p);
                let pivot = rows[c].clone();
                for (r, row) in rows.iter_mut().enumerate() {
                    if r != c && row.0[w] & b != 0 {
                        for (d, s) in row.0.iter_mut().zip(&pivot.0) {
                            *d ^= s;
                        }
                        xor_into(&mut row.1, &pivot.1);
                    }
                }
            }
            for (c, &idx) in unsolved.iter().enumerate() {
                let bits = rows[c].1.clone();
                self.solve(idx, bits);
            }
            self.pending.clear();
        }
    }

    fn neighbors_of(dec: &Decoder, esi: u64) -> Vec<usize> {
        neighbors(&dec.dist, dec.solved.len(), esi)
    }
}

/// A packed payload as the reference decoder's bit vector.
fn bit_vector(payload: u32) -> Vec<u8> {
    (0..20).rev().map(|i| ((payload >> i) & 1) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed decoder against the bit-vector reference: the same
    /// symbols in a random order, a random share erased, and the first
    /// symbol fed poisoned. Both must solve the same chunks on every
    /// absorb and report the same completion, and leave-out repair
    /// must find the poisoned symbol and hand back the message. The
    /// first exclusion the search tries is the first symbol absorbed,
    /// so the poison is found before any other exclusion can pass the
    /// 8-bit end-to-end CRC by chance.
    #[test]
    fn packed_decoder_matches_the_reference(
        msg_len in 1usize..64,
        msg_seed in any::<u64>(),
        order_seed in any::<u64>(),
        erase in 0.0f64..0.5,
        poison in 1u32..(1 << 20),
    ) {
        let message = test_message(msg_len, msg_seed);
        let mut enc = FountainEncoder::new(&message).expect("valid message");
        let k = enc.source_count();
        let mut rng = Rng::seed_from_u64(order_seed);
        let mut esis: Vec<u64> = (0..3 * k as u64 + 24).filter(|_| !rng.chance(erase)).collect();
        rng.shuffle(&mut esis);
        esis.extend(3 * k as u64 + 24..SYMBOL_BUDGET);
        let mut packed = FountainDecoder::new(k);
        let mut oracle = reference::Decoder::new(k);
        for (i, &esi) in esis.iter().enumerate() {
            if packed.complete() {
                break;
            }
            let symbol = enc.symbol(esi) ^ if i == 0 { poison } else { 0 };
            let got = packed.absorb(esi, symbol);
            let want = oracle.absorb(esi, &bit_vector(symbol));
            prop_assert_eq!(got, want, "symbol {} (esi {})", i, esi);
            prop_assert_eq!(packed.complete(), oracle.complete(), "symbol {}", i);
        }
        prop_assert_eq!(packed.assemble(), oracle.assemble());
        prop_assert_eq!(packed.assemble(), Some(message));
    }
}
