//! Property tests for the resilient session transport: whatever fault
//! plan the generator dreams up, the session either hands back the
//! exact bytes or fails loudly — and everything is a pure function of
//! the seeds.

mod common;

use common::{test_message, SyntheticChannel};
use proptest::prelude::*;
use witag::tagnet::{
    decode_chunk, encode_chunk, run_session, SessionConfig, SessionFailure, SessionOutcome,
    CHUNK_PAYLOAD_BITS, MIN_CHANNEL_BITS,
};
use witag::FecLayout;
use witag_crypto::crc8;
use witag_faults::{FaultPlan, RoundFaults};
use witag_obs::NullRecorder;

const CHANNEL_BITS: usize = 62;

/// A modest budget so heavy plans exercise the failure path too.
const BUDGET: usize = 1500;

fn cfg() -> SessionConfig {
    SessionConfig {
        max_rounds: BUDGET,
        ..SessionConfig::default()
    }
}

fn run(message: &[u8], plan: FaultPlan) -> (witag::tagnet::SessionReport, Vec<RoundFaults>, u64) {
    let mut ch = SyntheticChannel::new(plan, CHANNEL_BITS);
    let report =
        run_session(message, CHANNEL_BITS, &cfg(), &mut NullRecorder, |_q, tx, _rec| ch.round(tx)).expect("valid setup");
    let verdicts = ch.verdicts();
    (report, verdicts, ch.rounds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delivery is all-or-nothing: under ANY fault intensity the session
    /// returns the message byte-identical or an explicit failure. No
    /// silent corruption, no truncation, no reordering.
    #[test]
    fn no_silent_corruption_under_any_plan(
        seed in any::<u64>(),
        intensity in 0.0f64..1.3,
        msg_len in 0usize..192,
        msg_seed in any::<u64>(),
    ) {
        let message = test_message(msg_len, msg_seed);
        let (report, _, _) = run(&message, FaultPlan::hostile_scaled(seed, intensity));
        match report.outcome {
            SessionOutcome::Delivered(bytes) => prop_assert_eq!(bytes, message),
            SessionOutcome::Failed(
                SessionFailure::BudgetExhausted | SessionFailure::CrcMismatch,
            ) => {}
        }
        prop_assert!(report.stats.rounds <= BUDGET);
    }

    /// The whole stack — fault models, channel noise, session control
    /// loop — replays bit-identically from the seeds: same outcome,
    /// same statistics, same per-round fault verdicts.
    #[test]
    fn same_seed_same_trace_same_outcome(
        seed in any::<u64>(),
        intensity in 0.0f64..1.2,
        msg_len in 1usize..128,
        msg_seed in any::<u64>(),
    ) {
        let message = test_message(msg_len, msg_seed);
        let (ra, ta, na) = run(&message, FaultPlan::hostile_scaled(seed, intensity));
        let (rb, tb, nb) = run(&message, FaultPlan::hostile_scaled(seed, intensity));
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(na, nb);
    }

    /// A quiet plan (intensity zero) must never fail: the fault layer
    /// at rest costs nothing but the ambient channel noise.
    #[test]
    fn zero_intensity_always_delivers(
        seed in any::<u64>(),
        msg_len in 0usize..96,
        msg_seed in any::<u64>(),
    ) {
        let message = test_message(msg_len, msg_seed);
        let (report, _, _) = run(&message, FaultPlan::hostile_scaled(seed, 0.0));
        match report.outcome {
            SessionOutcome::Delivered(bytes) => prop_assert_eq!(bytes, message),
            other => prop_assert!(false, "quiet plan must deliver, got {:?}", other),
        }
    }
}

/// A 20-bit chunk payload from a compact seed: its low 20 bits.
fn chunk_payload(bits: u32) -> u32 {
    bits & ((1 << CHUNK_PAYLOAD_BITS) - 1)
}

/// `payload`'s bits, one per byte, first bit (bit 19) first.
fn bit_vector(payload: u32) -> Vec<u8> {
    (0..CHUNK_PAYLOAD_BITS)
        .rev()
        .map(|i| ((payload >> i) & 1) as u8)
        .collect()
}

/// One chunk encoded into a fresh `channel_bits`-bit query.
fn encoded(seq: u8, payload: u32, channel_bits: usize) -> Vec<u8> {
    let mut tx = vec![0u8; channel_bits];
    encode_chunk(seq, payload, &mut tx).expect("capacity checked");
    tx
}

/// The bit-vector chunk framing the packed one replaced, kept as the
/// oracle: one byte per bit at every stage, the data field padded with
/// 1s to the layout's data bits, the query idle-padded with 1s.
mod oracle {
    use super::{crc8, FecLayout};

    const SEQ_BITS: usize = 4;
    const PAYLOAD_BITS: usize = 20;
    const DATA_BITS: usize = SEQ_BITS + PAYLOAD_BITS + 8;

    fn hamming_encode([d1, d2, d3, d4]: [u8; 4]) -> [u8; 7] {
        [d1 ^ d2 ^ d4, d1 ^ d3 ^ d4, d1, d2 ^ d3 ^ d4, d2, d3, d4]
    }

    fn hamming_decode(cw: [u8; 7]) -> [u8; 4] {
        let mut w = cw;
        let s1 = w[0] ^ w[2] ^ w[4] ^ w[6];
        let s2 = w[1] ^ w[2] ^ w[5] ^ w[6];
        let s3 = w[3] ^ w[4] ^ w[5] ^ w[6];
        let syndrome = (s1 as usize) | ((s2 as usize) << 1) | ((s3 as usize) << 2);
        if syndrome != 0 {
            w[syndrome - 1] ^= 1;
        }
        [w[2], w[4], w[5], w[6]]
    }

    fn fold(bits: &[u8]) -> u8 {
        bits.iter().fold(0u8, |acc, &b| (acc << 1) | b)
    }

    fn crc(seq: u8, payload: &[u8]) -> u8 {
        let mut bits: Vec<u8> = (0..SEQ_BITS).rev().map(|i| (seq >> i) & 1).collect();
        bits.extend_from_slice(payload);
        let bytes: Vec<u8> = bits.chunks(8).map(fold).collect();
        crc8(&bytes)
    }

    pub fn encode(seq: u8, payload: &[u8], channel_bits: usize) -> Vec<u8> {
        let layout = FecLayout::fit(channel_bits);
        let mut data: Vec<u8> = (0..SEQ_BITS).rev().map(|i| (seq >> i) & 1).collect();
        data.extend_from_slice(payload);
        let c = crc(seq, payload);
        data.extend((0..8).rev().map(|i| (c >> i) & 1));
        data.resize(layout.data_bits(), 1);
        let cws: Vec<[u8; 7]> = data
            .chunks(4)
            .map(|d| hamming_encode([d[0], d[1], d[2], d[3]]))
            .collect();
        let mut out = Vec::with_capacity(channel_bits);
        for j in 0..7 {
            out.extend(cws.iter().map(|cw| cw[j]));
        }
        out.resize(channel_bits, 1);
        out
    }

    pub fn decode(received: &[u8], channel_bits: usize) -> Option<(u8, Vec<u8>)> {
        let layout = FecLayout::fit(channel_bits);
        let n = layout.codewords;
        if received.len() < 7 * n || layout.data_bits() < DATA_BITS {
            return None;
        }
        let mut data = Vec::new();
        for i in 0..n {
            let mut cw = [0u8; 7];
            for (j, b) in cw.iter_mut().enumerate() {
                *b = received[j * n + i];
            }
            data.extend_from_slice(&hamming_decode(cw));
        }
        let seq = fold(&data[..SEQ_BITS]);
        let payload = data[SEQ_BITS..SEQ_BITS + PAYLOAD_BITS].to_vec();
        let rx_crc = fold(&data[SEQ_BITS + PAYLOAD_BITS..DATA_BITS]);
        (crc(seq, &payload) == rx_crc).then_some((seq, payload))
    }
}

/// The oracle's decode with its payload packed the way
/// [`decode_chunk`] returns it.
fn oracle_decode(received: &[u8], channel_bits: usize) -> Option<(u8, u32)> {
    oracle::decode(received, channel_bits).map(|(seq, bits)| {
        let payload = bits.iter().fold(0u32, |acc, &b| (acc << 1) | u32::from(b));
        (seq, payload)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed encoder writes exactly the bits the bit-vector
    /// framing did — data word, pad nibbles past codeword 8 and idle
    /// 1s past `7 · codewords` — for every sequence number and every
    /// capacity from the minimum to 80 bits.
    #[test]
    fn packed_encoder_matches_the_bit_vector_oracle(
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..81usize,
    ) {
        let payload = chunk_payload(payload_bits);
        for seq in 0..16u8 {
            prop_assert_eq!(
                encoded(seq, payload, channel_bits),
                oracle::encode(seq, &bit_vector(payload), channel_bits),
                "seq {}", seq
            );
        }
    }

    /// The packed decoder agrees with the bit-vector decoder on the
    /// clean chunk and under every single and double bit flip drawn,
    /// pad and idle region included: same accept/reject verdict, same
    /// sequence number and payload.
    #[test]
    fn packed_decoder_matches_the_oracle_under_bit_flips(
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..81usize,
        first in any::<usize>(),
        second in any::<usize>(),
    ) {
        let payload = chunk_payload(payload_bits);
        for seq in 0..16u8 {
            let clean = encoded(seq, payload, channel_bits);
            prop_assert_eq!(decode_chunk(&clean, channel_bits), Some((seq, payload)));
            let (a, b) = (first % channel_bits, second % channel_bits);
            let mut single = clean.clone();
            single[a] ^= 1;
            prop_assert_eq!(
                decode_chunk(&single, channel_bits),
                oracle_decode(&single, channel_bits),
                "seq {} flip {}", seq, a
            );
            let mut double = single.clone();
            double[(a + 1 + b % (channel_bits - 1)) % channel_bits] ^= 1;
            prop_assert_eq!(
                decode_chunk(&double, channel_bits),
                oracle_decode(&double, channel_bits),
                "seq {} flips {} and {}", seq, a, b
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `encode_chunk` → `decode_chunk` round-trips seq and payload for
    /// every per-query capacity the transport accepts.
    #[test]
    fn chunk_roundtrips_for_all_transport_capacities(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
    ) {
        let payload = chunk_payload(payload_bits);
        let encoded = encoded(seq, payload, channel_bits);
        prop_assert_eq!(encoded.len(), channel_bits, "idle-padded to capacity");
        prop_assert_eq!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }

    /// One flipped bit anywhere — FEC region or idle pad — is absorbed:
    /// Hamming(7,4) corrects a single error per codeword and the pad is
    /// never inspected.
    #[test]
    fn single_bit_flip_is_corrected(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
        flip in any::<usize>(),
    ) {
        let payload = chunk_payload(payload_bits);
        let mut encoded = encoded(seq, payload, channel_bits);
        let pos = flip % encoded.len();
        encoded[pos] ^= 1;
        prop_assert_eq!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }

    /// Anything shorter than the FEC region is rejected outright — a
    /// truncated readout can never masquerade as a chunk.
    #[test]
    fn truncated_chunks_are_rejected(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
        keep_frac in 0.0f64..1.0,
    ) {
        let payload = chunk_payload(payload_bits);
        let encoded = encoded(seq, payload, channel_bits);
        let fec_bits = FecLayout::fit(channel_bits).channel_bits();
        let keep = ((fec_bits - 1) as f64 * keep_frac) as usize;
        prop_assert_eq!(decode_chunk(&encoded[..keep], channel_bits), None);
    }

    /// Heavy damage — the leading half of the FEC region flipped — can
    /// never decode back to the original chunk: the interleaver puts ≥3
    /// of those flips in every codeword, beyond any Hamming correction,
    /// so either the CRC kills it or the decoded bits differ.
    #[test]
    fn heavy_damage_never_decodes_to_the_original(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
    ) {
        let payload = chunk_payload(payload_bits);
        let mut encoded = encoded(seq, payload, channel_bits);
        let fec_bits = FecLayout::fit(channel_bits).channel_bits();
        for b in encoded.iter_mut().take(fec_bits.div_ceil(2)) {
            *b ^= 1;
        }
        prop_assert_ne!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }
}
