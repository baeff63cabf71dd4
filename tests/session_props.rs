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

/// Derive a deterministic 20-bit chunk payload from a compact seed (the
/// proptest shim has no vec strategy; a u32 carries more than enough
/// entropy for 20 bits).
fn chunk_payload(bits: u32) -> Vec<u8> {
    (0..CHUNK_PAYLOAD_BITS)
        .map(|i| ((bits >> i) & 1) as u8)
        .collect()
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
        let encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
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
        let mut encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
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
        let encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
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
        let mut encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
        let fec_bits = FecLayout::fit(channel_bits).channel_bits();
        for b in encoded.iter_mut().take(fec_bits.div_ceil(2)) {
            *b ^= 1;
        }
        prop_assert_ne!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }
}
