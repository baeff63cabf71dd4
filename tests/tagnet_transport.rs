//! Integration: the reliable transport (`witag::tagnet`) running over
//! the *full* simulation stack — real PHY, channel, tag device, MAC and
//! block ACKs — not a toy bit channel.

use witag::experiment::{Experiment, ExperimentConfig};
use witag::tagnet::{deliver, ArqReader, QueryKind, TagSender};

/// Drive tagnet chunks through real query rounds at a good position.
#[test]
fn message_delivered_over_real_stack() {
    let mut cfg = ExperimentConfig::fig5(1.0, 0xC0DE);
    cfg.link.interference_rate_hz = 0.0;
    let mut exp = Experiment::new(cfg).unwrap();
    let n_bits = exp.design.bits_per_query();

    let message = b"temp=21.5C hum=40%";
    let (got, queries) = deliver(message, n_bits, 200, |tx| {
        exp.run_round(tx).readout.bits
    })
    .expect("message must be delivered");
    assert_eq!(&got, message);
    // 18 bytes = 144 bits -> 8 chunks; clean channel ≈ one query each.
    assert!(queries <= 12, "took {queries} queries on a clean channel");
}

/// Same transport at the worst position (midpoint) with interference:
/// ARQ retransmissions absorb the raw BER and the message still arrives
/// intact.
#[test]
fn message_survives_the_midpoint() {
    let mut exp = Experiment::new(ExperimentConfig::fig5(4.0, 0xC0DF)).unwrap();
    let n_bits = exp.design.bits_per_query();

    let message = b"midpoint!";
    let (got, queries) = deliver(message, n_bits, 400, |tx| {
        exp.run_round(tx).readout.bits
    })
    .expect("ARQ must deliver despite the raw BER");
    assert_eq!(&got, message);
    // 9 bytes = 72 bits -> 4 chunks; allow generous retransmissions.
    assert!(queries >= 4);
}

/// The ARQ pieces compose manually too (chunk-level control).
#[test]
fn manual_arq_over_real_stack() {
    let mut cfg = ExperimentConfig::fig5(2.0, 0xC0E0);
    cfg.link.interference_rate_hz = 0.0;
    let mut exp = Experiment::new(cfg).unwrap();
    let n_bits = exp.design.bits_per_query();

    let mut tag = TagSender::new(b"xy");
    let mut reader = ArqReader::new();
    let mut kind = QueryKind::Advance;
    let mut safety = 0;
    let mut tx = vec![0u8; n_bits];
    while !tag.done() {
        tag.answer(kind, &mut tx).expect("query fits the framing");
        if tag.done() {
            break;
        }
        let rx = exp.run_round(&tx).readout.bits;
        kind = reader.process(&rx, n_bits);
        safety += 1;
        assert!(safety < 50, "ARQ did not converge");
    }
    assert_eq!(reader.message(2), b"xy");
}
