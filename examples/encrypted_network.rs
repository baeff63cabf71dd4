//! Encrypted network: the claim that sets WiTAG apart.
//!
//! Runs the same tag traffic over an open network, WEP, and WPA2-CCMP,
//! then demonstrates *why* symbol-modifying backscatter cannot do this:
//! a HitchHike-style tag's bit flips break the WEP ICV / CCMP MIC, so
//! protected networks reject its frames no matter how the AP is patched.
//!
//! ```text
//! cargo run --release --example encrypted_network
//! ```

use witag::experiment::{Experiment, ExperimentConfig, SecurityMode};
use witag_baselines::dsss::{deliver_modified_frame, HitchhikeDelivery};

fn main() {
    println!("WiTAG over protected networks");
    println!("-----------------------------\n");

    let secret = *b"\x42meter=7731kWh\x00\x00"; // a 16-byte sensor payload
    let bits: Vec<u8> = secret
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1))
        .collect();

    for (name, mode) in [
        ("open", SecurityMode::Open),
        ("WEP-104", SecurityMode::Wep),
        ("WPA2-CCMP", SecurityMode::Wpa2),
    ] {
        let mut cfg = ExperimentConfig::fig5(1.0, 4242);
        cfg.security = mode;
        let mut exp = Experiment::new(cfg).expect("design");

        // Stream the 128-bit payload across three queries (62 bits each).
        let mut received: Vec<u8> = Vec::new();
        for chunk in bits.chunks(exp.design.bits_per_query()) {
            let mut q = chunk.to_vec();
            q.resize(exp.design.bits_per_query(), 1);
            let round = exp.run_round(&q);
            received.extend_from_slice(&round.readout.bits[..chunk.len()]);
        }
        let errors = received
            .iter()
            .zip(bits.iter())
            .filter(|(a, b)| a != b)
            .count();
        let bytes_back: Vec<u8> = received
            .chunks(8)
            .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b))
            .collect();
        println!(
            "{name:<10} {} bit errors / {}, AP decrypt failures: {}, payload: {:?}",
            errors,
            bits.len(),
            exp.decrypt_failures,
            String::from_utf8_lossy(&bytes_back[1..14])
        );
    }

    println!("\nWhy the prior art cannot do this (HitchHike-style symbol tag):\n");
    for (desc, key, ap_modified) in [
        ("open + stock AP", None, false),
        ("open + patched AP", None, true),
        ("WEP + patched AP", Some(&b"ABCDE"[..]), true),
    ] {
        let outcome = deliver_modified_frame(b"meter=7731kWh", true, key, ap_modified);
        let verdict = match outcome {
            HitchhikeDelivery::RecoveredWithModifiedAp => "works (needs patched AP)",
            HitchhikeDelivery::DroppedByFcs => "frame dropped at FCS check",
            HitchhikeDelivery::RejectedByCrypto => "ICV fails: undecryptable",
        };
        println!("  {desc:<20} -> {verdict}");
    }
    println!("\nWiTAG's tag only ever *destroys* subframes; the ones that survive are");
    println!("bit-exact, so every integrity check passes and the block ACK still");
    println!("carries the tag's data.");
}
