//! Quickstart: one WiTAG exchange, narrated.
//!
//! Sets up the paper's LOS scenario (AP and client 8 m apart, tag 1 m
//! from the client), sends a byte through the tag, and prints every step
//! of the pipeline. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use witag::experiment::{Experiment, ExperimentConfig};
use witag_obs::NullRecorder;

fn main() {
    // The paper's Figure 5 operating point, tag 1 m from the client.
    let cfg = ExperimentConfig::fig5(1.0, 2024);
    let mut exp = Experiment::new(cfg).expect("LOS link admits a query design");

    println!("WiTAG quickstart");
    println!("----------------");
    println!("link SNR:        {:.1} dB", exp.snr_db());
    println!(
        "query design:    {:?} {:?}, {} B subframes x {} ({} data bits/query)",
        exp.design.phy.mcs.modulation,
        exp.design.phy.mcs.code_rate,
        exp.design.subframe_bytes,
        exp.design.n_subframes,
        exp.design.bits_per_query()
    );
    println!(
        "subframe airtime: {} ({} OFDM symbols)",
        exp.design.subframe_airtime(),
        exp.design.symbols_per_subframe
    );

    // The tag wants to send one byte: 0b1011_0010, MSB first.
    let message: u8 = 0b1011_0010;
    let mut bits: Vec<u8> = (0..8).rev().map(|i| (message >> i) & 1).collect();
    // Fill the rest of the query with idle 1s.
    bits.resize(exp.design.bits_per_query(), 1);

    let round = exp.run_round(&bits);
    println!();
    println!("tag triggered:   {}", round.triggered);
    println!("bits sent:       {:?}", &round.sent[..8]);
    println!("bits read back:  {:?}", &round.readout.bits[..8]);
    let byte_back = round.readout.bits[..8]
        .iter()
        .fold(0u8, |acc, &b| (acc << 1) | b);
    println!(
        "message:         0b{message:08b} -> 0b{byte_back:08b} ({})",
        if byte_back == message {
            "delivered"
        } else {
            "corrupted"
        }
    );
    println!(
        "round airtime:   {} ({} damaged guard subframes)",
        round.airtime, round.readout.damaged_guards
    );

    // And a short run for aggregate statistics.
    let stats = exp.run(50, &mut NullRecorder);
    println!();
    println!(
        "50 more rounds:  BER {:.4}, throughput {:.1} Kbps",
        stats.ber(),
        stats.throughput_kbps()
    );
}
