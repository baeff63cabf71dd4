//! CONTENTION — the coexistence claim from the other direction: WiTAG
//! shares the primary channel through standard DCF, so foreign traffic
//! costs it airtime (gracefully) but never correctness — the tag's
//! trigger matcher rejects foreign bursts, and marker sequences are
//! SIFS-protected so no compliant station can break one up.
//!
//! Sweeps the foreign network's offered load and reports WiTAG's
//! throughput, BER and trigger robustness.

use witag::experiment::{CrossTraffic, Experiment, ExperimentConfig};
use witag_bench::{header, rounds_from_env};
use witag_obs::NullRecorder;
use witag_sim::time::Duration;

fn main() {
    header("CONTENTION", "§1/§8 coexistence (WiTAG under foreign load)");
    let rounds = rounds_from_env(100);
    println!(
        "{:>18} {:>12} {:>10} {:>16} {:>14}",
        "foreign load", "tput (Kbps)", "BER", "missed triggers", "lost BAs"
    );
    for (label, traffic) in [
        ("idle", None),
        (
            "10% (125 fr/s)",
            Some(CrossTraffic {
                frames_per_s: 125.0,
                mean_airtime: Duration::micros(800),
            }),
        ),
        (
            "30% (375 fr/s)",
            Some(CrossTraffic {
                frames_per_s: 375.0,
                mean_airtime: Duration::micros(800),
            }),
        ),
        (
            "60% (750 fr/s)",
            Some(CrossTraffic {
                frames_per_s: 750.0,
                mean_airtime: Duration::micros(800),
            }),
        ),
    ] {
        let mut cfg = ExperimentConfig::fig5(1.0, 0xD01);
        cfg.cross_traffic = traffic;
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(rounds, &mut NullRecorder);
        println!(
            "{:>18} {:>12.1} {:>10.4} {:>16} {:>14}",
            label,
            stats.throughput_kbps(),
            stats.ber(),
            stats.missed_triggers,
            stats.lost_block_acks
        );
    }
    println!("\nexpected: throughput degrades roughly with channel utilisation");
    println!("(DCF share), BER stays at the ambient floor, and the tag never");
    println!("false-triggers on foreign frames (duration signatures don't match).");
}
