//! FIG6 — reproduces the paper's Figure 6: CDF of per-window BER in the
//! two non-line-of-sight scenarios (tag 1 m from the client; AP behind
//! walls/cabinets at locations A ≈ 7 m and B ≈ 17 m; 60 one-minute
//! windows each).
//!
//! Paper reference values: 90th-percentile BER 0.007 at A and 0.018 at
//! B; B's curve sits right of A's because its path is more attenuated.

use witag::experiment::{Experiment, ExperimentConfig};
use witag_bench::{header, rounds_from_env};

fn main() {
    header("FIG6", "Figure 6 (CDF of BER, NLOS locations A and B)");
    let windows = 60; // the paper's 60 measurements per location
    let rounds_per_window = rounds_from_env(40);
    println!(
        "{windows} windows x {rounds_per_window} rounds ({} bits per window)\n",
        rounds_per_window * 62
    );

    let mut all = Vec::new();
    for (name, cfg) in [
        ("A", ExperimentConfig::nlos_a(0x616)),
        ("B", ExperimentConfig::nlos_b(0x617)),
    ] {
        let mut exp = Experiment::new(cfg).expect("NLOS link must admit a design");
        println!(
            "location {name}: SNR {:.1} dB, MCS {:?}, {} B subframes",
            exp.snr_db(),
            exp.design.phy.mcs.modulation,
            exp.design.subframe_bytes
        );
        let mut stats = exp.run_windows(windows, rounds_per_window);
        let cdf = stats.window_bers.cdf();
        all.push((name, stats.window_bers.clone(), cdf));
    }

    println!("\nCDF series (fraction of windows with BER <= x):");
    println!("{:>10} {:>12} {:>12}", "BER", "CDF A", "CDF B");
    for ber_x in [
        0.0, 0.001, 0.002, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.025, 0.05,
    ] {
        println!(
            "{:>10.4} {:>12.3} {:>12.3}",
            ber_x,
            all[0].2.at(ber_x),
            all[1].2.at(ber_x)
        );
    }

    println!();
    let p90_a = all[0].1.clone().percentile(90.0).unwrap_or(0.0);
    let p90_b = all[1].1.clone().percentile(90.0).unwrap_or(0.0);
    println!("paper:    90th percentile BER A = 0.007, B = 0.018 (B worse than A)");
    println!("measured: 90th percentile BER A = {p90_a:.4}, B = {p90_b:.4}");
    println!(
        "shape:    B/A percentile ratio {:.1}x (paper: ~2.6x); ordering {}",
        p90_b / p90_a.max(1e-9),
        if p90_b >= p90_a {
            "preserved"
        } else {
            "VIOLATED"
        }
    );
}
