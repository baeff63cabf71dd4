//! FIG5 — reproduces the paper's Figure 5: BER and throughput of WiTAG
//! with the tag placed 1–7 m from the client on the line to the AP
//! (AP–client distance 8 m, LOS, people moving, 4 runs per location).
//!
//! Paper reference values: BER ≈ 0.01 near either endpoint, slightly
//! higher near the middle; throughput 40 Kbps at the edges dipping to
//! ≈ 39 Kbps at the middle.

use witag::experiment::{Experiment, ExperimentConfig};
use witag_bench::{header, rounds_from_env};
use witag_obs::NullRecorder;
use witag_sim::stats::RunningStats;

fn main() {
    header("FIG5", "Figure 5 (BER & throughput vs tag position, LOS)");
    let rounds = rounds_from_env(150);
    let runs = 4; // the paper runs each location 4 times
    println!(
        "{} rounds x {} runs per location ({} tag bits each)\n",
        rounds,
        runs,
        rounds * 62
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "dist (m)", "BER", "BER(false0)", "BER(false1)", "tput (Kbps)", "SNR (dB)"
    );

    // Every (distance, run) pair is an independent experiment with its own
    // seed, so the 28 cells run on all cores; collecting in index order
    // keeps the output byte-identical to the serial loop.
    let distances = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let cells = witag_sim::par_map(
        distances.len() * runs as usize,
        witag_sim::available_threads(),
        |i| {
            let dist = distances[i / runs as usize];
            let run = (i % runs as usize) as u64;
            let cfg = ExperimentConfig::fig5(dist, 0x515 + run * 7919 + dist as u64);
            let mut exp = Experiment::new(cfg).expect("LOS link must admit a design");
            let snr = exp.snr_db();
            (exp.run(rounds, &mut NullRecorder), snr)
        },
    );

    let mut series: Vec<(f64, f64, f64)> = Vec::new();
    for (di, &dist) in distances.iter().enumerate() {
        let mut ber = RunningStats::new();
        let mut f0 = RunningStats::new();
        let mut f1 = RunningStats::new();
        let mut tput = RunningStats::new();
        let mut snr = 0.0;
        let mut errors = 0u64;
        let mut total = 0u64;
        for (stats, cell_snr) in &cells[di * runs as usize..(di + 1) * runs as usize] {
            snr = *cell_snr;
            ber.push(stats.ber());
            f0.push(stats.errors.false_zeros as f64 / stats.errors.total as f64);
            f1.push(stats.errors.false_ones as f64 / stats.errors.total as f64);
            tput.push(stats.throughput_kbps());
            errors += stats.errors.errors() as u64;
            total += stats.errors.total as u64;
        }
        let (ci_lo, ci_hi) = witag_sim::wilson_interval_95(errors, total);
        println!(
            "{:>10.1} {:>10.4} {:>12.4} {:>12.4} {:>12.1} {:>10.1}   (95% CI {:.4}-{:.4})",
            dist,
            ber.mean(),
            f0.mean(),
            f1.mean(),
            tput.mean(),
            snr,
            ci_lo,
            ci_hi
        );
        series.push((dist, ber.mean(), tput.mean()));
    }

    // Shape checks mirroring the paper's observations.
    println!();
    let edge_ber = (series[0].1 + series[6].1) / 2.0;
    let mid_ber = series[3].1;
    let edge_tp = (series[0].2 + series[6].2) / 2.0;
    let mid_tp = series[3].2;
    println!("paper:    BER ~0.01 at edges, higher in the middle; 40 -> 39 Kbps");
    println!(
        "measured: BER {edge_ber:.4} at edges, {mid_ber:.4} in the middle; {edge_tp:.1} -> {mid_tp:.1} Kbps"
    );
    println!(
        "shape:    mid/edge BER ratio {:.1}x (paper: >1), throughput dip {:.1}% (paper: ~2.5%)",
        mid_ber / edge_ber.max(1e-9),
        (1.0 - mid_tp / edge_tp) * 100.0
    );
}
