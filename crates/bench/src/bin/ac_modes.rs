//! AC — the paper's compatibility claim across PHY generations (§1, §4:
//! "works with any modulation scheme, coding rate, MIMO configuration,
//! guard interval, and channel width... compatible with the 802.11ax
//! standard").
//!
//! Runs the same tag over 20/40/80 MHz channels and with 802.11ac
//! (VHT / 256-QAM) queries, end to end. The punchline is a *negative*
//! scaling result the paper does not spell out: the tag's throughput is
//! bounded by subframe **airtime** (≥ 3 tag clock ticks), not PHY rate,
//! so wider channels and denser constellations do not speed the tag up —
//! they only raise the query's byte cost per subframe (and, for the
//! denser constellations, make corruption easier).

use witag::experiment::{Experiment, ExperimentConfig};
use witag::query::DesignSpace;
use witag_bench::{header, rounds_from_env};
use witag_obs::NullRecorder;
use witag_phy::params::Bandwidth;

fn main() {
    header("AC", "§4 (operation across channel widths and 802.11ac)");
    let rounds = rounds_from_env(100);
    println!(
        "{:>14} {:>10} {:>14} {:>12} {:>10} {:>12}",
        "mode", "SNR (dB)", "query MCS", "subfr bytes", "BER", "tput (Kbps)"
    );
    for (label, space) in [
        (
            "11n 20 MHz",
            DesignSpace {
                bandwidth: Bandwidth::Mhz20,
                vht: false,
            },
        ),
        (
            "11n 40 MHz",
            DesignSpace {
                bandwidth: Bandwidth::Mhz40,
                vht: false,
            },
        ),
        (
            "11ac 20 MHz",
            DesignSpace {
                bandwidth: Bandwidth::Mhz20,
                vht: true,
            },
        ),
        (
            "11ac 80 MHz",
            DesignSpace {
                bandwidth: Bandwidth::Mhz80,
                vht: true,
            },
        ),
    ] {
        let mut cfg = ExperimentConfig::fig5(1.0, 0xE01);
        cfg.design_space = space;
        let mut exp = Experiment::new(cfg).unwrap();
        let snr = exp.snr_db();
        let stats = exp.run(rounds, &mut NullRecorder);
        println!(
            "{:>14} {:>10.1} {:>10?}-{:?} {:>12} {:>10.4} {:>12.1}",
            label,
            snr,
            exp.design.phy.mcs.modulation,
            exp.design.phy.mcs.code_rate,
            exp.design.subframe_bytes,
            stats.ber(),
            stats.throughput_kbps()
        );
    }
    println!("\nexpected: identical tag throughput in every mode (airtime-bound),");
    println!("identical or better BER with denser constellations (easier to");
    println!("corrupt), larger subframe byte cost at wider channels.");
}
