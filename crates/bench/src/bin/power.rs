//! PWR — reproduces the paper's §7 power discussion:
//!
//! 1. oscillator power vs frequency (P ∝ f²), showing why ≥ 20 MHz
//!    precision clocks preclude battery-free operation;
//! 2. the ring-oscillator temperature trap: 600 kHz drift per 5 °C at
//!    20 MHz (footnote 4) → trigger misses and schedule smear → BER
//!    collapse, measured end-to-end;
//! 3. complete tag power budgets + harvesting feasibility.

use witag::experiment::{Experiment, ExperimentConfig};
use witag_bench::{header, rounds_from_env};
use witag_obs::NullRecorder;
use witag_tag::oscillator::Oscillator;
use witag_tag::power::{rf_harvest_uw, PowerBudget};

fn battery_free_part(rounds: usize) {
    println!("\nPart 4: battery-free duty cycling (harvest-and-spend capacitor)\n");
    println!(
        "{:>12} {:>14} {:>16} {:>16}",
        "cap (uJ)", "queries", "energy skips", "overall BER"
    );
    for cap in [0.05f64, 0.2, 1.0, 100.0] {
        let mut cfg = ExperimentConfig::fig5(1.0, 0x803);
        cfg.link.interference_rate_hz = 0.0;
        cfg.energy_capacity_uj = Some(cap);
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(rounds, &mut NullRecorder);
        // Overall BER includes skipped rounds (each skip scores its
        // 0-bits as errors), so it tracks the duty cycle directly.
        println!(
            "{:>12.2} {:>14} {:>16} {:>16.4}",
            cap,
            stats.rounds,
            exp.energy_skips,
            stats.ber()
        );
    }
    println!("\nexpected: small capacitors force the tag to skip queries (duty");
    println!("cycle); larger storage rides through; the skipping itself is");
    println!("graceful — no corruption artefacts, just unanswered queries.");
}

fn main() {
    header("PWR", "§7 (power consumption & temperature sensitivity)");

    println!("Part 1: oscillator power vs frequency\n");
    println!("{:>12} {:>16} {:>16}", "freq", "crystal (uW)", "ring (uW)");
    for freq in [50e3, 250e3, 1e6, 5e6, 20e6] {
        let xtal = Oscillator::Crystal { freq_hz: freq };
        let ring = Oscillator::Ring { freq_hz: freq };
        println!(
            "{:>9.0} kHz {:>16.1} {:>16.1}",
            freq / 1e3,
            xtal.power_uw(),
            ring.power_uw()
        );
    }
    println!("\npaper: MHz-range precision oscillators burn >1 mW; rings tens of uW;");
    println!("       WiTAG's sub-MHz crystal costs a few uW (no channel shifting).");

    println!("\nPart 2: temperature sensitivity, end-to-end BER\n");
    let rounds = rounds_from_env(60);
    println!(
        "{:>10} {:>18} {:>18}",
        "dT (degC)", "BER crystal tag", "BER ring tag"
    );
    for dt in [0.0f64, 2.0, 5.0, 10.0, 20.0] {
        let mut bers = Vec::new();
        for (is_ring, seed) in [(false, 0x801u64), (true, 0x802)] {
            let mut cfg = ExperimentConfig::fig5(1.0, seed);
            cfg.temperature_delta = dt;
            if is_ring {
                cfg.clock = Oscillator::Ring { freq_hz: 250e3 };
            }
            let mut exp = Experiment::new(cfg).unwrap();
            bers.push(exp.run(rounds, &mut NullRecorder).ber());
        }
        println!("{:>10.1} {:>18.4} {:>18.4}", dt, bers[0], bers[1]);
    }
    println!("\npaper (footnote 4): a 5 degC change shifts a ring oscillator 3% —");
    println!("enough to break trigger matching and smear the switch schedule;");
    println!("crystals hold ppm-level accuracy across the whole range.");

    println!("\nPart 3: full tag power budgets + RF harvesting feasibility\n");
    let budgets = [
        ("WiTAG (250 kHz crystal)", PowerBudget::witag()),
        ("channel-shifting (20 MHz ring)", PowerBudget::channel_shifting()),
    ];
    println!(
        "{:>32} {:>12} {:>22} {:>22}",
        "design", "total (uW)", "feasible @ -10 dBm?", "feasible @ -20 dBm?"
    );
    for (name, b) in &budgets {
        println!(
            "{:>32} {:>12.1} {:>22} {:>22}",
            name,
            b.total_uw(),
            b.battery_free_feasible(rf_harvest_uw(-10.0)),
            b.battery_free_feasible(rf_harvest_uw(-20.0)),
        );
    }

    battery_free_part(rounds.min(60));
}
