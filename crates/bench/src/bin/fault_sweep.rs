//! Fault sweep — the robustness story the paper defers to future work
//! (§4.1): how much hostility the tag link survives, and what the
//! resilient session layer buys over plain stop-and-wait.
//!
//! Sweeps `FaultPlan::hostile_scaled` intensity over the full simulation
//! stack (real PHY, channel, tag, MAC) and race two transports over the
//! identical fault schedule:
//!
//! * selective-repeat session (`witag::tagnet::run_session`) with
//!   chase combining, adaptive redundancy, backoff and resync,
//! * the stop-and-wait baseline (`witag::tagnet::deliver`).
//!
//! Intensity 0.0 is a quiet link; 1.0 is the stock hostile plan from
//! the acceptance tests (≥20 % block-ACK loss, near-continuous burst
//! interference, drift bursts, brownouts). `WITAG_ROUNDS` scales the
//! shared round budget; `tests/fault_session.rs` runs the same race at
//! kilobyte scale, where the baseline exhausts its budget outright.

use witag::experiment::{Experiment, ExperimentConfig};
use witag::tagnet::{deliver, session_over_experiment, SessionConfig, SessionOutcome};
use witag_bench::{header, rounds_from_env};
use witag_faults::FaultPlan;
use witag_obs::NullRecorder;
use witag_sim::Rng;

const SCENARIO_SEED: u64 = 0xFA01;
const PLAN_SEED: u64 = 0xFA11;
const MESSAGE_BYTES: usize = 32;

fn message() -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(0xFA22);
    (0..MESSAGE_BYTES)
        .map(|_| (rng.next_u64() & 0xFF) as u8)
        .collect()
}

fn experiment(intensity: f64) -> Experiment {
    let mut exp =
        Experiment::new(ExperimentConfig::fig5(1.0, SCENARIO_SEED)).expect("scenario viable");
    exp.attach_faults(FaultPlan::hostile_scaled(PLAN_SEED, intensity));
    exp
}

fn main() {
    header(
        "FAULT SWEEP",
        "§4.1 future work (reliability under injected faults; beyond the paper)",
    );
    // WITAG_ROUNDS scales the shared round budget (default 150 → 1200).
    let budget = rounds_from_env(150) * 8;
    let message = message();
    println!(
        "payload {} B, shared budget {budget} rounds, plan seed {PLAN_SEED:#x}\n",
        message.len()
    );
    println!(
        "{:>9} {:>16} {:>8} {:>9} {:>9} {:>16} {:>8} {:>8}",
        "intensity", "session", "retx", "resyncs", "goodput", "stop-and-wait", "burst%", "brown%"
    );

    // The three intensity points are independent (fresh experiment and
    // fault schedule each); run them on separate workers and print the
    // pre-formatted rows in intensity order.
    let intensities = [0.0, 0.5, 1.0];
    let rows = witag_sim::par_map(intensities.len(), witag_sim::available_threads(), |pt| {
        let intensity = intensities[pt];
        let mut exp = experiment(intensity);
        let cfg = SessionConfig {
            max_rounds: budget,
            ..SessionConfig::default()
        };
        let report = session_over_experiment(&mut exp, &message, &cfg, &mut NullRecorder)
            .expect("valid session setup");
        let stats = &report.stats;
        let session_cell = match &report.outcome {
            SessionOutcome::Delivered(bytes) => {
                assert_eq!(bytes, &message, "delivery must be exact");
                format!("ok in {:>5}", stats.rounds)
            }
            SessionOutcome::Failed(f) => format!("FAIL {f:?}"),
        };
        let c = *exp.fault_counters().expect("plan attached");

        let mut base = experiment(intensity);
        let n_bits = base.design.bits_per_query();
        let baseline = deliver(&message, n_bits, budget, |tx| {
            let r = base.run_round(tx);
            if r.ba_lost {
                vec![1u8; n_bits]
            } else {
                r.readout.bits
            }
        });
        // No assert here: stop-and-wait has only 12 check bits per
        // chunk and no end-to-end verification, so under bursts it can
        // hand back corrupted bytes claiming success. That IS the
        // result — report it.
        let baseline_cell = match baseline {
            Some((bytes, queries)) if bytes == message => format!("ok in {queries:>5}"),
            Some((_, queries)) => format!("CORRUPT in {queries}"),
            None => "FAIL budget".to_string(),
        };

        format!(
            "{:>9.2} {:>16} {:>8} {:>9} {:>9.3} {:>16} {:>8.1} {:>8.1}",
            intensity,
            session_cell,
            stats.retransmissions,
            stats.resyncs,
            stats.goodput_ratio(),
            baseline_cell,
            100.0 * c.burst_rounds as f64 / c.rounds.max(1) as f64,
            100.0 * c.brownout_rounds as f64 / c.rounds.max(1) as f64,
        )
    });
    for row in rows {
        println!("{row}");
    }

    println!("\nexpected: both transports are cheap on a quiet link. As intensity");
    println!("rises the stop-and-wait baseline either stalls against bursts it");
    println!("cannot decode through or — worse — silently delivers corrupted");
    println!("bytes (12 check bits per chunk, no end-to-end CRC). The session's");
    println!("soft combining, confirmation rule, backoff and resync grind the");
    println!("exact payload across or fail loudly; it never lies.");
}
