//! THR — reproduces the paper's §4.1 throughput analysis: WiTAG sends
//! one bit per subframe, so tag throughput is the subframe rate, set by
//! MPDU airtime (payload size × PHY rate) plus fixed per-exchange
//! overheads. The paper's qualitative claims: minimise MPDU payloads,
//! use the highest reliable PHY rate, amortise over 64-subframe
//! aggregates.
//!
//! Part 1 sweeps the *full design space* analytically (every feasible
//! MCS × subframe size for the deployed tag clock). Part 2 validates the
//! designer's pick end-to-end and sweeps aggregation depth.

use witag::experiment::{Experiment, ExperimentConfig};
use witag::query::{QueryDesign, SUBFRAME_OVERHEAD};
use witag_bench::{header, rounds_from_env};
use witag_channel::{Link, LinkConfig};
use witag_obs::NullRecorder;
use witag_phy::mcs::{Mcs, Modulation};
use witag_phy::ppdu::PhyConfig;
use witag_sim::geom::Floorplan;
use witag_sim::time::Duration;
use witag_tag::oscillator::Oscillator;

fn main() {
    header("THR", "§4.1 (throughput vs MPDU size and PHY rate)");
    let clock = Oscillator::Crystal { freq_hz: 250e3 };
    let tick_ns = 4_000u64;

    println!("Part 1: analytic design space (64 subframes, 2 guards, 250 kHz tag clock)\n");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "MCS", "modltn", "subfr bytes", "subfr (us)", "payload (B)", "tput (Kbps)"
    );
    for mcs_idx in 2..8usize {
        let mcs = Mcs::ht(mcs_idx);
        if matches!(mcs.modulation, Modulation::Bpsk | Modulation::Qpsk) {
            continue;
        }
        let phy = PhyConfig::new(mcs);
        let ndbps = phy.ndbps();
        for k in 1..=24usize {
            if !(ndbps * k).is_multiple_of(8) {
                continue;
            }
            let bytes = ndbps * k / 8;
            if !bytes.is_multiple_of(4) || bytes < SUBFRAME_OVERHEAD {
                continue;
            }
            let dur_ns = k as u64 * 4_000;
            if !dur_ns.is_multiple_of(tick_ns) || dur_ns < 3 * tick_ns {
                continue;
            }
            let design = QueryDesign {
                phy: phy.clone(),
                symbols_per_subframe: k,
                subframe_bytes: bytes,
                n_subframes: 64,
                guard_subframes: 2,
                signature: witag_tag::trigger::TriggerSignature::default_markers(),
                marker_gap: Duration::micros(16),
                margin: Duration::nanos(tick_ns),
            };
            let kbps = design.bits_per_query() as f64
                / design.round_airtime_estimate().as_secs_f64()
                / 1e3;
            println!(
                "{:>6} {:>10?} {:>12} {:>12} {:>12} {:>12.1}",
                mcs_idx,
                mcs.modulation,
                bytes,
                dur_ns / 1000,
                design.payload_len(),
                kbps
            );
        }
    }

    println!("\nPart 2: aggregation depth (the block-ACK bitmap amortisation)\n");
    let fp = Floorplan::paper_testbed();
    let link = Link::new(
        &fp,
        Floorplan::los_client_position(),
        Floorplan::ap_position(),
        None,
        LinkConfig::default(),
        0x700,
    );
    println!(
        "{:>12} {:>14} {:>14}",
        "subframes", "bits/query", "tput (Kbps)"
    );
    for n in [4usize, 8, 16, 32, 48, 64] {
        let d = QueryDesign::best(&link, &clock, n, 2.min(n - 1)).unwrap();
        let kbps = d.bits_per_query() as f64 / d.round_airtime_estimate().as_secs_f64() / 1e3;
        println!("{:>12} {:>14} {:>14.1}", n, d.bits_per_query(), kbps);
    }

    println!("\nPart 3: measured end-to-end at the designer's operating point\n");
    let rounds = rounds_from_env(150);
    let cfg = ExperimentConfig::fig5(1.0, 0x701);
    let exp = Experiment::new(cfg.clone()).unwrap();
    // The sharded runner splits the rounds across cores; its statistics
    // are thread-count invariant (see Experiment::run_parallel docs).
    let stats = Experiment::run_parallel(
        &cfg,
        None,
        rounds,
        witag_sim::available_threads(),
        &mut NullRecorder,
    )
    .unwrap();
    println!(
        "design {:?} x {} symbols -> measured {:.1} Kbps at BER {:.4} ({} shards)",
        exp.design.phy.mcs.modulation,
        exp.design.symbols_per_subframe,
        stats.throughput_kbps(),
        stats.ber(),
        stats.window_bers.len()
    );
    println!("\npaper: ~40 Kbps with 64-subframe aggregates at the highest reliable rate");
}
