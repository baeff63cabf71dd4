//! Non-line-of-sight office: the paper's Figure 6 scenario, interactive.
//!
//! The AP sits in the lab; the client and tag are in offices behind
//! wooden walls, metal cabinets and a concrete partition (locations A
//! and B of the paper's Figure 4). Shows the link budget decomposition,
//! the rate the query designer falls back to, and the resulting tag
//! performance — including what happens if you push the client even
//! further away.
//!
//! ```text
//! cargo run --release --example nlos_office
//! ```

use witag::experiment::{Experiment, ExperimentConfig, ExperimentError};
use witag_obs::NullRecorder;
use witag_sim::geom::{Floorplan, Point2};

fn describe(name: &str, cfg: ExperimentConfig) {
    let fp = Floorplan::paper_testbed();
    let d = cfg.ap.distance(cfg.client);
    let pen = fp.penetration_loss_db(cfg.ap, cfg.client);
    let crossings = fp.crossings(cfg.ap, cfg.client);
    println!("location {name}:");
    println!(
        "  client at ({:.1}, {:.1}), {d:.1} m from the AP",
        cfg.client.x, cfg.client.y
    );
    println!("  {crossings} obstacles on the direct path, {pen:.0} dB penetration loss");
    match Experiment::new(cfg) {
        Ok(mut exp) => {
            println!(
                "  link SNR {:.1} dB -> query MCS {:?} {:?} ({} B subframes)",
                exp.snr_db(),
                exp.design.phy.mcs.modulation,
                exp.design.phy.mcs.code_rate,
                exp.design.subframe_bytes
            );
            let stats = exp.run(120, &mut NullRecorder);
            println!(
                "  120 queries: BER {:.4}, throughput {:.1} Kbps, {} missed triggers",
                stats.ber(),
                stats.throughput_kbps(),
                stats.missed_triggers
            );
        }
        Err(ExperimentError::LinkTooPoor) => {
            println!("  link too poor for any corruptible query design — out of range");
        }
        Err(other) => {
            println!("  invalid configuration: {other}");
        }
    }
    println!();
}

fn main() {
    println!("NLOS office scenarios (paper Figure 4 floorplan)\n");
    describe(
        "A (paper: ~7 m, BER p90 = 0.007)",
        ExperimentConfig::nlos_a(606),
    );
    describe(
        "B (paper: ~17 m, BER p90 = 0.018)",
        ExperimentConfig::nlos_b(607),
    );

    // Beyond the paper: keep walking away until the design space closes.
    println!("pushing further (not in the paper):\n");
    let mut cfg = ExperimentConfig::nlos_b(608);
    cfg.client = Point2::new(17.9, 6.5); // far corner, worse angle
    cfg.tag = Point2::new(17.2, 6.1);
    describe("B' (far corner)", cfg);

    println!("The query designer degrades gracefully: as SNR drops it abandons");
    println!("64-QAM for 16-QAM, and when even that is unreliable it reports the");
    println!("link unusable rather than producing queries whose losses would be");
    println!("indistinguishable from tag data.");
}
