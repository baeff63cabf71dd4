//! ABLATION/FIG3 — quantifies the paper's §5.2 design choice (Figure 3):
//! an always-reflecting tag that flips its phase between 0° and 180°
//! displaces the channel twice as far as one that switches between
//! reflecting and non-reflecting (on-off keying), halving the bit error
//! rate's sensitivity to tag position.
//!
//! Two parts: (1) the raw channel displacement |Δh| for both switch
//! designs across tag positions; (2) end-to-end BER with each encoding.

use witag::experiment::{Experiment, ExperimentConfig};
use witag_bench::{header, rounds_from_env};
use witag_channel::{Link, LinkConfig, TagMode};
use witag_obs::NullRecorder;
use witag_phy::params::{Bandwidth, SubcarrierLayout};
use witag_sim::geom::Floorplan;
use witag_tag::device::BitEncoding;

fn main() {
    header(
        "FIG3/ABLATION",
        "Figure 3 + §5.2 (phase flipping vs on-off keying)",
    );
    let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
    let fp = Floorplan::paper_testbed();
    let client = Floorplan::los_client_position();
    let ap = Floorplan::ap_position();

    println!("Part 1: mean channel displacement |dh| across subcarriers\n");
    println!(
        "{:>10} {:>14} {:>14} {:>8}",
        "dist (m)", "|dh| OOK", "|dh| flip", "ratio"
    );
    for dist in [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
        let tag = client.lerp(ap, dist / 8.0);
        let link = Link::new(
            &fp,
            client,
            ap,
            Some(tag),
            LinkConfig {
                interference_rate_hz: 0.0,
                ..LinkConfig::default()
            },
            0x333,
        );
        let ook = link.tag_delta_magnitude(TagMode::OpenCircuit, TagMode::ShortCircuit, &layout);
        let flip = link.tag_delta_magnitude(TagMode::Phase0, TagMode::Phase180, &layout);
        println!(
            "{:>10.1} {:>14.3e} {:>14.3e} {:>8.2}",
            dist,
            ook,
            flip,
            flip / ook
        );
    }
    println!("\npaper: flipping doubles the displacement (Figure 3) -> ratio 2.0 everywhere");

    println!("\nPart 2: end-to-end BER with each switch design\n");
    let rounds = rounds_from_env(150);
    println!(
        "{:>10} {:>14} {:>14}",
        "dist (m)", "BER (OOK)", "BER (flip)"
    );
    for dist in [1.0f64, 4.0, 7.0] {
        let mut bers = Vec::new();
        for encoding in [BitEncoding::OnOffKeying, BitEncoding::PhaseFlip] {
            let mut cfg = ExperimentConfig::fig5(dist, 0x334);
            cfg.encoding = encoding;
            let mut exp = Experiment::new(cfg).unwrap();
            bers.push(exp.run(rounds, &mut NullRecorder).ber());
        }
        println!("{:>10.1} {:>14.4} {:>14.4}", dist, bers[0], bers[1]);
    }
    println!("\npaper: larger displacement -> lower BER / longer range for the flip design");
}
