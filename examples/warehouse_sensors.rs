//! Warehouse sensors: many battery-free tags, one querier.
//!
//! The deployment the paper's introduction motivates: battery-free
//! sensors (temperature, door state, shelf weight) scattered through a
//! space with an already-deployed WiFi network. Each tag is provisioned
//! with its own trigger signature, so the client addresses one tag at a
//! time by choosing which marker pattern to send — time-division access
//! with zero tag-side coordination.
//!
//! ```text
//! cargo run --release --example warehouse_sensors
//! ```

use witag::experiment::{Experiment, ExperimentConfig};
use witag_obs::NullRecorder;
use witag_sim::geom::Point2;
use witag_sim::time::Duration;
use witag_tag::trigger::TriggerSignature;

/// A provisioned sensor: where it sits and which signature wakes it.
struct Sensor {
    name: &'static str,
    position: Point2,
    /// Distinct middle-marker length — the tag's address.
    middle_marker: Duration,
    /// The 16-bit reading it wants to report.
    reading: u16,
}

fn main() {
    println!("Warehouse deployment: 3 tags, 1 querying client, 1 stock AP\n");
    let sensors = [
        Sensor {
            name: "dock-door",
            position: Point2::new(7.8, 3.5),
            middle_marker: Duration::micros(40),
            reading: 0x0001, // door open
        },
        Sensor {
            name: "cold-shelf",
            position: Point2::new(6.0, 3.4),
            middle_marker: Duration::micros(56),
            reading: 0x00F3, // -13.0 C in the sensor's encoding
        },
        Sensor {
            name: "scale-12",
            position: Point2::new(3.1, 3.6),
            middle_marker: Duration::micros(72),
            reading: 0x2F40, // 12.1 kg
        },
    ];

    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10}",
        "sensor", "marker (us)", "reading", "read-back", "BER(40q)"
    );

    for s in &sensors {
        // Same floorplan and radios; tag at the sensor's position,
        // addressed by its personal marker signature.
        let mut cfg = ExperimentConfig::fig5(1.0, 77);
        cfg.tag = s.position;
        cfg.signature_override = Some(TriggerSignature {
            bursts: vec![Duration::micros(80), s.middle_marker, Duration::micros(80)],
            tolerance_ticks: 1,
        });
        let mut exp = Experiment::new(cfg).expect("LOS link admits a design");

        // Send the 16-bit reading twice per query for agreement checking,
        // padded with idle 1s.
        let mut bits: Vec<u8> = Vec::new();
        for _ in 0..2 {
            bits.extend((0..16).rev().map(|i| ((s.reading >> i) & 1) as u8));
        }
        bits.resize(exp.design.bits_per_query(), 1);

        let round = exp.run_round(&bits);
        assert!(round.triggered, "tag must answer its own signature");
        let word = |slice: &[u8]| slice.iter().fold(0u16, |acc, &b| (acc << 1) | b as u16);
        let first = word(&round.readout.bits[..16]);
        let second = word(&round.readout.bits[16..32]);
        // A real reader would retry on disagreement; the example flags it.
        let read_back = if first == second { first } else { u16::MAX };

        let stats = exp.run(40, &mut NullRecorder);
        println!(
            "{:<12} {:>12} {:>#10x} {:>#10x} {:>10.4}",
            s.name,
            s.middle_marker.as_micros(),
            s.reading,
            read_back,
            stats.ber(),
        );
    }

    println!("\nEach tag answers only queries carrying its marker signature, so the");
    println!("client polls sensors round-robin without any tag-to-tag coordination.");
    println!("The AP is stock hardware and sees only ordinary A-MPDU traffic.");
}
