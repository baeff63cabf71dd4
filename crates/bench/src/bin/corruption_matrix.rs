//! MATRIX — the corruption mechanism, mapped out: for each MCS and each
//! tag position, what fraction of targeted subframes actually fail?
//!
//! This is the ablation behind the query designer's corruptibility rule
//! (DESIGN.md §4): the stale-CSI error is *multiplicative*, so
//! sign-decided modulations (BPSK/QPSK) shrug it off, strong codes heal
//! outer-point errors, and only dense constellations with weak codes
//! (64-QAM 2/3+) break reliably at realistic tag reflections. The paper
//! states "use the highest rate that is reliably received" (§4.1); this
//! matrix shows *why* — and where — that rule comes from.

use witag_bench::{header, rounds_from_env};
use witag_channel::{Link, LinkConfig, TagMode, TagSchedule};
use witag_mac::ampdu::aggregate;
use witag_mac::header::{Addr, FrameKind, MacHeader};
use witag_mac::{deaggregate, Mpdu};
use witag_phy::mcs::Mcs;
use witag_phy::ppdu::{transmit, PhyConfig};
use witag_phy::receiver::receive;
use witag_sim::geom::Floorplan;
use witag_sim::time::Duration;

/// Subframe geometries per MCS index (bytes, symbols) that satisfy the
/// alignment rules with a 4 µs tick.
const GEOMETRY: [(usize, usize, usize); 6] = [
    (2, 52, 4),   // QPSK 3/4 — sign-decided, expected immune
    (3, 52, 4),   // 16-QAM 1/2 — strong code, expected resilient
    (4, 156, 8),  // 16-QAM 3/4
    (5, 104, 4),  // 64-QAM 2/3 — the designer's pick
    (6, 468, 16), // 64-QAM 3/4
    (7, 260, 8),  // 64-QAM 5/6 — thinnest margins
];

fn main() {
    header(
        "MATRIX",
        "§4.1/§5 mechanism (corruption probability per MCS x position)",
    );
    let trials = rounds_from_env(8).min(32);
    let fp = Floorplan::paper_testbed();
    let client = Floorplan::los_client_position();
    let ap = Floorplan::ap_position();

    println!(
        "fraction of targeted subframes corrupted ({} A-MPDUs per cell):\n",
        trials
    );
    print!("{:>22}", "MCS \\ tag at");
    let dists = [1.0f64, 2.0, 3.0, 4.0];
    for d in dists {
        print!("{d:>9} m");
    }
    println!();

    for (mcs_idx, bytes, k) in GEOMETRY {
        let mcs = Mcs::ht(mcs_idx);
        let phy = PhyConfig::new(mcs);
        let payload = bytes - 34;
        let mpdus: Vec<Mpdu> = (0..64)
            .map(|seq| {
                let mut h =
                    MacHeader::qos_null(Addr::local(2), Addr::local(1), Addr::local(2), seq);
                h.kind = FrameKind::QosData;
                Mpdu {
                    header: h,
                    payload: vec![0xA5; payload],
                }
            })
            .collect();
        let (psdu, _) = aggregate(&mpdus);
        let ppdu = transmit(&phy, &psdu);

        print!("{:>14?}-{:?} k={:<2}", mcs.modulation, mcs.code_rate, k);
        for d in dists {
            let tag_pos = client.lerp(ap, d / 8.0);
            let mut link = Link::new(
                &fp,
                client,
                ap,
                Some(tag_pos),
                LinkConfig {
                    interference_rate_hz: 0.0,
                    ..LinkConfig::default()
                },
                0xAB0 + d as u64,
            );
            let mut corrupted = 0usize;
            let mut targeted = 0usize;
            for _ in 0..trials {
                // Flip the interior of every even data subframe.
                let mut data = vec![TagMode::Phase0; ppdu.symbols.len()];
                for i in (2..64).step_by(2) {
                    for slot in data.iter_mut().take((i + 1) * k - 1).skip(i * k + 1) {
                        *slot = TagMode::Phase180;
                    }
                }
                let schedule = TagSchedule {
                    ltf: TagMode::Phase0,
                    data,
                };
                let rx = link.apply_ppdu(&ppdu, &schedule);
                let decoded = receive(&rx, link.noise_var());
                let mut ok = [false; 64];
                for o in deaggregate(&decoded.bytes) {
                    if let Some(m) = o.mpdu {
                        ok[m.header.seq as usize] = true;
                    }
                }
                for i in (2..64).step_by(2) {
                    targeted += 1;
                    if !ok[i] {
                        corrupted += 1;
                    }
                }
                link.advance(Duration::millis(40));
            }
            print!("{:>10.2}", corrupted as f64 / targeted as f64);
        }
        println!();
    }
    println!("\nreading: 1.00 = every targeted subframe fails (solid tag channel);");
    println!("0.00 = the modulation/code absorbs the flip entirely. The designer");
    println!("requires density (>= 16-QAM) and tie-breaks toward weak codes.");
}
