//! DCF — the medium-sharing picture behind the coexistence claims: a
//! WiTAG querier is just another CSMA/CA station. This bench runs the
//! slot-synchronous DCF simulator with the querier's real exchange
//! airtime (markers + query A-MPDU + block ACK, from the query designer)
//! against n saturated data stations, and reports the query rate / tag
//! throughput it sustains plus the fairness and collision statistics.

use witag::query::QueryDesign;
use witag_bench::header;
use witag_channel::{Link, LinkConfig};
use witag_mac::dcf::{airtime_share, simulate, DcfStation};
use witag_sim::geom::Floorplan;
use witag_sim::time::Duration;
use witag_tag::oscillator::Oscillator;

fn main() {
    header(
        "DCF",
        "§1/§8 (medium sharing: query rate vs contending stations)",
    );

    // Real query exchange airtime from the designer.
    let fp = Floorplan::paper_testbed();
    let link = Link::new(
        &fp,
        Floorplan::los_client_position(),
        Floorplan::ap_position(),
        None,
        LinkConfig::default(),
        0xF01,
    );
    let clock = Oscillator::Crystal { freq_hz: 250e3 };
    let design = QueryDesign::best(&link, &clock, 64, 2).expect("design");
    // Exchange = markers + gap + PPDU + SIFS + BA (contention handled by
    // the DCF sim itself).
    let exchange = design.marker_airtime()
        + design.marker_gap
        + design
            .phy
            .airtime(design.subframe_bytes * design.n_subframes)
        + Duration::micros(16)
        + Duration::micros(32);
    println!(
        "query exchange airtime: {} ({} tag bits per exchange)\n",
        exchange,
        design.bits_per_query()
    );

    println!(
        "{:>12} {:>14} {:>16} {:>14} {:>14}",
        "stations", "queries/s", "tag rate (Kbps)", "querier share", "collision p"
    );
    for n_others in [0usize, 1, 3, 7, 15] {
        let mut stations = vec![DcfStation::saturated(exchange)]; // the querier
        stations.extend(vec![
            DcfStation::saturated(Duration::micros(1200)); // data stations
            n_others
        ]);
        let out = simulate(&mut stations, Duration::secs(4), 0xF02 + n_others as u64);
        let qps = stations[0].delivered as f64 / out.elapsed.as_secs_f64();
        println!(
            "{:>12} {:>14.0} {:>16.1} {:>14.3} {:>14.3}",
            n_others + 1,
            qps,
            qps * design.bits_per_query() as f64 / 1e3,
            airtime_share(&stations, 0),
            out.collision_probability()
        );
    }
    println!("\nexpected: alone, the querier sustains the full ~40 Kbps; with n");
    println!("stations it gets ~1/n of the airtime (DCF long-term fairness) and");
    println!("the tag rate scales down proportionally — graceful, standard");
    println!("coexistence with zero modification to anyone.");
}
