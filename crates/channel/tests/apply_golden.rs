//! Golden pins for the channel's PPDU pass.
//!
//! Each case runs a seeded link over a fixed sequence of frames and
//! records a 64-bit FNV-1a hash over `f64::to_bits` of every received
//! carrier (training symbols first, then DATA symbols). A change to how
//! the per-subcarrier responses are computed, shared or indexed that
//! moves a single output bit, or that draws the noise in another order,
//! fails here. Interference is turned up so bursts land inside the
//! frames. The constants were captured with the ziggurat normal sampler
//! (`witag_sim::Rng::gaussian`); the noise and the scatterer draws both
//! go through it, so the responses are pinned to it too.
//!
//! On a mismatch the test prints the whole table as it now is, in the
//! same layout as the constants.

use witag_channel::{Link, LinkConfig, MimoLink, TagMode, TagSchedule};
use witag_phy::complex::Complex64;
use witag_phy::legacy::{legacy_transmit, LegacyRate};
use witag_phy::mcs::Mcs;
use witag_phy::params::{Bandwidth, SubcarrierLayout};
use witag_phy::ppdu::{transmit, OfdmSymbol, PhyConfig, Ppdu};
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::rng::Rng;
use witag_sim::time::Duration;

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a(values: impl IntoIterator<Item = Complex64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for x in [v.re, v.im] {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn hash_symbols<'a>(symbols: impl IntoIterator<Item = &'a OfdmSymbol>) -> u64 {
    fnv1a(
        symbols
            .into_iter()
            .flat_map(|s| s.streams.iter().flatten().copied()),
    )
}

fn hash_ppdu(ppdu: &Ppdu) -> u64 {
    hash_symbols(ppdu.ltfs.iter().chain(&ppdu.symbols))
}

fn check(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.0 == e.0 && a.1 == e.1);
    if !same {
        let mut table = String::new();
        for (name, hash) in actual {
            table.push_str(&format!("            (\"{name}\", 0x{hash:016x}),\n"));
        }
        panic!("golden mismatch; the runs now give:\n{table}");
    }
}

/// Frequent, short interference bursts: several land in every frame.
fn noisy_cfg() -> LinkConfig {
    LinkConfig {
        interference_rate_hz: 20_000.0,
        interference_duration_s: 30e-6,
        ..LinkConfig::default()
    }
}

fn psdu(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// A schedule that cycles through `modes`, one per DATA symbol, `period`
/// symbols per mode.
fn cycling(ltf: TagMode, modes: &[TagMode], period: usize, n: usize) -> TagSchedule {
    TagSchedule {
        ltf,
        data: (0..n).map(|i| modes[(i / period) % modes.len()]).collect(),
    }
}

const OOK: [TagMode; 2] = [TagMode::OpenCircuit, TagMode::ShortCircuit];
const PHASE: [TagMode; 2] = [TagMode::Phase0, TagMode::Phase180];
const ALL: [TagMode; 4] = [
    TagMode::OpenCircuit,
    TagMode::ShortCircuit,
    TagMode::Phase0,
    TagMode::Phase180,
];

#[test]
fn scalar_apply_ppdu_is_pinned() {
    let fp = Floorplan::paper_testbed();
    let mut rows = Vec::new();
    for (mcs, bw) in [(5usize, Bandwidth::Mhz20), (7, Bandwidth::Mhz40)] {
        let mut link = Link::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            Some(Point2::new(2.5, 3.5)),
            noisy_cfg(),
            0x5EED + mcs as u64,
        );
        let tx = transmit(
            &PhyConfig::with_bandwidth(Mcs::ht(mcs), bw),
            &psdu(mcs as u64, 700),
        );
        let n = tx.symbols.len();
        let schedules = [
            ("ook", cycling(TagMode::OpenCircuit, &OOK, 1, n)),
            ("phase", cycling(TagMode::Phase0, &PHASE, 2, n)),
            ("mixed", cycling(TagMode::Phase0, &ALL, 3, n)),
            ("idle", TagSchedule::constant(TagMode::Absent, n)),
        ];
        for (name, schedule) in &schedules {
            let rx = link.apply_ppdu(&tx, schedule);
            rows.push((format!("mcs{mcs}/{bw:?}/{name}"), hash_ppdu(&rx)));
            link.advance(Duration::micros(500));
        }
        let ba = legacy_transmit(LegacyRate::M24, &psdu(99, 32));
        let rx = link.apply_legacy(&ba, TagMode::Phase180);
        rows.push((
            format!("mcs{mcs}/{bw:?}/legacy"),
            hash_symbols([&rx.ltf].into_iter().chain(&rx.symbols)),
        ));
        let layout = SubcarrierLayout::cached(bw);
        for mode in ALL {
            rows.push((
                format!("mcs{mcs}/{bw:?}/response/{mode:?}"),
                fnv1a(link.response(mode, layout)),
            ));
        }
    }
    check(
        &rows,
        &[
            ("mcs5/Mhz20/ook", 0x9f7523598c5fb01f),
            ("mcs5/Mhz20/phase", 0x630f1dbd2733384d),
            ("mcs5/Mhz20/mixed", 0x2644c9933e74b791),
            ("mcs5/Mhz20/idle", 0x6c1d87e7c34a1732),
            ("mcs5/Mhz20/legacy", 0x744b058f7384d3b8),
            ("mcs5/Mhz20/response/OpenCircuit", 0xbcd6aaf999acd173),
            ("mcs5/Mhz20/response/ShortCircuit", 0x0dd2bce83fd692d6),
            ("mcs5/Mhz20/response/Phase0", 0x0dd2bce83fd692d6),
            ("mcs5/Mhz20/response/Phase180", 0xad207a9bb92360be),
            ("mcs7/Mhz40/ook", 0xc6ce54b67f89327f),
            ("mcs7/Mhz40/phase", 0xeb76acd0f261b4dc),
            ("mcs7/Mhz40/mixed", 0x447f99c7dce5c017),
            ("mcs7/Mhz40/idle", 0x0d6ab6da827ea5dd),
            ("mcs7/Mhz40/legacy", 0x2d76dc50a78ae616),
            ("mcs7/Mhz40/response/OpenCircuit", 0x4305149e9bd41072),
            ("mcs7/Mhz40/response/ShortCircuit", 0x7d93a82f2494a8ad),
            ("mcs7/Mhz40/response/Phase0", 0x7d93a82f2494a8ad),
            ("mcs7/Mhz40/response/Phase180", 0x5dc48107f7f7986a),
        ],
    );
}

#[test]
fn mimo_apply_ppdu_is_pinned() {
    let fp = Floorplan::paper_testbed();
    let cfg = LinkConfig {
        interference_rate_hz: 20_000.0,
        interference_duration_s: 30e-6,
        ..LinkConfig::rich_scattering()
    };
    let mut rows = Vec::new();
    for (nss, mcs) in [(2usize, 11usize), (3, 19)] {
        let mut link = MimoLink::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            Some(Point2::new(2.0, 3.5)),
            nss,
            cfg.clone(),
            0xB0 + nss as u64,
        );
        let tx = transmit(&PhyConfig::new(Mcs::ht(mcs)), &psdu(mcs as u64, 600));
        let n = tx.symbols.len();
        let schedules = [
            ("phase", cycling(TagMode::Phase0, &PHASE, 1, n)),
            ("ook", cycling(TagMode::OpenCircuit, &OOK, 2, n)),
            ("mixed", cycling(TagMode::Phase180, &ALL, 1, n)),
        ];
        for (name, schedule) in &schedules {
            let rx = link.apply_ppdu(&tx, schedule);
            rows.push((format!("{nss}ss/{name}"), hash_ppdu(&rx)));
            link.advance(Duration::micros(500));
        }
        let layout = SubcarrierLayout::cached(Bandwidth::Mhz20);
        for mode in ALL {
            rows.push((
                format!("{nss}ss/response/{mode:?}"),
                fnv1a(link.response(mode, layout)),
            ));
        }
    }
    check(
        &rows,
        &[
            ("2ss/phase", 0x5c0f97e5d249f7d7),
            ("2ss/ook", 0x30753883de42900a),
            ("2ss/mixed", 0x3ff0c00768866dae),
            ("2ss/response/OpenCircuit", 0x78465b6c3021b73b),
            ("2ss/response/ShortCircuit", 0x4083d7dee153c0dc),
            ("2ss/response/Phase0", 0x4083d7dee153c0dc),
            ("2ss/response/Phase180", 0x074d24ba57866984),
            ("3ss/phase", 0xa49527c4609b4c9d),
            ("3ss/ook", 0x9162a8ca0829dc4d),
            ("3ss/mixed", 0x3629e587f50f9746),
            ("3ss/response/OpenCircuit", 0xd67212932669f6c6),
            ("3ss/response/ShortCircuit", 0xf3af2e6356810558),
            ("3ss/response/Phase0", 0xf3af2e6356810558),
            ("3ss/response/Phase180", 0x228736522a4f9226),
        ],
    );
}
