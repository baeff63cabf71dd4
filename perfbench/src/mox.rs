//! `mox_mimo`: MOXcatter sweep points at 2 and 3 spatial streams, and
//! the ledger of the MIMO transmit, channel and joint-equaliser layers.

use std::time::Instant;

use witag::moxcatter::{run_point, MoxConfig, MoxPointResult, MoxStreamResult};
use witag_channel::{MimoLink, MimoLinkConfig, TagMode, TagSchedule};
use witag_mac::{
    aggregate, deaggregate, Addr, BlockAck, FrameKind, MacHeader, Mpdu, SubframeExtent,
};
use witag_phy::mimo::{estimate_into, MimoEqualiser, MAX_NSS};
use witag_phy::ppdu::PhyConfig;
use witag_phy::{receive_mu, transmit_mu, Complex64, Mcs};
use witag_sim::geom::Floorplan;
use witag_sim::time::Duration;

use crate::ledger::Ledger;
use crate::{Tally, Workload};

/// Tag distances from the client, metres; one per step, cycled.
const DISTANCES: [f64; 7] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];

/// Channel seeds a run cycles through: whether the tag hits a stream
/// varies a lot with the channel, so the simulated metrics average over
/// this many full distance sweeps.
const POOL: usize = 64;

/// Channel seeds per step. One seed's pair of points takes 15–27 ms; with
/// a step that short a 25 s run took about 1500 steps and the tail
/// percentile sat at p99.4, where brief host slowdowns decide it. Four
/// seeds (about 0.12 s) still put it at p93–p96, where it spread by up
/// to 28 % between runs; sixteen (about half a second) put it near p75.
const SEEDS_PER_STEP: usize = 16;

/// Steps over which the simulated metrics are computed: every pool seed
/// at every distance once.
pub(crate) const REFERENCE_STEPS: usize = POOL / SEEDS_PER_STEP * DISTANCES.len();

/// Each seed's pair of points must hit at least one stream when the tag
/// sits within this many metres of the client or the AP, where its
/// backscatter path is strongest. Midway along the 8 m link both stream
/// counts can miss together without any fault in the program: 6 of
/// 17 500 seed/distance pairs at 3–5 m did, none of 10 000 nearer either
/// end. At every distance the step's [`SEEDS_PER_STEP`] pairs together
/// must hit at least one stream.
const NEAR_END_M: f64 = 2.0;

fn must_hit(distance: f64) -> bool {
    let span = Floorplan::los_client_position().distance(Floorplan::ap_position());
    distance.min(span - distance) <= NEAR_END_M
}

/// Stream counts every step runs (HT MCS 15 and 23 at the default base
/// MCS 7).
const STREAMS: [usize; 2] = [2, 3];

/// The sweep point's configuration: the equaliser alternates with the
/// distance index (ZF at odd metres, MMSE at even ones).
fn point_config(seed: u64, distance_index: usize, streams: usize) -> MoxConfig {
    MoxConfig {
        streams,
        equaliser: if distance_index.is_multiple_of(2) {
            MimoEqualiser::Zf
        } else {
            MimoEqualiser::Mmse
        },
        seed,
        ..MoxConfig::default()
    }
}

fn phy_config(cfg: &MoxConfig) -> PhyConfig {
    let mut phy = PhyConfig::new(Mcs::ht(8 * (cfg.streams - 1) + cfg.base_mcs));
    phy.equaliser = cfg.equaliser;
    phy
}

/// The per-stream A-MPDUs `run_point` transmits: identical subframe
/// grids, stream `s` numbering its sequence window from `64·s`.
fn stream_psdus(cfg: &MoxConfig) -> (Vec<Vec<u8>>, Vec<SubframeExtent>) {
    let mut extents = Vec::new();
    let psdus = (0..cfg.streams)
        .map(|s| {
            let mpdus: Vec<Mpdu> = (0..cfg.subframes)
                .map(|i| {
                    let seq = (64 * s + i) as u16;
                    let mut header =
                        MacHeader::qos_null(Addr::local(2), Addr::local(1), Addr::local(2), seq);
                    header.kind = FrameKind::QosData;
                    Mpdu {
                        header,
                        payload: vec![0xA5u8; cfg.payload_bytes],
                    }
                })
                .collect();
            let (psdu, ext) = aggregate(&mpdus);
            if s == 0 {
                extents = ext;
            }
            psdu
        })
        .collect();
    (psdus, extents)
}

struct Mox {
    seeds: Vec<u64>,
    next: usize,
    /// On-air time of one frame at each entry of [`STREAMS`].
    airtime: [Duration; STREAMS.len()],
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    let airtime = STREAMS.map(|streams| {
        let cfg = point_config(seed, 0, streams);
        transmit_mu(&phy_config(&cfg), &stream_psdus(&cfg).0).airtime()
    });
    Ok(Box::new(Mox {
        seeds: crate::seed_pool(seed, POOL),
        next: 0,
        airtime,
    }))
}

/// Check one point's result and tally it. A point runs two frames on the
/// air: the tag-modulated one and the idle control.
fn tally_point(
    cfg: &MoxConfig,
    r: &MoxPointResult,
    airtime: Duration,
    t: &mut Tally,
) -> Result<(), String> {
    if r.streams.len() != cfg.streams {
        return Err(format!(
            "{} stream results for {} streams",
            r.streams.len(),
            cfg.streams
        ));
    }
    for s in &r.streams {
        let n = cfg.subframes as u32;
        if s.subframes != n
            || s.acked > n
            || s.acked_idle > n
            || (s.acked != s.acked_idle && !s.hit)
        {
            return Err(format!("inconsistent stream result {s:?}"));
        }
    }
    t.rounds += 2;
    t.sim_ns += 2 * airtime.as_nanos();
    t.streams += cfg.streams as u64;
    t.streams_hit += u64::from(r.streams_hit());
    // Subframes the tag knocked out of the bitmap: the 0 bits it wrote.
    t.good_bits += r
        .streams
        .iter()
        .map(|s| u64::from(s.acked_idle.saturating_sub(s.acked)))
        .sum::<u64>();
    Ok(())
}

impl Workload for Mox {
    fn step(&mut self) -> Result<Tally, String> {
        let di = self.next % DISTANCES.len();
        let d = DISTANCES[di];
        let group = self.next / DISTANCES.len() % (POOL / SEEDS_PER_STEP);
        self.next += 1;
        let mut t = Tally::default();
        for &seed in &self.seeds[group * SEEDS_PER_STEP..(group + 1) * SEEDS_PER_STEP] {
            let mut pair = Tally::default();
            for (&streams, &airtime) in STREAMS.iter().zip(&self.airtime) {
                let cfg = point_config(seed, di, streams);
                let r = run_point(di as u32, d, &cfg, &mut witag_obs::NullRecorder);
                tally_point(&cfg, &r, airtime, &mut pair)?;
            }
            if pair.streams_hit == 0 && must_hit(d) {
                return Err(format!("the tag at {d} m hit no stream (seed {seed})"));
            }
            t.add(&pair);
        }
        if t.streams_hit == 0 {
            return Err(format!("the tag at {d} m hit no stream on any seed"));
        }
        Ok(t)
    }
}

/// `run_point`'s tag schedule: odd subframes ride the 180° path.
fn subframe_schedule(extents: &[SubframeExtent], n_symbols: usize, ndbps1: usize) -> Vec<TagMode> {
    (0..n_symbols)
        .map(|s| {
            let bit_lo = s * ndbps1;
            let k = extents
                .iter()
                .position(|e| bit_lo < 16 + 8 * e.end)
                .unwrap_or(extents.len() - 1);
            if k % 2 == 1 {
                TagMode::Phase180
            } else {
                TagMode::Phase0
            }
        })
        .collect()
}

/// Replay `run_point` from the layers' public functions, timing the
/// MIMO transmit, channel, equaliser weights and joint receive. Returns
/// the per-stream outcomes, which must equal `run_point`'s.
fn replay_point(distance: f64, cfg: &MoxConfig, led: &mut Ledger) -> Vec<MoxStreamResult> {
    let fp = Floorplan::paper_testbed();
    let client = Floorplan::los_client_position();
    let ap = Floorplan::ap_position();
    let tag_pos = client.lerp(ap, (distance / client.distance(ap)).clamp(0.0, 1.0));
    let phy = phy_config(cfg);
    let (psdus, extents) = stream_psdus(cfg);
    let tx = led.time("phy.transmit_mu", || transmit_mu(&phy, &psdus));
    let schedule = TagSchedule {
        ltf: TagMode::Phase0,
        data: subframe_schedule(&extents, tx.symbols.len(), phy.ndbps() / cfg.streams),
    };
    let idle = TagSchedule::constant(TagMode::Phase0, tx.symbols.len());
    let link_cfg = MimoLinkConfig::rich_scattering();
    let new_link = || {
        MimoLink::new(
            &fp,
            client,
            ap,
            Some(tag_pos),
            cfg.streams,
            link_cfg.clone(),
            cfg.seed,
        )
    };
    let (mut link, mut link_idle) = (new_link(), new_link());
    let rx = led.time("channel.mimo_apply", || link.apply_ppdu(&tx, &schedule));
    let rx_idle = led.time("channel.mimo_apply", || link_idle.apply_ppdu(&tx, &idle));

    // The joint equaliser's weight solve over the data tones, on the
    // channel matrices the receiver sounds from the tag-on frame.
    let n = cfg.streams;
    let layout = phy.layout();
    let mut h: Vec<Complex64> = Vec::new();
    estimate_into(&rx.ltfs, n, layout.n_occupied(), &mut h);
    let mut w = [Complex64::ZERO; MAX_NSS * MAX_NSS];
    let noise_var = link.noise_var();
    let t0 = Instant::now();
    for &pos in layout.data_positions() {
        cfg.equaliser
            .weights(&h[pos * n * n..(pos + 1) * n * n], n, noise_var, &mut w);
        std::hint::black_box(&w);
    }
    led.push("phy.mimo.weights", t0.elapsed().as_secs_f64());

    let key = if n == 2 {
        "phy.receive_mu.2ss"
    } else {
        "phy.receive_mu.3ss"
    };
    let decoded = led.time(key, || receive_mu(&rx, noise_var));
    let decoded_idle = led.time(key, || receive_mu(&rx_idle, link_idle.noise_var()));
    (0..n)
        .map(|s| {
            let ssn = (64 * s) as u16;
            let ba = |bytes: &[u8]| {
                BlockAck::from_outcomes(Addr::local(1), Addr::local(2), 0, ssn, &deaggregate(bytes))
            };
            let (on, off) = (ba(&decoded[s].bytes), ba(&decoded_idle[s].bytes));
            MoxStreamResult {
                subframes: cfg.subframes as u32,
                acked: on.acked_count(),
                acked_idle: off.acked_count(),
                hit: on.bitmap != off.bitmap,
            }
        })
        .collect()
}

/// Ledger of the MIMO path. Each step is one distance at both stream
/// counts: `run_point` untraced (timed), again with a trace recorder
/// (results must match), and replayed call by call.
pub(crate) fn ledger(seed: u64, own: bool, led: &mut Ledger) {
    let steps = if own { DISTANCES.len() } else { 1 };
    for (di, &d) in DISTANCES.iter().enumerate().take(steps) {
        let mut outcome = Ok(());
        let mut t = Tally::default();
        for &streams in &STREAMS {
            let cfg = point_config(seed, di, streams);
            let r = led.time("core.mox_point", || {
                run_point(di as u32, d, &cfg, &mut witag_obs::NullRecorder)
            });
            let mut rec = witag_obs::BufferRecorder::new();
            let traced = run_point(di as u32, d, &cfg, &mut rec);
            let replayed = replay_point(d, &cfg, led);
            let step = if traced.streams != r.streams || traced.snr_min_db != r.snr_min_db {
                Err(format!("traced point differs at {d} m, {streams} streams"))
            } else if rec.events().len() != 1 + streams {
                Err(format!(
                    "{} trace events for one {streams}-stream point",
                    rec.events().len()
                ))
            } else if replayed != r.streams {
                Err(format!(
                    "replayed point differs at {d} m, {streams} streams"
                ))
            } else {
                tally_point(&cfg, &r, Duration::ZERO, &mut t)
            };
            outcome = outcome.and(step);
        }
        if outcome.is_ok() && t.streams_hit == 0 && must_hit(d) {
            outcome = Err(format!("the tag at {d} m hit no stream"));
        }
        led.check("mox step", outcome);
    }
}
