//! The MOXcatter scenario: what one backscatter tag does to a
//! spatially-multiplexed WiFi link.
//!
//! MOXcatter-style designs modulate *per spatial stream*; WiTAG's claim
//! (paper §4) is that it does not have to care, because the tag is a
//! single physical reflector whose mode flip is a rank-1 perturbation of
//! the **whole** channel matrix — every `H` entry moves at once, so the
//! corruption it induces lands on *every* stream's subframes, not one.
//!
//! This module reproduces that observation end-to-end:
//!
//! 1. build one independent A-MPDU per spatial stream (equal subframe
//!    grids, per-stream sequence windows) and multiplex them with
//!    [`witag_phy::transmit_mu`];
//! 2. pass the frame through a [`MimoLink`] — correlated-Rayleigh matrix
//!    channel, rank-1 tag — with the tag flipping phase on **odd
//!    subframes** and holding its reference state otherwise;
//! 3. joint ZF/MMSE equalisation, per-stream decode, de-aggregation, and
//!    one block-ACK bitmap per stream;
//! 4. diff each bitmap against a bit-identical tag-idle control run (same
//!    seed, same noise draws — the only difference is the tag
//!    coefficient), so a `hit` is attributable to the tag alone.
//!
//! The observable output is the `phy.mimo.sound` / `phy.mimo.stream`
//! trace family (docs/OBS_SCHEMA.md) plus [`MoxPointResult`]; the
//! `witag-cli mox` subcommand sweeps streams × MCS × tag distance.

use witag_channel::{LinkConfig, MimoLink, TagMode, TagSchedule};
use witag_mac::ampdu::MAX_MPDU_LEN;
use witag_mac::header::{FrameKind, QOS_HEADER_LEN};
use witag_mac::{aggregate, deaggregate, Addr, BlockAck, MacHeader, Mpdu, SubframeExtent};
use witag_obs::{Event, Recorder};
use witag_phy::mimo::MimoEqualiser;
use witag_phy::ppdu::PhyConfig;
use witag_phy::{receive_mu, transmit_mu, Mcs};
use witag_sim::geom::Floorplan;

/// The largest MPDU payload one subframe carries: a QoS data header, the
/// payload and a 4-byte FCS must fit the delimiter's length field.
pub const MAX_PAYLOAD_BYTES: usize = MAX_MPDU_LEN - QOS_HEADER_LEN - 4;

/// Parameters of one MOXcatter run (fixed across a sweep's points).
#[derive(Debug, Clone)]
pub struct MoxConfig {
    /// Spatial streams to multiplex (1–4; 1 is the degenerate control).
    pub streams: usize,
    /// Base (single-stream) HT MCS index 0–7; the run uses the
    /// `streams`-stream variant, i.e. HT MCS `8·(streams−1) + base`.
    pub base_mcs: usize,
    /// Subframes per stream's A-MPDU (1–64, the block-ACK window).
    pub subframes: usize,
    /// MPDU payload bytes per subframe (at most [`MAX_PAYLOAD_BYTES`]).
    pub payload_bytes: usize,
    /// Joint equaliser the receiver runs.
    pub equaliser: MimoEqualiser,
    /// Channel seed (the whole point is deterministic in it).
    pub seed: u64,
}

impl Default for MoxConfig {
    fn default() -> Self {
        MoxConfig {
            streams: 2,
            base_mcs: 7,
            subframes: 16,
            payload_bytes: 64,
            equaliser: MimoEqualiser::Mmse,
            seed: 2,
        }
    }
}

/// Per-stream outcome of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoxStreamResult {
    /// Subframes the stream's A-MPDU carried.
    pub subframes: u32,
    /// Bitmap bits set with the tag modulating.
    pub acked: u32,
    /// Bitmap bits set in the tag-idle control run.
    pub acked_idle: u32,
    /// Whether the tag's modulation changed this stream's bitmap.
    pub hit: bool,
}

/// Outcome of one (streams, MCS, distance) sweep point.
#[derive(Debug, Clone)]
pub struct MoxPointResult {
    /// 0-based sweep point index.
    pub index: u32,
    /// Tag distance from the client (array centre), metres.
    pub distance_m: f64,
    /// The multi-stream MCS the frames used.
    pub mcs: Mcs,
    /// Worst stream's measured post-equalisation SNR, dB.
    pub snr_min_db: f64,
    /// Best stream's measured post-equalisation SNR, dB.
    pub snr_max_db: f64,
    /// Per-stream block-ACK outcomes.
    pub streams: Vec<MoxStreamResult>,
}

impl MoxPointResult {
    /// Streams whose bitmap the tag perturbed.
    pub fn streams_hit(&self) -> u32 {
        self.streams.iter().filter(|s| s.hit).count() as u32
    }
}

/// Map each OFDM symbol to the tag mode of the subframe whose bits it
/// carries: odd subframes get the 180° path, even ones the 0° reference.
/// `ndbps1` is the per-stream data bits per symbol; the 16-bit SERVICE
/// field shifts every PSDU byte by two bytes' worth of bits.
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

/// Build the per-stream A-MPDUs: identical subframe grids, per-stream
/// 64-deep sequence windows (stream `s` starts at `64·s`).
fn build_stream_psdus(cfg: &MoxConfig) -> (Vec<Vec<u8>>, Vec<SubframeExtent>) {
    assert!(
        (1..=64).contains(&cfg.subframes),
        "1–64 subframes per stream, got {}",
        cfg.subframes
    );
    let mut psdus = Vec::with_capacity(cfg.streams);
    let mut extents = Vec::new();
    for s in 0..cfg.streams {
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
        psdus.push(psdu);
    }
    (psdus, extents)
}

/// Run one MOXcatter sweep point: the tag sits `tag_distance_from_client`
/// metres from the client along the client→AP line of the paper testbed,
/// flipping phase on odd subframes of a `cfg.streams`-stream frame.
/// Emits one `phy.mimo.sound` event and one `phy.mimo.stream` event per
/// stream into `rec`.
pub fn run_point(
    index: u32,
    tag_distance_from_client: f64,
    cfg: &MoxConfig,
    rec: &mut dyn Recorder,
) -> MoxPointResult {
    assert!((1..=4).contains(&cfg.streams), "1–4 streams");
    assert!(cfg.base_mcs < 8, "base MCS 0–7");
    let fp = Floorplan::paper_testbed();
    let client = Floorplan::los_client_position();
    let ap = Floorplan::ap_position();
    let frac = (tag_distance_from_client / client.distance(ap)).clamp(0.0, 1.0);
    let tag_pos = client.lerp(ap, frac);

    let mcs = Mcs::ht(8 * (cfg.streams - 1) + cfg.base_mcs);
    let mut phy = PhyConfig::new(mcs);
    phy.equaliser = cfg.equaliser;
    let (psdus, extents) = build_stream_psdus(cfg);
    let tx = transmit_mu(&phy, &psdus);
    let ndbps1 = phy.ndbps() / cfg.streams;
    let data = subframe_schedule(&extents, tx.symbols.len(), ndbps1);
    let schedule = TagSchedule {
        ltf: TagMode::Phase0,
        data,
    };
    let idle = TagSchedule::constant(TagMode::Phase0, tx.symbols.len());

    // Two links with the same seed: identical geometry, identical noise
    // and interference draws. The only difference between the runs is
    // the tag's switch coefficient, so any bitmap difference is the
    // tag's doing.
    let link_cfg = LinkConfig::rich_scattering();
    let mut link = MimoLink::new(
        &fp,
        client,
        ap,
        Some(tag_pos),
        cfg.streams,
        link_cfg.clone(),
        cfg.seed,
    );
    let mut link_idle = MimoLink::new(
        &fp,
        client,
        ap,
        Some(tag_pos),
        cfg.streams,
        link_cfg,
        cfg.seed,
    );

    let layout = phy.layout();
    let snrs = link.post_eq_snr_db(cfg.streams, cfg.equaliser, layout);
    let snr_min = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
    let snr_max = snrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let rx = link.apply_ppdu(&tx, &schedule);
    let rx_idle = link_idle.apply_ppdu(&tx, &idle);
    let decoded = receive_mu(&rx, link.noise_var());
    let decoded_idle = receive_mu(&rx_idle, link_idle.noise_var());

    if rec.enabled() {
        rec.record(&Event::MimoSound {
            index,
            streams: cfg.streams as u32,
            mcs: (8 * (cfg.streams - 1) + cfg.base_mcs) as u32,
            distance_m: tag_distance_from_client,
            snr_min_db: snr_min,
            snr_max_db: snr_max,
        });
    }

    let mut streams = Vec::with_capacity(cfg.streams);
    for s in 0..cfg.streams {
        let ssn = (64 * s) as u16;
        let ba = BlockAck::from_outcomes(
            Addr::local(1),
            Addr::local(2),
            0,
            ssn,
            &deaggregate(&decoded[s].bytes),
        );
        let ba_idle = BlockAck::from_outcomes(
            Addr::local(1),
            Addr::local(2),
            0,
            ssn,
            &deaggregate(&decoded_idle[s].bytes),
        );
        let hit = ba.bitmap != ba_idle.bitmap;
        if rec.enabled() {
            rec.record(&Event::MimoStream {
                index,
                stream: s as u32,
                subframes: cfg.subframes as u32,
                acked: ba.acked_count(),
                hit,
            });
        }
        streams.push(MoxStreamResult {
            subframes: cfg.subframes as u32,
            acked: ba.acked_count(),
            acked_idle: ba_idle.acked_count(),
            hit,
        });
    }

    MoxPointResult {
        index,
        distance_m: tag_distance_from_client,
        mcs,
        snr_min_db: snr_min,
        snr_max_db: snr_max,
        streams,
    }
}

/// Sweep the tag across `distances` (metres from the client) with a
/// fixed [`MoxConfig`], recording the trace family per point.
pub fn sweep(distances: &[f64], cfg: &MoxConfig, rec: &mut dyn Recorder) -> Vec<MoxPointResult> {
    distances
        .iter()
        .enumerate()
        .map(|(i, &d)| run_point(i as u32, d, cfg, rec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_obs::BufferRecorder;

    fn near_client_cfg() -> MoxConfig {
        MoxConfig {
            streams: 2,
            base_mcs: 7,
            subframes: 16,
            payload_bytes: 64,
            equaliser: MimoEqualiser::Mmse,
            seed: 3,
        }
    }

    #[test]
    fn single_tag_corrupts_multiple_streams() {
        let mut rec = witag_obs::NullRecorder;
        let r = run_point(0, 1.0, &near_client_cfg(), &mut rec);
        assert!(
            r.streams_hit() >= 2,
            "a near-client tag must leak into every stream, hit {} of {}",
            r.streams_hit(),
            r.streams.len()
        );
        // Only odd subframes were modulated; even ones (plus the idle
        // control) must still deliver something.
        for s in &r.streams {
            assert!(s.acked_idle > 0, "idle control must decode subframes");
            assert!(s.acked < s.subframes, "modulation must cost subframes");
        }
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = near_client_cfg();
        let mut rec = witag_obs::NullRecorder;
        let a = run_point(0, 2.0, &cfg, &mut rec);
        let b = run_point(0, 2.0, &cfg, &mut rec);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.snr_min_db.to_bits(), b.snr_min_db.to_bits());
    }

    #[test]
    fn sweep_emits_the_mimo_trace_family() {
        let mut buf = BufferRecorder::new();
        let results = sweep(&[1.0, 4.0], &near_client_cfg(), &mut buf);
        assert_eq!(results.len(), 2);
        let events = buf.events();
        let sounds = events
            .iter()
            .filter(|e| matches!(e, Event::MimoSound { .. }))
            .count();
        let streams = events
            .iter()
            .filter(|e| matches!(e, Event::MimoStream { .. }))
            .count();
        assert_eq!(sounds, 2, "one sound event per point");
        assert_eq!(streams, 4, "one stream event per point per stream");
    }

    #[test]
    fn degenerate_single_stream_still_runs() {
        let cfg = MoxConfig {
            streams: 1,
            ..near_client_cfg()
        };
        let mut rec = witag_obs::NullRecorder;
        let r = run_point(0, 1.0, &cfg, &mut rec);
        assert_eq!(r.streams.len(), 1);
        assert!(r.streams[0].acked_idle > 0);
    }
}
