//! Query construction: the client side of WiTAG.
//!
//! A WiTAG query is an A-MPDU whose subframes exist solely as corruption
//! targets (paper §4). Getting it right is a co-design problem this
//! module solves explicitly ([`QueryDesign::best`]):
//!
//! * **Symbol alignment** — a subframe must span a whole number of OFDM
//!   symbols, or the tag's switch instants corrupt neighbouring
//!   subframes (inter-bit interference). Subframe bytes = `N_DBPS·k/8`.
//! * **A-MPDU padding** — subframes are padded to 4-byte boundaries, so
//!   the wire length must already be a multiple of 4 or boundaries creep.
//! * **Tick alignment** — the subframe airtime must be an integer number
//!   of tag clock ticks (the tag counts whole ticks from the trigger
//!   edge).
//! * **Corruptibility** — dense constellations (≥ 16-QAM) have margins a
//!   weak reflection can break; BPSK/QPSK subframes shrug the tag off
//!   (see `witag-phy`'s receiver tests). The paper's "highest rate that
//!   is reliably received" (§4.1) is exactly the sweet spot: thin margins
//!   against the tag, adequate margins against noise.
//! * **Throughput** — among feasible designs, minimise airtime per bit.

use crate::experiment::ExperimentError;
use witag_channel::Link;
use witag_mac::ampdu::{aggregate, SubframeExtent};
use witag_mac::header::{Addr, MacHeader};
use witag_mac::{Mpdu, Security};
use witag_phy::mcs::{Mcs, Modulation};
use witag_phy::params::Bandwidth;
use witag_phy::ppdu::{transmit, PhyConfig, Ppdu};
use witag_sim::time::Duration;
use witag_tag::device::QueryProfile;
use witag_tag::oscillator::Oscillator;
use witag_tag::trigger::TriggerSignature;

/// Overhead of one MPDU inside a subframe: delimiter + QoS header + FCS.
pub const SUBFRAME_OVERHEAD: usize = 4 + 26 + 4;

/// The PHY operating space the query designer searches.
#[derive(Debug, Clone, Copy)]
pub struct DesignSpace {
    /// Channel width. Wider channels cost 3 dB of SNR per doubling and
    /// do **not** increase tag throughput (subframe airtime, not PHY
    /// rate, bounds the tag) — they only inflate the query's byte cost.
    /// See the `ac_modes` bench.
    pub bandwidth: Bandwidth,
    /// Allow 802.11ac (VHT) MCS 8–9 (256-QAM) — denser constellations
    /// corrupt even more easily.
    pub vht: bool,
}

impl Default for DesignSpace {
    fn default() -> Self {
        DesignSpace {
            bandwidth: Bandwidth::Mhz20,
            vht: false,
        }
    }
}

/// A fully resolved query format.
#[derive(Debug, Clone)]
pub struct QueryDesign {
    /// PHY configuration for query PPDUs.
    pub phy: PhyConfig,
    /// OFDM symbols per subframe.
    pub symbols_per_subframe: usize,
    /// Wire bytes per subframe (delimiter + MPDU + pad = exact).
    pub subframe_bytes: usize,
    /// Number of subframes per query A-MPDU.
    pub n_subframes: usize,
    /// Leading subframes the tag leaves unmodulated.
    pub guard_subframes: usize,
    /// The trigger marker signature preceding each query.
    pub signature: TriggerSignature,
    /// Gap between the last marker and the query PPDU (≥ SIFS and chosen
    /// so gap + preamble is tick-aligned).
    pub marker_gap: Duration,
    /// Interior-flip margin (one tag clock tick): the tag leaves this
    /// much of each subframe boundary unmodulated so that OFDM symbols
    /// shared across boundaries (SERVICE-field offset) never corrupt a
    /// neighbouring subframe.
    pub margin: Duration,
}

impl QueryDesign {
    /// Airtime of one subframe.
    pub fn subframe_airtime(&self) -> Duration {
        self.phy.guard.symbol_duration() * self.symbols_per_subframe as u64
    }

    /// Data bits carried per query.
    pub fn bits_per_query(&self) -> usize {
        self.n_subframes - self.guard_subframes
    }

    /// MPDU payload bytes per subframe.
    pub fn payload_len(&self) -> usize {
        self.subframe_bytes - SUBFRAME_OVERHEAD
    }

    /// The [`QueryProfile`] a tag must be provisioned with to answer
    /// queries of this design.
    pub fn tag_profile(&self) -> QueryProfile {
        QueryProfile {
            signature: self.signature.clone(),
            marker_gap: self.marker_gap,
            preamble: self.phy.preamble_duration(),
            subframe: self.subframe_airtime(),
            n_subframes: self.n_subframes,
            guard_subframes: self.guard_subframes,
            margin: self.margin,
        }
    }

    /// Total on-air duration of the marker preamble (bursts + SIFS gaps).
    pub fn marker_airtime(&self) -> Duration {
        let bursts: Duration = self
            .signature
            .bursts
            .iter()
            .fold(Duration::ZERO, |acc, &d| acc + d);
        let gaps = Duration::micros(16) * (self.signature.bursts.len() as u64 - 1);
        bursts + gaps
    }

    /// Search for the highest-throughput feasible design for a link and
    /// tag clock in the default 802.11n 20 MHz space.
    ///
    /// `n_subframes` is capped by the 64-bit block-ACK bitmap. Fails
    /// with [`ExperimentError::LinkTooPoor`] if no MCS ≥ 16-QAM clears
    /// the link SNR (the link cannot host corruptible queries), or with
    /// a geometry error for out-of-range subframe/guard counts.
    pub fn best(
        link: &Link,
        clock: &Oscillator,
        n_subframes: usize,
        guard_subframes: usize,
    ) -> Result<QueryDesign, ExperimentError> {
        Self::best_in(
            link,
            clock,
            n_subframes,
            guard_subframes,
            DesignSpace::default(),
        )
    }

    /// [`QueryDesign::best`] over an explicit design space (channel
    /// width, VHT MCSs). Wider channels raise the noise floor 3 dB per
    /// doubling, which the SNR gate accounts for.
    pub fn best_in(
        link: &Link,
        clock: &Oscillator,
        n_subframes: usize,
        guard_subframes: usize,
        space: DesignSpace,
    ) -> Result<QueryDesign, ExperimentError> {
        if !(1..=witag_phy::MAX_AMPDU_SUBFRAMES).contains(&n_subframes) {
            return Err(ExperimentError::SubframeCountOutOfRange { n: n_subframes });
        }
        if guard_subframes >= n_subframes {
            return Err(ExperimentError::GuardExceedsSubframes {
                guard: guard_subframes,
                n: n_subframes,
            });
        }
        let snr = link.snr_db_at(space.bandwidth.hertz() as f64);
        let tick_ns = (clock.period_s() * 1e9).round() as u64;
        let sym_ns = 4_000u64; // long GI

        // Candidate MCSs: HT 2..=7 always; VHT 8..=9 (256-QAM) when the
        // space allows 802.11ac operation.
        let mut candidates: Vec<Mcs> = (0..8).map(Mcs::ht).collect();
        if space.vht {
            candidates.push(Mcs::vht(8, 1));
            candidates.push(Mcs::vht(9, 1));
        }

        let mut best: Option<(f64, QueryDesign)> = None;
        for mcs in candidates {
            // Corruptibility: dense constellations only.
            if matches!(mcs.modulation, Modulation::Bpsk | Modulation::Qpsk) {
                continue;
            }
            // Reliability: clear the SNR requirement with margin (§4.1).
            if mcs.required_snr_db() + 3.0 > snr {
                continue;
            }
            let phy = PhyConfig::with_bandwidth(mcs, space.bandwidth);
            let ndbps = phy.ndbps();
            for k in 1..=24usize {
                // Whole bytes per subframe.
                if !(ndbps * k).is_multiple_of(8) {
                    continue;
                }
                let bytes = ndbps * k / 8;
                // 4-byte A-MPDU boundary.
                if !bytes.is_multiple_of(4) {
                    continue;
                }
                // Room for delimiter + header + FCS.
                if bytes < SUBFRAME_OVERHEAD {
                    continue;
                }
                // Tag tick alignment.
                if !(k as u64 * sym_ns).is_multiple_of(tick_ns) {
                    continue;
                }
                // Interior-flip margins need at least one tick of
                // modulated interior: subframe ≥ 3 ticks.
                if (k as u64 * sym_ns) < 3 * tick_ns {
                    continue;
                }
                let design = QueryDesign {
                    phy: phy.clone(),
                    symbols_per_subframe: k,
                    subframe_bytes: bytes,
                    n_subframes,
                    guard_subframes,
                    signature: Self::tick_aligned_signature(tick_ns),
                    marker_gap: Self::aligned_marker_gap(&phy, tick_ns),
                    margin: Duration::nanos(tick_ns),
                };
                let bits = design.bits_per_query() as f64;
                let time = design.round_airtime_estimate().as_secs_f64();
                let rate = bits / time;
                // Rank by throughput; break ties toward the *most
                // corruptible* scheme (denser constellation, weaker
                // code) — equal-rate designs differ a lot in how easily
                // the tag can break a subframe.
                let density = mcs.modulation.bits_per_subcarrier() as f64 + mcs.code_rate.as_f64();
                let better = match &best {
                    None => true,
                    Some((r, d)) => {
                        let prev_density = d.phy.mcs.modulation.bits_per_subcarrier() as f64
                            + d.phy.mcs.code_rate.as_f64();
                        rate > r * (1.0 + 1e-9)
                            || (rate > r * (1.0 - 1e-9) && density > prev_density)
                    }
                };
                if better {
                    best = Some((rate, design));
                }
            }
        }
        best.map(|(_, d)| d).ok_or(ExperimentError::LinkTooPoor)
    }

    /// A marker signature whose burst durations are integer tick
    /// multiples, mutually distinct, and long enough to be real frames
    /// (a legacy OFDM frame cannot be much shorter than ~28 µs on the
    /// air, so the base unit is ≥ 40 µs regardless of how fast the tag
    /// clock ticks).
    fn tick_aligned_signature(tick_ns: u64) -> TriggerSignature {
        let unit_ticks = 40_000u64.div_ceil(tick_ns).max(1);
        let unit = |mult: u64| Duration::nanos(mult * unit_ticks * tick_ns);
        // 2/1/2 units: long-short-long, cheap to match, unlikely in
        // ambient traffic. Tolerance 1 % of a unit (min 1 tick) absorbs
        // crystal-class drift while rejecting ring-class drift.
        TriggerSignature {
            bursts: vec![unit(2), unit(1), unit(2)],
            tolerance_ticks: (unit_ticks / 100).max(1),
        }
    }

    /// Smallest gap ≥ SIFS such that gap + preamble is tick-aligned.
    fn aligned_marker_gap(phy: &PhyConfig, tick_ns: u64) -> Duration {
        let preamble_ns = phy.preamble_duration().as_nanos();
        let sifs_ns = 16_000u64;
        let mut gap = sifs_ns;
        while !(gap + preamble_ns).is_multiple_of(tick_ns) {
            gap += 1_000; // µs granularity — senders schedule in µs
        }
        Duration::nanos(gap)
    }

    /// Realise each marker burst as a concrete legacy frame: the PSDU
    /// length whose 6 Mbps legacy PPDU airtime equals the burst duration
    /// exactly. Proves the duration-coded signature is transmittable by
    /// any compliant sender (and gives harnesses real frames to send).
    ///
    /// Returns one PSDU length per marker, or
    /// [`ExperimentError::MarkerTooShort`] if a marker duration cannot
    /// host a legacy frame (the designer never produces such signatures;
    /// hand-built overrides can).
    pub fn marker_frame_sizes(&self) -> Result<Vec<usize>, ExperimentError> {
        self.signature
            .bursts
            .iter()
            .map(|&burst| {
                let data = burst
                    .checked_sub(Duration::micros(20))
                    .ok_or(ExperimentError::MarkerTooShort { burst })?;
                let n_sym = data.as_nanos() / 4_000;
                // n_sym symbols at 6 Mbps carry 24·n_sym bits = SERVICE(16)
                // + 8·len + tail(6) + pad. Choose the largest len that fits.
                let len = (24 * n_sym as usize).saturating_sub(16 + 6) / 8;
                if n_sym < 1 || len < 1 {
                    return Err(ExperimentError::MarkerTooShort { burst });
                }
                Ok(len)
            })
            .collect()
    }

    /// Rough airtime of one full query round (markers + gaps + PPDU +
    /// SIFS + block ACK + mean contention) for throughput ranking.
    pub fn round_airtime_estimate(&self) -> Duration {
        let ppdu = self.phy.preamble_duration() + self.subframe_airtime() * self.n_subframes as u64;
        self.marker_airtime()
            + self.marker_gap
            + ppdu
            + Duration::micros(16)
            + Duration::micros(32)
            + witag_phy::airtime::mean_contention_time()
    }

    /// Build one query A-MPDU: `n_subframes` identically sized QoS data
    /// MPDUs with filler payloads, aggregated and PHY-encoded.
    ///
    /// Returns the PPDU, per-subframe extents, and the first sequence
    /// number used.
    pub fn build_query(
        &self,
        client: Addr,
        ap: Addr,
        security: &mut Security,
        seq_start: u16,
    ) -> Result<BuiltQuery, ExperimentError> {
        let payload_plain = vec![0xA5u8; self.payload_len_plain(security)?];
        let mpdus: Vec<Mpdu> = (0..self.n_subframes)
            .map(|i| {
                let mut header = MacHeader::qos_null(ap, client, ap, (seq_start + i as u16) % 4096);
                header.kind = witag_mac::header::FrameKind::QosData;
                header.protected = security.is_protected();
                let payload = security.encrypt(&header, &payload_plain);
                Mpdu { header, payload }
            })
            .collect();
        let (psdu, extents) = aggregate(&mpdus);
        assert_eq!(
            psdu.len(),
            self.subframe_bytes * self.n_subframes,
            "subframe sizing must be exact (alignment invariant)"
        );
        let ppdu = transmit(&self.phy, &psdu);
        // The SERVICE field (16 bits) and tail (6 bits) spill into one
        // extra OFDM symbol beyond the subframes' own bits.
        assert_eq!(
            ppdu.symbols.len(),
            self.symbols_per_subframe * self.n_subframes + 1,
            "PSDU must fill k·n subframe symbols plus the SERVICE/tail symbol"
        );
        Ok(BuiltQuery {
            ppdu,
            extents,
            seq_start,
        })
    }

    /// Plaintext payload length such that the *protected* MPDU hits the
    /// designed wire size (CCMP adds 16 bytes, WEP adds 7).
    fn payload_len_plain(&self, security: &Security) -> Result<usize, ExperimentError> {
        let target = self.payload_len();
        let overhead = match security {
            Security::Open => 0,
            Security::Wep(_) => 3 + 4,
            Security::Wpa2(_) => 8 + 8,
        };
        target
            .checked_sub(overhead)
            .ok_or(ExperimentError::SubframeTooSmallForSecurity {
                payload: target,
                overhead,
            })
    }
}

/// A query ready for the air.
#[derive(Debug, Clone)]
pub struct BuiltQuery {
    /// The encoded PPDU.
    pub ppdu: Ppdu,
    /// Per-subframe byte extents within the PSDU.
    pub extents: Vec<SubframeExtent>,
    /// First sequence number (block-ACK window start).
    pub seq_start: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_channel::LinkConfig;
    use witag_sim::geom::{Floorplan, Point2};

    fn los_link() -> Link {
        let fp = Floorplan::paper_testbed();
        Link::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            Some(Point2::new(7.8, 3.5)),
            LinkConfig {
                interference_rate_hz: 0.0,
                ..LinkConfig::default()
            },
            42,
        )
    }

    fn clock250() -> Oscillator {
        Oscillator::Crystal { freq_hz: 250e3 }
    }

    #[test]
    fn best_design_exists_on_good_link() {
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).expect("LOS link must admit a design");
        // All alignment invariants hold.
        assert_eq!((d.phy.ndbps() * d.symbols_per_subframe) % 8, 0);
        assert_eq!(d.subframe_bytes % 4, 0);
        assert_eq!(
            d.subframe_airtime().as_nanos() % (clock250().period_s() * 1e9) as u64,
            0
        );
        assert!(d.subframe_bytes >= SUBFRAME_OVERHEAD);
        // Dense constellation only.
        assert!(!matches!(
            d.phy.mcs.modulation,
            Modulation::Bpsk | Modulation::Qpsk
        ));
        assert_eq!(d.bits_per_query(), 62);
    }

    #[test]
    fn design_prefers_short_corruptible_subframes() {
        // At ~50 dB SNR with a 4 µs tick, MCS5 (64-QAM 2/3) with
        // 4-symbol subframes (104 bytes, 16 µs) is the throughput
        // optimum derived in DESIGN.md — and the equal-rate MCS3
        // (16-QAM 1/2, 52 B) alternative must lose the tie-break because
        // its strong code heals tag flips.
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        assert_eq!(d.symbols_per_subframe, 4, "{d:?}");
        assert_eq!(d.subframe_bytes, 104);
        assert_eq!(d.phy.mcs.modulation, Modulation::Qam64);
    }

    #[test]
    fn slow_clock_forces_longer_subframes() {
        let link = los_link();
        let d50 = QueryDesign::best(&link, &Oscillator::witag_crystal(), 64, 2).unwrap();
        // 50 kHz tick = 20 µs = 5 symbols: subframes must be multiples of
        // 10 symbols (bytes % 4 constraint pushes to even multiples).
        assert_eq!(d50.subframe_airtime().as_nanos() % 20_000, 0);
        let d125 = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        assert!(d125.subframe_airtime() < d50.subframe_airtime());
    }

    #[test]
    fn poor_link_yields_no_design() {
        let fp = Floorplan::free_space();
        let link = Link::new(
            &fp,
            Point2::new(0.0, 0.0),
            Point2::new(500.0, 0.0),
            None,
            LinkConfig {
                interference_rate_hz: 0.0,
                ..LinkConfig::default()
            },
            1,
        );
        assert_eq!(
            QueryDesign::best(&link, &clock250(), 64, 2).unwrap_err(),
            ExperimentError::LinkTooPoor,
            "500 m link (≈25dB) cannot host 16-QAM+ queries"
        );
    }

    #[test]
    fn geometry_errors_are_typed() {
        let link = los_link();
        assert!(matches!(
            QueryDesign::best(&link, &clock250(), 0, 0),
            Err(ExperimentError::SubframeCountOutOfRange { n: 0 })
        ));
        assert!(matches!(
            QueryDesign::best(&link, &clock250(), 8, 8),
            Err(ExperimentError::GuardExceedsSubframes { guard: 8, n: 8 })
        ));
        // A hand-built signature with sub-preamble markers is rejected,
        // not a panic.
        let mut d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        d.signature.bursts[0] = Duration::micros(10);
        assert!(matches!(
            d.marker_frame_sizes(),
            Err(ExperimentError::MarkerTooShort { .. })
        ));
    }

    #[test]
    fn built_query_matches_design_geometry() {
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        let built = d
            .build_query(Addr::local(1), Addr::local(2), &mut Security::Open, 0)
            .unwrap();
        assert_eq!(built.extents.len(), 64);
        for (i, e) in built.extents.iter().enumerate() {
            assert_eq!(e.start, i * d.subframe_bytes, "subframe {i} offset");
            assert_eq!(e.end - e.start, d.subframe_bytes, "subframe {i} length");
        }
        // Subframe i occupies exactly symbols [k·i, k·(i+1)).
        let k = d.symbols_per_subframe;
        for i in [0usize, 1, 31, 63] {
            let e = built.extents[i];
            let (lo, hi) = d.phy.symbols_for_byte_range(e.start, e.end);
            assert!(
                lo >= k * i && hi < k * (i + 1) + 1,
                "subframe {i}: symbols {lo}..{hi}"
            );
        }
    }

    #[test]
    fn built_query_sized_for_wpa2() {
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        let mut sec = Security::Wpa2(Box::new(witag_crypto::CcmpKey::new(&[7u8; 16])));
        let built = d
            .build_query(Addr::local(1), Addr::local(2), &mut sec, 0)
            .unwrap();
        assert_eq!(
            built.extents.last().unwrap().end,
            d.subframe_bytes * 64,
            "CCMP overhead must be absorbed by the payload sizing"
        );
    }

    #[test]
    fn vht_space_prefers_256qam() {
        let link = los_link();
        let d = QueryDesign::best_in(
            &link,
            &clock250(),
            64,
            2,
            DesignSpace {
                bandwidth: Bandwidth::Mhz20,
                vht: true,
            },
        )
        .unwrap();
        assert_eq!(d.phy.mcs.modulation, Modulation::Qam256, "{d:?}");
        // Same airtime-optimal subframe duration as the HT design.
        assert_eq!(d.symbols_per_subframe, 4);
    }

    #[test]
    fn wider_channels_cost_snr_not_throughput() {
        let link = los_link();
        let d20 = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        let d80 = QueryDesign::best_in(
            &link,
            &clock250(),
            64,
            2,
            DesignSpace {
                bandwidth: Bandwidth::Mhz80,
                vht: true,
            },
        )
        .unwrap();
        // Tag rate identical (airtime-bound)…
        let rate =
            |d: &QueryDesign| d.bits_per_query() as f64 / d.round_airtime_estimate().as_secs_f64();
        assert!((rate(&d20) - rate(&d80)).abs() / rate(&d20) < 0.05);
        // …but the query burns ~4.5x the bytes per subframe at 80 MHz.
        assert!(d80.subframe_bytes > 4 * d20.subframe_bytes);
        // And the SNR gate really subtracts 6 dB at 80 MHz.
        assert!(link.snr_db_at(80e6) < link.snr_db_at(20e6) - 5.9);
    }

    #[test]
    fn marker_bursts_are_real_legacy_frames() {
        use witag_phy::airtime::{legacy_ppdu_airtime, LegacyRate};
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        let sizes = d.marker_frame_sizes().unwrap();
        assert_eq!(sizes.len(), d.signature.bursts.len());
        for (&len, &burst) in sizes.iter().zip(d.signature.bursts.iter()) {
            // The realised frame's airtime must equal the signature burst.
            assert_eq!(
                legacy_ppdu_airtime(len, LegacyRate::M6),
                burst,
                "marker of {len} B must fill {burst} exactly"
            );
        }
    }

    #[test]
    fn marker_gap_is_tick_aligned() {
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        let tick = (clock250().period_s() * 1e9) as u64;
        assert_eq!(
            (d.marker_gap + d.phy.preamble_duration()).as_nanos() % tick,
            0
        );
        assert!(d.marker_gap >= Duration::micros(16), "gap ≥ SIFS");
        assert!(d.tag_profile().is_tick_aligned(&clock250()));
    }

    #[test]
    fn throughput_estimate_in_expected_range() {
        let link = los_link();
        let d = QueryDesign::best(&link, &clock250(), 64, 2).unwrap();
        let kbps = d.bits_per_query() as f64 / d.round_airtime_estimate().as_secs_f64() / 1000.0;
        // The paper reports ~40 Kbps; our optimiser lands the same order.
        assert!((20.0..120.0).contains(&kbps), "got {kbps} Kbps");
    }
}
