//! Modulation and coding schemes (MCS) for 802.11n (HT) and 802.11ac (VHT).
//!
//! An [`Mcs`] bundles a constellation, a convolutional code rate, and a
//! spatial-stream count, and knows how to compute coded/data bits per OFDM
//! symbol and nominal data rates for any bandwidth/guard-interval
//! combination — the numbers behind the paper's §4.1 throughput analysis.

use crate::params::{Bandwidth, GuardInterval};

/// Subcarrier modulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit per subcarrier.
    Bpsk,
    /// 2 bits per subcarrier.
    Qpsk,
    /// 4 bits per subcarrier.
    Qam16,
    /// 6 bits per subcarrier.
    Qam64,
    /// 8 bits per subcarrier (VHT only).
    Qam256,
}

impl Modulation {
    /// Coded bits carried per subcarrier (`N_BPSCS`).
    pub const fn bits_per_subcarrier(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Number of constellation points.
    pub const fn points(self) -> usize {
        1 << self.bits_per_subcarrier()
    }
}

/// Convolutional code rate (after puncturing the rate-1/2 mother code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (unpunctured).
    R12,
    /// Rate 2/3.
    R23,
    /// Rate 3/4.
    R34,
    /// Rate 5/6.
    R56,
}

impl CodeRate {
    /// Rate as (numerator, denominator): data bits per coded bits.
    pub const fn as_fraction(self) -> (usize, usize) {
        match self {
            CodeRate::R12 => (1, 2),
            CodeRate::R23 => (2, 3),
            CodeRate::R34 => (3, 4),
            CodeRate::R56 => (5, 6),
        }
    }

    /// Rate as a float.
    pub fn as_f64(self) -> f64 {
        let (n, d) = self.as_fraction();
        n as f64 / d as f64
    }
}

/// A full modulation-and-coding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mcs {
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Convolutional code rate.
    pub code_rate: CodeRate,
    /// Number of spatial streams (1..=4).
    pub spatial_streams: usize,
}

impl Mcs {
    /// HT MCS index 0–31 (index mod 8 selects modulation/rate; index / 8
    /// + 1 is the stream count), per 802.11-2016 Table 19-27…19-30.
    ///
    /// # Panics
    /// Panics for indices above 31 (unequal-modulation MCSs not modelled).
    pub fn ht(index: usize) -> Mcs {
        assert!(index <= 31, "HT MCS 0-31 supported");
        let (modulation, code_rate) = match index % 8 {
            0 => (Modulation::Bpsk, CodeRate::R12),
            1 => (Modulation::Qpsk, CodeRate::R12),
            2 => (Modulation::Qpsk, CodeRate::R34),
            3 => (Modulation::Qam16, CodeRate::R12),
            4 => (Modulation::Qam16, CodeRate::R34),
            5 => (Modulation::Qam64, CodeRate::R23),
            6 => (Modulation::Qam64, CodeRate::R34),
            _ => (Modulation::Qam64, CodeRate::R56),
        };
        Mcs {
            modulation,
            code_rate,
            spatial_streams: index / 8 + 1,
        }
    }

    /// VHT MCS index 0–9 for a given stream count (adds 256-QAM).
    ///
    /// # Panics
    /// Panics for indices above 9 or streams outside 1..=4.
    pub fn vht(index: usize, spatial_streams: usize) -> Mcs {
        assert!(index <= 9, "VHT MCS 0-9 supported");
        assert!((1..=4).contains(&spatial_streams));
        let (modulation, code_rate) = match index {
            0..=7 => {
                let base = Mcs::ht(index);
                (base.modulation, base.code_rate)
            }
            8 => (Modulation::Qam256, CodeRate::R34),
            _ => (Modulation::Qam256, CodeRate::R56),
        };
        Mcs {
            modulation,
            code_rate,
            spatial_streams,
        }
    }

    /// Coded bits per OFDM symbol (`N_CBPS`) across all streams.
    pub fn coded_bits_per_symbol(&self, bw: Bandwidth) -> usize {
        bw.data_subcarriers() * self.modulation.bits_per_subcarrier() * self.spatial_streams
    }

    /// Data bits per OFDM symbol (`N_DBPS`).
    pub fn data_bits_per_symbol(&self, bw: Bandwidth) -> usize {
        let (n, d) = self.code_rate.as_fraction();
        self.coded_bits_per_symbol(bw) * n / d
    }

    /// Nominal PHY data rate in bits per second.
    pub fn data_rate_bps(&self, bw: Bandwidth, gi: GuardInterval) -> f64 {
        let ndbps = self.data_bits_per_symbol(bw) as f64;
        ndbps / gi.symbol_duration().as_secs_f64()
    }

    /// Minimum SNR (dB) at which this MCS achieves near-zero packet error
    /// in an AWGN channel — the standard rate-selection thresholds used by
    /// Minstrel-style rate control tables. WiTAG's querier picks the
    /// highest MCS whose threshold clears the link SNR with margin
    /// (paper §4.1: "highest PHY rate that achieves a near-zero error
    /// rate").
    pub fn required_snr_db(&self) -> f64 {
        let base = match (self.modulation, self.code_rate) {
            (Modulation::Bpsk, CodeRate::R12) => 5.0,
            (Modulation::Bpsk, _) => 8.0,
            (Modulation::Qpsk, CodeRate::R12) => 8.0,
            (Modulation::Qpsk, _) => 11.0,
            (Modulation::Qam16, CodeRate::R12) => 14.0,
            (Modulation::Qam16, _) => 17.0,
            (Modulation::Qam64, CodeRate::R23) => 21.0,
            (Modulation::Qam64, CodeRate::R34) => 23.0,
            (Modulation::Qam64, _) => 25.0,
            (Modulation::Qam256, CodeRate::R34) => 29.0,
            (Modulation::Qam256, _) => 31.0,
        };
        // Each extra spatial stream needs a cleaner channel. The +3 dB
        // per stream is bookkeeping for the ZF/MMSE separation cost; the
        // `stream_count_heuristic_matches_measured_penalty` test in
        // `witag-channel::mimo` checks it against the measured post-
        // equalisation SNR (`MimoLink::post_eq_snr_db`) on scattering
        // channels.
        base + 3.0 * (self.spatial_streams as f64 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ht_table_spot_checks() {
        let mcs0 = Mcs::ht(0);
        assert_eq!(mcs0.modulation, Modulation::Bpsk);
        assert_eq!(mcs0.code_rate, CodeRate::R12);
        assert_eq!(mcs0.spatial_streams, 1);

        let mcs7 = Mcs::ht(7);
        assert_eq!(mcs7.modulation, Modulation::Qam64);
        assert_eq!(mcs7.code_rate, CodeRate::R56);

        let mcs23 = Mcs::ht(23);
        assert_eq!(mcs23.spatial_streams, 3);
        assert_eq!(mcs23.modulation, Modulation::Qam64);
    }

    #[test]
    fn standard_data_rates_20mhz_lgi() {
        // 802.11n Table 19-27: 6.5, 13, 19.5, 26, 39, 52, 58.5, 65 Mbps.
        let expected = [6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0];
        for (i, &mbps) in expected.iter().enumerate() {
            let rate = Mcs::ht(i).data_rate_bps(Bandwidth::Mhz20, GuardInterval::Long) / 1e6;
            assert!(
                (rate - mbps).abs() < 1e-9,
                "MCS{i}: got {rate} Mbps, want {mbps}"
            );
        }
    }

    #[test]
    fn short_gi_rate_boost() {
        // MCS7 20 MHz SGI = 72.2 Mbps (65 × 4.0/3.6).
        let rate = Mcs::ht(7).data_rate_bps(Bandwidth::Mhz20, GuardInterval::Short) / 1e6;
        assert!((rate - 72.222).abs() < 0.01, "got {rate}");
    }

    #[test]
    fn three_stream_rates_triple() {
        let one = Mcs::ht(7).data_rate_bps(Bandwidth::Mhz20, GuardInterval::Long);
        let three = Mcs::ht(23).data_rate_bps(Bandwidth::Mhz20, GuardInterval::Long);
        assert!((three - 3.0 * one).abs() < 1e-6);
    }

    #[test]
    fn mcs_40mhz_rates() {
        // MCS7 40 MHz LGI = 135 Mbps.
        let rate = Mcs::ht(7).data_rate_bps(Bandwidth::Mhz40, GuardInterval::Long) / 1e6;
        assert!((rate - 135.0).abs() < 1e-9, "got {rate}");
    }

    #[test]
    fn vht_256qam() {
        let mcs9 = Mcs::vht(9, 1);
        assert_eq!(mcs9.modulation, Modulation::Qam256);
        assert_eq!(mcs9.code_rate, CodeRate::R56);
        // VHT MCS9 80 MHz 1ss LGI = 390 Mbps.
        let rate = mcs9.data_rate_bps(Bandwidth::Mhz80, GuardInterval::Long) / 1e6;
        assert!((rate - 390.0).abs() < 1e-9, "got {rate}");
    }

    #[test]
    fn snr_thresholds_monotone_in_mcs() {
        for i in 0..7 {
            assert!(
                Mcs::ht(i).required_snr_db() < Mcs::ht(i + 1).required_snr_db(),
                "threshold must increase MCS{i}->MCS{}",
                i + 1
            );
        }
    }

    #[test]
    fn ndbps_values() {
        // 20 MHz, 1ss: MCS0 = 26, MCS7 = 260 data bits/symbol.
        assert_eq!(Mcs::ht(0).data_bits_per_symbol(Bandwidth::Mhz20), 26);
        assert_eq!(Mcs::ht(7).data_bits_per_symbol(Bandwidth::Mhz20), 260);
        assert_eq!(Mcs::ht(7).coded_bits_per_symbol(Bandwidth::Mhz20), 312);
    }
}
