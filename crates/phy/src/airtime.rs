//! Airtime arithmetic for control frames and legacy (non-HT) PPDUs.
//!
//! Block ACKs and other control responses are transmitted in the legacy
//! OFDM format at a basic rate (typically 24 Mbps). The WiTAG throughput
//! model (paper §4.1 and our THR experiment) needs these durations to
//! account for the full query/response exchange:
//!
//! ```text
//! [backoff][DIFS][A-MPDU airtime][SIFS][block ACK airtime]
//! ```

use crate::params::timing;
use witag_sim::time::Duration;

/// Legacy OFDM rates (Mbps) and their data bits per 4 µs symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegacyRate {
    /// BPSK 1/2.
    M6,
    /// BPSK 3/4.
    M9,
    /// QPSK 1/2.
    M12,
    /// QPSK 3/4.
    M18,
    /// 16-QAM 1/2.
    M24,
    /// 16-QAM 3/4.
    M36,
    /// 64-QAM 2/3.
    M48,
    /// 64-QAM 3/4.
    M54,
}

impl LegacyRate {
    /// Data bits per OFDM symbol (`N_DBPS`, Table 17-4).
    pub const fn ndbps(self) -> usize {
        match self {
            LegacyRate::M6 => 24,
            LegacyRate::M9 => 36,
            LegacyRate::M12 => 48,
            LegacyRate::M18 => 72,
            LegacyRate::M24 => 96,
            LegacyRate::M36 => 144,
            LegacyRate::M48 => 192,
            LegacyRate::M54 => 216,
        }
    }

    /// Nominal rate in Mbps.
    pub const fn mbps(self) -> usize {
        self.ndbps() / 4
    }
}

/// Airtime of a legacy (non-HT) PPDU carrying `len` PSDU bytes:
/// 20 µs preamble + ⌈(16 + 8·len + 6) / N_DBPS⌉ 4 µs symbols.
pub fn legacy_ppdu_airtime(len: usize, rate: LegacyRate) -> Duration {
    let n_info = 16 + 8 * len + 6;
    let n_sym = n_info.div_ceil(rate.ndbps()) as u64;
    timing::LEGACY_PREAMBLE + Duration::micros(4) * n_sym
}

/// On-air size of a compressed block ACK frame: 2 FC + 2 dur + 6 RA +
/// 6 TA + 2 BA control + 2 SSC + 8 bitmap + 4 FCS = 32 bytes.
pub const BLOCK_ACK_BYTES: usize = 32;

/// Airtime of a compressed block ACK at the given basic rate.
pub fn block_ack_airtime(rate: LegacyRate) -> Duration {
    legacy_ppdu_airtime(BLOCK_ACK_BYTES, rate)
}

/// Expected contention time: DIFS + CWmin/2 slots (mean backoff on an
/// otherwise idle channel).
pub fn mean_contention_time() -> Duration {
    timing::DIFS + timing::SLOT * (timing::CW_MIN as u64 / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_rates_match_table() {
        assert_eq!(LegacyRate::M6.mbps(), 6);
        assert_eq!(LegacyRate::M24.mbps(), 24);
        assert_eq!(LegacyRate::M54.mbps(), 54);
    }

    #[test]
    fn ack_sized_frame_at_24mbps() {
        // 32 bytes: (16+256+6)/96 = 2.9 -> 3 symbols -> 20+12 = 32 µs.
        assert_eq!(block_ack_airtime(LegacyRate::M24), Duration::micros(32));
    }

    #[test]
    fn legacy_airtime_monotone_in_length() {
        let a = legacy_ppdu_airtime(10, LegacyRate::M12);
        let b = legacy_ppdu_airtime(100, LegacyRate::M12);
        let c = legacy_ppdu_airtime(1000, LegacyRate::M12);
        assert!(a < b && b < c);
    }

    #[test]
    fn faster_rate_shorter_airtime() {
        let slow = legacy_ppdu_airtime(200, LegacyRate::M6);
        let fast = legacy_ppdu_airtime(200, LegacyRate::M54);
        assert!(fast < slow);
    }

    #[test]
    fn contention_mean() {
        // 34 + 7·9 = 97 µs.
        assert_eq!(mean_contention_time(), Duration::micros(97));
    }
}
