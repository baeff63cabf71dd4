//! OFDM numerology and 802.11 timing constants.
//!
//! The reproduction models the 802.11n/ac OFDM PHY in the frequency
//! domain: a transmitted OFDM symbol is the vector of constellation points
//! on the occupied subcarriers (data + pilots); the channel multiplies each
//! subcarrier by a complex coefficient. The numbers here are from IEEE
//! 802.11-2016 clause 19 (HT) and 21 (VHT).

use std::sync::LazyLock;
use witag_sim::time::Duration;

/// Channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 20 MHz: 56 occupied subcarriers (52 data + 4 pilots) in HT format.
    Mhz20,
    /// 40 MHz: 114 occupied subcarriers (108 data + 6 pilots).
    Mhz40,
    /// 80 MHz (VHT): 242 occupied subcarriers (234 data + 8 pilots).
    Mhz80,
}

impl Bandwidth {
    /// Number of data subcarriers per OFDM symbol (HT/VHT format).
    pub const fn data_subcarriers(self) -> usize {
        match self {
            Bandwidth::Mhz20 => 52,
            Bandwidth::Mhz40 => 108,
            Bandwidth::Mhz80 => 234,
        }
    }

    /// Number of pilot subcarriers per OFDM symbol.
    pub const fn pilot_subcarriers(self) -> usize {
        match self {
            Bandwidth::Mhz20 => 4,
            Bandwidth::Mhz40 => 6,
            Bandwidth::Mhz80 => 8,
        }
    }

    /// Total occupied subcarriers.
    pub const fn occupied_subcarriers(self) -> usize {
        self.data_subcarriers() + self.pilot_subcarriers()
    }

    /// Nominal bandwidth in Hz.
    pub const fn hertz(self) -> u64 {
        match self {
            Bandwidth::Mhz20 => 20_000_000,
            Bandwidth::Mhz40 => 40_000_000,
            Bandwidth::Mhz80 => 80_000_000,
        }
    }
}

/// OFDM guard-interval length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardInterval {
    /// 800 ns guard: 4.0 µs symbols.
    Long,
    /// 400 ns guard: 3.6 µs symbols.
    Short,
}

impl GuardInterval {
    /// Full OFDM symbol duration (3.2 µs IDFT period + guard).
    pub const fn symbol_duration(self) -> Duration {
        match self {
            GuardInterval::Long => Duration::nanos(4_000),
            GuardInterval::Short => Duration::nanos(3_600),
        }
    }
}

/// 802.11 interframe spacing and slot timing for the 2.4 GHz OFDM PHY
/// (802.11n values; 5 GHz uses SIFS 16 µs as well).
pub mod timing {
    use witag_sim::time::Duration;

    /// Short interframe space.
    pub const SIFS: Duration = Duration::micros(16);
    /// Slot time.
    pub const SLOT: Duration = Duration::micros(9);
    /// DCF interframe space: SIFS + 2 slots.
    pub const DIFS: Duration = Duration::micros(16 + 2 * 9);
    /// Minimum contention window (CWmin), in slots, for best-effort.
    pub const CW_MIN: u32 = 15;
    /// Maximum contention window (CWmax), in slots.
    pub const CW_MAX: u32 = 1023;
    /// Legacy (non-HT duplicate) preamble: L-STF 8 + L-LTF 8 + L-SIG 4.
    pub const LEGACY_PREAMBLE: Duration = Duration::micros(20);
    /// HT-mixed preamble additions: HT-SIG 8 + HT-STF 4 (HT-LTFs added
    /// per-stream on top of this).
    pub const HT_SIG_STF: Duration = Duration::micros(12);
    /// One HT-LTF (4 µs); one per spatial stream (1, 2, or 4 LTFs).
    pub const HT_LTF: Duration = Duration::micros(4);
}

/// Number of HT long training fields for a given spatial-stream count
/// (per 802.11-2016 Table 19-12: 1→1, 2→2, 3→4, 4→4).
pub const fn ht_ltf_count(spatial_streams: usize) -> usize {
    match spatial_streams {
        1 => 1,
        2 => 2,
        3 | 4 => 4,
        // Structurally infallible at runtime: every caller passes
        // `Mcs::spatial_streams`, which is constructed in 1..=4; keeping
        // the const-evaluable panic turns a violated precondition into a
        // compile-time error for const callers.
        _ => panic!("802.11n supports 1..=4 spatial streams"), // lint:allow(panic_freedom)
    }
}

/// HT mixed-format preamble duration for the given stream count.
pub fn ht_preamble_duration(spatial_streams: usize) -> Duration {
    timing::LEGACY_PREAMBLE
        + timing::HT_SIG_STF
        + timing::HT_LTF * (ht_ltf_count(spatial_streams) as u64)
}

/// Maximum number of MPDUs reported by one block ACK bitmap (and so the
/// maximum useful A-MPDU aggregation for WiTAG): 64.
pub const MAX_AMPDU_SUBFRAMES: usize = 64;

/// Physical layout of occupied subcarriers for one bandwidth.
///
/// Indexing convention: position `i` in every per-symbol vector (channel
/// coefficients, constellation points) corresponds to logical subcarrier
/// `index()[i]`, i.e. subcarriers are stored in ascending frequency order
/// with DC omitted. `data_positions` / `pilot_positions` partition the
/// occupied set.
#[derive(Debug, Clone)]
pub struct SubcarrierLayout {
    /// Baseband frequency (Hz) of each occupied subcarrier in storage
    /// order: its signed index (…, −2, −1, 1, 2, …) times the 312.5 kHz
    /// subcarrier spacing.
    freq_offsets_hz: Vec<f64>,
    /// Storage positions that carry data.
    data_positions: Vec<usize>,
    /// Storage positions that carry pilots.
    pilot_positions: Vec<usize>,
}

// Backing stores for [`SubcarrierLayout::cached`]. Initialised at most
// once per process; the builder only ever runs from these initialisers
// (and from tests exercising it directly), never on a decode path.
static LAYOUT_20: LazyLock<SubcarrierLayout> = LazyLock::new(|| SubcarrierLayout::new(Bandwidth::Mhz20));
static LAYOUT_40: LazyLock<SubcarrierLayout> = LazyLock::new(|| SubcarrierLayout::new(Bandwidth::Mhz40));
static LAYOUT_80: LazyLock<SubcarrierLayout> = LazyLock::new(|| SubcarrierLayout::new(Bandwidth::Mhz80));

impl SubcarrierLayout {
    /// Layout for the given bandwidth (HT/VHT tone plans).
    pub fn new(bw: Bandwidth) -> Self {
        // (edge index, lowest occupied |index|, pilot tones): 40/80 MHz
        // null the three centre tones (−1, 0, +1), 20 MHz only DC.
        let (range, inner, pilots): (i32, i32, &[i32]) = match bw {
            Bandwidth::Mhz20 => (28, 1, &[-21, -7, 7, 21]),
            Bandwidth::Mhz40 => (58, 2, &[-53, -25, -11, 11, 25, 53]),
            Bandwidth::Mhz80 => (122, 2, &[-103, -75, -39, -11, 11, 39, 75, 103]),
        };
        let indices: Vec<i32> = (-range..=range).filter(|&k| k.abs() >= inner).collect();
        let mut data_positions = Vec::new();
        let mut pilot_positions = Vec::new();
        for (pos, &k) in indices.iter().enumerate() {
            if pilots.contains(&k) {
                pilot_positions.push(pos);
            } else {
                data_positions.push(pos);
            }
        }
        SubcarrierLayout {
            freq_offsets_hz: indices.iter().map(|&k| k as f64 * 312_500.0).collect(),
            data_positions,
            pilot_positions,
        }
    }

    /// Process-lifetime cached layout for the given bandwidth. The tone
    /// plans are compile-time constants; the receive chain used to rebuild
    /// the three position vectors on every decode, which showed up as the
    /// dominant allocation under `lint:no_alloc` transitive analysis.
    pub fn cached(bw: Bandwidth) -> &'static SubcarrierLayout {
        match bw {
            Bandwidth::Mhz20 => &LAYOUT_20,
            Bandwidth::Mhz40 => &LAYOUT_40,
            Bandwidth::Mhz80 => &LAYOUT_80,
        }
    }

    /// Number of occupied subcarriers.
    pub fn n_occupied(&self) -> usize {
        self.freq_offsets_hz.len()
    }

    /// Storage positions carrying data.
    pub fn data_positions(&self) -> &[usize] {
        &self.data_positions
    }

    /// Storage positions carrying pilots.
    pub fn pilot_positions(&self) -> &[usize] {
        &self.pilot_positions
    }

    /// Baseband frequency offset (Hz) of every occupied subcarrier, in
    /// storage order. The multipath model evaluates its per-tone phase
    /// rotations `e^{−j2π f τ}` on this grid.
    pub fn freq_offsets_hz(&self) -> &[f64] {
        &self.freq_offsets_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_counts_match_standard() {
        assert_eq!(Bandwidth::Mhz20.data_subcarriers(), 52);
        assert_eq!(Bandwidth::Mhz20.occupied_subcarriers(), 56);
        assert_eq!(Bandwidth::Mhz40.data_subcarriers(), 108);
        assert_eq!(Bandwidth::Mhz40.occupied_subcarriers(), 114);
        assert_eq!(Bandwidth::Mhz80.data_subcarriers(), 234);
        assert_eq!(Bandwidth::Mhz80.occupied_subcarriers(), 242);
    }

    #[test]
    fn symbol_durations() {
        assert_eq!(GuardInterval::Long.symbol_duration(), Duration::micros(4));
        assert_eq!(GuardInterval::Short.symbol_duration(), Duration::nanos(3600));
    }

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(timing::DIFS, timing::SIFS + timing::SLOT * 2);
    }

    #[test]
    fn preamble_durations() {
        // 1 stream: 20 + 12 + 4 = 36 µs — the usual 802.11n figure.
        assert_eq!(ht_preamble_duration(1), Duration::micros(36));
        // 3 streams (paper's 3x3:3 adapter): 20 + 12 + 16 = 48 µs.
        assert_eq!(ht_preamble_duration(3), Duration::micros(48));
    }

    #[test]
    fn layout_counts_match_bandwidth_tables() {
        for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80] {
            let l = SubcarrierLayout::new(bw);
            assert_eq!(l.n_occupied(), bw.occupied_subcarriers(), "{bw:?}");
            assert_eq!(l.data_positions().len(), bw.data_subcarriers(), "{bw:?}");
            assert_eq!(l.pilot_positions().len(), bw.pilot_subcarriers(), "{bw:?}");
        }
    }

    #[test]
    fn layout_partition_is_disjoint_and_total() {
        let l = SubcarrierLayout::new(Bandwidth::Mhz20);
        let mut all: Vec<usize> = l
            .data_positions()
            .iter()
            .chain(l.pilot_positions().iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..l.n_occupied()).collect::<Vec<_>>());
    }

    #[test]
    fn freq_offsets_symmetric_and_skip_dc() {
        let l = SubcarrierLayout::new(Bandwidth::Mhz20);
        let f = l.freq_offsets_hz();
        let (lo, hi) = (f[0], f[f.len() - 1]);
        assert!((lo + hi).abs() < 1e-9, "edges must be symmetric");
        assert!((hi - 28.0 * 312_500.0).abs() < 1e-9);
        for &x in f {
            assert!(x.abs() >= 312_500.0 - 1e-9, "DC must be skipped");
        }
    }

    #[test]
    fn ltf_counts() {
        assert_eq!(ht_ltf_count(1), 1);
        assert_eq!(ht_ltf_count(2), 2);
        assert_eq!(ht_ltf_count(3), 4);
        assert_eq!(ht_ltf_count(4), 4);
    }
}
