//! Property-based tests for the tag device: schedule correctness for
//! arbitrary bit patterns, trigger robustness, oscillator laws.

use proptest::prelude::*;
use witag_channel::TagMode;
use witag_phy::mcs::Mcs;
use witag_phy::ppdu::PhyConfig;
use witag_sim::time::{Duration, Instant};
use witag_tag::device::{BitEncoding, QueryProfile, Tag, TagConfig};
use witag_tag::envelope::{EnergyTrace, EnvelopeDetector};
use witag_tag::oscillator::Oscillator;
use witag_tag::trigger::TriggerSignature;

fn profile() -> QueryProfile {
    QueryProfile {
        signature: TriggerSignature::default_markers(),
        marker_gap: Duration::micros(24),
        preamble: Duration::micros(36),
        subframe: Duration::micros(20),
        n_subframes: 64,
        guard_subframes: 2,
        margin: Duration::micros(4),
    }
}

fn config() -> TagConfig {
    TagConfig {
        oscillator: Oscillator::Crystal { freq_hz: 250e3 },
        temperature_delta: 0.0,
        detector: EnvelopeDetector::default(),
        profile: profile(),
        encoding: BitEncoding::PhaseFlip,
    }
}

fn query_trace() -> (EnergyTrace, Instant) {
    let mut t = EnergyTrace::new();
    let mut now = 100u64;
    for d in [200u64, 100, 200] {
        t.push(
            Instant::from_micros(now),
            Instant::from_micros(now + d),
            -20.0,
        );
        now += d + 16;
    }
    let ppdu_start = Instant::from_micros(now - 16 + 24);
    t.push(
        ppdu_start,
        ppdu_start + Duration::micros(36 + 64 * 20),
        -20.0,
    );
    (t, ppdu_start)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For ANY bit pattern: each data subframe's interior symbols match
    /// the bit, boundary symbols and guards never flip for a 1-neighbour,
    /// and the LTF always sees the reference state.
    #[test]
    fn schedule_encodes_arbitrary_patterns(bits in proptest::collection::vec(0u8..=1, 62)) {
        let mut tag = Tag::new(config());
        tag.push_bits(&bits);
        let (trace, true_start) = query_trace();
        let plan = tag.respond(&trace).expect("trigger");
        prop_assert_eq!(&plan.bits, &bits);
        let phy = PhyConfig::new(Mcs::ht(5));
        let schedule = plan.to_tag_schedule(true_start, &phy, 64 * 5, TagMode::Phase0);
        prop_assert_eq!(schedule.ltf, TagMode::Phase0);
        // Guards clean.
        for s in 0..10 {
            prop_assert_eq!(schedule.data[s], TagMode::Phase0, "guard {}", s);
        }
        for (i, &bit) in bits.iter().enumerate() {
            let base = (2 + i) * 5;
            // Interior symbols carry the bit...
            for s in base + 1..base + 4 {
                let want = if bit == 0 { TagMode::Phase180 } else { TagMode::Phase0 };
                prop_assert_eq!(schedule.data[s], want, "subframe {} symbol {}", i, s);
            }
            // ...boundary symbols never flip when either neighbour is 1.
            let prev = if i == 0 { 1 } else { bits[i - 1] };
            if bit == 1 || prev == 1 {
                prop_assert_eq!(schedule.data[base], TagMode::Phase0, "lead boundary {}", i);
            }
            let next = bits.get(i + 1).copied().unwrap_or(1);
            if bit == 1 || next == 1 {
                prop_assert_eq!(schedule.data[base + 4], TagMode::Phase0, "tail boundary {}", i);
            }
        }
    }

    /// Consuming bits is exact: `bits_per_query` per answered query.
    #[test]
    fn queue_drains_exactly(extra in 0usize..200) {
        let mut tag = Tag::new(config());
        let total = 62 + extra;
        tag.push_bits(&vec![0u8; total]);
        let (trace, _) = query_trace();
        let _ = tag.respond(&trace).expect("trigger");
        prop_assert_eq!(tag.pending_bits(), extra);
    }

    /// Foreign traffic with arbitrary burst lengths != the signature must
    /// not trigger (no marker triple within tolerance).
    #[test]
    fn no_false_triggers_on_random_bursts(
        durations in proptest::collection::vec(5u64..2000, 3..12),
    ) {
        // Exclude sequences that genuinely contain the signature.
        let sig = [200u64, 100, 200];
        let contains = durations.windows(3).any(|w| {
            w.iter().zip(sig.iter()).all(|(&d, &s)| d.abs_diff(s) <= 4)
        });
        prop_assume!(!contains);
        let mut trace = EnergyTrace::new();
        let mut now = 50u64;
        for &d in &durations {
            trace.push(Instant::from_micros(now), Instant::from_micros(now + d), -20.0);
            now += d + 20;
        }
        let mut tag = Tag::new(config());
        tag.push_bits(&[0; 62]);
        prop_assert!(tag.respond(&trace).is_none());
    }

    /// Oscillator power law: strictly increasing in frequency for both
    /// families; crystals cross the 1 mW line in the MHz range.
    #[test]
    fn oscillator_power_monotone(f1 in 10e3f64..50e6, factor in 1.1f64..10.0) {
        let f2 = f1 * factor;
        // (Bound to locals first: prop_assert!'s message parser treats
        // struct-literal braces as format captures.)
        let (c1, c2) = (
            Oscillator::Crystal { freq_hz: f1 }.power_uw(),
            Oscillator::Crystal { freq_hz: f2 }.power_uw(),
        );
        let (r1, r2) = (
            Oscillator::Ring { freq_hz: f1 }.power_uw(),
            Oscillator::Ring { freq_hz: f2 }.power_uw(),
        );
        prop_assert!(c2 > c1);
        prop_assert!(r2 > r1);
    }

    /// Ring drift is linear in temperature and dwarfs crystal drift.
    #[test]
    fn ring_drift_dominates(dt in 1.0f64..40.0) {
        let ring = Oscillator::Ring { freq_hz: 20e6 };
        let xtal = Oscillator::Crystal { freq_hz: 20e6 };
        prop_assert!(ring.frequency_error(dt).abs() > 1000.0 * xtal.frequency_error(dt).abs());
        prop_assert!(ring.frequency_error(-dt) < 0.0);
    }
}
