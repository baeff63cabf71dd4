//! Integration tests pinning the paper's headline claims, end-to-end
//! across every crate. These are the "does the reproduction actually
//! reproduce" tests; the per-figure numbers live in the bench binaries.

use witag::experiment::{Experiment, ExperimentConfig, SecurityMode};
use witag_obs::NullRecorder;
use witag_tag::device::BitEncoding;
use witag_tag::oscillator::Oscillator;

fn quiet(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.link.interference_rate_hz = 0.0;
    cfg
}

/// §6.2 / Figure 5: the tag communicates at every position between the
/// client and the AP, and the midpoint is the worst position.
#[test]
fn figure5_u_shape() {
    let ber_at = |dist: f64| {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(dist, 51))).unwrap();
        exp.run(60, &mut NullRecorder).ber()
    };
    let near = ber_at(1.0);
    let mid = ber_at(4.0);
    let far = ber_at(7.0);
    assert!(near < 0.05, "near-client BER {near}");
    assert!(far < 0.05, "near-AP BER {far}");
    assert!(
        mid >= near.max(far),
        "midpoint ({mid}) must be the worst position ({near}/{far})"
    );
}

/// §6.2 / Figure 5: throughput stays in the tens of Kbps at every
/// position (paper: 39–40 Kbps).
#[test]
fn figure5_throughput_stability() {
    for dist in [1.0, 4.0, 7.0] {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(dist, 52))).unwrap();
        let kbps = exp.run(40, &mut NullRecorder).throughput_kbps();
        assert!(
            (30.0..60.0).contains(&kbps),
            "throughput {kbps} Kbps at {dist} m out of band"
        );
    }
}

/// §6.2 / Figure 6: both NLOS locations work; B (further, more walls) is
/// no better than A.
#[test]
fn figure6_nlos_ordering() {
    let mut a = Experiment::new(ExperimentConfig::nlos_a(53)).unwrap();
    let mut b = Experiment::new(ExperimentConfig::nlos_b(53)).unwrap();
    let sa = a.run_windows(8, 25);
    let sb = b.run_windows(8, 25);
    assert!(sa.ber() < 0.05, "location A BER {}", sa.ber());
    assert!(sb.ber() < 0.05, "location B BER {}", sb.ber());
    // B's link budget is worse, so B must not be *clearly better* than A.
    // (The strict ordering holds in expectation — the fig6 binary shows it
    // over 60 windows — but 8 windows of 1,550 bits carry sampling noise,
    // so the unit test only rejects a reversed gap beyond noise.)
    assert!(
        sb.ber() + 0.004 >= sa.ber(),
        "B ({}) must not clearly beat A ({})",
        sb.ber(),
        sa.ber()
    );
}

/// §1/§4: encryption is irrelevant to WiTAG — same BER on open, WEP and
/// WPA2 networks, and the AP decrypts every surviving subframe.
#[test]
fn encryption_equivalence() {
    let mut bers = Vec::new();
    for mode in [SecurityMode::Open, SecurityMode::Wep, SecurityMode::Wpa2] {
        let mut cfg = quiet(ExperimentConfig::fig5(1.0, 54));
        cfg.security = mode;
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(30, &mut NullRecorder);
        assert_eq!(exp.decrypt_failures, 0, "{mode:?}: surviving frames must decrypt");
        bers.push(stats.ber());
    }
    // Identical seeds and identical channel draws -> identical outcomes.
    assert_eq!(bers[0], bers[1]);
    assert_eq!(bers[1], bers[2]);
}

/// §5.2 / Figure 3: phase flipping outperforms on-off keying at the
/// worst (midpoint) position — the doubled channel displacement converts
/// directly into corruption reliability.
#[test]
fn phase_flip_beats_ook() {
    let ber_with = |encoding: BitEncoding| {
        let mut cfg = quiet(ExperimentConfig::fig5(4.0, 55));
        cfg.encoding = encoding;
        let mut exp = Experiment::new(cfg).unwrap();
        exp.run(60, &mut NullRecorder).ber()
    };
    let flip = ber_with(BitEncoding::PhaseFlip);
    let ook = ber_with(BitEncoding::OnOffKeying);
    assert!(
        flip < ook,
        "phase flip ({flip}) must beat on-off keying ({ook}) at the midpoint"
    );
}

/// §7 footnote 4: a ring-oscillator tag fails once the temperature moves
/// a few degrees; the crystal tag does not care.
#[test]
fn ring_oscillator_temperature_failure() {
    let ber_with = |clock: Oscillator, dt: f64| {
        let mut cfg = quiet(ExperimentConfig::fig5(1.0, 56));
        cfg.clock = clock;
        cfg.temperature_delta = dt;
        let mut exp = Experiment::new(cfg).unwrap();
        exp.run(25, &mut NullRecorder).ber()
    };
    let crystal_hot = ber_with(Oscillator::Crystal { freq_hz: 250e3 }, 20.0);
    let ring_hot = ber_with(Oscillator::Ring { freq_hz: 250e3 }, 20.0);
    assert!(crystal_hot < 0.05, "crystal at +20C: BER {crystal_hot}");
    assert!(ring_hot > 0.2, "ring at +20C must collapse: BER {ring_hot}");
}

/// §4: the AP and client are complete stock models — the experiment's AP
/// path runs only standard receive/deaggregate/block-ACK code, and the
/// tag never prevents an idle network from functioning (all-ones = no
/// interference with the query itself).
#[test]
fn idle_tag_is_invisible() {
    let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 57))).unwrap();
    let n = exp.design.bits_per_query();
    // Tag sends all 1s = never reflects differently = every subframe
    // delivered.
    let r = exp.run_round(&vec![1u8; n]);
    assert_eq!(r.errors.errors(), 0, "an idle tag must not corrupt anything");
    assert_eq!(r.readout.bits, vec![1u8; n]);
}

/// Determinism: the whole stack is reproducible from the master seed.
#[test]
fn experiments_are_deterministic() {
    let run = || {
        let mut exp = Experiment::new(ExperimentConfig::fig5(3.0, 58)).unwrap();
        let stats = exp.run(20, &mut NullRecorder);
        (stats.errors.false_zeros, stats.errors.false_ones, stats.elapsed)
    };
    assert_eq!(run(), run());
}

/// MOXcatter's headline observation (and the reason WiTAG needs per-frame
/// scheduling rather than per-stream): a single reflecting tag perturbs
/// the whole channel *matrix*, so modulating during a spatially
/// multiplexed A-MPDU corrupts the block-ACK bitmaps of **multiple**
/// streams at once — the tag cannot surgically target one stream.
#[test]
fn moxcatter_single_tag_corrupts_multiple_streams() {
    use witag::moxcatter::{run_point, MoxConfig};
    use witag_obs::NullRecorder;

    let cfg = MoxConfig::default();
    assert_eq!(cfg.streams, 2);
    let point = run_point(0, 1.0, &cfg, &mut NullRecorder);
    assert!(
        point.streams_hit() >= 2,
        "tag near the client must corrupt both multiplexed streams, hit {}/{}",
        point.streams_hit(),
        cfg.streams
    );
    // Attribution is tag-only by construction (idle twin shares the
    // seed): a popcount change is a bitmap change, so it must imply the
    // hit flag (a hit with equal counts — same popcount, different
    // bits — is also legitimate).
    for s in &point.streams {
        assert!(
            s.acked == s.acked_idle || s.hit,
            "acked count changed without a hit flag"
        );
    }
}
