//! The headline robustness claim: under the default hostile fault plan
//! the selective-repeat session delivers a 1 KiB message CRC-clean
//! where the stop-and-wait baseline fails outright or burns at least
//! twice the rounds. Everything here is deterministic — same seeds,
//! same plans, same outcomes on every run.

mod common;

use common::{test_message, SyntheticChannel};
use witag::tagnet::{
    deliver, run_session, SessionConfig, SessionOutcome,
};
use witag_faults::FaultPlan;

const CHANNEL_BITS: usize = 62;
const KIB: usize = 1024;

/// Shared round budget for the hostile comparison.
const BUDGET: usize = 8192;

fn hostile_session(message: &[u8], seed: u64) -> witag::tagnet::SessionReport {
    let mut ch = SyntheticChannel::new(FaultPlan::hostile(seed), CHANNEL_BITS);
    let cfg = SessionConfig {
        max_rounds: BUDGET,
        window: 8,
        max_diversity: 4,
    };
    run_session(message, CHANNEL_BITS, &cfg, |_q, tx| ch.round(tx)).expect("valid session setup")
}

/// Stop-and-wait over the same synthetic hostile channel. A lost block
/// ACK (or query) yields an all-ones "no information" readout, exactly
/// what the real stack hands the baseline.
fn hostile_stop_and_wait(message: &[u8], seed: u64) -> Option<(Vec<u8>, usize)> {
    let mut ch = SyntheticChannel::new(FaultPlan::hostile(seed), CHANNEL_BITS);
    deliver(message, CHANNEL_BITS, BUDGET, |tx| {
        ch.round(tx)
            .readout
            .unwrap_or_else(|| vec![1u8; CHANNEL_BITS])
    })
}

#[test]
fn session_delivers_1kib_where_stop_and_wait_cannot() {
    let message = test_message(KIB, 0xA11CE);
    let report = hostile_session(&message, 1234);
    let delivered = match &report.outcome {
        SessionOutcome::Delivered(bytes) => bytes,
        other => panic!("session must deliver under hostile faults, got {other:?} ({:?})", report.stats),
    };
    assert_eq!(delivered, &message, "delivery must be CRC-clean and exact");

    let baseline = hostile_stop_and_wait(&message, 1234);
    eprintln!(
        "session: {:?} goodput {:.3}; stop-and-wait: {:?}",
        report.stats,
        report.stats.goodput_ratio(),
        baseline.as_ref().map(|(_, q)| q)
    );
    match &baseline {
        None => {
            // Stop-and-wait exhausted the same budget without the
            // message: the session's resilience is the difference.
            assert!(
                report.stats.rounds < BUDGET,
                "session must finish inside the budget: {:?}",
                report.stats
            );
        }
        Some((bytes, queries)) => {
            assert_eq!(bytes, &message);
            assert!(
                *queries >= 2 * report.stats.rounds,
                "stop-and-wait must need >=2x the rounds: baseline {queries} vs session {}",
                report.stats.rounds
            );
        }
    }
}

#[test]
fn hostile_comparison_is_deterministic() {
    let message = test_message(256, 77);
    let a = hostile_session(&message, 42);
    let b = hostile_session(&message, 42);
    assert_eq!(a, b, "same plan + seed must reproduce bit-identically");
    let ba = hostile_stop_and_wait(&message, 42);
    let bb = hostile_stop_and_wait(&message, 42);
    assert_eq!(ba, bb);
}
