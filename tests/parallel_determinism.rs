//! Determinism contract of the sharded parallel runner: for a fixed
//! configuration, `Experiment::run_parallel` must return bit-identical
//! statistics for **every** thread count — one worker, four workers, or
//! more workers than shards. This is what makes parallel sweeps safe to
//! check against golden numbers and safe to resume on machines with
//! different core counts.

use witag::experiment::{Experiment, ExperimentConfig, ExperimentStats, PARALLEL_SHARD_ROUNDS};
use witag_faults::FaultPlan;
use witag_obs::NullRecorder;

fn quiet_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::fig5(1.0, seed);
    cfg.link.interference_rate_hz = 0.0;
    cfg
}

fn fingerprint(s: &ExperimentStats) -> (usize, usize, usize, usize, u64, Vec<u64>) {
    (
        s.rounds,
        s.errors.total,
        s.missed_triggers,
        s.lost_block_acks,
        s.elapsed.as_nanos(),
        s.window_bers.samples().iter().map(|b| b.to_bits()).collect(),
    )
}

#[test]
fn parallel_stats_are_thread_count_invariant() {
    let cfg = quiet_cfg(41);
    let rounds = 3 * PARALLEL_SHARD_ROUNDS + 7; // force a ragged last shard
    let baseline = Experiment::run_parallel(&cfg, None, rounds, 1, &mut NullRecorder).unwrap();
    assert_eq!(baseline.rounds, rounds);
    for threads in [2, 4, 16] {
        let run = Experiment::run_parallel(&cfg, None, rounds, threads, &mut NullRecorder).unwrap();
        assert_eq!(
            fingerprint(&run),
            fingerprint(&baseline),
            "threads={threads} must be bit-identical to threads=1"
        );
    }
}

#[test]
fn parallel_stats_are_thread_count_invariant_under_faults() {
    // The fault path re-seeds the plan per shard from the same derived
    // stream, so hostile schedules must be invariant too.
    let cfg = quiet_cfg(43);
    let plan = FaultPlan::hostile(17);
    let rounds = 2 * PARALLEL_SHARD_ROUNDS;
    let baseline = Experiment::run_parallel(&cfg, Some(&plan), rounds, 1, &mut NullRecorder).unwrap();
    assert!(
        baseline.errors.errors() > 0,
        "a hostile plan must actually inject faults"
    );
    for threads in [3, 8] {
        let run = Experiment::run_parallel(&cfg, Some(&plan), rounds, threads, &mut NullRecorder).unwrap();
        assert_eq!(
            fingerprint(&run),
            fingerprint(&baseline),
            "faulted threads={threads} must match threads=1"
        );
    }
}

#[test]
fn shards_depend_on_master_seed() {
    // Different master seeds must produce different shard streams — the
    // derivation cannot collapse to a constant.
    let a = Experiment::run_parallel(&quiet_cfg(1), None, PARALLEL_SHARD_ROUNDS, 2, &mut NullRecorder).unwrap();
    let b = Experiment::run_parallel(&quiet_cfg(2), None, PARALLEL_SHARD_ROUNDS, 2, &mut NullRecorder).unwrap();
    assert_ne!(
        a.elapsed, b.elapsed,
        "different seeds must draw different backoffs/fading"
    );
}

#[test]
fn parallel_results_are_statistically_consistent_with_serial() {
    // Shards use derived seeds, so the parallel runner is a different —
    // but equally valid — sample of the same scenario. On a quiet
    // strong link both must see a clean channel.
    let cfg = quiet_cfg(47);
    let rounds = 2 * PARALLEL_SHARD_ROUNDS;
    let serial = {
        let mut exp = Experiment::new(cfg.clone()).unwrap();
        exp.run(rounds, &mut NullRecorder)
    };
    let parallel = Experiment::run_parallel(&cfg, None, rounds, 4, &mut NullRecorder).unwrap();
    assert_eq!(parallel.rounds, serial.rounds);
    assert!(serial.ber() < 0.02, "serial BER {}", serial.ber());
    assert!(parallel.ber() < 0.02, "parallel BER {}", parallel.ber());
    assert_eq!(parallel.window_bers.len(), 2, "one BER sample per shard");
}
