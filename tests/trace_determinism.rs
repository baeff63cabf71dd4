//! Determinism contract of the observability layer: for a fixed seed and
//! fault plan, a JSONL trace from the parallel runner must be
//! **byte-identical** at every thread count (shard buffers are replayed
//! in shard order), and attaching a recorder must not perturb the
//! simulation results at all. Together with the perf-gate overhead
//! budget this is what makes `--trace` safe to leave on in CI.

use witag::experiment::{Experiment, ExperimentConfig, ExperimentStats, PARALLEL_SHARD_ROUNDS};
use witag::tagnet::{
    fountain_session_over_experiment, session_over_experiment, SessionConfig, SessionOutcome,
};
use witag_faults::FaultPlan;
use witag_net::{run_replicas, FleetConfig, SchedulerKind, Transport};
use witag_obs::{
    jsonl, BufferRecorder, JsonlRecorder, NullRecorder, Recorder, TraceSummary, SCHEMA,
};
use witag_sim::time::Duration;

fn quiet_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::fig5(1.0, seed);
    cfg.link.interference_rate_hz = 0.0;
    cfg
}

/// Run the parallel runner with an in-memory JSONL sink and return the
/// trace bytes plus the stats.
fn traced_parallel(
    cfg: &ExperimentConfig,
    plan: Option<&FaultPlan>,
    rounds: usize,
    threads: usize,
) -> (Vec<u8>, ExperimentStats) {
    let mut rec = JsonlRecorder::in_memory();
    let stats = Experiment::run_parallel(cfg, plan, rounds, threads, &mut rec).unwrap();
    (rec.finish().unwrap(), stats)
}

#[test]
fn parallel_trace_is_byte_identical_at_1_and_4_threads() {
    let cfg = quiet_cfg(41);
    let rounds = 3 * PARALLEL_SHARD_ROUNDS + 7; // ragged last shard
    let (bytes_1t, stats_1t) = traced_parallel(&cfg, None, rounds, 1);
    for threads in [2, 4] {
        let (bytes, stats) = traced_parallel(&cfg, None, rounds, threads);
        assert_eq!(stats.rounds, stats_1t.rounds);
        assert_eq!(
            bytes, bytes_1t,
            "trace bytes at threads={threads} must match threads=1"
        );
    }
    // The trace is non-trivial: a header plus shard markers plus three
    // events per executed round.
    let text = String::from_utf8(bytes_1t).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        format!("{{\"schema\":\"{SCHEMA}\"}}")
    );
    let shard_lines = text
        .lines()
        .filter(|l| jsonl::field_str(l, "kind") == Some("shard"))
        .count();
    assert_eq!(shard_lines, 4, "3 full shards + 1 ragged shard");
    let round_lines = text
        .lines()
        .filter(|l| jsonl::field_str(l, "kind") == Some("round"))
        .count();
    assert_eq!(round_lines, rounds);
}

#[test]
fn faulted_parallel_trace_is_byte_identical_at_1_and_4_threads() {
    let cfg = quiet_cfg(43);
    let plan = FaultPlan::hostile(17);
    let rounds = 2 * PARALLEL_SHARD_ROUNDS;
    let (bytes_1t, _) = traced_parallel(&cfg, Some(&plan), rounds, 1);
    let (bytes_4t, _) = traced_parallel(&cfg, Some(&plan), rounds, 4);
    assert_eq!(
        bytes_4t, bytes_1t,
        "faulted trace must be thread-count-invariant"
    );
    // The injected-fault events must actually appear, and their rounds
    // must be globally numbered (shard-rebased), not per-shard.
    let text = String::from_utf8(bytes_1t).unwrap();
    let fault_rounds: Vec<u64> = text
        .lines()
        .filter(|l| jsonl::field_str(l, "kind") == Some("fault"))
        .map(|l| jsonl::field_u64(l, "round").unwrap())
        .collect();
    assert!(!fault_rounds.is_empty(), "hostile plan must inject");
    assert!(
        fault_rounds
            .iter()
            .any(|&r| r >= PARALLEL_SHARD_ROUNDS as u64),
        "second shard's faults must carry rebased round stamps"
    );
}

#[test]
fn attaching_a_recorder_does_not_perturb_stats() {
    let cfg = quiet_cfg(47);
    let rounds = 2 * PARALLEL_SHARD_ROUNDS;
    let plain = Experiment::run_parallel(&cfg, None, rounds, 2, &mut NullRecorder).unwrap();
    let (_, traced) = traced_parallel(&cfg, None, rounds, 2);
    assert_eq!(traced.rounds, plain.rounds);
    assert_eq!(traced.errors.total, plain.errors.total);
    assert_eq!(traced.errors.errors(), plain.errors.errors());
    assert_eq!(traced.elapsed, plain.elapsed);

    // Serial path too: a run with a BufferRecorder must reproduce the
    // run with a NullRecorder exactly.
    let serial = {
        let mut exp = Experiment::new(cfg.clone()).unwrap();
        exp.run(rounds, &mut NullRecorder)
    };
    let buffered = {
        let mut exp = Experiment::new(cfg.clone()).unwrap();
        let mut buf = BufferRecorder::new();
        let stats = exp.run(rounds, &mut buf);
        assert!(!buf.events().is_empty());
        stats
    };
    assert_eq!(buffered.errors.total, serial.errors.total);
    assert_eq!(buffered.errors.errors(), serial.errors.errors());
    assert_eq!(buffered.elapsed, serial.elapsed);
}

#[test]
fn session_trace_is_reproducible_and_complete() {
    let run_once = || {
        let mut exp = Experiment::new(quiet_cfg(42)).unwrap();
        exp.attach_faults(FaultPlan::hostile_scaled(7, 0.6));
        let cfg = SessionConfig {
            max_rounds: 1500,
            ..SessionConfig::default()
        };
        let mut rec = JsonlRecorder::in_memory();
        let report = session_over_experiment(&mut exp, b"obs trace", &cfg, &mut rec).unwrap();
        (rec.finish().unwrap(), report)
    };
    let (bytes_a, report_a) = run_once();
    let (bytes_b, _) = run_once();
    assert_eq!(bytes_a, bytes_b, "same seed => same session trace bytes");
    assert!(matches!(report_a.outcome, SessionOutcome::Delivered(_)));

    let text = String::from_utf8(bytes_a).unwrap();
    let mut summary = TraceSummary::default();
    for line in text.lines() {
        summary.ingest_line(line);
    }
    assert_eq!(summary.schema(), Some(SCHEMA));
    assert_eq!(summary.unknown(), 0);
    assert_eq!(
        summary.count("session_done"),
        1,
        "exactly one terminal event"
    );
    assert_eq!(
        summary.count("session_query") as usize,
        report_a.stats.rounds,
        "one query event per session round (idle rounds included)"
    );
    assert!(
        summary.count("session_chunk") > 0,
        "chunks must be recorded"
    );
    // The driver's and the experiment's event streams interleave on one
    // shared recorder; both must be present.
    assert!(summary.count("phy_rx") > 0);
    assert!(summary.count("ba") > 0);
    assert!(summary.count("fault") > 0);
    let rendered = summary.render();
    assert!(rendered.contains("session_done"));
}

#[test]
fn fountain_session_trace_is_reproducible_and_counts_add_up() {
    let run_once = || {
        let mut exp = Experiment::new(quiet_cfg(42)).unwrap();
        exp.attach_faults(FaultPlan::hostile_scaled(7, 0.6));
        let mut rec = JsonlRecorder::in_memory();
        let report =
            fountain_session_over_experiment(&mut exp, b"obs trace", 4096, &mut rec).unwrap();
        (rec.finish().unwrap(), report)
    };
    let (bytes_a, report_a) = run_once();
    let (bytes_b, _) = run_once();
    assert_eq!(bytes_a, bytes_b, "same seed => same fountain trace bytes");
    assert!(matches!(report_a.outcome, SessionOutcome::Delivered(_)));

    let text = String::from_utf8(bytes_a).unwrap();
    let mut summary = TraceSummary::default();
    for line in text.lines() {
        summary.ingest_line(line);
    }
    assert_eq!(summary.schema(), Some(SCHEMA));
    assert_eq!(
        summary.unknown(),
        0,
        "every fountain kind must be known to the schema"
    );
    assert_eq!(summary.count("session_done"), 1);
    assert_eq!(
        summary.count("session_query") as usize,
        report_a.stats.rounds,
        "one query event per fountain round (idle rounds included)"
    );
    assert_eq!(
        summary.count("tagnet.symbol") as usize,
        report_a.stats.symbols,
        "one tagnet.symbol event per SYMBOL round"
    );
    let progress = summary.count("tagnet.decode_progress") as usize;
    assert!(progress > 0, "solves must be recorded");
    assert!(
        progress <= report_a.stats.accepted,
        "decode progress only on accepted rounds"
    );
}

#[test]
fn fountain_fleet_jsonl_is_byte_identical_at_1_and_4_threads() {
    // The full JSONL path (writer included) for a faulted fountain
    // fleet: replica shards must replay in shard order regardless of
    // worker count. The fleet layer speaks the net.* vocabulary (the
    // per-round tagnet.* kinds are session-driver events, pinned by
    // `fountain_session_trace_is_reproducible_and_counts_add_up`).
    let mut cfg = FleetConfig::inventory(2, 8, SchedulerKind::Fair, Duration::millis(1500), 23)
        .with_transport(Transport::Fountain);
    for (i, p) in cfg.profiles.iter_mut().enumerate() {
        if i % 2 == 0 {
            p.faults = Some(FaultPlan::hostile_scaled(23 ^ i as u64, 0.5));
        }
    }
    let run = |threads: usize| {
        let mut rec = JsonlRecorder::in_memory();
        let reports = run_replicas(&cfg, 3, threads, &mut rec).expect("valid fleet");
        (rec.finish().unwrap(), reports)
    };
    let (bytes_1t, reports_1t) = run(1);
    let (bytes_4t, reports_4t) = run(4);
    assert_eq!(reports_1t, reports_4t);
    assert_eq!(
        bytes_1t, bytes_4t,
        "fountain fleet JSONL must be thread-count-invariant"
    );
    let text = String::from_utf8(bytes_1t).unwrap();
    for kind in ["net.enqueue", "net.grant", "net.session_done"] {
        assert!(
            text.lines()
                .any(|l| jsonl::field_str(l, "kind") == Some(kind)),
            "fleet trace must carry {kind} events"
        );
    }
}

#[test]
fn null_recorder_reports_detached() {
    let mut rec = witag_obs::NullRecorder;
    assert!(!rec.enabled());
    // Recording into it is a no-op by contract; this is the zero-cost
    // default every un-instrumented caller gets.
    rec.record(&witag_obs::Event::SessionChunk { round: 0, chunk: 0 });
}
