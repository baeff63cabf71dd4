//! Fleet-layer determinism and fairness gates.
//!
//! Pins the witag-net contract the acceptance criteria name: same seed
//! → byte-identical `net.*` trace and identical aggregate stats at any
//! thread count; different seed → different run; and the airtime-fair
//! scheduler bounds the share an adversarially expensive tag can take
//! while round-robin lets it hog the medium.

use witag_faults::FaultPlan;
use witag_net::{
    run_fleet, run_metro, run_replicas, FleetConfig, MetroConfig, SchedulerKind, Transport,
};
use witag_obs::{BufferRecorder, NullRecorder};
use witag_sim::time::Duration;

/// Serialise a buffered event stream exactly as the JSONL writer would,
/// so "byte-identical trace" means bytes, not structural equality.
fn trace_bytes(buf: &BufferRecorder) -> String {
    let mut out = String::new();
    for e in buf.events() {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// A contended fleet with hostile fault plans on alternating links —
/// enough moving parts (fault RNG, collision corruption, cooldowns)
/// that any nondeterminism would show.
fn hostile_fleet(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::inventory(2, 8, SchedulerKind::Fair, Duration::millis(1500), seed);
    for (i, p) in cfg.profiles.iter_mut().enumerate() {
        if i % 2 == 0 {
            p.faults = Some(FaultPlan::hostile_scaled(seed ^ i as u64, 0.5));
        }
    }
    cfg
}

#[test]
fn replica_traces_are_byte_identical_across_thread_counts() {
    let cfg = hostile_fleet(7);
    let mut one = BufferRecorder::new();
    let mut four = BufferRecorder::new();
    let reports_one = run_replicas(&cfg, 3, 1, &mut one).expect("valid fleet");
    let reports_four = run_replicas(&cfg, 3, 4, &mut four).expect("valid fleet");
    assert_eq!(
        reports_one, reports_four,
        "aggregate stats must not depend on threads"
    );
    assert_eq!(
        trace_bytes(&one),
        trace_bytes(&four),
        "traces must be byte-identical"
    );
    assert!(!one.events().is_empty());
}

#[test]
fn different_seeds_give_different_runs() {
    let mut a = BufferRecorder::new();
    let mut b = BufferRecorder::new();
    let ra = run_replicas(&hostile_fleet(7), 2, 2, &mut a).expect("valid fleet");
    let rb = run_replicas(&hostile_fleet(8), 2, 2, &mut b).expect("valid fleet");
    assert_ne!(trace_bytes(&a), trace_bytes(&b), "seed must matter");
    assert_ne!(ra, rb);
}

#[test]
fn hundred_tag_fair_inventory_is_deterministic_and_complete() {
    // The acceptance-criteria fleet: 100 tags under `fair` must finish a
    // full inventory read, identically at 1 and 4 threads.
    let cfg = FleetConfig::inventory(2, 100, SchedulerKind::Fair, Duration::secs(30), 42);
    let mut one = BufferRecorder::new();
    let mut four = BufferRecorder::new();
    let a = run_replicas(&cfg, 1, 1, &mut one).expect("valid fleet");
    let b = run_replicas(&cfg, 1, 4, &mut four).expect("valid fleet");
    assert_eq!(a, b);
    assert_eq!(trace_bytes(&one), trace_bytes(&four));
    let rep = &a[0];
    assert_eq!(rep.delivered(), 100, "full inventory must complete");
    assert!(rep.elapsed < cfg.horizon, "must finish before the horizon");
    assert!(rep.latency_percentile(50.0).is_some());
    assert!(rep.latency_percentile(99.0).is_some());
    let shares = rep.airtime_shares();
    assert_eq!(shares.len(), 100);
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

/// One client, four tags, tag 0 with 8× the per-round airtime and a
/// message too long for anyone to finish inside the horizon — a pure
/// airtime-share contest.
fn starvation_fleet(kind: SchedulerKind) -> FleetConfig {
    let mut cfg = FleetConfig::inventory(1, 4, kind, Duration::secs(2), 99);
    for (i, p) in cfg.profiles.iter_mut().enumerate() {
        p.subframe_bytes = if i == 0 { 48 * 8 } else { 48 };
        p.channel_bits = 56;
        p.message = vec![0xA5; 1200];
    }
    cfg
}

#[test]
fn airtime_fair_bounds_the_adversarial_fast_tag() {
    let rep =
        run_fleet(&starvation_fleet(SchedulerKind::Fair), &mut NullRecorder).expect("valid fleet");
    let shares = rep.airtime_shares();
    assert!(
        shares[0] <= 0.40,
        "fair must cap the 8x tag: shares {shares:?}"
    );
    for (tag, &s) in shares.iter().enumerate() {
        assert!(
            s >= 0.15,
            "fair must not starve tag {tag}: shares {shares:?}"
        );
    }
}

#[test]
fn fountain_replica_traces_are_byte_identical_across_thread_counts() {
    // The rateless transport adds per-link decoder state (esi belief,
    // placement, repair) on top of the fault machinery — all of it must
    // still replay byte-identically at any worker count.
    let cfg = hostile_fleet(11).with_transport(Transport::Fountain);
    let mut one = BufferRecorder::new();
    let mut four = BufferRecorder::new();
    let a = run_replicas(&cfg, 3, 1, &mut one).expect("valid fleet");
    let b = run_replicas(&cfg, 3, 4, &mut four).expect("valid fleet");
    assert_eq!(a, b, "fountain aggregate stats must not depend on threads");
    assert_eq!(trace_bytes(&one), trace_bytes(&four));
    assert!(!one.events().is_empty());
}

#[test]
fn fountain_hundred_tag_inventory_is_deterministic_and_complete() {
    // Clean-channel mirror of the ARQ completeness gate: a systematic
    // fountain session costs exactly k symbol rounds per tag, so the
    // full 100-tag inventory must still finish inside the horizon.
    let cfg = FleetConfig::inventory(2, 100, SchedulerKind::Fair, Duration::secs(30), 42)
        .with_transport(Transport::Fountain);
    let mut one = BufferRecorder::new();
    let mut four = BufferRecorder::new();
    let a = run_replicas(&cfg, 1, 1, &mut one).expect("valid fleet");
    let b = run_replicas(&cfg, 1, 4, &mut four).expect("valid fleet");
    assert_eq!(a, b);
    assert_eq!(trace_bytes(&one), trace_bytes(&four));
    assert_eq!(a[0].delivered(), 100, "full inventory must complete");
    assert!(a[0].elapsed < cfg.horizon);
}

#[test]
fn fountain_beats_arq_on_the_hostile_loaded_fleet() {
    // The PR-6 acceptance condition, pinned: under the stock PR-1
    // hostile fault plan on every link of a 100-tag loaded fleet, the
    // fountain transport delivers at least the ARQ stack's payload
    // count with lower p99 latency. Mirrors the perf_gate intensity-1.0
    // rows in BENCH_net.json.
    let run = |transport: Transport| {
        let mut cfg = FleetConfig::inventory(2, 100, SchedulerKind::Fair, Duration::secs(30), 0xBE)
            .with_transport(transport);
        for (i, p) in cfg.profiles.iter_mut().enumerate() {
            p.faults = Some(FaultPlan::hostile(0xBE ^ i as u64));
        }
        run_fleet(&cfg, &mut NullRecorder).expect("viable fleet")
    };
    let arq = run(Transport::Arq);
    let fount = run(Transport::Fountain);
    assert!(
        fount.delivered() >= arq.delivered(),
        "fountain must deliver at least ARQ's count: {} vs {}",
        fount.delivered(),
        arq.delivered()
    );
    let arq_p99 = arq
        .latency_percentile(99.0)
        .expect("arq delivered something");
    let fount_p99 = fount
        .latency_percentile(99.0)
        .expect("fountain delivered something");
    assert!(
        fount_p99 < arq_p99,
        "fountain p99 must beat ARQ: {fount_p99:.0}us vs {arq_p99:.0}us"
    );
}

#[test]
fn pred_policy_is_deterministic_and_completes_the_inventory() {
    // The traffic-predictive policy folds an EWMA + Markov busy model
    // into every medium-access decision; its deferrals must replay
    // byte-identically across thread counts and must not cost delivery
    // on the standard inventory fleet.
    let cfg = hostile_fleet(13);
    let cfg = FleetConfig {
        scheduler: SchedulerKind::Pred,
        ..cfg
    };
    let mut one = BufferRecorder::new();
    let mut four = BufferRecorder::new();
    let a = run_replicas(&cfg, 2, 1, &mut one).expect("valid fleet");
    let b = run_replicas(&cfg, 2, 4, &mut four).expect("valid fleet");
    assert_eq!(a, b);
    assert_eq!(trace_bytes(&one), trace_bytes(&four));
    assert!(
        trace_bytes(&one).contains("\"kind\":\"net.predict\""),
        "pred policy must emit net.predict events"
    );
}

#[test]
fn ten_thousand_tag_metro_is_byte_identical_across_thread_counts() {
    // The metro-scale acceptance pin: a 10k-tag, 16-cell duty-cycled
    // metro on a single shared channel (so contention domains span
    // multiple cells and the hierarchical budget layer is live) must
    // produce byte-identical traces and identical reports at 1 and 4
    // threads.
    let mut cfg = MetroConfig::inventory(
        16,
        16,
        10_000,
        SchedulerKind::Fair,
        Duration::secs(60),
        0xA11CE,
    )
    .with_duty_cycle(Duration::secs(4), 0.08);
    cfg.channels = 1;
    let mut one = BufferRecorder::new();
    let mut four = BufferRecorder::new();
    let a = run_metro(&cfg, 1, &mut one).expect("valid metro");
    let b = run_metro(&cfg, 4, &mut four).expect("valid metro");
    assert_eq!(a, b, "metro reports must not depend on threads");
    assert_eq!(
        trace_bytes(&one),
        trace_bytes(&four),
        "metro traces must be byte-identical"
    );
    assert!(
        a.domains < a.cells,
        "single channel must merge cells into domains"
    );
    assert!(a.delivered > 0);
    let bytes = trace_bytes(&one);
    assert!(bytes.contains("\"kind\":\"net.cell_assign\""));
    assert!(bytes.contains("\"kind\":\"net.cell_epoch\""));
}

#[test]
fn round_robin_lets_the_heavy_tag_hog_the_medium() {
    // The counterpoint proving the starvation test has teeth: grant-fair
    // round robin hands the 8x tag the majority of the airtime.
    let rep =
        run_fleet(&starvation_fleet(SchedulerKind::Rr), &mut NullRecorder).expect("valid fleet");
    let shares = rep.airtime_shares();
    assert!(
        shares[0] >= 0.50,
        "rr should let the heavy tag dominate: shares {shares:?}"
    );
}
