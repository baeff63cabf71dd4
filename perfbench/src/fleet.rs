//! `fleet_hostile`: a contended two-client fleet under the hostile fault
//! plan on every link, over the ARQ and the fountain transports, traced
//! to JSONL in memory and summarised the way `witag-cli net --trace` and
//! `report` do; and the ledger of the fleet engine and the trace layer.

use std::time::Instant;

use witag_faults::FaultPlan;
use witag_net::{run_fleet, FleetConfig, FleetReport, SchedulerKind, Transport};
use witag_obs::{JsonlRecorder, NullRecorder, TraceSummary};
use witag_sim::time::Duration;

use crate::ledger::Ledger;
use crate::{Tally, Workload};

const TRANSPORTS: [Transport; 2] = [Transport::Arq, Transport::Fountain];

/// Fleet seeds per step, each run over both transports. Two make a step
/// of about 0.4 s and keep the tail percentile near p80.
const SEEDS_PER_STEP: usize = 2;

/// Steps over which the simulated metrics are computed: 64 fleets
/// (seeds), as only about 17 of the 200 tags deliver per transport, so
/// goodput varies a lot from one seed to the next.
pub(crate) const REFERENCE_STEPS: usize = 64 / SEEDS_PER_STEP;

/// Fleet seeds a run's steps go through, more than a run takes, so no
/// seed repeats: a step's cost varies with its seed, and the tail
/// percentile would otherwise rest on the few costliest seeds repeated.
const POOL: usize = 320;

/// Capacity reserved for a step's in-memory trace (runs write about
/// 1.3 MB), so peak RSS tracks the bytes written rather than where the
/// buffer's doublings land.
const TRACE_CAPACITY: usize = 4 << 20;

/// The committed `BENCH_net.json` transport row at intensity 1.0 (2
/// clients × `tags` tags, `fair`, hostile faults on every link), at
/// `seed`.
fn config(transport: Transport, tags: usize, horizon: Duration, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::inventory(2, tags, SchedulerKind::Fair, horizon, seed)
        .with_transport(transport);
    for (i, p) in cfg.profiles.iter_mut().enumerate() {
        p.faults = Some(FaultPlan::hostile(seed ^ i as u64));
    }
    cfg
}

fn full_config(transport: Transport, seed: u64) -> FleetConfig {
    config(transport, 100, Duration::secs(30), seed)
}

/// The small probe the other workloads' traced runs use.
fn probe_config(transport: Transport, seed: u64) -> FleetConfig {
    config(transport, 20, Duration::secs(10), seed)
}

/// One traced fleet run: the report, the trace bytes, its summary and
/// the host time the summary took.
struct TracedRun {
    report: FleetReport,
    trace: Vec<u8>,
    summary: TraceSummary,
    summary_s: f64,
}

/// Run the fleet into an in-memory JSONL trace and summarise it; the
/// trace's line count must equal the events the summary saw.
fn run_traced(cfg: &FleetConfig) -> Result<TracedRun, String> {
    let mut rec = JsonlRecorder::new(Vec::with_capacity(TRACE_CAPACITY));
    let report = run_fleet(cfg, &mut rec).map_err(|e| e.to_string())?;
    let lines = rec.lines();
    let trace = rec.finish().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let text = std::str::from_utf8(&trace).map_err(|e| e.to_string())?;
    let mut summary = TraceSummary::default();
    for line in text.lines() {
        summary.ingest_line(line);
    }
    let summary_s = t0.elapsed().as_secs_f64();
    if lines != summary.events() {
        return Err(format!(
            "{lines} trace lines, {} events summarised",
            summary.events()
        ));
    }
    Ok(TracedRun {
        report,
        trace,
        summary,
        summary_s,
    })
}

/// Check one run's report and tally it.
fn tally_report(cfg: &FleetConfig, rep: &FleetReport, t: &mut Tally) -> Result<(), String> {
    if rep.delivered() > cfg.profiles.len() {
        return Err(format!(
            "{} delivered of {} tags",
            rep.delivered(),
            cfg.profiles.len()
        ));
    }
    let rounds = rep.grants + rep.collisions;
    t.rounds += rounds;
    t.good_bits += rep
        .tags
        .iter()
        .filter(|o| o.delivered)
        .map(|o| o.message_bits)
        .sum::<u64>();
    t.sim_ns += rep.elapsed.as_nanos();
    t.streams += rounds;
    t.streams_hit += rep.grants;
    Ok(())
}

struct Fleet {
    seeds: Vec<u64>,
    next: usize,
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Fleet {
        seeds: crate::seed_pool(seed, POOL),
        next: 0,
    }))
}

impl Workload for Fleet {
    fn step(&mut self) -> Result<Tally, String> {
        let mut t = Tally::default();
        for _ in 0..SEEDS_PER_STEP {
            let seed = self.seeds[self.next % POOL];
            self.next += 1;
            for transport in TRANSPORTS {
                // Built here, not in set-up: the pool's configurations
                // would hold about 30 MB, and building one takes about
                // 10 µs.
                let cfg = full_config(transport, seed);
                let run = run_traced(&cfg)?;
                std::hint::black_box(run.summary.render());
                tally_report(&cfg, &run.report, &mut t)?;
            }
        }
        Ok(t)
    }
}

/// Ledger of the fleet engine and the trace layer. Each step runs both
/// transports untraced (timed) and traced (timed, summarised); the
/// reports must match. `obs.record_ms` is the traced minus the untraced
/// run time of a step, summarising excluded.
pub(crate) fn ledger(seed: u64, own: bool, led: &mut Ledger) {
    let steps = if own { 9 } else { 3 };
    let mut record_s = Vec::with_capacity(steps);
    let (mut rounds, mut collisions, mut delivered, mut trace_bytes) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..steps {
        let mut outcome = Ok(());
        let mut step_record_s = 0.0;
        for transport in TRANSPORTS {
            let cfg = if own {
                full_config(transport, seed)
            } else {
                probe_config(transport, seed)
            };
            let key = match transport {
                Transport::Arq => "net.fleet_arq",
                Transport::Fountain => "net.fleet_fountain",
            };
            let t0 = Instant::now();
            let plain = run_fleet(&cfg, &mut NullRecorder);
            let plain_s = t0.elapsed().as_secs_f64();
            led.push(key, plain_s);
            let t0 = Instant::now();
            let traced = run_traced(&cfg);
            let traced_s = t0.elapsed().as_secs_f64();
            if let Ok(run) = &traced {
                led.push("obs.report", run.summary_s);
                step_record_s += traced_s - run.summary_s - plain_s;
            }
            let run = match (plain, traced) {
                (Ok(a), Ok(run)) if a == run.report => Ok((a, run)),
                (Ok(_), Ok(_)) => Err("traced report differs from the untraced one".to_string()),
                (Err(e), _) => Err(e.to_string()),
                (_, Err(e)) => Err(e),
            };
            outcome = outcome.and(run.and_then(|(rep, run)| {
                rounds += rep.grants + rep.collisions;
                collisions += rep.collisions;
                delivered += rep.delivered() as u64;
                trace_bytes += run.trace.len() as u64;
                tally_report(&cfg, &rep, &mut Tally::default())
            }));
        }
        record_s.push(step_record_s);
        led.check("fleet step", outcome);
    }
    led.set("obs.record_ms", crate::median(&record_s) * 1e3);
    led.set(
        "obs.trace_bytes_per_round",
        trace_bytes as f64 / rounds.max(1) as f64,
    );
    led.set(
        "net.fleet.collision_rate",
        collisions as f64 / rounds.max(1) as f64,
    );
    led.set(
        "net.fleet.rounds_per_delivered",
        rounds as f64 / delivered.max(1) as f64,
    );
}
