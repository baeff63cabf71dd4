//! `metro_inventory`: a 10⁴-tag duty-cycled metro inventory under the
//! `fair` and `serial` policies on one worker, and the ledger of the
//! metro engine.

use std::io;

use witag_net::{run_metro, MetroConfig, MetroReport, SchedulerKind};
use witag_obs::{JsonlRecorder, NullRecorder, TraceSummary};
use witag_sim::time::Duration;

use crate::alloc;
use crate::ledger::Ledger;
use crate::{Tally, Workload};

/// One worker thread: the benchmark runs single-threaded.
const THREADS: usize = 1;

/// The committed 10⁴-tag `BENCH_net.json` metro row, at `seed`. A step
/// of the 10⁵-tag row takes over a second on a 2-vCPU VM, too few steps
/// in a run for the median to settle and for the tail to be a tail.
fn config(kind: SchedulerKind, seed: u64) -> MetroConfig {
    MetroConfig::inventory(16, 16, 10_000, kind, Duration::secs(60), seed)
        .with_duty_cycle(Duration::secs(4), 0.08)
}

/// The small probe the other workloads' traced runs use: the committed
/// 1000-tag row.
fn probe_config(kind: SchedulerKind, seed: u64) -> MetroConfig {
    MetroConfig::inventory(4, 4, 1000, kind, Duration::secs(60), seed)
        .with_duty_cycle(Duration::secs(4), 0.08)
}

const POLICIES: [SchedulerKind; 2] = [SchedulerKind::Fair, SchedulerKind::Serial];

/// Times a step runs the `fair` + `serial` pair. The runs are
/// deterministic, so a repeat does the same work again; two make a step
/// of about 0.4 s and keep the tail percentile near p80.
const PAIRS_PER_STEP: usize = 2;

struct Metro {
    configs: Vec<MetroConfig>,
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Metro {
        configs: POLICIES.iter().map(|&k| config(k, seed)).collect(),
    }))
}

/// Check one run's report and tally it.
fn tally_report(cfg: &MetroConfig, rep: &MetroReport, t: &mut Tally) -> Result<(), String> {
    if rep.delivered > cfg.tags {
        return Err(format!("{} delivered of {} tags", rep.delivered, cfg.tags));
    }
    let rounds = rep.grants + rep.collisions + rep.probe_rounds;
    t.rounds += rounds;
    t.good_bits += rep.delivered_bits;
    t.sim_ns += rep.elapsed.as_nanos();
    t.streams += rounds;
    t.streams_hit += rep.grants;
    Ok(())
}

impl Workload for Metro {
    fn step(&mut self) -> Result<Tally, String> {
        let mut t = Tally::default();
        for _ in 0..PAIRS_PER_STEP {
            for cfg in &self.configs {
                let rep = run_metro(cfg, THREADS, &mut NullRecorder).map_err(|e| e.to_string())?;
                tally_report(cfg, &rep, &mut t)?;
            }
        }
        Ok(t)
    }
}

/// A trace sink that folds each JSONL line into a [`TraceSummary`] as it
/// arrives, so a multi-million-line trace never sits in memory.
#[derive(Default)]
struct SummarySink {
    summary: TraceSummary,
    partial: Vec<u8>,
}

impl io::Write for SummarySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let line = std::str::from_utf8(&self.partial)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                self.summary.ingest_line(line);
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Ledger of the metro engine. Each policy runs untraced (timed,
/// allocations counted) and then traced into a summarising sink: the
/// reports must match and the trace's line count must equal the events
/// the summary saw.
pub(crate) fn ledger(seed: u64, own: bool, led: &mut Ledger) {
    let reps = if own { 5 } else { 2 };
    let mut allocs = 0u64;
    let (mut grants, mut collisions, mut probes) = (0u64, 0u64, 0u64);
    for kind in POLICIES {
        let cfg = if own {
            config(kind, seed)
        } else {
            probe_config(kind, seed)
        };
        let key = match kind {
            SchedulerKind::Fair => "net.metro_fair",
            _ => "net.metro_serial",
        };
        let mut plain = None;
        for _ in 0..reps {
            let (rep, n, _) = led.time(key, || {
                alloc::count(|| run_metro(&cfg, THREADS, &mut NullRecorder))
            });
            allocs += n;
            plain = Some(rep);
        }
        let mut rec = JsonlRecorder::new(SummarySink::default());
        let traced = run_metro(&cfg, THREADS, &mut rec);
        let lines = rec.lines();
        let outcome = match (plain, traced, rec.finish()) {
            (Some(Ok(a)), Ok(b), Ok(sink)) => {
                grants += a.grants;
                collisions += a.collisions;
                probes += a.probe_rounds;
                if a != b {
                    Err("traced report differs from the untraced one".to_string())
                } else if lines != sink.summary.events() {
                    Err(format!(
                        "{lines} trace lines, {} events summarised",
                        sink.summary.events()
                    ))
                } else {
                    tally_report(&cfg, &a, &mut Tally::default())
                }
            }
            (Some(Err(e)), _, _) | (_, Err(e), _) => Err(e.to_string()),
            (_, _, Err(e)) => Err(e.to_string()),
            (None, _, _) => Err("no untraced run".into()),
        };
        led.check("metro run", outcome);
    }
    led.set("net.metro.allocs", allocs as f64 / reps as f64);
    let rounds = grants + collisions + probes;
    led.set("net.metro.probe_frac", probes as f64 / rounds.max(1) as f64);
    led.set(
        "net.metro.collision_rate",
        collisions as f64 / (grants + collisions).max(1) as f64,
    );
}
