//! The WiTAG repository benchmark.
//!
//! One process runs one workload on one thread. An untraced run
//! (`--trace 0`) sets the workload up several times, then runs steps in
//! a closed loop for `--seconds` and prints the end-to-end metrics, its
//! timings scaled to a reference host speed (see `refspeed`). A
//! traced run (`--trace 1`) times calls into each crate's public
//! functions from outside and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Workloads, metrics and their predictions are described in
//! `perfbench/NOTES.md`.

pub mod alloc;
mod fig5;
mod fleet;
mod ledger;
mod metro;
mod mox;
mod refspeed;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ledger::Ledger;
use refspeed::REFERENCE_S;

/// Simulated outcome of one step. Every field is an exact count, so the
/// simulated metrics repeat bit for bit at one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Simulated query rounds (one A-MPDU plus its block-ACK exchange).
    pub rounds: u64,
    /// Correct or delivered tag bits.
    pub good_bits: u64,
    /// Simulated time the step covered, nanoseconds.
    pub sim_ns: u64,
    /// Query streams put on the air.
    pub streams: u64,
    /// Streams whose block-ACK bitmap the tag changed.
    pub streams_hit: u64,
}

impl Tally {
    pub(crate) fn add(&mut self, o: &Tally) {
        self.rounds += o.rounds;
        self.good_bits += o.good_bits;
        self.sim_ns += o.sim_ns;
        self.streams += o.streams;
        self.streams_hit += o.streams_hit;
    }
}

/// A workload set up and ready to run steps.
pub(crate) trait Workload {
    /// Run one step. `Err` carries the reason the step's output check
    /// failed.
    fn step(&mut self) -> Result<Tally, String>;
}

/// Static description of one workload.
struct Spec {
    name: &'static str,
    /// Build every scenario the steps use.
    setup: fn(u64) -> Result<Box<dyn Workload>, String>,
    /// Set-ups per untraced run; `setup_s` is their median.
    setups: usize,
    /// Steps, counted from the first timed one, over which the simulated
    /// metrics are computed. Always run, whatever `--seconds` says.
    reference_steps: usize,
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "fig5_rounds",
        setup: fig5::setup,
        setups: 9,
        reference_steps: fig5::REFERENCE_STEPS,
    },
    Spec {
        name: "mox_mimo",
        setup: mox::setup,
        setups: 11,
        reference_steps: mox::REFERENCE_STEPS,
    },
    Spec {
        name: "metro_inventory",
        setup: metro::setup,
        setups: 11,
        reference_steps: 1,
    },
    Spec {
        name: "fleet_hostile",
        setup: fleet::setup,
        setups: 9,
        reference_steps: fleet::REFERENCE_STEPS,
    },
];

/// The tail percentile needs this many steps beyond it.
const TAIL_BEYOND: usize = 10;

/// `n` scenario seeds drawn from `seed`, the first being `seed` itself
/// (so the default seed reproduces the committed `BENCH_*.json` rows).
/// Workloads whose simulated metrics vary a lot from one scenario seed
/// to the next cycle their steps through such a pool, so a run's
/// metrics average over many scenarios.
pub(crate) fn seed_pool(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = witag_sim::Rng::seed_from_u64(seed).fork(0x9001);
    std::iter::once(seed)
        .chain((1..n).map(|_| rng.next_u64()))
        .collect()
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 190u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("whole seconds in 1..=600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = SPECS.iter().find(|s| s.name == workload).ok_or_else(|| {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {workload}; expected one of {}",
            names.join(", ")
        )
    })?;
    Ok(Args {
        spec,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// One printed metric.
pub(crate) struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Entry point of both binaries; returns the process exit code.
/// `counting` says whether the counting allocator is installed, which
/// only the traced binary does.
pub fn main(counting: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if args.trace != counting {
        eprintln!("perfbench: --trace 1 runs on perfbench-traced, --trace 0 on perfbench");
        return 2;
    }
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match outcome {
        Ok((metrics, attempted, failed)) => {
            if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not finite", m.name);
                return 1;
            }
            println!("{}", result_json(failed == 0, attempted, failed, &metrics));
            0
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.spec.name);
            1
        }
    }
}

type RunOutcome = Result<(Vec<Metric>, u64, u64), String>;

/// Run one step, turning a panic into a failed operation.
fn guarded_step(w: &mut dyn Workload) -> Result<Tally, String> {
    match catch_unwind(AssertUnwindSafe(|| w.step())) {
        Ok(r) => r,
        Err(_) => Err("step panicked".into()),
    }
}

fn run_untraced(args: &Args) -> RunOutcome {
    let spec = args.spec;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut note_failure = |what: &str, e: &str| {
        failed += 1;
        eprintln!("perfbench: {} {what} failed: {e}", spec.name);
    };

    // Every set-up and step is also kept at reference speed: its time
    // times `REFERENCE_S` over the kernel timed just before it, so a
    // host slowdown that spans it is taken out of it.
    let mut kernel_s = Vec::new();
    let to_reference = |kernel: f64| REFERENCE_S / kernel;

    // Set up several times; the last set-up's state runs the timed steps.
    // The previous state is dropped first, so peak RSS counts one.
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut setup_ref = Vec::with_capacity(spec.setups);
    let mut workload = None;
    for _ in 0..spec.setups {
        drop(workload.take());
        let kernel = refspeed::time();
        kernel_s.push(kernel);
        let t0 = Instant::now();
        let mut w = (spec.setup)(args.seed)?;
        attempted += 1;
        if let Err(e) = guarded_step(w.as_mut()) {
            note_failure("warm-up step", &e);
        }
        let dt = t0.elapsed().as_secs_f64();
        setup_s.push(dt);
        setup_ref.push(dt * to_reference(kernel));
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up ran")?;

    let min_steps = spec.reference_steps.max(TAIL_BEYOND + 1);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut step_s: Vec<f64> = Vec::new();
    let mut step_ref: Vec<f64> = Vec::new();
    // Rounds per second of each step that succeeded. Their median, not
    // total rounds over total time, is reported: a burst of slow steps
    // moves a total by its full length, a median hardly at all.
    let mut rates: Vec<f64> = Vec::new();
    let mut rates_ref: Vec<f64> = Vec::new();
    let mut reference = Tally::default();
    let start = Instant::now();
    while step_s.len() < min_steps || start.elapsed() < budget {
        let kernel = refspeed::time();
        kernel_s.push(kernel);
        let t0 = Instant::now();
        let out = guarded_step(w.as_mut());
        let dt = t0.elapsed().as_secs_f64();
        step_s.push(dt);
        step_ref.push(dt * to_reference(kernel));
        attempted += 1;
        match out {
            Ok(t) => {
                rates.push(t.rounds as f64 / dt);
                rates_ref.push(t.rounds as f64 / dt / to_reference(kernel));
                if step_s.len() <= spec.reference_steps {
                    reference.add(&t);
                }
            }
            Err(e) => note_failure("step", &e),
        }
    }

    let rate_of = |rates: &[f64]| if rates.is_empty() { 0.0 } else { median(rates) };
    let n = step_s.len();
    let k = n - TAIL_BEYOND; // 1-based rank with TAIL_BEYOND steps beyond it
    let tail_of = |steps: &[f64]| {
        let mut sorted = steps.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[k - 1]
    };
    let kernel_median = median(&kernel_s);
    println!(
        "{}: {n} timed steps; step_ms_tail is p{:.1} (rank {k} of {n}); \
         unscaled setup {:.4} s, p50 {:.3} ms, tail {:.3} ms, {:.1} rounds/s; \
         reference kernel {:.4} ms (median of {}; scale {:.4} at the median)",
        spec.name,
        100.0 * k as f64 / n as f64,
        median(&setup_s),
        median(&step_s) * 1e3,
        tail_of(&step_s) * 1e3,
        rate_of(&rates),
        kernel_median * 1e3,
        kernel_s.len(),
        to_reference(kernel_median),
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_ref),
            unit: "s",
        },
        Metric {
            name: "rounds_per_s",
            value: rate_of(&rates_ref),
            unit: "1/s",
        },
        Metric {
            name: "step_ms_p50",
            value: median(&step_ref) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "step_ms_tail",
            value: tail_of(&step_ref) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
        },
        Metric {
            name: "goodput_kbps",
            value: reference.good_bits as f64 / (reference.sim_ns as f64 * 1e-9) / 1e3,
            unit: "Kbps",
        },
        Metric {
            name: "streams_hit_frac",
            value: reference.streams_hit as f64 / reference.streams as f64,
            unit: "ratio",
        },
    ];
    Ok((metrics, attempted, failed))
}

fn run_traced(args: &Args) -> RunOutcome {
    if !alloc::installed() {
        return Err("the counting allocator is not installed".into());
    }
    let own = args.spec.name;
    let mut led = Ledger::default();
    // Each layer group runs at full size on the workload that exercises
    // it and as a small probe elsewhere, so every per-layer metric is a
    // measurement in every traced run.
    fig5::ledger(args.seed, own == "fig5_rounds", &mut led);
    mox::ledger(args.seed, own == "mox_mimo", &mut led);
    metro::ledger(args.seed, own == "metro_inventory", &mut led);
    fleet::ledger(args.seed, own == "fleet_hostile", &mut led);
    for f in &led.failures {
        eprintln!("perfbench: {own} traced check failed: {f}");
    }
    let failed = led.failures.len() as u64;
    let attempted = led.attempted;
    Ok((led.metrics()?, attempted, failed))
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
