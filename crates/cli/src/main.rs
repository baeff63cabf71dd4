//! `witag` — command-line front end to the WiTAG reproduction.
//!
//! ```text
//! witag run    [--distance 1.0] [--rounds 150] [--seed 42] [--quiet]
//!              [--security open|wep|wpa2] [--encoding flip|ook]
//!              [--clock-khz 250] [--temp 0]
//! witag nlos   [--location a|b|both] [--windows 10] [--rounds 40] [--seed 7]
//! witag sweep  [--from 1] [--to 7] [--step 1] [--rounds 100] [--seed 42]
//!              [--threads N] [--trace out.jsonl]
//! witag design [--distance 1.0] [--clock-khz 250] [--subframes 64]
//! witag send   --message "text" [--distance 2] [--max-queries 400]
//! witag faults [--message "text"] [--intensity 1.0] [--distance 1]
//!              [--seed 42] [--plan-seed 7] [--budget 3000]
//!              [--trace out.jsonl]
//! witag net    [--clients 2] [--tags 8] [--scheduler rr|fair|edf|serial|pred]
//!              [--transport arq|fountain]
//!              [--horizon 2000] [--seed 42] [--window 4]
//!              [--duty 0.0] [--duty-period 4000]
//!              [--replicas 1] [--threads N] [--trace out.jsonl]
//! witag net    --cells 16 [--readers 16] [--tags 10000]
//!              [--scheduler rr|fair|edf|serial|pred] [--channels 3]
//!              [--batch 8] [--epoch 1000] [--horizon 60000] [--seed 42]
//!              [--duty 0.0] [--duty-period 4000]
//!              [--threads N] [--trace out.jsonl]
//! witag mox    [--streams 1,2,3] [--mcs 7] [--subframes 16] [--payload 64]
//!              [--eq zf|mmse] [--from 1] [--to 7] [--step 1] [--seed 2]
//!              [--threads N] [--trace out.jsonl]
//! witag report <trace.jsonl>
//! witag floorplan
//! ```
//!
//! Every subcommand prints a deterministic result for a given `--seed`.
//! Failures print one `error:` line on stderr and exit with the code of
//! their class ([`CliError`]): 2 for a bad subcommand, flag or value, 1
//! when a file cannot be read or written (or holds no trace), and 3 when
//! the simulation cannot set up or does not deliver. A reader that
//! closes stdout early (`| head -1`) ends the command quietly with 0.
//! `--trace` streams a `witag-obs/2` JSONL event trace (schema:
//! `docs/OBS_SCHEMA.md`); `report` aggregates such a trace into a
//! summary table. The trace bytes are independent of `--threads`.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

mod args;

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

use args::{ArgError, Args};
use witag::experiment::{Experiment, ExperimentConfig, SecurityMode};
use witag::moxcatter::{run_point, MoxConfig, MAX_PAYLOAD_BYTES};
use witag::query::QueryDesign;
use witag::tagnet::{
    deliver, session_over_experiment, session_over_experiment_obs, SessionConfig, SessionOutcome,
};
use witag_faults::FaultPlan;
use witag_net::{
    run_metro, run_replicas, FleetConfig, FleetReport, MetroConfig, SchedulerKind, Transport,
};
use witag_obs::{BufferRecorder, Event, JsonlRecorder, NullRecorder, Recorder, TraceSummary};
use witag_channel::{Link, LinkConfig};
use witag_sim::geom::Floorplan;
use witag_sim::time::Duration;
use witag_tag::device::BitEncoding;
use witag_tag::oscillator::Oscillator;

/// Why a subcommand failed; each class has its own exit code.
#[derive(Debug)]
enum CliError {
    /// A bad subcommand, flag or value (exit 2).
    Usage(String),
    /// A file that cannot be read or written, or holds no trace (exit 1).
    Io(String),
    /// A simulation that cannot set up or does not deliver (exit 3).
    Sim(String),
    /// The reader closed standard output; the command stops silently
    /// (exit 0).
    Closed,
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 1,
            CliError::Sim(_) => 3,
            CliError::Closed => 0,
        }
    }

    /// A failed write to standard output: a closed pipe ends the
    /// command quietly, any other error is an I/O failure.
    fn stdout(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::BrokenPipe {
            CliError::Closed
        } else {
            CliError::Io(format!("cannot write to stdout: {e}"))
        }
    }
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Sim(m) => f.write_str(m),
            CliError::Closed => f.write_str("stdout closed"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// `println!` onto a command's stdout handle: a failed write returns
/// [`CliError::stdout`] from the enclosing function instead of
/// panicking.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(CliError::stdout)?
    };
}

/// A simulation error, prefixed with what failed.
fn sim(what: &str, e: impl core::fmt::Display) -> CliError {
    CliError::Sim(format!("{what}: {e}"))
}

fn main() -> ExitCode {
    let mut out = std::io::stdout().lock();
    let done = run(std::env::args().skip(1).collect(), &mut out)
        .and_then(|()| out.flush().map_err(CliError::stdout));
    match done {
        // A reader that stops early (`| head`) is not a failure.
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(mut argv: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    if argv.is_empty() {
        usage();
        return Err(CliError::Usage("no subcommand given".into()));
    }
    let cmd = argv.remove(0);
    let parsed = Args::parse(argv)?;
    match cmd.as_str() {
        "run" => cmd_run(&parsed, out),
        "nlos" => cmd_nlos(&parsed, out),
        "sweep" => cmd_sweep(&parsed, out),
        "design" => cmd_design(&parsed, out),
        "send" => cmd_send(&parsed, out),
        "faults" => cmd_faults(&parsed, out),
        "net" => cmd_net(&parsed, out),
        "mox" => cmd_mox(&parsed, out),
        "report" => cmd_report(&parsed, out),
        "floorplan" => cmd_floorplan(&parsed, out),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => {
            usage();
            Err(CliError::Usage(format!("unknown subcommand '{other}'")))
        }
    }
}

fn usage() {
    eprintln!(
        "witag — MAC-layer WiFi backscatter (HotNets'18 reproduction)\n\n\
         subcommands:\n\
         \x20 run        one scenario: BER/throughput at a tag position\n\
         \x20 nlos       the paper's Figure-6 NLOS locations\n\
         \x20 sweep      Figure-5 style distance sweep (parallel across\n\
         \x20            --threads; identical output at any thread count)\n\
         \x20 design     show the query design for a link\n\
         \x20 send       deliver a message via the reliable transport\n\
         \x20 faults     run the resilient session under injected faults\n\
         \x20            (single session; deterministic for --seed/--plan-seed)\n\
         \x20 net        fleet run: N clients x M tags on one medium under a\n\
         \x20            --scheduler (rr|fair|edf|serial|pred) and a\n\
         \x20            --transport (arq|fountain); prints goodput,\n\
         \x20            latency percentiles, airtime shares, collision rate.\n\
         \x20            With --cells N: the metro-scale engine (spatial\n\
         \x20            cells with --channels reuse, --readers readers,\n\
         \x20            batched grants, hierarchical scheduling) for\n\
         \x20            10^4..10^6 tags\n\
         \x20 mox        MOXcatter MIMO sweep: streams x MCS x tag distance,\n\
         \x20            per-stream block-ACK corruption from one tag\n\
         \x20 report     summarise a --trace JSONL file (docs/OBS_SCHEMA.md)\n\
         \x20 floorplan  print the simulated testbed geometry\n\n\
         `sweep`, `faults`, `net` and `mox` accept --trace <path> to stream a\n\
         witag-obs/2 event trace; see EXPERIMENTS.md (TRACE + REPORT,\n\
         PERF GATE) for walkthroughs.\n\
         run `witag <cmd> --help` semantics: all options have defaults;\n\
         see crates/cli/src/main.rs for the full list."
    );
}

/// Shared scenario options.
fn scenario(a: &Args) -> Result<ExperimentConfig, ArgError> {
    let distance = a.f64_or("distance", 1.0)?;
    let seed = a.u64_or("seed", 42)?;
    let mut cfg = ExperimentConfig::fig5(distance, seed);
    if a.flag("quiet") {
        cfg.link.interference_rate_hz = 0.0;
    }
    cfg.security = match a.str_or("security", "open") {
        "open" => SecurityMode::Open,
        "wep" => SecurityMode::Wep,
        "wpa2" => SecurityMode::Wpa2,
        other => {
            return Err(ArgError::BadValue {
                key: "security".into(),
                value: other.into(),
                expected: "open|wep|wpa2",
            })
        }
    };
    cfg.encoding = match a.str_or("encoding", "flip") {
        "flip" => BitEncoding::PhaseFlip,
        "ook" => BitEncoding::OnOffKeying,
        other => {
            return Err(ArgError::BadValue {
                key: "encoding".into(),
                value: other.into(),
                expected: "flip|ook",
            })
        }
    };
    let khz = a.f64_or("clock-khz", 250.0)?;
    cfg.clock = Oscillator::Crystal { freq_hz: khz * 1e3 };
    cfg.temperature_delta = a.f64_or("temp", 0.0)?;
    Ok(cfg)
}

fn cmd_run(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let cfg = scenario(a)?;
    let rounds = a.usize_or("rounds", 150)?;
    a.reject_unknown()?;
    let mut exp = Experiment::new(cfg).map_err(|e| sim("scenario not viable", e))?;
    outln!(
        out,
        "link SNR {:.1} dB; query: {:?}-{:?}, {} B subframes x {}",
        exp.snr_db(),
        exp.design.phy.mcs.modulation,
        exp.design.phy.mcs.code_rate,
        exp.design.subframe_bytes,
        exp.design.n_subframes
    );
    let stats = exp.run(rounds);
    outln!(
        out,
        "{} rounds: BER {:.4} (false0 {}, false1 {}), throughput {:.1} Kbps, \
         missed triggers {}, lost BAs {}",
        stats.rounds,
        stats.ber(),
        stats.errors.false_zeros,
        stats.errors.false_ones,
        stats.throughput_kbps(),
        stats.missed_triggers,
        stats.lost_block_acks
    );
    Ok(())
}

fn cmd_nlos(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let seed = a.u64_or("seed", 7)?;
    let windows = a.usize_or("windows", 10)?;
    let rounds = a.usize_or("rounds", 40)?;
    let loc = a.str_or("location", "both").to_string();
    a.reject_unknown()?;
    let mut run = |name: &str, cfg: ExperimentConfig| -> Result<(), CliError> {
        let mut exp = Experiment::new(cfg).map_err(|e| sim("NLOS scenario not viable", e))?;
        let mut stats = exp.run_windows(windows, rounds);
        outln!(
            out,
            "location {name}: SNR {:.1} dB, mean BER {:.4}, p90 window BER {:.4}, tput {:.1} Kbps",
            exp.snr_db(),
            stats.ber(),
            stats.window_bers.percentile(90.0).unwrap_or(0.0),
            stats.throughput_kbps()
        );
        Ok(())
    };
    match loc.as_str() {
        "a" => run("A", ExperimentConfig::nlos_a(seed)),
        "b" => run("B", ExperimentConfig::nlos_b(seed)),
        "both" => {
            run("A", ExperimentConfig::nlos_a(seed))?;
            run("B", ExperimentConfig::nlos_b(seed))
        }
        other => Err(ArgError::BadValue {
            key: "location".into(),
            value: other.into(),
            expected: "a|b|both",
        }
        .into()),
    }
}

/// Read `--trace <path>`: `None` when absent, error on an empty value.
fn trace_arg(a: &Args) -> Result<Option<String>, ArgError> {
    match a.raw("trace") {
        Some("") => Err(ArgError::MissingValue("trace".into())),
        t => Ok(t.map(str::to_string)),
    }
}

/// Open a JSONL trace sink at `path`.
fn open_trace(path: &str) -> Result<JsonlRecorder<BufWriter<File>>, CliError> {
    JsonlRecorder::create(Path::new(path))
        .map_err(|e| CliError::Io(format!("cannot create trace file '{path}': {e}")))
}

/// Flush a trace sink and report how many events landed on disk.
fn close_trace(rec: JsonlRecorder<BufWriter<File>>, path: &str) -> Result<(), CliError> {
    let events = rec.lines();
    rec.finish()
        .map_err(|e| CliError::Io(format!("trace file '{path}' is incomplete: {e}")))?;
    eprintln!("trace: {events} events -> {path}");
    Ok(())
}

fn cmd_sweep(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let from = a.f64_or("from", 1.0)?;
    let to = a.f64_or("to", 7.0)?;
    let step = a.f64_or("step", 1.0)?;
    let rounds = a.usize_or("rounds", 100)?;
    let seed = a.u64_or("seed", 42)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    outln!(out, "{:>10} {:>10} {:>14}", "dist (m)", "BER", "tput (Kbps)");
    // Sweep points are independent experiments, so they parallelise with
    // no change in output: each point's seed and round sequence are
    // exactly what the serial loop used, and results print in distance
    // order regardless of completion order. When tracing, each worker
    // buffers its point's events and the buffers are replayed in point
    // order, so the trace bytes are thread-count-invariant too.
    let mut distances = Vec::new();
    let mut d = from;
    while d <= to + 1e-9 {
        distances.push(d);
        d += step.max(0.01);
    }
    let tracing = trace.is_some();
    let results = witag_sim::par_map(distances.len(), threads, |i| {
        let mut exp = Experiment::new(ExperimentConfig::fig5(distances[i], seed))?;
        Ok(if tracing {
            let mut buf = BufferRecorder::new();
            let stats = exp.run_obs(rounds, &mut buf);
            (stats, Some(buf))
        } else {
            (exp.run(rounds), None)
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, witag::ExperimentError>>()
    .map_err(|e| sim("sweep point not viable", e))?;
    for (d, (stats, _)) in distances.iter().zip(results.iter()) {
        outln!(out, "{d:>10.2} {:>10.4} {:>14.1}", stats.ber(), stats.throughput_kbps());
    }
    if let Some(path) = trace {
        let mut rec = open_trace(&path)?;
        for (i, (d, (_, buf))) in distances.iter().zip(results.iter()).enumerate() {
            rec.record(&Event::SweepPoint {
                index: i as u32,
                distance_m: *d,
            });
            if let Some(buf) = buf {
                buf.replay_into(&mut rec);
            }
        }
        close_trace(rec, &path)?;
    }
    Ok(())
}

/// `witag mox` — the MOXcatter MIMO sweep: multiplexed per-stream
/// A-MPDUs through a matrix channel with one modulating tag, reporting
/// how the corruption lands on every stream's block-ACK bitmap.
fn cmd_mox(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let streams_raw = a.str_or("streams", "2").to_string();
    let streams_list: Vec<usize> = streams_raw
        .split(',')
        .map(|t| {
            t.trim().parse::<usize>().ok().filter(|n| (1..=4).contains(n)).ok_or_else(|| {
                ArgError::BadValue {
                    key: "streams".into(),
                    value: streams_raw.clone(),
                    expected: "comma list of stream counts 1-4",
                }
            })
        })
        .collect::<Result<_, _>>()?;
    let base_mcs = a.usize_or("mcs", 7)?;
    if base_mcs > 7 {
        return Err(ArgError::BadValue {
            key: "mcs".into(),
            value: base_mcs.to_string(),
            expected: "base HT MCS index 0-7",
        }
        .into());
    }
    let subframes = a.usize_or("subframes", 16)?;
    if !(1..=witag_phy::MAX_AMPDU_SUBFRAMES).contains(&subframes) {
        return Err(ArgError::BadValue {
            key: "subframes".into(),
            value: subframes.to_string(),
            expected: "subframes per stream 1-64",
        }
        .into());
    }
    let payload = a.usize_or("payload", 64)?;
    if payload > MAX_PAYLOAD_BYTES {
        return Err(ArgError::BadValue {
            key: "payload".into(),
            value: payload.to_string(),
            expected: "MPDU payload bytes 0-4065",
        }
        .into());
    }
    let eq = match a.str_or("eq", "mmse") {
        "zf" => witag_phy::MimoEqualiser::Zf,
        "mmse" => witag_phy::MimoEqualiser::Mmse,
        other => {
            return Err(ArgError::BadValue {
                key: "eq".into(),
                value: other.to_string(),
                expected: "zf or mmse",
            }
            .into())
        }
    };
    let from = a.f64_or("from", 1.0)?;
    let to = a.f64_or("to", 7.0)?;
    let step = a.f64_or("step", 1.0)?;
    let seed = a.u64_or("seed", 2)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;

    let mut distances = Vec::new();
    let mut d = from;
    while d <= to + 1e-9 {
        distances.push(d);
        d += step.max(0.01);
    }
    // One point per (streams, distance) combo, globally indexed in print
    // order so the trace's `index` stamps are sweep-order stable.
    let points: Vec<(usize, f64)> = streams_list
        .iter()
        .flat_map(|&n| distances.iter().map(move |&d| (n, d)))
        .collect();
    let tracing = trace.is_some();
    // Points are independent; parallelise like `sweep` with per-point
    // buffers replayed in point order for thread-count-invariant traces.
    let results = witag_sim::par_map(points.len(), threads, |i| {
        let (n, d) = points[i];
        let cfg = MoxConfig {
            streams: n,
            base_mcs,
            subframes,
            payload_bytes: payload,
            equaliser: eq,
            seed,
        };
        if tracing {
            let mut buf = BufferRecorder::new();
            let r = run_point(i as u32, d, &cfg, &mut buf);
            (r, Some(buf))
        } else {
            (run_point(i as u32, d, &cfg, &mut NullRecorder), None)
        }
    });

    outln!(
        out,
        "{:>7} {:>4} {:>8} {:>9} {:>9} {:>12} {:>5}",
        "streams", "mcs", "dist (m)", "snr min", "snr max", "acked", "hit"
    );
    for ((n, d), (r, _)) in points.iter().zip(results.iter()) {
        let acked: Vec<String> = r
            .streams
            .iter()
            .map(|s| format!("{}/{}", s.acked, s.subframes))
            .collect();
        outln!(
            out,
            "{:>7} {:>4} {:>8.2} {:>9.1} {:>9.1} {:>12} {:>3}/{}",
            n,
            8 * (n - 1) + base_mcs,
            d,
            r.snr_min_db,
            r.snr_max_db,
            acked.join(" "),
            r.streams_hit(),
            n
        );
    }
    if let Some(path) = trace {
        let mut rec = open_trace(&path)?;
        for (_, buf) in &results {
            if let Some(buf) = buf {
                buf.replay_into(&mut rec);
            }
        }
        close_trace(rec, &path)?;
    }
    Ok(())
}

fn cmd_design(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let distance = a.f64_or("distance", 1.0)?;
    let khz = a.f64_or("clock-khz", 250.0)?;
    let subframes = a.usize_or("subframes", 64)?;
    a.reject_unknown()?;
    let fp = Floorplan::paper_testbed();
    let client = Floorplan::los_client_position();
    let ap = Floorplan::ap_position();
    let tag = client.lerp(ap, distance / client.distance(ap));
    let link = Link::new(&fp, client, ap, Some(tag), LinkConfig::default(), 1);
    let clock = Oscillator::Crystal { freq_hz: khz * 1e3 };
    let d = QueryDesign::best(&link, &clock, subframes, 2)
        .map_err(|e| sim("no feasible corruptible design", e))?;
    outln!(out, "link SNR:         {:.1} dB", link.snr_db());
    outln!(
        out,
        "query MCS:        {:?} {:?} ({} MHz)",
        d.phy.mcs.modulation,
        d.phy.mcs.code_rate,
        d.phy.bandwidth.hertz() / 1_000_000
    );
    outln!(
        out,
        "subframe:         {} bytes = {} OFDM symbols = {}",
        d.subframe_bytes,
        d.symbols_per_subframe,
        d.subframe_airtime()
    );
    outln!(out, "bits per query:   {}", d.bits_per_query());
    outln!(
        out,
        "marker signature: {:?} (gap {})",
        d.signature.bursts, d.marker_gap
    );
    outln!(
        out,
        "est. tag rate:    {:.1} Kbps",
        d.bits_per_query() as f64 / d.round_airtime_estimate().as_secs_f64() / 1e3
    );
    Ok(())
}

fn cmd_send(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let message = a.str_or("message", "hello from the tag").to_string();
    let distance = a.f64_or("distance", 2.0)?;
    let seed = a.u64_or("seed", 42)?;
    let max_queries = a.usize_or("max-queries", 400)?;
    a.reject_unknown()?;
    let mut exp = Experiment::new(ExperimentConfig::fig5(distance, seed))
        .map_err(|e| sim("scenario not viable", e))?;
    let n_bits = exp.design.bits_per_query();
    let (got, queries) =
        deliver(message.as_bytes(), n_bits, max_queries, |tx| exp.run_round(tx).readout.bits)
            .ok_or_else(|| CliError::Sim(format!("gave up after {max_queries} queries")))?;
    outln!(
        out,
        "delivered {} bytes in {queries} queries: {:?}",
        got.len(),
        String::from_utf8_lossy(&got)
    );
    check_integrity(&got, &message)
}

fn cmd_faults(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let message = a.str_or("message", "sensor frame 0042: 21.5C 40%RH ok").to_string();
    let distance = a.f64_or("distance", 1.0)?;
    let seed = a.u64_or("seed", 42)?;
    let plan_seed = a.u64_or("plan-seed", 7)?;
    let intensity = a.f64_or("intensity", 1.0)?;
    let budget = a.usize_or("budget", 3000)?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let mut exp = Experiment::new(ExperimentConfig::fig5(distance, seed))
        .map_err(|e| sim("scenario not viable", e))?;
    exp.attach_faults(FaultPlan::hostile_scaled(plan_seed, intensity));
    let cfg = SessionConfig {
        max_rounds: budget,
        ..SessionConfig::default()
    };
    let outcome = if let Some(path) = &trace {
        let mut rec = open_trace(path)?;
        let r = session_over_experiment_obs(&mut exp, message.as_bytes(), &cfg, &mut rec);
        close_trace(rec, path)?;
        r
    } else {
        session_over_experiment(&mut exp, message.as_bytes(), &cfg)
    };
    let report = outcome.map_err(|e| sim("session setup failed", e))?;
    let s = &report.stats;
    outln!(
        out,
        "fault plan: hostile x{intensity:.2}, seed {plan_seed}; budget {budget} rounds"
    );
    if let Some(c) = exp.fault_counters() {
        outln!(
            out,
            "injected:   {} lost queries, {} lost block ACKs, {} burst / {} drift / {} brownout rounds",
            c.queries_lost, c.block_acks_lost, c.burst_rounds, c.drift_rounds, c.brownout_rounds
        );
    }
    outln!(
        out,
        "session:    {} rounds ({} idle), {} retransmissions, {} resyncs, {} desync events",
        s.rounds, s.idle_rounds, s.retransmissions, s.resyncs, s.desync_events
    );
    outln!(
        out,
        "            goodput {:.3} ({} payload bits over {} raw)",
        s.goodput_ratio(),
        s.payload_bits,
        s.raw_bits
    );
    match report.outcome {
        SessionOutcome::Delivered(bytes) => {
            outln!(
                out,
                "delivered:  {} bytes: {:?}",
                bytes.len(),
                String::from_utf8_lossy(&bytes)
            );
            check_integrity(&bytes, &message)
        }
        SessionOutcome::Failed(f) => {
            Err(CliError::Sim(format!("failed: {f:?} — the plan won this time")))
        }
    }
}

/// A delivered message must be the one sent.
fn check_integrity(got: &[u8], sent: &str) -> Result<(), CliError> {
    if got == sent.as_bytes() {
        Ok(())
    } else {
        Err(CliError::Sim("transport integrity: delivered bytes differ from the message".into()))
    }
}

fn cmd_net(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if a.raw("cells").is_some() {
        return cmd_net_metro(a, out);
    }
    let clients = a.usize_or("clients", 2)?;
    let tags = a.usize_or("tags", 8)?;
    let sched_name = a.str_or("scheduler", "fair").to_string();
    let scheduler = match SchedulerKind::parse(&sched_name) {
        Some(k) => k,
        None => {
            return Err(ArgError::BadValue {
                key: "scheduler".into(),
                value: sched_name,
                expected: "rr|fair|edf|serial|pred",
            }
            .into())
        }
    };
    let transport_name = a.str_or("transport", "arq").to_string();
    let transport = match Transport::parse(&transport_name) {
        Some(t) => t,
        None => {
            return Err(ArgError::BadValue {
                key: "transport".into(),
                value: transport_name,
                expected: "arq|fountain",
            }
            .into())
        }
    };
    let horizon_ms = a.u64_or("horizon", 2000)?;
    let seed = a.u64_or("seed", 42)?;
    let window = a.usize_or("window", 4)?;
    let duty = a.f64_or("duty", 0.0)?;
    let duty_period_ms = a.u64_or("duty-period", 4000)?;
    let replicas = a.usize_or("replicas", 1)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let mut cfg = FleetConfig::inventory(
        clients,
        tags,
        scheduler,
        Duration::millis(horizon_ms),
        seed,
    );
    cfg.window = window;
    cfg = cfg.with_transport(transport);
    if duty > 0.0 {
        cfg = cfg.with_duty_cycle(Duration::millis(duty_period_ms), duty);
    }
    let outcome = if let Some(path) = &trace {
        let mut rec = open_trace(path)?;
        let r = run_replicas(&cfg, replicas, threads, &mut rec);
        close_trace(rec, path)?;
        r
    } else {
        run_replicas(&cfg, replicas, threads, &mut NullRecorder)
    };
    let reports = outcome.map_err(|e| sim("fleet not viable", e))?;
    outln!(
        out,
        "fleet: {clients} client(s) x {tags} tag(s) | scheduler {} | transport {} | horizon {horizon_ms} ms | seed {seed}",
        scheduler.name(),
        transport.name()
    );
    if duty > 0.0 {
        outln!(
            out,
            "duty cycle: {duty:.2} ON fraction over {duty_period_ms} ms periods (phases spread)"
        );
    }
    for (i, rep) in reports.iter().enumerate() {
        print_fleet_report(out, i, tags, rep)?;
    }
    Ok(())
}

/// `witag net --cells …`: the metro-scale engine (spatial cells,
/// channel reuse, batched grants, hierarchical scheduling).
fn cmd_net_metro(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let cells = a.usize_or("cells", 4)?;
    let readers = a.usize_or("readers", cells)?;
    let tags = a.usize_or("tags", 1000)?;
    let sched_name = a.str_or("scheduler", "fair").to_string();
    let scheduler = match SchedulerKind::parse(&sched_name) {
        Some(k) => k,
        None => {
            return Err(ArgError::BadValue {
                key: "scheduler".into(),
                value: sched_name,
                expected: "rr|fair|edf|serial|pred",
            }
            .into())
        }
    };
    let horizon_ms = a.u64_or("horizon", 60_000)?;
    let seed = a.u64_or("seed", 42)?;
    let channels = a.usize_or("channels", 3)?;
    let batch = a.usize_or("batch", 8)? as u32;
    let epoch_ms = a.u64_or("epoch", 1000)?;
    let duty = a.f64_or("duty", 0.0)?;
    let duty_period_ms = a.u64_or("duty-period", 4000)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let mut cfg = MetroConfig::inventory(
        cells,
        readers,
        tags,
        scheduler,
        Duration::millis(horizon_ms),
        seed,
    );
    cfg.channels = channels;
    cfg.batch = batch;
    cfg.epoch = Duration::millis(epoch_ms);
    if duty > 0.0 {
        cfg = cfg.with_duty_cycle(Duration::millis(duty_period_ms), duty);
    }
    let outcome = if let Some(path) = &trace {
        let mut rec = open_trace(path)?;
        let r = run_metro(&cfg, threads, &mut rec);
        close_trace(rec, path)?;
        r
    } else {
        run_metro(&cfg, threads, &mut NullRecorder)
    };
    let rep = outcome.map_err(|e| sim("metro not viable", e))?;
    outln!(
        out,
        "metro: {cells} cell(s) x {readers} reader(s) x {tags} tag(s) | scheduler {} | {} channel(s) -> {} contention domain(s)",
        scheduler.name(),
        channels,
        rep.domains
    );
    outln!(
        out,
        "       batch {batch} | epoch {epoch_ms} ms | horizon {horizon_ms} ms | seed {seed}"
    );
    if duty > 0.0 {
        outln!(
            out,
            "duty cycle: {duty:.2} ON fraction over {duty_period_ms} ms periods (phases spread)"
        );
    }
    let pct = |p: f64| {
        rep.latency_percentile(p)
            .map_or_else(|| "-".to_string(), |us| format!("{:.1}", us / 1000.0))
    };
    outln!(
        out,
        "delivered {}/{tags} | grants {} | collisions {} (rate {:.3}) | probe rounds {} | elapsed {:.1} ms",
        rep.delivered,
        rep.grants,
        rep.collisions,
        rep.collision_rate(),
        rep.probe_rounds,
        rep.elapsed.as_secs_f64() * 1e3
    );
    outln!(
        out,
        "goodput {:.1} Kbps | read latency ms p50 {} p90 {} p99 {} | airtime {:.1} ms across cells | deadlines met {}/{}",
        rep.goodput_bps() / 1e3,
        pct(50.0),
        pct(90.0),
        pct(99.0),
        rep.airtime.as_secs_f64() * 1e3,
        rep.deadline_hits,
        rep.delivered
    );
    let busiest = rep
        .cell_summaries
        .iter()
        .max_by_key(|c| c.grants)
        .map_or(0, |c| c.cell);
    outln!(
        out,
        "cells: busiest cell {} | per-cell delivery min {} max {}",
        busiest,
        rep.cell_summaries.iter().map(|c| c.delivered).min().unwrap_or(0),
        rep.cell_summaries.iter().map(|c| c.delivered).max().unwrap_or(0)
    );
    Ok(())
}

/// Render one replica's fleet report in the CLI's fixed format.
fn print_fleet_report(
    out: &mut dyn Write,
    replica: usize,
    tags: usize,
    rep: &FleetReport,
) -> Result<(), CliError> {
    let shares = rep.airtime_shares();
    let min_share = shares.iter().copied().fold(f64::MAX, f64::min);
    let max_share = shares.iter().copied().fold(0.0, f64::max);
    let pct = |p: f64| {
        rep.latency_percentile(p)
            .map_or_else(|| "-".to_string(), |us| format!("{:.1}", us / 1000.0))
    };
    outln!(
        out,
        "replica {replica}: delivered {}/{tags} | grants {} | collisions {} (rate {:.3}) | elapsed {:.1} ms",
        rep.delivered(),
        rep.grants,
        rep.collisions,
        rep.collision_rate(),
        rep.elapsed.as_secs_f64() * 1e3
    );
    outln!(
        out,
        "          goodput {:.1} Kbps | read latency ms p50 {} p90 {} p99 {} | airtime share min {:.3} max {:.3} | deadlines met {}/{}",
        rep.goodput_bps() / 1e3,
        pct(50.0),
        pct(90.0),
        pct(99.0),
        min_share,
        max_share,
        rep.deadline_hits(),
        rep.delivered()
    );
    Ok(())
}

fn cmd_report(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    a.reject_unknown()?;
    let path = a
        .positionals()
        .first()
        .ok_or_else(|| CliError::Usage("usage: witag report <trace.jsonl>".into()))?;
    let bytes = std::fs::read(path)
        .map_err(|e| CliError::Io(format!("cannot read trace file '{path}': {e}")))?;
    // Decode line by line: a line with invalid UTF-8 is counted as
    // malformed, not fatal to the whole report.
    let mut summary = TraceSummary::default();
    for line in bytes.split(|&b| b == b'\n') {
        summary.ingest_line(&String::from_utf8_lossy(line));
    }
    if summary.events() == 0 && summary.schema().is_none() {
        return Err(CliError::Io(format!("'{path}' contains no witag-obs events")));
    }
    write!(out, "{}", summary.render()).map_err(CliError::stdout)?;
    Ok(())
}

fn cmd_floorplan(a: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    a.reject_unknown()?;
    let fp = Floorplan::paper_testbed();
    outln!(out, "testbed reconstruction of the paper's Figure 4 (18 m x 7 m):\n");
    outln!(out, "  AP          at {:?}", Floorplan::ap_position());
    outln!(out, "  LOS client  at {:?}  (8 m from the AP)", Floorplan::los_client_position());
    outln!(out, "  NLOS A      at {:?}  (~7 m)", Floorplan::nlos_a_client_position());
    outln!(out, "  NLOS B      at {:?}  (~17 m)", Floorplan::nlos_b_client_position());
    outln!(out, "\nobstacles:");
    for o in &fp.obstacles {
        outln!(
            out,
            "  {:?} from ({:.1},{:.1}) to ({:.1},{:.1})  [{:.0} dB/crossing]",
            o.material,
            o.segment.a.x,
            o.segment.a.y,
            o.segment.b.x,
            o.segment.b.y,
            o.material.penetration_loss_db()
        );
    }
    outln!(out, "\nreflectors: {:?}", fp.reflectors);
    Ok(())
}
