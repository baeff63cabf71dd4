//! SCIENCE — the paper-facing estimates with confidence intervals, and
//! the results-change protocol that judges one table against another.
//!
//! ```text
//! cargo run --release -p witag-bench --bin science                  # table to stdout
//! cargo run --release -p witag-bench --bin science -- --out FILE    # ... and to FILE
//! cargo run --release -p witag-bench --bin science -- --baseline SCIENCE.tsv
//! ```
//!
//! The suite computes, on the seeds fixed below:
//!
//! - FIG5: BER at 1–7 m with Wilson 95 % intervals and the throughput at
//!   each distance (the `fig5` binary's seeds, runs and rounds);
//! - FIG6: BER at NLOS locations A and B, each pooled over 12 seed pairs;
//! - MOX: the fraction of multiplexed streams a single tag corrupts, at
//!   2 and 3 streams, over a fixed channel-seed pool, both equalisers;
//! - FLEET: delivered count and goodput of a 2×100-tag fleet under
//!   `FaultPlan::hostile`, ARQ and fountain transports;
//!
//! and the paper's shape claims over them: the FIG5 U-shape and 40 Kbps
//! scale, the FIG6 ordering (B's BER above A's, one-sided z-test), MOX
//! corrupting most multiplexed streams, and a hostile fleet still
//! delivering.
//!
//! **The protocol.** A change that moves output bits runs this suite on
//! the parent and on the change, with `--baseline` naming the parent's
//! table. Each row passes when:
//!
//! - a proportion (`p`) row's change estimate lies inside the parent's
//!   Wilson 95 % interval, or a pooled two-proportion z-test does not
//!   reject equality at α = [`ALPHA`] (two-sided);
//! - a value (`x`) row lies within [`VALUE_REL_TOL`] of the parent's;
//! - a claim (`c`) row holds, or already failed in the baseline. A
//!   claim that held and now fails is a regression; one that failed
//!   before is reported in every verdict but cannot block a change it
//!   did not come from.
//!
//! Informational (`i`) rows feed claims and are not judged on their
//! own. The seeds, α and tolerance are fixed here before a change is
//! measured and are never re-picked to pass one. With `--baseline`, the
//! binary prints the baseline/post/verdict table and exits 1 if any row
//! fails; `ci.sh` runs it against the committed `SCIENCE.tsv`.

use std::fmt::Write as _;
use std::process::ExitCode;

use witag::experiment::{Experiment, ExperimentConfig};
use witag::moxcatter::{run_point, MoxConfig};
use witag_faults::FaultPlan;
use witag_net::{run_fleet, FleetConfig, SchedulerKind, Transport};
use witag_obs::NullRecorder;
use witag_phy::mimo::MimoEqualiser;
use witag_sim::time::Duration;
use witag_sim::wilson_interval_95;

/// Significance level of the two-proportion test.
const ALPHA: f64 = 0.01;
/// Two-sided critical value of the standard normal at [`ALPHA`].
const Z_CRIT: f64 = 2.5758;
/// One-sided critical value of the standard normal at [`ALPHA`].
const Z_CRIT_ONE_SIDED: f64 = 2.3263;
/// Relative tolerance of a value row (throughput, goodput).
const VALUE_REL_TOL: f64 = 0.01;

/// FIG5 tag distances from the client, metres.
const FIG5_DISTANCES: [f64; 7] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
/// FIG5 runs per distance and rounds per run (the `fig5` binary's).
const FIG5_RUNS: u64 = 4;
const FIG5_ROUNDS: usize = 150;
/// FIG6 seed pairs: pair `k` runs `nlos_a(0x616 + 2k)` and
/// `nlos_b(0x617 + 2k)`, [`FIG6_ROUNDS`] rounds each. Seeds are channel
/// realisations, so the ordering is judged over many of them, not one.
const FIG6_PAIRS: u64 = 12;
const FIG6_ROUNDS: usize = 400;
/// MOX channel seeds; every seed runs at every distance, both
/// equalisers and both stream counts.
const MOX_SEEDS: u64 = 32;
const MOX_STREAMS: [usize; 2] = [2, 3];
/// FLEET: tags per fleet, simulated horizon, scenario seed.
const FLEET_TAGS: usize = 100;
const FLEET_HORIZON_S: u64 = 30;
const FLEET_SEED: u64 = 0xBE;

fn fig5_seed(dist: f64, run: u64) -> u64 {
    0x515 + run * 7919 + dist as u64
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
enum Row {
    /// `k` events in `n` trials.
    Prop { name: String, k: u64, n: u64 },
    /// A value judged with a relative tolerance.
    Value { name: String, v: f64 },
    /// A value reported for the claims, not judged on its own.
    Info { name: String, v: f64 },
    /// A shape claim: holds or not.
    Claim { name: String, holds: bool },
}

impl Row {
    fn name(&self) -> &str {
        match self {
            Row::Prop { name, .. }
            | Row::Value { name, .. }
            | Row::Info { name, .. }
            | Row::Claim { name, .. } => name,
        }
    }

    /// Human-readable estimate, with the interval for proportions.
    fn show(&self) -> String {
        match self {
            Row::Prop { k, n, .. } => {
                let (lo, hi) = wilson_interval_95(*k, *n);
                format!(
                    "{:.4} ({lo:.4}–{hi:.4}), {k}/{n}",
                    *k as f64 / (*n).max(1) as f64
                )
            }
            Row::Value { v, .. } | Row::Info { v, .. } => format!("{v:.4}"),
            Row::Claim { holds, .. } => (if *holds { "holds" } else { "FAILS" }).to_string(),
        }
    }

    /// Tab-separated line: name, kind, two numeric fields, then the
    /// human-readable estimate.
    fn tsv(&self) -> String {
        let (kind, a, b) = match self {
            Row::Prop { k, n, .. } => ("p", k.to_string(), n.to_string()),
            Row::Value { v, .. } => ("x", format!("{v:.6}"), "-".into()),
            Row::Info { v, .. } => ("i", format!("{v:.6}"), "-".into()),
            Row::Claim { holds, .. } => ("c", (*holds as u8).to_string(), "-".into()),
        };
        format!("{}\t{kind}\t{a}\t{b}\t{}", self.name(), self.show())
    }

    fn parse(line: &str) -> Option<Row> {
        let mut f = line.split('\t');
        let name = f.next()?.to_string();
        let kind = f.next()?;
        let a = f.next()?;
        let b = f.next()?;
        Some(match kind {
            "p" => Row::Prop {
                name,
                k: a.parse().ok()?,
                n: b.parse().ok()?,
            },
            "x" => Row::Value {
                name,
                v: a.parse().ok()?,
            },
            "i" => Row::Info {
                name,
                v: a.parse().ok()?,
            },
            "c" => Row::Claim {
                name,
                holds: a == "1",
            },
            _ => return None,
        })
    }
}

/// The pooled two-proportion z statistic of `k1/n1` against `k0/n0`
/// (positive when the second proportion is the larger).
fn two_proportion_z((k0, n0): (u64, u64), (k1, n1): (u64, u64)) -> f64 {
    let (p0, p1) = (k0 as f64 / n0.max(1) as f64, k1 as f64 / n1.max(1) as f64);
    let pooled = (k0 + k1) as f64 / (n0 + n1).max(1) as f64;
    let se = (pooled * (1.0 - pooled) * (1.0 / n0 as f64 + 1.0 / n1 as f64)).sqrt();
    if se > 0.0 {
        (p1 - p0) / se
    } else {
        0.0
    }
}

/// The protocol's judgement of `post` against `base` (same row name).
fn judge(base: &Row, post: &Row) -> Result<String, String> {
    match (base, post) {
        (Row::Prop { k: k0, n: n0, .. }, Row::Prop { k: k1, n: n1, .. }) => {
            let p1 = *k1 as f64 / (*n1).max(1) as f64;
            let (lo, hi) = wilson_interval_95(*k0, *n0);
            if (lo..=hi).contains(&p1) {
                return Ok("inside baseline 95 % CI".into());
            }
            let z = two_proportion_z((*k0, *n0), (*k1, *n1));
            if z.abs() <= Z_CRIT {
                Ok(format!(
                    "two-proportion z = {z:.2}, not rejected at α = {ALPHA}"
                ))
            } else {
                Err(format!(
                    "two-proportion z = {z:.2}, rejected at α = {ALPHA}"
                ))
            }
        }
        (Row::Value { v: v0, .. }, Row::Value { v: v1, .. }) => {
            let rel = (v1 - v0) / v0.abs().max(1e-12);
            let note = format!(
                "{:+.2} % (tolerance ±{:.0} %)",
                rel * 100.0,
                VALUE_REL_TOL * 100.0
            );
            if rel.abs() <= VALUE_REL_TOL {
                Ok(note)
            } else {
                Err(note)
            }
        }
        (Row::Info { .. }, Row::Info { .. }) => Ok("informational".into()),
        (Row::Claim { holds: was, .. }, Row::Claim { holds, .. }) => match (was, holds) {
            (_, true) => Ok("claim holds".into()),
            (true, false) => Err("claim held in the baseline, fails now".into()),
            (false, false) => Ok("claim fails, as in the baseline (reported, not gated)".into()),
        },
        _ => Err("row kind differs from the baseline".into()),
    }
}

fn fig5_rows(rows: &mut Vec<Row>) {
    let runs = FIG5_RUNS as usize;
    let cells = witag_sim::par_map(
        FIG5_DISTANCES.len() * runs,
        witag_sim::available_threads(),
        |i| {
            let dist = FIG5_DISTANCES[i / runs];
            let cfg = ExperimentConfig::fig5(dist, fig5_seed(dist, (i % runs) as u64));
            Experiment::new(cfg)
                .expect("LOS link must admit a design")
                .run(FIG5_ROUNDS)
        },
    );
    let mut ber = Vec::new();
    let mut tput = Vec::new();
    for (di, &dist) in FIG5_DISTANCES.iter().enumerate() {
        let (mut errors, mut total, mut kbps) = (0u64, 0u64, 0.0);
        for stats in &cells[di * runs..(di + 1) * runs] {
            errors += stats.errors.errors() as u64;
            total += stats.errors.total as u64;
            kbps += stats.throughput_kbps() / runs as f64;
        }
        rows.push(Row::Prop {
            name: format!("fig5.ber.{dist:.0}m"),
            k: errors,
            n: total,
        });
        rows.push(Row::Value {
            name: format!("fig5.tput_kbps.{dist:.0}m"),
            v: kbps,
        });
        ber.push(errors as f64 / total.max(1) as f64);
        tput.push(kbps);
    }
    let (first, mid, last) = (0, FIG5_DISTANCES.len() / 2, FIG5_DISTANCES.len() - 1);
    rows.push(Row::Claim {
        name: "fig5.u_shape: BER at 4 m above both ends, throughput dips there".into(),
        holds: ber[mid] > ber[first]
            && ber[mid] > ber[last]
            && tput[mid] < tput[first]
            && tput[mid] < tput[last],
    });
    rows.push(Row::Claim {
        name: "fig5.scale: throughput within 40 Kbps ± 10 % at every distance".into(),
        holds: tput.iter().all(|&t| (36.0..=44.0).contains(&t)),
    });
}

fn fig6_rows(rows: &mut Vec<Row>) {
    // Even cells are location A, odd cells B, of pair `cell / 2`.
    let cells = witag_sim::par_map(
        2 * FIG6_PAIRS as usize,
        witag_sim::available_threads(),
        |i| {
            let k = (i / 2) as u64;
            let cfg = if i % 2 == 0 {
                ExperimentConfig::nlos_a(0x616 + 2 * k)
            } else {
                ExperimentConfig::nlos_b(0x617 + 2 * k)
            };
            let s = Experiment::new(cfg)
                .expect("NLOS link must admit a design")
                .run(FIG6_ROUNDS);
            (s.errors.errors() as u64, s.errors.total as u64)
        },
    );
    let pooled = |loc: usize| {
        cells.iter().skip(loc).step_by(2).fold((0, 0), |(k, n), c| (k + c.0, n + c.1))
    };
    let (a, b) = (pooled(0), pooled(1));
    for (name, (k, n)) in [("A", a), ("B", b)] {
        rows.push(Row::Prop {
            name: format!("fig6.ber.{name}"),
            k,
            n,
        });
    }
    let z = two_proportion_z(a, b);
    rows.push(Row::Info {
        name: "fig6.ordering_z".into(),
        v: z,
    });
    rows.push(Row::Claim {
        name: format!(
            "fig6.ordering: pooled BER at B above A over {FIG6_PAIRS} seed pairs (one-sided z-test)"
        ),
        holds: z > Z_CRIT_ONE_SIDED,
    });
}

fn mox_rows(rows: &mut Vec<Row>) {
    let distances = FIG5_DISTANCES;
    let equalisers = [MimoEqualiser::Zf, MimoEqualiser::Mmse];
    let per_streams = MOX_SEEDS as usize * distances.len() * equalisers.len();
    let points = witag_sim::par_map(
        MOX_STREAMS.len() * per_streams,
        witag_sim::available_threads(),
        |i| {
            let streams = MOX_STREAMS[i / per_streams];
            let j = i % per_streams;
            let cfg = MoxConfig {
                streams,
                equaliser: equalisers[j % equalisers.len()],
                seed: (j / (equalisers.len() * distances.len())) as u64,
                ..MoxConfig::default()
            };
            let dist = distances[(j / equalisers.len()) % distances.len()];
            let p = run_point(i as u32, dist, &cfg, &mut NullRecorder);
            (p.streams_hit() as u64, p.streams.len() as u64)
        },
    );
    for (si, &streams) in MOX_STREAMS.iter().enumerate() {
        let chunk = &points[si * per_streams..(si + 1) * per_streams];
        let hit: u64 = chunk.iter().map(|p| p.0).sum();
        let total: u64 = chunk.iter().map(|p| p.1).sum();
        rows.push(Row::Prop {
            name: format!("mox.streams_hit.{streams}ss"),
            k: hit,
            n: total,
        });
        rows.push(Row::Claim {
            name: format!("mox.{streams}ss: the tag corrupts over half the multiplexed streams"),
            holds: 2 * hit > total,
        });
    }
}

fn fleet_rows(rows: &mut Vec<Row>) {
    let mut delivered_any = true;
    for transport in [Transport::Arq, Transport::Fountain] {
        let mut cfg = FleetConfig::inventory(
            2,
            FLEET_TAGS,
            SchedulerKind::Fair,
            Duration::secs(FLEET_HORIZON_S),
            FLEET_SEED,
        )
        .with_transport(transport);
        for (i, p) in cfg.profiles.iter_mut().enumerate() {
            p.faults = Some(FaultPlan::hostile(FLEET_SEED ^ i as u64));
        }
        let rep = run_fleet(&cfg, &mut NullRecorder).expect("viable fleet");
        let name = transport.name();
        rows.push(Row::Prop {
            name: format!("fleet.delivered.{name}"),
            k: rep.delivered() as u64,
            n: FLEET_TAGS as u64,
        });
        rows.push(Row::Value {
            name: format!("fleet.goodput_bps.{name}"),
            v: rep.goodput_bps(),
        });
        delivered_any &= rep.delivered() > 0;
    }
    rows.push(Row::Claim {
        name: "fleet.hostile: both transports deliver under the hostile plan".into(),
        holds: delivered_any,
    });
}

fn table(rows: &[Row]) -> String {
    let mut s =
        String::from("# witag-science/1: name, kind (p/x/i/c), k|value|holds, n, estimate\n");
    for r in rows {
        let _ = writeln!(s, "{}", r.tsv());
    }
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline = match flag("--baseline").map(std::fs::read_to_string).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("science: cannot read the baseline table: {e}");
            return ExitCode::from(2);
        }
    };

    let mut rows = Vec::new();
    fig5_rows(&mut rows);
    fig6_rows(&mut rows);
    mox_rows(&mut rows);
    fleet_rows(&mut rows);
    let out = table(&rows);
    print!("{out}");
    if let Some(path) = flag("--out") {
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("science: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let Some(baseline) = baseline else {
        return ExitCode::SUCCESS;
    };
    let base: Vec<Row> = baseline
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(Row::parse)
        .collect();
    println!("\n| row | baseline | post | verdict |\n|---|---|---|---|");
    let mut failed = 0;
    for post in &rows {
        let (shown, verdict) = match base.iter().find(|b| b.name() == post.name()) {
            Some(b) => (b.show(), judge(b, post)),
            None => ("—".into(), Err("row missing from the baseline".into())),
        };
        let (word, why) = match verdict {
            Ok(why) => ("pass", why),
            Err(why) => {
                failed += 1;
                ("FAIL", why)
            }
        };
        println!(
            "| `{}` | {shown} | {} | {word}: {why} |",
            post.name(),
            post.show()
        );
    }
    let mut judged = rows.len();
    for b in base
        .iter()
        .filter(|b| rows.iter().all(|r| r.name() != b.name()))
    {
        failed += 1;
        judged += 1;
        println!(
            "| `{}` | {} | — | FAIL: row missing from this run |",
            b.name(),
            b.show()
        );
    }
    println!("\nverdict: {} of {judged} rows pass", judged - failed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_roundtrip_through_the_table() {
        let rows = vec![
            Row::Prop {
                name: "a".into(),
                k: 3,
                n: 400,
            },
            Row::Value {
                name: "b".into(),
                v: 42.25,
            },
            Row::Info {
                name: "c".into(),
                v: 0.01,
            },
            Row::Claim {
                name: "d: e".into(),
                holds: true,
            },
        ];
        let parsed: Vec<Row> = table(&rows)
            .lines()
            .skip(1)
            .filter_map(Row::parse)
            .collect();
        assert_eq!(parsed, rows);
    }

    #[test]
    fn protocol_accepts_noise_and_rejects_real_shifts() {
        let p = |k, n| Row::Prop {
            name: "r".into(),
            k,
            n,
        };
        // Inside the interval.
        assert!(judge(&p(100, 10_000), &p(104, 10_000)).is_ok());
        // Outside the interval, but not significant at α = 0.01.
        assert!(judge(&p(100, 10_000), &p(125, 10_000)).is_ok());
        // A doubled error rate is rejected.
        assert!(judge(&p(100, 10_000), &p(200, 10_000)).is_err());
        let v = |v| Row::Value {
            name: "v".into(),
            v,
        };
        assert!(judge(&v(40.0), &v(40.3)).is_ok());
        assert!(judge(&v(40.0), &v(41.0)).is_err());
        let c = |holds| Row::Claim {
            name: "c".into(),
            holds,
        };
        assert!(judge(&c(true), &c(true)).is_ok());
        assert!(judge(&c(true), &c(false)).is_err());
        assert!(judge(&c(false), &c(false)).is_ok());
        assert!(judge(&p(1, 2), &c(true)).is_err());
    }
}
