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
//! - FIG5: BER and throughput at 1–7 m, each over [`FIG5_SEEDS`] channel
//!   seeds per distance;
//! - FIG6: BER at NLOS locations A and B and the gap between them, over
//!   [`FIG6_PAIRS`] seed pairs;
//! - MOX: the fraction of multiplexed streams a single tag corrupts, at
//!   2 and 3 streams, over [`MOX_SEEDS`] channel seeds, both equalisers;
//! - FLEET: delivered count and goodput of a 2×100-tag fleet under
//!   `FaultPlan::hostile`, ARQ and fountain transports;
//!
//! and the paper's shape claims over them: the FIG5 U-shape and 40 Kbps
//! scale, the FIG6 ordering (B's BER above A's, one-sided paired t-test
//! over the pairs), MOX corrupting most multiplexed streams, and a
//! hostile fleet still delivering.
//!
//! **Seeds are the unit.** A seed is one channel realisation, one room.
//! Between rooms the BER varies far more than the bits inside one room
//! say, so every estimate that a channel seed drives keeps one sample
//! per seed: per-seed error counts (`s` rows) or per-seed values (`m`
//! rows). Its interval is a Student t-interval over the seeds, and the
//! bit-level pooled count is shown beside it.
//!
//! **The protocol.** A change that moves output bits runs this suite on
//! the parent and on the change, with `--baseline` naming the parent's
//! table. Each row passes when:
//!
//! - a per-seed (`s`) row's Welch t-test of the per-seed proportions
//!   does not reject equality at α = [`ALPHA`] (two-sided). The pooled
//!   two-proportion z is printed as a second column: it is the sharper
//!   test for a change that keeps every channel and moves only the
//!   decoder, and it overstates a change that redraws the channels;
//! - a per-seed (`m`) row lies within [`VALUE_REL_TOL`] of the parent's
//!   mean, or a Welch t-test does not reject equality at α;
//! - a proportion (`p`) row's estimate lies inside the parent's Wilson
//!   95 % interval, or a pooled two-proportion z-test does not reject
//!   equality at α;
//! - a value (`x`) row lies within [`VALUE_REL_TOL`] of the parent's;
//! - a claim (`c`) row holds, or already failed in the baseline. A
//!   claim that held and now fails is a regression; one that failed
//!   before is reported in every verdict but cannot block a change it
//!   did not come from. The estimate under a claim is a row of its own
//!   and is judged like any other.
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

/// Significance level of every test (two-sided for estimates, one-sided
/// for the ordering claim).
const ALPHA: f64 = 0.01;
/// Two-sided critical value of the standard normal at [`ALPHA`].
const Z_CRIT: f64 = 2.5758;
/// Relative tolerance of a value row (throughput, goodput).
const VALUE_REL_TOL: f64 = 0.01;

/// FIG5 tag distances from the client, metres.
const FIG5_DISTANCES: [f64; 7] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
/// FIG5 channel seeds per distance and rounds per seed.
const FIG5_SEEDS: u64 = 16;
const FIG5_ROUNDS: usize = 40;
/// FIG6 seed pairs: pair `k` runs `nlos_a` and `nlos_b` on the same
/// seed `0x616 + k`, [`FIG6_ROUNDS`] rounds each. The two locations
/// share their random draws, so the per-pair gap B − A isolates the
/// location (common random numbers).
const FIG6_PAIRS: u64 = 48;
const FIG6_ROUNDS: usize = 100;
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
    /// `k` events in `n` trials, one count per channel seed.
    Seeded {
        name: String,
        counts: Vec<(u64, u64)>,
    },
    /// One value per channel seed.
    Samples { name: String, xs: Vec<f64> },
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
            Row::Seeded { name, .. }
            | Row::Samples { name, .. }
            | Row::Prop { name, .. }
            | Row::Value { name, .. }
            | Row::Info { name, .. }
            | Row::Claim { name, .. } => name,
        }
    }

    /// The per-seed samples of a seeded row.
    fn samples(&self) -> Vec<f64> {
        match self {
            Row::Seeded { counts, .. } => counts
                .iter()
                .map(|&(k, n)| k as f64 / n.max(1) as f64)
                .collect(),
            Row::Samples { xs, .. } => xs.clone(),
            _ => Vec::new(),
        }
    }

    /// Human-readable estimate, with the interval for proportions.
    fn show(&self) -> String {
        match self {
            Row::Seeded { counts, .. } => {
                let (k, n) = pooled(counts);
                format!("{}, pooled {k}/{n}", show_mean(&self.samples()))
            }
            Row::Samples { xs, .. } => show_mean(xs),
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

    /// Tab-separated line: name, kind, two fields, then the
    /// human-readable estimate. A seeded row's first field lists its
    /// samples, comma-separated, and its second counts them.
    fn tsv(&self) -> String {
        let (kind, a, b) = match self {
            Row::Seeded { counts, .. } => (
                "s",
                counts
                    .iter()
                    .map(|(k, n)| format!("{k}/{n}"))
                    .collect::<Vec<_>>()
                    .join(","),
                counts.len().to_string(),
            ),
            Row::Samples { xs, .. } => (
                "m",
                xs.iter()
                    .map(|x| format!("{x:.6}"))
                    .collect::<Vec<_>>()
                    .join(","),
                xs.len().to_string(),
            ),
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
            "s" => Row::Seeded {
                name,
                counts: a
                    .split(',')
                    .map(|c| {
                        let (k, n) = c.split_once('/')?;
                        Some((k.parse().ok()?, n.parse().ok()?))
                    })
                    .collect::<Option<_>>()?,
            },
            "m" => Row::Samples {
                name,
                xs: a
                    .split(',')
                    .map(|x| x.parse().ok())
                    .collect::<Option<_>>()?,
            },
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

fn pooled(counts: &[(u64, u64)]) -> (u64, u64) {
    counts
        .iter()
        .fold((0, 0), |(k, n), &(ki, ni)| (k + ki, n + ni))
}

/// Mean and unbiased variance of a sample.
fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n.max(1.0);
    let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    (mean, if xs.len() > 1 { ss / (n - 1.0) } else { 0.0 })
}

fn mean(xs: &[f64]) -> f64 {
    mean_var(xs).0
}

/// `mean (lo–hi), m seeds` with the two-sided 95 % t-interval.
fn show_mean(xs: &[f64]) -> String {
    let (m, var) = mean_var(xs);
    let half = if xs.len() > 1 {
        t_quantile(0.975, xs.len() as f64 - 1.0) * (var / xs.len() as f64).sqrt()
    } else {
        f64::INFINITY
    };
    format!(
        "{m:.4} ({:.4}–{:.4}), {} seeds",
        m - half,
        m + half,
        xs.len()
    )
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms; relative error
/// below 1e-13 over the range the t-distribution needs).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1 − x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularised incomplete beta function `I_x(a, b)`, by the
/// continued fraction (modified Lentz), mirrored through
/// `I_x(a, b) = 1 − I_{1−x}(b, a)` where that converges faster.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - inc_beta(b, a, 1.0 - x);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    const TINY: f64 = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut f = d;
    for m in 1..=300 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * f / a
}

/// `P(T > t)` for Student's t with `df` degrees of freedom.
fn t_sf(t: f64, df: f64) -> f64 {
    let tail = 0.5 * inc_beta(df / 2.0, 0.5, df / (df + t * t));
    if t >= 0.0 {
        tail
    } else {
        1.0 - tail
    }
}

/// The `q`-quantile of Student's t with `df` degrees of freedom
/// (`q > 0.5`), by bisection on [`t_sf`].
fn t_quantile(q: f64, df: f64) -> f64 {
    let (mut lo, mut hi) = (0.0, 1e4);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if 1.0 - t_sf(mid, df) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Welch's t statistic of `post`'s mean against `base`'s, with its
/// Welch–Satterthwaite degrees of freedom. Two samples without spread
/// give t = 0 when their means agree and ±∞ when they do not.
fn welch_t(base: &[f64], post: &[f64]) -> (f64, f64) {
    let ((m0, v0), (m1, v1)) = (mean_var(base), mean_var(post));
    let (n0, n1) = (base.len() as f64, post.len() as f64);
    let (e0, e1) = (v0 / n0, v1 / n1);
    let se = (e0 + e1).sqrt();
    if se == 0.0 {
        let t = if m1 == m0 {
            0.0
        } else {
            (m1 - m0).signum() * f64::INFINITY
        };
        return (t, n0 + n1 - 2.0);
    }
    let df = (e0 + e1).powi(2) / (e0 * e0 / (n0 - 1.0).max(1.0) + e1 * e1 / (n1 - 1.0).max(1.0));
    ((m1 - m0) / se, df)
}

/// The two-sided Welch test: `(note, rejected at α)`.
fn welch_verdict(base: &[f64], post: &[f64]) -> (String, bool) {
    let (t, df) = welch_t(base, post);
    let p = 2.0 * t_sf(t.abs(), df);
    (
        format!("Welch t = {t:.2} (df {df:.1}, p = {p:.3})"),
        p < ALPHA,
    )
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
        (Row::Seeded { counts: c0, .. }, Row::Seeded { counts: c1, .. }) => {
            let (note, rejected) = welch_verdict(&base.samples(), &post.samples());
            let z = two_proportion_z(pooled(c0), pooled(c1));
            let word = if rejected { "rejected" } else { "not rejected" };
            let note = format!("{note}, {word} at α = {ALPHA}; bit-level z = {z:.2}");
            if rejected {
                Err(note)
            } else {
                Ok(note)
            }
        }
        (Row::Samples { xs: x0, .. }, Row::Samples { xs: x1, .. }) => {
            let (m0, m1) = (mean(x0), mean(x1));
            let rel = (m1 - m0) / m0.abs().max(1e-12);
            let (note, rejected) = welch_verdict(x0, x1);
            let note = format!(
                "{:+.2} % (tolerance ±{:.0} %), {note}",
                rel * 100.0,
                VALUE_REL_TOL * 100.0
            );
            if rel.abs() <= VALUE_REL_TOL || !rejected {
                Ok(note)
            } else {
                Err(format!("{note}, rejected at α = {ALPHA}"))
            }
        }
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
    let seeds = FIG5_SEEDS as usize;
    let cells = witag_sim::par_map(
        FIG5_DISTANCES.len() * seeds,
        witag_sim::available_threads(),
        |i| {
            let dist = FIG5_DISTANCES[i / seeds];
            let cfg = ExperimentConfig::fig5(dist, fig5_seed(dist, (i % seeds) as u64));
            Experiment::new(cfg)
                .expect("LOS link must admit a design")
                .run(FIG5_ROUNDS)
        },
    );
    let mut ber = Vec::new();
    let mut tput = Vec::new();
    for (di, &dist) in FIG5_DISTANCES.iter().enumerate() {
        let cells = &cells[di * seeds..(di + 1) * seeds];
        let ber_row = Row::Seeded {
            name: format!("fig5.ber.{dist:.0}m"),
            counts: cells
                .iter()
                .map(|s| (s.errors.errors() as u64, s.errors.total as u64))
                .collect(),
        };
        let kbps: Vec<f64> = cells.iter().map(|s| s.throughput_kbps()).collect();
        ber.push(mean(&ber_row.samples()));
        tput.push(mean(&kbps));
        rows.push(ber_row);
        rows.push(Row::Samples {
            name: format!("fig5.tput_kbps.{dist:.0}m"),
            xs: kbps,
        });
    }
    let (first, mid, last) = (0, FIG5_DISTANCES.len() / 2, FIG5_DISTANCES.len() - 1);
    rows.push(Row::Claim {
        name: "fig5.u_shape: mean BER at 4 m above both ends, throughput dips there".into(),
        holds: ber[mid] > ber[first]
            && ber[mid] > ber[last]
            && tput[mid] < tput[first]
            && tput[mid] < tput[last],
    });
    rows.push(Row::Claim {
        name: "fig5.scale: mean throughput within 40 Kbps ± 10 % at every distance".into(),
        holds: tput.iter().all(|&t| (36.0..=44.0).contains(&t)),
    });
}

fn fig6_rows(rows: &mut Vec<Row>) {
    // Even cells are location A, odd cells B, of pair `cell / 2`.
    let cells = witag_sim::par_map(
        2 * FIG6_PAIRS as usize,
        witag_sim::available_threads(),
        |i| {
            let seed = 0x616 + (i / 2) as u64;
            let cfg = if i % 2 == 0 {
                ExperimentConfig::nlos_a(seed)
            } else {
                ExperimentConfig::nlos_b(seed)
            };
            let s = Experiment::new(cfg)
                .expect("NLOS link must admit a design")
                .run(FIG6_ROUNDS);
            (s.errors.errors() as u64, s.errors.total as u64)
        },
    );
    let location =
        |loc: usize| -> Vec<(u64, u64)> { cells.iter().skip(loc).step_by(2).copied().collect() };
    let (a, b) = (
        Row::Seeded {
            name: "fig6.ber.A".into(),
            counts: location(0),
        },
        Row::Seeded {
            name: "fig6.ber.B".into(),
            counts: location(1),
        },
    );
    let gap: Vec<f64> = a
        .samples()
        .iter()
        .zip(b.samples())
        .map(|(a, b)| b - a)
        .collect();
    // One-sided paired t-test of B − A > 0.
    let (m, var) = mean_var(&gap);
    let t = m / (var / gap.len() as f64).sqrt();
    let p = t_sf(t, gap.len() as f64 - 1.0);
    rows.push(a);
    rows.push(b);
    rows.push(Row::Samples {
        name: "fig6.gap_B_minus_A".into(),
        xs: gap,
    });
    rows.push(Row::Info {
        name: "fig6.ordering_t".into(),
        v: t,
    });
    rows.push(Row::Claim {
        name: format!(
            "fig6.ordering: BER at B above A over {FIG6_PAIRS} seed pairs (one-sided paired t-test)"
        ),
        holds: p < ALPHA,
    });
}

fn mox_rows(rows: &mut Vec<Row>) {
    let distances = FIG5_DISTANCES;
    let equalisers = [MimoEqualiser::Zf, MimoEqualiser::Mmse];
    let per_seed = distances.len() * equalisers.len();
    let per_streams = MOX_SEEDS as usize * per_seed;
    let points = witag_sim::par_map(
        MOX_STREAMS.len() * per_streams,
        witag_sim::available_threads(),
        |i| {
            let streams = MOX_STREAMS[i / per_streams];
            let j = i % per_streams;
            let cfg = MoxConfig {
                streams,
                equaliser: equalisers[j % equalisers.len()],
                seed: (j / per_seed) as u64,
                ..MoxConfig::default()
            };
            let dist = distances[(j / equalisers.len()) % distances.len()];
            let p = run_point(i as u32, dist, &cfg, &mut NullRecorder);
            (p.streams_hit() as u64, p.streams.len() as u64)
        },
    );
    for (si, &streams) in MOX_STREAMS.iter().enumerate() {
        let chunk = &points[si * per_streams..(si + 1) * per_streams];
        let row = Row::Seeded {
            name: format!("mox.streams_hit.{streams}ss"),
            counts: chunk.chunks(per_seed).map(pooled).collect(),
        };
        let hit = mean(&row.samples());
        rows.push(row);
        rows.push(Row::Claim {
            name: format!("mox.{streams}ss: the tag corrupts over half the multiplexed streams"),
            holds: hit > 0.5,
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
    let mut s = String::from(
        "# witag-science/2: name, kind (s/m/p/x/i/c), per-seed samples|k|value|holds, seeds|n, estimate\n",
    );
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
            Row::Seeded {
                name: "s".into(),
                counts: vec![(3, 400), (0, 400), (17, 380)],
            },
            Row::Samples {
                name: "m".into(),
                xs: vec![42.25, 41.5, -0.000125],
            },
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
    fn t_distribution_matches_tabulated_quantiles() {
        // Two-sided 5 % and 1 % points at 10 and 30 degrees of freedom.
        for (q, df, t) in [
            (0.975, 10.0, 2.228_139),
            (0.995, 10.0, 3.169_273),
            (0.975, 30.0, 2.042_272),
            (0.99, 30.0, 2.457_262),
            (0.975, 1.0, 12.706_205),
        ] {
            assert!((t_quantile(q, df) - t).abs() < 1e-5, "q {q} df {df}");
            assert!((t_sf(t, df) - (1.0 - q)).abs() < 1e-7, "q {q} df {df}");
        }
        // Large df approaches the normal.
        assert!((t_sf(Z_CRIT, 1e7) - ALPHA / 2.0).abs() < 1e-5);
        assert!((t_sf(-1.0, 5.0) + t_sf(1.0, 5.0) - 1.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
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

    #[test]
    fn seeded_rows_count_rooms_not_bits() {
        let s = |counts: &[u64]| Row::Seeded {
            name: "s".into(),
            counts: counts.iter().map(|&k| (k, 10_000)).collect(),
        };
        // Rooms whose error rates spread from 0.1 % to 16 %: a redraw of
        // the same spread moves the pooled rate far past any bit-level
        // interval, and the per-seed test does not reject it.
        let base = s(&[10, 40, 120, 300, 800, 1600, 90, 30]);
        let redrawn = s(&[20, 60, 30, 150, 1500, 70, 400, 110]);
        assert!(judge(&base, &redrawn).is_ok());
        let (Row::Seeded { counts: c0, .. }, Row::Seeded { counts: c1, .. }) = (&base, &redrawn)
        else {
            unreachable!()
        };
        assert!(two_proportion_z(pooled(c0), pooled(c1)).abs() > Z_CRIT);
        // Every room ten points worse is rejected.
        let worse = s(&[1010, 1040, 1120, 1300, 1800, 2600, 1090, 1030]);
        assert!(judge(&base, &worse).is_err());
        // Identical rooms pass; a shift without spread fails.
        assert!(judge(&s(&[5; 8]), &s(&[5; 8])).is_ok());
        assert!(judge(&s(&[5; 8]), &s(&[6; 8])).is_err());
        let m = |xs: &[f64]| Row::Samples {
            name: "m".into(),
            xs: xs.to_vec(),
        };
        // A value row passes inside the tolerance even without spread,
        // and outside it when the seeds do not tell the means apart.
        assert!(judge(&m(&[42.0; 4]), &m(&[42.2; 4])).is_ok());
        assert!(judge(&m(&[40.0, 44.0, 38.0, 46.0]), &m(&[42.0, 45.0, 40.0, 47.0])).is_ok());
        assert!(judge(&m(&[40.0, 40.1, 39.9, 40.0]), &m(&[42.0, 42.1, 41.9, 42.0])).is_err());
    }
}
