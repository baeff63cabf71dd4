//! The per-layer ledger of a traced run: timings taken around calls into
//! each crate's public functions, exact counts and ratios, and the
//! checks made along the way.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{median, Metric};

/// How a per-layer metric is derived from what the ledger recorded.
enum Source {
    /// Median of the timed samples under this key, in the unit's scale.
    Time(&'static str),
    /// A value set directly.
    Value,
}

/// Every per-layer metric a traced run prints, in print order.
const METRICS: &[(&str, &str, Source)] = &[
    ("phy.transmit_ms", "ms", Source::Time("phy.transmit")),
    ("phy.receive_ms", "ms", Source::Time("phy.receive")),
    ("phy.rx.viterbi_ms", "ms", Source::Time("phy.rx.viterbi")),
    ("phy.rx.demap_ms", "ms", Source::Time("phy.rx.demap")),
    (
        "phy.rx.deinterleave_ms",
        "ms",
        Source::Time("phy.rx.deinterleave"),
    ),
    (
        "phy.rx.depuncture_ms",
        "ms",
        Source::Time("phy.rx.depuncture"),
    ),
    (
        "phy.rx.descramble_ms",
        "ms",
        Source::Time("phy.rx.descramble"),
    ),
    ("phy.rx.other_ms", "ms", Source::Value),
    ("phy.legacy_tx_us", "us", Source::Time("phy.legacy_tx")),
    ("phy.legacy_rx_us", "us", Source::Time("phy.legacy_rx")),
    ("phy.receive.allocs", "count", Source::Value),
    ("phy.transmit_mu_ms", "ms", Source::Time("phy.transmit_mu")),
    (
        "phy.receive_mu.2ss_ms",
        "ms",
        Source::Time("phy.receive_mu.2ss"),
    ),
    (
        "phy.receive_mu.3ss_ms",
        "ms",
        Source::Time("phy.receive_mu.3ss"),
    ),
    (
        "phy.mimo.weights_us",
        "us",
        Source::Time("phy.mimo.weights"),
    ),
    (
        "channel.apply_ppdu_ms",
        "ms",
        Source::Time("channel.apply_ppdu"),
    ),
    (
        "channel.apply_legacy_us",
        "us",
        Source::Time("channel.apply_legacy"),
    ),
    ("channel.advance_us", "us", Source::Time("channel.advance")),
    (
        "channel.mimo_apply_ms",
        "ms",
        Source::Time("channel.mimo_apply"),
    ),
    ("channel.apply_ppdu.allocs", "count", Source::Value),
    ("mac.aggregate_us", "us", Source::Time("mac.aggregate")),
    ("mac.deaggregate_us", "us", Source::Time("mac.deaggregate")),
    ("mac.blockack_us", "us", Source::Time("mac.blockack")),
    ("mac.subframe_ok_frac", "ratio", Source::Value),
    ("core.round_ms", "ms", Source::Time("core.round")),
    (
        "core.build_query_ms",
        "ms",
        Source::Time("core.build_query"),
    ),
    ("core.round_self_ms", "ms", Source::Value),
    ("core.ledger_coverage", "ratio", Source::Value),
    ("core.round.allocs", "count", Source::Value),
    ("core.round.alloc_bytes", "B", Source::Value),
    ("core.mox_point_ms", "ms", Source::Time("core.mox_point")),
    ("net.metro_fair_ms", "ms", Source::Time("net.metro_fair")),
    (
        "net.metro_serial_ms",
        "ms",
        Source::Time("net.metro_serial"),
    ),
    ("net.metro.probe_frac", "ratio", Source::Value),
    ("net.metro.collision_rate", "ratio", Source::Value),
    ("net.metro.allocs", "count", Source::Value),
    ("net.fleet_arq_ms", "ms", Source::Time("net.fleet_arq")),
    (
        "net.fleet_fountain_ms",
        "ms",
        Source::Time("net.fleet_fountain"),
    ),
    ("net.fleet.collision_rate", "ratio", Source::Value),
    ("net.fleet.rounds_per_delivered", "ratio", Source::Value),
    ("obs.record_ms", "ms", Source::Value),
    ("obs.report_ms", "ms", Source::Time("obs.report")),
    ("obs.trace_bytes_per_round", "B/round", Source::Value),
];

/// Seconds per unit of a time metric.
fn scale(unit: &str) -> f64 {
    match unit {
        "ms" => 1e3,
        "us" => 1e6,
        _ => 1.0,
    }
}

/// Run `f`, returning its result and its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Timed samples, set values and check outcomes of one traced run.
#[derive(Default)]
pub(crate) struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
    /// Operations (steps) the traced run attempted.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Run `f`, recording its wall time in seconds under `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, seconds) = timed(f);
        self.push(key, seconds);
        out
    }

    /// Record one sample (seconds) under `key`.
    pub fn push(&mut self, key: &'static str, seconds: f64) {
        self.samples.entry(key).or_default().push(seconds);
    }

    /// Median of the samples under `key`, seconds (0 when none).
    pub fn median(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    /// Set a directly derived metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one operation and record its failure, if any.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Every per-layer metric, or an error naming one that was never
    /// measured (a gap in the ledger, not a program failure).
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        METRICS
            .iter()
            .map(|(name, unit, source)| {
                let value = match source {
                    Source::Time(key) => self.samples.get(key).map(|v| median(v) * scale(unit)),
                    Source::Value => self.values.get(name).copied(),
                };
                value
                    .map(|value| Metric { name, value, unit })
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect()
    }
}
