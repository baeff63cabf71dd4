//! `fig5_rounds`: the paper's query round (Figure 5 geometry) with the
//! tag at 1–7 m from the client, and the ledger of the PHY, channel, MAC
//! and core layers under it.

use witag::experiment::{Experiment, ExperimentConfig, RoundResult};
use witag::query::QueryDesign;
use witag::reader::BitErrors;
use witag_channel::{Link, TagMode, TagSchedule};
use witag_mac::{aggregate, deaggregate, Addr, BlockAck, FrameKind, MacHeader, Mpdu, Security};
use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::convolutional::{depuncture_into, viterbi_decode_stream_into, ViterbiScratch};
use witag_phy::interleaver::{InterleaverDims, InterleaverPerm};
use witag_phy::modulation::{axis_scale, demap_symbol_into};
use witag_phy::params::timing;
use witag_phy::ppdu::{bits_to_bytes_into, pilot_values, transmit, Ppdu};
use witag_phy::receiver::{receive_with_scratch, RxScratch};
use witag_phy::scrambler::Scrambler;
use witag_phy::{legacy_receive_with_scratch, legacy_transmit, Complex64};
use witag_sim::time::Instant as SimInstant;
use witag_sim::Rng;
use witag_tag::{EnergyTrace, EnvelopeDetector, Tag, TagConfig};

use crate::alloc;
use crate::ledger::{timed, Ledger};
use crate::{Tally, Workload};

/// Tag distances from the client, metres; one round at each per step.
const DISTANCES: [f64; 7] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];

/// One experiment per distance, each on its own scenario seed: with one
/// seed for all, an interference burst drawn from the shared stream hits
/// every distance in the same round.
fn configs(seed: u64) -> Vec<ExperimentConfig> {
    DISTANCES
        .iter()
        .zip(crate::seed_pool(seed, DISTANCES.len()))
        .map(|(&d, s)| ExperimentConfig::fig5(d, s))
        .collect()
}

/// Rounds at each distance per step. Six make a step of about 0.6 s, so
/// a run times 30–40 steps and the tail percentile (rank `n − 10` of `n`
/// steps) sits near p70–p75 rather than in the last few percent, where
/// brief host slowdowns decide it.
const ROUNDS_PER_DISTANCE: usize = 6;

/// Steps over which the simulated metrics are computed: 36 rounds per
/// distance average out most of the round-to-round variation.
pub(crate) const REFERENCE_STEPS: usize = 6;

/// The round's tag bits come from their own stream, separate from every
/// stream inside the program.
fn bit_source(seed: u64) -> Rng {
    Rng::seed_from_u64(seed).fork(0xB175)
}

fn random_bits(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
}

struct Fig5 {
    exps: Vec<Experiment>,
    bits: Rng,
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    let exps = configs(seed)
        .into_iter()
        .map(|cfg| Experiment::new(cfg).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Box::new(Fig5 {
        exps,
        bits: bit_source(seed),
    }))
}

/// Tally one round into `t` and `errors`.
fn tally_round(r: &RoundResult, t: &mut Tally, errors: &mut BitErrors) {
    t.rounds += 1;
    t.good_bits += (r.errors.total - r.errors.errors()) as u64;
    t.sim_ns += r.airtime.as_nanos();
    t.streams += 1;
    // The tag changed the bitmap when the client read back a NAK'd data
    // subframe from a block ACK that arrived.
    if !r.ba_lost && r.readout.bits.contains(&0) {
        t.streams_hit += 1;
    }
    errors.merge(&r.errors);
}

/// The step's output check.
fn check_step(
    exps: &[Experiment],
    requested: usize,
    t: &Tally,
    errors: &BitErrors,
) -> Result<(), String> {
    if t.rounds != requested as u64 {
        return Err(format!(
            "{} rounds counted, {requested} requested",
            t.rounds
        ));
    }
    if let Some(e) = exps.iter().find(|e| e.decrypt_failures != 0) {
        return Err(format!("{} decrypt failures", e.decrypt_failures));
    }
    if errors.ber() >= 0.5 {
        return Err(format!("BER {} is not below 0.5", errors.ber()));
    }
    Ok(())
}

impl Workload for Fig5 {
    fn step(&mut self) -> Result<Tally, String> {
        let mut t = Tally::default();
        let mut errors = BitErrors::default();
        for _ in 0..ROUNDS_PER_DISTANCE {
            for exp in &mut self.exps {
                let bits = random_bits(&mut self.bits, exp.design.bits_per_query());
                let r = exp.run_round(&bits);
                tally_round(&r, &mut t, &mut errors);
            }
        }
        let requested = ROUNDS_PER_DISTANCE * DISTANCES.len();
        check_step(&self.exps, requested, &t, &errors)?;
        Ok(t)
    }
}

/// Reusable buffers of the staged receive replay.
#[derive(Default)]
struct StageBufs {
    h_data: Vec<Complex64>,
    scales: Vec<f64>,
    eqs: Vec<Complex64>,
    llrs: Vec<f64>,
    coded: Vec<f64>,
    soft: Vec<f64>,
    bits: Vec<u8>,
    bytes: Vec<u8>,
    viterbi: ViterbiScratch,
    perms: Vec<InterleaverPerm>,
}

/// Replay the single-stream receive chain stage by stage with the PHY's
/// public stage functions, timing demap, deinterleave, depuncture,
/// Viterbi and descramble. Estimation, equalisation and byte packing
/// stay untimed: they are the `phy.rx.other_ms` remainder. Returns the
/// decoded PSDU, which must equal what `receive` decoded.
fn staged_receive<'a>(
    rx: &Ppdu,
    noise_var: f64,
    b: &'a mut StageBufs,
    led: &mut Ledger,
) -> &'a [u8] {
    let config = &rx.config;
    assert_eq!(
        config.mcs.spatial_streams, 1,
        "the fig5 query is single-stream"
    );
    let layout = config.layout();
    let modulation = config.mcs.modulation;
    let dims = InterleaverDims::ht(config.bandwidth, modulation.bits_per_subcarrier());
    if !b.perms.iter().any(|p| p.dims() == dims) {
        b.perms.push(InterleaverPerm::new(dims));
    }
    let perm = b
        .perms
        .iter()
        .find(|p| p.dims() == dims)
        .expect("cached above");
    let h = &rx.ltfs[0].streams[0];
    let data_pos = layout.data_positions();
    let pilots = pilot_values(layout.pilot_positions().len());

    b.h_data.clear();
    b.scales.clear();
    for &pos in data_pos {
        let hv = h[pos];
        b.h_data.push(hv);
        b.scales
            .push(axis_scale(modulation, noise_var / hv.norm_sqr().max(1e-9)));
    }
    b.eqs.clear();
    for sym in &rx.symbols {
        let raw = &sym.streams[0];
        let mut acc = Complex64::ZERO;
        for (&pos, &pv) in layout.pilot_positions().iter().zip(&pilots) {
            acc += raw[pos] * (h[pos] * pv).conj();
        }
        let cpe = if acc.abs() > 1e-12 {
            Complex64::from_polar(1.0, -acc.arg())
        } else {
            Complex64::ONE
        };
        for (i, &pos) in data_pos.iter().enumerate() {
            b.eqs.push(raw[pos] * cpe / b.h_data[i]);
        }
    }

    let n_data = data_pos.len();
    let ncbps = config.ncbps();
    led.time("phy.rx.demap", || {
        b.llrs.clear();
        for eq in b.eqs.chunks(n_data) {
            demap_symbol_into(eq, modulation, &b.scales, &mut b.llrs);
        }
    });
    led.time("phy.rx.deinterleave", || {
        b.coded.clear();
        for llrs in b.llrs.chunks(ncbps) {
            perm.deinterleave_append(llrs, &mut b.coded);
        }
    });

    let n_total = rx.symbols.len() * config.ndbps();
    led.time("phy.rx.depuncture", || {
        depuncture_into(&b.coded, config.mcs.code_rate, 2 * n_total, &mut b.soft)
    });
    led.time("phy.rx.viterbi", || {
        viterbi_decode_stream_into(&b.soft, n_total, &mut b.viterbi, &mut b.bits)
    });
    led.time("phy.rx.descramble", || {
        Scrambler::new(config.scrambler_seed).apply(&mut b.bits)
    });
    bits_to_bytes_into(&b.bits[16..16 + 8 * rx.psdu_len], &mut b.bytes);
    &b.bytes
}

/// A replica of one experiment's query round built from the layers'
/// public functions, each call timed on its own. It uses the same
/// configuration, links (same seeds) and design as the experiment, but
/// skips contention backoff, faults and energy, so its rounds are like
/// the experiment's, not identical to them.
struct Shadow {
    design: QueryDesign,
    link: Link,
    reverse: Link,
    tag: Tag,
    security: Security,
    reference: TagMode,
    scratch: RxScratch,
    stages: StageBufs,
    now: SimInstant,
    seq: u16,
}

impl Shadow {
    fn new(cfg: &ExperimentConfig) -> Result<Shadow, String> {
        // `Experiment::new` draws the two link seeds in this order.
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let link = Link::new(
            &cfg.floorplan,
            cfg.client,
            cfg.ap,
            Some(cfg.tag),
            cfg.link.clone(),
            rng.next_u64(),
        );
        let reverse = Link::new(
            &cfg.floorplan,
            cfg.ap,
            cfg.client,
            Some(cfg.tag),
            cfg.link.clone(),
            rng.next_u64(),
        );
        let design = QueryDesign::best_in(
            &link,
            &cfg.clock,
            cfg.n_subframes,
            cfg.guard_subframes,
            cfg.design_space,
        )
        .map_err(|e| e.to_string())?;
        let tag = Tag::new(TagConfig {
            oscillator: cfg.clock,
            temperature_delta: cfg.temperature_delta,
            detector: EnvelopeDetector::default(),
            profile: design.tag_profile(),
            encoding: cfg.encoding,
        });
        Ok(Shadow {
            design,
            link,
            reverse,
            tag,
            security: Security::Open,
            reference: cfg.encoding.reference(),
            scratch: RxScratch::new(),
            stages: StageBufs::default(),
            now: SimInstant::ZERO,
            seq: 0,
        })
    }

    /// The query's MPDUs, as `QueryDesign::build_query` makes them for an
    /// open network.
    fn mpdus(&self) -> Vec<Mpdu> {
        let (client, ap) = (Addr::local(1), Addr::local(2));
        (0..self.design.n_subframes)
            .map(|i| {
                let mut header = MacHeader::qos_null(ap, client, ap, (self.seq + i as u16) % 4096);
                header.kind = FrameKind::QosData;
                Mpdu {
                    header,
                    payload: vec![0xA5u8; self.design.payload_len()],
                }
            })
            .collect()
    }

    /// Run one round, timing each layer call. Returns the summed time of
    /// the round's timed children (seconds).
    fn round(
        &mut self,
        bits: &[u8],
        led: &mut Ledger,
        counts: &mut RoundCounts,
    ) -> Result<f64, String> {
        let design = &self.design;
        let profile = design.tag_profile();
        let incident = self.link.tag_incident_dbm(1.0);
        let mut trace = EnergyTrace::new();
        let mut t = self.now + timing::DIFS;
        let bursts = &profile.signature.bursts;
        for (i, &burst) in bursts.iter().enumerate() {
            trace.push(t, t + burst, incident);
            t += burst;
            if i + 1 != bursts.len() {
                t += timing::SIFS;
            }
        }
        t += profile.marker_gap;
        let ppdu_start = t;

        let (built, build_s) = timed(|| {
            design.build_query(Addr::local(1), Addr::local(2), &mut self.security, self.seq)
        });
        let built = built.map_err(|e| e.to_string())?;
        // build_query calls aggregate and transmit; replaying those two
        // on the same MPDUs times them, and the rest of build_s is
        // build_query's self time.
        let mpdus = self.mpdus();
        let ((psdu, _), aggregate_s) = timed(|| aggregate(&mpdus));
        led.push("mac.aggregate", aggregate_s);
        let (ppdu, transmit_s) = timed(|| transmit(&design.phy, &psdu));
        led.push("phy.transmit", transmit_s);
        led.push("core.build_query", build_s - aggregate_s - transmit_s);
        if ppdu.symbols.len() != built.ppdu.symbols.len() {
            return Err("replayed query differs from the built one".into());
        }

        let airtime = built.ppdu.airtime();
        trace.push(ppdu_start, ppdu_start + airtime, incident);
        let n_symbols = built.ppdu.symbols.len();
        // The tag runs inside the round and is not measured on its own:
        // its planning here only produces the replay's schedule.
        self.tag.push_bits(bits);
        let schedule = match self.tag.respond(&trace) {
            Some(p) => p.to_tag_schedule(ppdu_start, &design.phy, n_symbols, self.reference),
            None => {
                self.tag.drop_pending(bits.len());
                TagSchedule::constant(self.reference, n_symbols)
            }
        };

        let noise_var = self.link.noise_var();
        let link = &mut self.link;
        let ((rx, allocs, _), apply_s) =
            timed(|| alloc::count(|| link.apply_ppdu(&built.ppdu, &schedule)));
        led.push("channel.apply_ppdu", apply_s);
        counts.apply_allocs.push(allocs as f64);

        let scratch = &mut self.scratch;
        let ((decoded, allocs, _), receive_s) =
            timed(|| alloc::count(|| receive_with_scratch(&rx, noise_var, scratch)));
        led.push("phy.receive", receive_s);
        counts.receive_allocs.push(allocs as f64);
        if staged_receive(&rx, noise_var, &mut self.stages, led) != decoded.bytes.as_slice() {
            return Err("staged receive decoded other bytes than receive".into());
        }

        let (outcomes, deaggregate_s) = timed(|| deaggregate(&decoded.bytes));
        led.push("mac.deaggregate", deaggregate_s);
        counts.subframes_ok += outcomes.iter().filter(|o| o.mpdu.is_some()).count();
        counts.subframes += outcomes.len();

        let seq = self.seq;
        let (ba_bytes, ba_tx_s) = timed(|| {
            BlockAck::from_outcomes(Addr::local(1), Addr::local(2), 0, seq, &outcomes).to_bytes()
        });
        let (tx, legacy_tx_s) = timed(|| legacy_transmit(LegacyRate::M24, &ba_bytes));
        led.push("phy.legacy_tx", legacy_tx_s);
        let reverse = &mut self.reverse;
        let (lrx, apply_legacy_s) = timed(|| reverse.apply_legacy(&tx, self.reference));
        led.push("channel.apply_legacy", apply_legacy_s);
        let reverse_noise = self.reverse.noise_var();
        let scratch = &mut self.scratch;
        let (lbytes, legacy_rx_s) =
            timed(|| legacy_receive_with_scratch(&lrx, reverse_noise, scratch));
        led.push("phy.legacy_rx", legacy_rx_s);
        let (_, ba_rx_s) = timed(|| BlockAck::from_bytes(&lbytes));
        led.push("mac.blockack", ba_tx_s + ba_rx_s);

        let ba_air = block_ack_airtime(LegacyRate::M24);
        let round_air = (ppdu_start - self.now) + airtime + timing::SIFS + ba_air;
        self.now = ppdu_start + airtime + timing::SIFS + ba_air;
        self.seq = (self.seq + design.n_subframes as u16) % 4096;
        let (link, reverse) = (&mut self.link, &mut self.reverse);
        let (_, advance_s) = timed(|| {
            link.advance(round_air);
            reverse.advance(round_air);
        });
        led.push("channel.advance", advance_s);

        Ok(build_s
            + apply_s
            + receive_s
            + deaggregate_s
            + ba_tx_s
            + legacy_tx_s
            + apply_legacy_s
            + legacy_rx_s
            + ba_rx_s
            + advance_s)
    }
}

/// Exact counts gathered over the shadow rounds.
#[derive(Default)]
struct RoundCounts {
    apply_allocs: Vec<f64>,
    receive_allocs: Vec<f64>,
    subframes_ok: usize,
    subframes: usize,
}

/// Field-by-field equality of two round results.
fn same_round(a: &RoundResult, b: &RoundResult) -> bool {
    a.sent == b.sent
        && a.readout.bits == b.readout.bits
        && a.readout.damaged_guards == b.readout.damaged_guards
        && a.errors.total == b.errors.total
        && a.errors.false_zeros == b.errors.false_zeros
        && a.errors.false_ones == b.errors.false_ones
        && a.triggered == b.triggered
        && a.ba_lost == b.ba_lost
        && a.airtime == b.airtime
}

/// Ledger of the layers under a query round. Each step is one round at
/// every distance on an untraced experiment (timed, allocations counted)
/// and on a twin that records the program's JSONL trace (its results
/// must match), plus one shadow round whose layer calls are timed one by
/// one. `core.ledger_coverage` compares the shadow's timed children with
/// the untraced round.
pub(crate) fn ledger(seed: u64, own: bool, led: &mut Ledger) {
    let steps = if own { 6 } else { 3 };
    if let Err(e) = ledger_steps(seed, steps, led) {
        led.check("fig5 ledger", Err(e));
    }
}

fn ledger_steps(seed: u64, steps: usize, led: &mut Ledger) -> Result<(), String> {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut shadows = Vec::new();
    for cfg in configs(seed) {
        plain.push(Experiment::new(cfg.clone()).map_err(|e| e.to_string())?);
        traced.push(Experiment::new(cfg.clone()).map_err(|e| e.to_string())?);
        shadows.push(Shadow::new(&cfg)?);
    }
    let mut rec = witag_obs::JsonlRecorder::in_memory();
    let mut bits = bit_source(seed);
    let mut children_s = Vec::new();
    let mut counts = RoundCounts::default();
    let mut allocs = Vec::new();
    let mut alloc_bytes = Vec::new();
    for _ in 0..steps {
        let mut t = Tally::default();
        let mut t_traced = Tally::default();
        let mut errors = BitErrors::default();
        let mut errors_traced = BitErrors::default();
        let mut outcome = Ok(());
        let twins = plain.iter_mut().zip(&mut traced).zip(&mut shadows);
        for (((exp, twin), shadow), d) in twins.zip(DISTANCES) {
            let b = random_bits(&mut bits, exp.design.bits_per_query());
            let (r, n, bytes) = led.time("core.round", || alloc::count(|| exp.run_round(&b)));
            allocs.push(n as f64);
            alloc_bytes.push(bytes as f64);
            let r_traced = twin.run_round_obs(&b, &mut rec);
            if !same_round(&r, &r_traced) {
                outcome = Err(format!("traced round differs at {d} m"));
            }
            tally_round(&r, &mut t, &mut errors);
            tally_round(&r_traced, &mut t_traced, &mut errors_traced);
            match shadow.round(&b, led, &mut counts) {
                Ok(s) => children_s.push(s),
                Err(e) => outcome = Err(e),
            }
        }
        let outcome = outcome
            .and_then(|()| check_step(&plain, DISTANCES.len(), &t, &errors))
            .and_then(|()| check_step(&traced, DISTANCES.len(), &t_traced, &errors_traced));
        led.check("fig5 step", outcome);
    }
    let lines = rec.lines();
    let trace = rec.finish().map_err(|e| e.to_string())?;
    let mut summary = witag_obs::TraceSummary::default();
    for line in String::from_utf8_lossy(&trace).lines() {
        summary.ingest_line(line);
    }
    let rounds = (steps * DISTANCES.len()) as u64;
    if lines != summary.events() || summary.count("round") != rounds {
        led.check(
            "fig5 trace",
            Err(format!(
                "{lines} trace lines, {} events and {} rounds summarised",
                summary.events(),
                summary.count("round")
            )),
        );
    }

    let round = led.median("core.round");
    let children = crate::median(&children_s);
    led.set("core.round_self_ms", (round - children) * 1e3);
    led.set("core.ledger_coverage", children / round);
    led.set("core.round.allocs", crate::median(&allocs));
    led.set("core.round.alloc_bytes", crate::median(&alloc_bytes));
    led.set(
        "mac.subframe_ok_frac",
        counts.subframes_ok as f64 / counts.subframes as f64,
    );
    led.set(
        "channel.apply_ppdu.allocs",
        crate::median(&counts.apply_allocs),
    );
    led.set("phy.receive.allocs", crate::median(&counts.receive_allocs));
    let stages: f64 = [
        "phy.rx.demap",
        "phy.rx.deinterleave",
        "phy.rx.depuncture",
        "phy.rx.viterbi",
        "phy.rx.descramble",
    ]
    .iter()
    .map(|k| led.median(k))
    .sum();
    led.set(
        "phy.rx.other_ms",
        (led.median("phy.receive") - stages) * 1e3,
    );
    Ok(())
}
