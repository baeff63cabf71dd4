//! The end-to-end experiment runner: every crate composed into the
//! paper's evaluation loop (§6).
//!
//! One *round* is one complete WiTAG exchange:
//!
//! 1. the client contends for the channel and transmits the trigger
//!    markers, then the query A-MPDU;
//! 2. the tag's envelope detector sees the markers, matches the
//!    signature, phase-aligns its tick counter, and executes its switch
//!    schedule during the A-MPDU;
//! 3. the channel applies per-symbol responses (tag state included),
//!    noise, and ambient interference;
//! 4. the AP runs the standard receive chain, de-aggregates, and emits a
//!    block ACK;
//! 5. the client reads the tag's bits from the bitmap and we score them
//!    against what the tag actually sent.
//!
//! Neither the AP model nor the client PHY/MAC knows the tag exists —
//! the corruption channel emerges from the stale-CSI physics.
//!
//! **Measurement windows**: the paper measures 1-minute windows
//! (~100k+ bits at 40 Kbps). Simulating every round at symbol level is
//! ~10 ms/round, so windows are subsampled: a window is represented by a
//! configurable number of rounds (default 200 ⇒ 12,400 bits ⇒ BER
//! resolution 8×10⁻⁵, adequate for the paper's 10⁻³..10⁻¹ range), while
//! simulated time still advances by the true round airtime so channel
//! drift statistics are honest. EXPERIMENTS.md discusses the effect.

use crate::query::{BuiltQuery, DesignSpace, QueryDesign};
use crate::reader::{read_tag_bits, BitErrors, TagReadout};
use witag_channel::{Link, LinkConfig, TagSchedule};
use witag_crypto::{CcmpKey, WepKey};
use witag_faults::{FaultCounters, FaultInjector, FaultPlan, RoundFaults};
use witag_mac::access::Contention;
use witag_mac::header::Addr;
use witag_mac::{deaggregate, BlockAck, Security};
use witag_obs::{BufferRecorder, Event, NullRecorder, Recorder};
use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::legacy::{legacy_receive_with_scratch, legacy_transmit};
use witag_phy::params::timing;
use witag_phy::receiver::{receive_with_scratch, RxScratch};
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::parallel::par_map;
use witag_sim::stats::SampleSet;
use witag_sim::time::{Duration, Instant};
use witag_sim::Rng;
use witag_tag::device::{BitEncoding, Tag, TagConfig};
use witag_tag::envelope::{EnergyTrace, EnvelopeDetector};
use witag_tag::oscillator::Oscillator;
use witag_tag::power::{rf_harvest_uw, EnergyBank, PowerBudget};

/// Which link-layer security the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// Open network.
    Open,
    /// WEP-104.
    Wep,
    /// WPA2 (CCMP).
    Wpa2,
}

impl SecurityMode {
    fn build(self) -> (Security, Security) {
        match self {
            SecurityMode::Open => (Security::Open, Security::Open),
            SecurityMode::Wep => (
                Security::Wep(WepKey::new(b"0123456789abc")),
                Security::Wep(WepKey::new(b"0123456789abc")),
            ),
            SecurityMode::Wpa2 => (
                Security::Wpa2(Box::new(CcmpKey::new(&[0x42; 16]))),
                Security::Wpa2(Box::new(CcmpKey::new(&[0x42; 16]))),
            ),
        }
    }
}

/// Contending foreign WiFi traffic sharing the primary channel.
///
/// WiTAG coexists with other stations through plain DCF: foreign frames
/// delay the querier's channel access (throughput cost) and appear in
/// the tag's envelope trace as extra bursts (trigger-rejection stress).
/// Because inter-marker gaps are SIFS-spaced, no compliant station can
/// seize the medium *inside* a marker sequence — foreign bursts only
/// ever precede it.
#[derive(Debug, Clone, Copy)]
pub struct CrossTraffic {
    /// Foreign frame arrivals per second (Poisson).
    pub frames_per_s: f64,
    /// Mean foreign frame airtime.
    pub mean_airtime: Duration,
}

/// Which device transmits the query A-MPDU (paper §4: "although we use
/// the example of a client device transmitting a query packet, the AP
/// could also initiate this process").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryOrigin {
    /// The client transmits queries to the AP (the paper's running
    /// example).
    #[default]
    Client,
    /// The AP transmits queries to the client, which block-ACKs them.
    /// Both devices still obtain the tag's data: the AP from the bitmap
    /// it receives, the client from the subframes it saw fail.
    Ap,
}

/// Full scenario description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The floorplan (geometry + obstacles).
    pub floorplan: Floorplan,
    /// Querying client position.
    pub client: Point2,
    /// Access point position.
    pub ap: Point2,
    /// Tag position.
    pub tag: Point2,
    /// Radio/environment parameters.
    pub link: LinkConfig,
    /// Tag clock source.
    pub clock: Oscillator,
    /// Tag temperature offset from clock calibration (°C).
    pub temperature_delta: f64,
    /// Tag bit encoding (phase flip vs on-off keying).
    pub encoding: BitEncoding,
    /// Subframes per query (≤ 64).
    pub n_subframes: usize,
    /// Unmodulated guard subframes.
    pub guard_subframes: usize,
    /// Network security mode.
    pub security: SecurityMode,
    /// Override the designer's trigger signature (deployments use
    /// per-tag signatures as addresses; see the `warehouse_sensors`
    /// example).
    pub signature_override: Option<witag_tag::trigger::TriggerSignature>,
    /// Contending foreign traffic on the primary channel, if any.
    pub cross_traffic: Option<CrossTraffic>,
    /// PHY operating space the query designer may use (bandwidth, VHT).
    pub design_space: DesignSpace,
    /// Which device transmits the queries.
    pub origin: QueryOrigin,
    /// Battery-free energy model: when `Some`, the tag harvests RF from
    /// the querier's transmissions into a capacitor of this size (µJ)
    /// and only answers queries it can afford — unanswered queries show
    /// up as missed triggers (a graceful duty cycle). `None` models the
    /// paper's prototype, which was bench-powered.
    pub energy_capacity_uj: Option<f64>,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Paper Figure 5 setup: LOS lab, AP and client 8 m apart, tag on the
    /// line between them at `tag_distance_from_client` metres.
    pub fn fig5(tag_distance_from_client: f64, seed: u64) -> Self {
        let client = Floorplan::los_client_position();
        let ap = Floorplan::ap_position();
        let frac = tag_distance_from_client / client.distance(ap);
        ExperimentConfig {
            floorplan: Floorplan::paper_testbed(),
            client,
            ap,
            tag: client.lerp(ap, frac),
            link: LinkConfig::default(),
            clock: Oscillator::Crystal { freq_hz: 250e3 },
            temperature_delta: 0.0,
            encoding: BitEncoding::PhaseFlip,
            n_subframes: 64,
            guard_subframes: 2,
            security: SecurityMode::Open,
            signature_override: None,
            cross_traffic: None,
            design_space: DesignSpace::default(),
            origin: QueryOrigin::Client,
            energy_capacity_uj: None,
            seed,
        }
    }

    /// Paper Figure 6, location A: client ≈ 7 m from the AP behind the
    /// wooden partition; tag 1 m from the client.
    pub fn nlos_a(seed: u64) -> Self {
        let client = Floorplan::nlos_a_client_position();
        let ap = Floorplan::ap_position();
        let mut cfg = ExperimentConfig::fig5(1.0, seed);
        cfg.client = client;
        cfg.ap = ap;
        cfg.tag = client.lerp(ap, 1.0 / client.distance(ap));
        cfg
    }

    /// Paper Figure 6, location B: client ≈ 17 m from the AP behind the
    /// concrete partition; tag 1 m from the client.
    pub fn nlos_b(seed: u64) -> Self {
        let client = Floorplan::nlos_b_client_position();
        let ap = Floorplan::ap_position();
        let mut cfg = ExperimentConfig::fig5(1.0, seed);
        cfg.client = client;
        cfg.ap = ap;
        cfg.tag = client.lerp(ap, 1.0 / client.distance(ap));
        cfg
    }
}

/// Why an experiment (or a query design) could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentError {
    /// No feasible query design: the client→AP link cannot carry a dense-
    /// constellation A-MPDU reliably.
    LinkTooPoor,
    /// The requested subframe count is outside the block-ACK bitmap's
    /// 1..=64 range.
    SubframeCountOutOfRange {
        /// The offending count.
        n: usize,
    },
    /// More guard subframes than subframes: the query would carry no
    /// data bits.
    GuardExceedsSubframes {
        /// Requested guard subframes.
        guard: usize,
        /// Requested total subframes.
        n: usize,
    },
    /// The designed subframe payload cannot absorb the security
    /// overhead (CCMP adds 16 bytes, WEP adds 7).
    SubframeTooSmallForSecurity {
        /// Designed payload bytes per subframe.
        payload: usize,
        /// Bytes the security mode adds.
        overhead: usize,
    },
    /// A trigger-signature marker is too short to realise as a legacy
    /// frame.
    MarkerTooShort {
        /// The offending burst duration.
        burst: witag_sim::time::Duration,
    },
}

impl core::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExperimentError::LinkTooPoor => {
                write!(f, "link SNR too low for any corruptible query design")
            }
            ExperimentError::SubframeCountOutOfRange { n } => {
                write!(f, "{n} subframes outside the block-ACK bitmap range 1..=64")
            }
            ExperimentError::GuardExceedsSubframes { guard, n } => {
                write!(f, "{guard} guard subframes leave no data in {n} subframes")
            }
            ExperimentError::SubframeTooSmallForSecurity { payload, overhead } => {
                write!(
                    f,
                    "subframe payload of {payload} B cannot absorb {overhead} B of security overhead"
                )
            }
            ExperimentError::MarkerTooShort { burst } => {
                write!(f, "marker burst of {burst} is shorter than a legacy frame")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One round's outcome.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// Bits the tag committed.
    pub sent: Vec<u8>,
    /// What the client read back.
    pub readout: TagReadout,
    /// Error classification.
    pub errors: BitErrors,
    /// Whether the tag's trigger matcher fired.
    pub triggered: bool,
    /// Whether the block ACK was lost on the way back (readout invalid;
    /// the bits count as undelivered).
    pub ba_lost: bool,
    /// Wall-clock duration of the round.
    pub airtime: Duration,
}

/// Aggregate statistics over many rounds.
#[derive(Debug, Clone, Default)]
pub struct ExperimentStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Accumulated bit errors.
    pub errors: BitErrors,
    /// Simulated time elapsed.
    pub elapsed: Duration,
    /// Rounds where the tag failed to trigger.
    pub missed_triggers: usize,
    /// Rounds whose block ACK was lost on the return trip.
    pub lost_block_acks: usize,
    /// Per-window BERs when run via [`Experiment::run_windows`].
    pub window_bers: SampleSet,
}

impl ExperimentStats {
    /// Overall bit error rate.
    pub fn ber(&self) -> f64 {
        self.errors.ber()
    }

    /// Tag goodput in Kbps: correct bits over elapsed time (the paper's
    /// "number of bits sent successfully over one second").
    pub fn throughput_kbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        (self.errors.total - self.errors.errors()) as f64
            / self.elapsed.as_secs_f64()
            / 1000.0
    }

    /// Fold another run's statistics into this one. Counters add, elapsed
    /// time accumulates, and any per-window BER samples are concatenated —
    /// the merge of two runs equals one run over the union of their
    /// rounds. Used by the sharded parallel runner.
    pub fn merge(&mut self, other: &ExperimentStats) {
        self.rounds += other.rounds;
        self.errors.merge(&other.errors);
        self.elapsed += other.elapsed;
        self.missed_triggers += other.missed_triggers;
        self.lost_block_acks += other.lost_block_acks;
        for &ber in other.window_bers.samples() {
            self.window_bers.push(ber);
        }
    }
}

/// Rounds per shard of [`Experiment::run_parallel`]. Small enough that a
/// typical sweep point (a few hundred rounds) splits into enough shards
/// to occupy every core; large enough that per-shard setup (link
/// construction, query design) stays well under the round work itself.
pub const PARALLEL_SHARD_ROUNDS: usize = 25;

/// A fully wired scenario ready to run rounds.
pub struct Experiment {
    /// The resolved query design.
    pub design: QueryDesign,
    cfg: ExperimentConfig,
    link: Link,
    tag: Tag,
    tx_sec: Security,
    /// AP-side security state (exercised for surviving MPDUs).
    rx_sec: Security,
    contention: Contention,
    rng: Rng,
    now: Instant,
    seq: u16,
    /// Count of MIC/ICV failures at the AP (should stay zero — FCS-valid
    /// frames decrypt fine; tracked to prove it).
    pub decrypt_failures: u64,
    /// Queries the tag skipped for lack of harvested energy.
    pub energy_skips: u64,
    energy: Option<EnergyBank>,
    /// Receiver→transmitter channel for the block ACK's return trip
    /// (reciprocal geometry, independent noise).
    reverse_link: Link,
    built: BuiltQuery,
    /// Deterministic fault injection, when a plan is attached. `None`
    /// takes zero extra random draws: results are bit-identical to a
    /// build without the hook.
    faults: Option<FaultInjector>,
    /// Reusable receive-chain working memory, shared by the forward
    /// (HT A-MPDU) and reverse (legacy block-ACK) decodes. Keeping it
    /// here makes every round after the first allocation-free in the
    /// PHY hot path.
    scratch: RxScratch,
    /// Next observability round stamp ([`Event`] `round` fields). Starts
    /// at 0 (or the shard base set by [`Self::set_trace_base`]) and
    /// advances on every query *and* idle round, so trace numbering is
    /// continuous and shard-rebased numbering is globally unique.
    trace_round: u64,
}

impl Experiment {
    /// Wire up a scenario.
    pub fn new(cfg: ExperimentConfig) -> Result<Experiment, ExperimentError> {
        let mut rng = Rng::seed_from_u64(cfg.seed);
        // The link always runs transmitter -> receiver; an AP-initiated
        // deployment simply swaps the endpoints (the protocol is
        // direction-agnostic, paper §4).
        let (tx_pos, rx_pos) = match cfg.origin {
            QueryOrigin::Client => (cfg.client, cfg.ap),
            QueryOrigin::Ap => (cfg.ap, cfg.client),
        };
        let link = Link::new(
            &cfg.floorplan,
            tx_pos,
            rx_pos,
            Some(cfg.tag),
            cfg.link.clone(),
            rng.next_u64(),
        );
        let reverse_link = Link::new(
            &cfg.floorplan,
            rx_pos,
            tx_pos,
            Some(cfg.tag),
            cfg.link.clone(),
            rng.next_u64(),
        );
        let mut design = QueryDesign::best_in(
            &link,
            &cfg.clock,
            cfg.n_subframes,
            cfg.guard_subframes,
            cfg.design_space,
        )?;
        if let Some(sig) = &cfg.signature_override {
            design.signature = sig.clone();
        }
        let tag = Tag::new(TagConfig {
            oscillator: cfg.clock,
            temperature_delta: cfg.temperature_delta,
            detector: EnvelopeDetector::default(),
            profile: design.tag_profile(),
            encoding: cfg.encoding,
        });
        let (mut tx_sec, rx_sec) = cfg.security.build();
        let built = design.build_query(Addr::local(1), Addr::local(2), &mut tx_sec, 0)?;
        let energy = cfg.energy_capacity_uj.map(|cap| {
            // Harvest income: the querier's own transmissions dominate
            // (markers + A-MPDU occupy most of the busy time near the
            // tag); approximate with the incident power at ~40 % duty.
            let harvest = rf_harvest_uw(link.tag_incident_dbm(1.0)) * 0.4;
            EnergyBank::new(cap, harvest)
        });
        Ok(Experiment {
            design,
            cfg,
            link,
            tag,
            tx_sec,
            rx_sec,
            contention: Contention::new(),
            rng,
            now: Instant::ZERO,
            seq: 0,
            decrypt_failures: 0,
            energy_skips: 0,
            energy,
            reverse_link,
            built,
            faults: None,
            scratch: RxScratch::new(),
            trace_round: 0,
        })
    }

    /// Rebase observability round stamps: the next round emits events
    /// stamped `base`, the one after `base + 1`, and so on. The parallel
    /// runner sets each shard's base to its first global round index so
    /// a merged trace numbers rounds continuously.
    pub fn set_trace_base(&mut self, base: u64) {
        self.trace_round = base;
    }

    /// The client→AP link SNR (dB).
    pub fn snr_db(&self) -> f64 {
        self.link.snr_db()
    }

    /// Attach a deterministic fault plan; replaces any previous plan and
    /// restarts its schedule. Experiments without a plan draw nothing
    /// from the fault path — results stay bit-identical to a build
    /// without fault injection (see `tests/fault_session.rs`).
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Per-fault-class counts so far, if a plan is attached.
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(|f| f.counters())
    }

    /// Let one round's worth of airtime pass without transmitting (a
    /// resilient session backing off from a fault burst). Fault models
    /// keep evolving, links keep fading and the tag's harvester keeps
    /// charging — but no query is sent and no bits move.
    pub fn run_idle(&mut self) -> Duration {
        self.run_idle_obs(&mut NullRecorder)
    }

    /// [`run_idle`](Self::run_idle) with observability: fault verdicts
    /// that fire during the quiet period still emit `fault` events (so a
    /// trace shows what a backing-off client sat out), and the round
    /// stamp advances to keep trace numbering continuous. Detached
    /// recorder ⇒ bit-identical to `run_idle`.
    pub fn run_idle_obs(&mut self, rec: &mut dyn Recorder) -> Duration {
        let obs_round = self.trace_round;
        self.trace_round += 1;
        if let Some(inj) = self.faults.as_mut() {
            let _ = inj.begin_round_obs(obs_round, rec);
        }
        let dt = self.design.round_airtime_estimate();
        self.now += dt;
        if let Some(bank) = &mut self.energy {
            bank.charge(dt.as_secs_f64());
        }
        self.link.advance(dt);
        self.reverse_link.advance(dt);
        dt
    }

    /// Run one query round with the given tag bits (length must be
    /// `design.bits_per_query()`; shorter is padded with 1s by the tag).
    pub fn run_round(&mut self, bits: &[u8]) -> RoundResult {
        self.run_round_obs(bits, &mut NullRecorder)
    }

    /// [`run_round`](Self::run_round) with observability: emits `fault`
    /// (when the injector fires), `phy_rx` (forward-link decode quality),
    /// `ba` (bitmap assembly) and `round` (the per-round scoreboard)
    /// events, all stamped with this round's trace index. Every emission
    /// is gated on [`Recorder::enabled`], so a detached recorder costs
    /// one branch per seam and the result is bit-identical to
    /// `run_round`.
    pub fn run_round_obs(&mut self, bits: &[u8], rec: &mut dyn Recorder) -> RoundResult {
        let obs_round = self.trace_round;
        self.trace_round += 1;
        let design = &self.design;
        let profile = design.tag_profile();

        // -- 0. Fault verdict for this round. ---------------------------
        let rf = match self.faults.as_mut() {
            Some(inj) => inj.begin_round_obs(obs_round, rec),
            None => RoundFaults::inert(),
        };
        // Persistent fault state (oscillator drift, coherence collapse):
        // both setters are exact no-ops at their nominal values, keeping
        // the unfaulted path bit-identical.
        self.tag.set_clock_fault(rf.clock_error);
        self.link.set_coherence_scale(rf.coherence_scale);
        self.reverse_link.set_coherence_scale(rf.coherence_scale);

        // -- 1. Contention (deferring to foreign traffic), markers. -----
        let mut contention = timing::DIFS + self.contention.draw_backoff(&mut self.rng);
        let mut trace = EnergyTrace::new();
        let incident = self.link.tag_incident_dbm(1.0);
        if let Some(ct) = self.cfg.cross_traffic {
            // Explicit busy/idle timeline: the querier's backoff counts
            // down only while the medium is idle; every foreign frame
            // freezes it (its airtime + DIFS) and is heard by the tag.
            let u = (ct.frames_per_s * ct.mean_airtime.as_secs_f64()).min(0.9);
            let mut cursor = self.now;
            // With probability = channel utilisation, a frame is already
            // in flight on arrival: wait out its residual (mean = half a
            // frame) + DIFS.
            if self.rng.chance(u) {
                let air = Duration::from_secs_f64(
                    self.rng.exponential(2.0 / ct.mean_airtime.as_secs_f64()),
                );
                trace.push(cursor, cursor + air, self.rng.range_f64(-50.0, -25.0));
                cursor += air + timing::DIFS;
            }
            let mut remaining = contention;
            let mut bursts = 0usize;
            while bursts < 16 {
                let gap = Duration::from_secs_f64(self.rng.exponential(ct.frames_per_s));
                if gap >= remaining {
                    break;
                }
                cursor += gap;
                remaining -= gap;
                let air = Duration::from_secs_f64(
                    self.rng.exponential(1.0 / ct.mean_airtime.as_secs_f64()),
                );
                trace.push(cursor, cursor + air, self.rng.range_f64(-50.0, -25.0));
                cursor += air + timing::DIFS;
                bursts += 1;
            }
            cursor += remaining;
            contention = cursor - self.now;
        }
        self.now += contention;
        let mut t = self.now;
        for (i, &burst) in profile.signature.bursts.iter().enumerate() {
            trace.push(t, t + burst, incident);
            t += burst;
            if i != profile.signature.bursts.len() - 1 {
                t += timing::SIFS;
            }
        }
        t += profile.marker_gap;
        let ppdu_start = t;

        // -- 2. Build (or reuse) the query and let the tag plan. --------
        // Rebuild the query each round so sequence numbers and CCMP PNs
        // advance like a real sender's.
        // Structurally infallible: `Experiment::new` builds this exact
        // query once and fails construction if the geometry is invalid;
        // only the sequence number varies between rounds.
        self.built = design
            .build_query(Addr::local(1), Addr::local(2), &mut self.tx_sec, self.seq)
            .expect("query geometry was validated at construction"); // lint:allow(panic_freedom)
        let ppdu_airtime = self.built.ppdu.airtime();
        trace.push(ppdu_start, ppdu_start + ppdu_airtime, incident);

        self.tag.push_bits(bits);
        let reference = self.cfg.encoding.reference();
        // Battery-free gating: answering costs the full budget for the
        // round's active span (trigger match through the A-MPDU). A
        // fault-injected brownout means the rail is down outright.
        let can_afford = !rf.brownout
            && match &mut self.energy {
            Some(bank) => {
                let active_s = (design.marker_airtime()
                    + design.marker_gap
                    + ppdu_airtime)
                    .as_secs_f64();
                let ok = bank.try_spend(PowerBudget::witag().total_uw(), active_s);
                if !ok {
                    self.energy_skips += 1;
                }
                ok
            }
            None => true,
        };
        let plan = if can_afford { self.tag.respond(&trace) } else { None };
        let triggered = plan.is_some();
        let n_symbols = self.built.ppdu.symbols.len();
        let (schedule, sent_bits) = match plan {
            Some(p) => {
                let s = p.to_tag_schedule(ppdu_start, &design.phy, n_symbols, reference);
                (s, p.bits)
            }
            None => {
                // Tag never consumed the bits; drop them so a later
                // trigger does not replay stale data, and score the
                // intended bits against the all-delivered readout (every
                // 0 becomes an error — the cost of a missed trigger).
                self.tag.drop_pending(bits.len());
                (TagSchedule::constant(reference, n_symbols), bits.to_vec())
            }
        };

        // -- 3. Channel + 4. standard AP receive chain. ------------------
        // `ba_for_readout` is what the client's reader sees (`None` ⇒ it
        // saw nothing at all); `ba_lost` marks the round's bits as
        // undelivered. A fault-injected query loss kills the A-MPDU
        // before the AP — the tag already modulated (bits consumed,
        // energy spent) but nothing arrives, so the whole receive chain
        // is skipped.
        let (ba_for_readout, ba_lost) = if rf.query_lost {
            (None, true)
        } else {
            let rx = self.link.apply_ppdu(&self.built.ppdu, &schedule);
            let decoded = receive_with_scratch(&rx, self.link.noise_var(), &mut self.scratch);
            if rec.enabled() {
                rec.record(&Event::PhyRx {
                    round: obs_round,
                    quality: decoded.quality(),
                });
            }
            let outcomes = deaggregate(&decoded.bytes);

            // Exercise the security path on surviving MPDUs: FCS-valid
            // frames must always decrypt (WiTAG never mutates surviving
            // frames).
            for o in &outcomes {
                if let Some(mpdu) = &o.mpdu {
                    if self
                        .rx_sec
                        .decrypt(&mpdu.header, &mpdu.payload)
                        .is_err()
                    {
                        self.decrypt_failures += 1;
                    }
                }
            }

            let ba = BlockAck::from_outcomes(
                Addr::local(1),
                Addr::local(2),
                0,
                self.seq,
                &outcomes,
            );
            if rec.enabled() {
                rec.record(&ba.assembly_event(obs_round, design.n_subframes));
            }

            // -- 5. Block ACK back through the *real* reverse channel. ---
            // The AP serialises the BA, transmits it at the 24 Mbps basic
            // rate, and the client decodes it with the standard legacy
            // chain. The tag sits in its reference state (its schedule
            // ended with the A-MPDU), so it is just another static
            // reflector here. A fault-injected BA loss drops the return
            // frame outright instead.
            if rf.ba_lost {
                (None, true)
            } else {
                let tx = legacy_transmit(LegacyRate::M24, &ba.to_bytes());
                let rx = self.reverse_link.apply_legacy(&tx, reference);
                let bytes = legacy_receive_with_scratch(
                    &rx,
                    self.reverse_link.noise_var(),
                    &mut self.scratch,
                );
                match BlockAck::from_bytes(&bytes) {
                    Some(rx_ba) => (Some(rx_ba), false),
                    // Natural decode failure: score against the true BA
                    // (the readout content is unused by the accounting).
                    None => (Some(ba), true),
                }
            }
        };
        let mut readout = match ba_for_readout {
            Some(ba) => read_tag_bits(&ba, design.n_subframes, design.guard_subframes),
            // The client saw no BA at all: an empty bitmap reads as
            // "all delivered" (all 1s) — no information.
            None => TagReadout {
                bits: vec![1u8; design.bits_per_query()],
                damaged_guards: 0,
            },
        };
        // Burst interference flips readout bits after the fact, from the
        // injector's private stream; errors are scored on what the
        // client actually saw.
        if !ba_lost {
            if let Some(p) = rf.readout_flip {
                if let Some(inj) = self.faults.as_mut() {
                    inj.corrupt_readout(&mut readout.bits, p);
                }
            }
        }
        let errors = if ba_lost {
            // Nothing was read; every sent bit is undelivered.
            BitErrors {
                total: sent_bits.len(),
                false_zeros: sent_bits.iter().filter(|&&b| b == 1).count(),
                false_ones: sent_bits.iter().filter(|&&b| b == 0).count(),
            }
        } else {
            BitErrors::compare(&sent_bits, &readout.bits)
        };
        self.contention.on_success();

        // Advance simulated time across the whole exchange.
        let markers = design.marker_airtime() + design.marker_gap;
        let round_air = contention
            + markers
            + ppdu_airtime
            + timing::SIFS
            + block_ack_airtime(LegacyRate::M24);
        self.now = ppdu_start + ppdu_airtime + timing::SIFS + block_ack_airtime(LegacyRate::M24);
        if let Some(bank) = &mut self.energy {
            bank.charge(round_air.as_secs_f64());
        }
        self.link.advance(round_air);
        self.reverse_link.advance(round_air);
        self.seq = (self.seq + design.n_subframes as u16) % 4096;

        if rec.enabled() {
            rec.record(&Event::RoundEnd {
                round: obs_round,
                triggered,
                ba_lost,
                bits: errors.total as u32,
                bit_errors: (errors.false_zeros + errors.false_ones) as u32,
                airtime_us: round_air.as_micros(),
            });
        }

        RoundResult {
            sent: sent_bits,
            readout,
            errors,
            triggered,
            ba_lost,
            airtime: round_air,
        }
    }

    /// Run `rounds` rounds of random tag data, accumulating statistics.
    pub fn run(&mut self, rounds: usize) -> ExperimentStats {
        self.run_obs(rounds, &mut NullRecorder)
    }

    /// [`run`](Self::run) with observability: every round goes through
    /// [`run_round_obs`](Self::run_round_obs), so an attached recorder
    /// sees the full per-round event stream. Statistics are identical to
    /// `run` whatever the recorder does.
    pub fn run_obs(&mut self, rounds: usize, rec: &mut dyn Recorder) -> ExperimentStats {
        let mut stats = ExperimentStats::default();
        let n_bits = self.design.bits_per_query();
        for _ in 0..rounds {
            let bits: Vec<u8> = (0..n_bits)
                .map(|_| (self.rng.next_u64() & 1) as u8)
                .collect();
            let r = self.run_round_obs(&bits, rec);
            stats.rounds += 1;
            stats.errors.merge(&r.errors);
            stats.elapsed += r.airtime;
            if !r.triggered {
                stats.missed_triggers += 1;
            }
            if r.ba_lost {
                stats.lost_block_acks += 1;
            }
        }
        stats
    }

    /// Run `rounds` rounds split into independent shards executed on up
    /// to `threads` worker threads, merging the shard statistics in
    /// shard order.
    ///
    /// A round mutates shared state (link fading, tag clock, sequence
    /// numbers), so the rounds of *one* experiment form a serial chain
    /// that no scheduler may reorder. The parallel runner therefore
    /// shards at the experiment level: each shard of
    /// [`PARALLEL_SHARD_ROUNDS`] rounds is its own [`Experiment`] whose
    /// seed is a pure function of `(cfg.seed, shard index)` — shard 7
    /// computes the same rounds whether it runs first, last, or on
    /// another machine. Statistically this models the paper's practice
    /// of averaging many short measurement windows instead of one long
    /// one; each shard contributes one BER sample to `window_bers`.
    ///
    /// **Determinism contract**: the returned statistics are bit-identical
    /// for every `threads >= 1` (`tests/parallel_determinism.rs`). When a
    /// `plan` is given, each shard re-seeds it from the same shard
    /// stream, so fault schedules are thread-count invariant too.
    pub fn run_parallel(
        cfg: &ExperimentConfig,
        plan: Option<&FaultPlan>,
        rounds: usize,
        threads: usize,
    ) -> Result<ExperimentStats, ExperimentError> {
        Self::run_parallel_traced(cfg, plan, rounds, threads, &mut NullRecorder)
    }

    /// [`run_parallel`](Self::run_parallel) with observability. Each
    /// shard records into a private in-memory buffer while running (its
    /// round stamps rebased to the shard's first global round); after
    /// the fork-join the buffers are replayed into `rec` **in shard
    /// order**, each prefixed by a `shard` marker event — so the merged
    /// trace is byte-identical for every `threads >= 1`
    /// (`tests/trace_determinism.rs`). A detached recorder skips the
    /// buffering entirely and behaves exactly like `run_parallel`.
    pub fn run_parallel_traced(
        cfg: &ExperimentConfig,
        plan: Option<&FaultPlan>,
        rounds: usize,
        threads: usize,
        rec: &mut dyn Recorder,
    ) -> Result<ExperimentStats, ExperimentError> {
        let tracing = rec.enabled();
        let n_shards = rounds.div_ceil(PARALLEL_SHARD_ROUNDS).max(1);
        let shard_results = par_map(n_shards, threads, |shard| {
            // Derive the shard's seed (and fault stream) from the master
            // seed only — never from thread identity or completion order.
            let mut stream = Rng::seed_from_u64(cfg.seed).fork(shard as u64);
            let mut shard_cfg = cfg.clone();
            shard_cfg.seed = stream.next_u64();
            let shard_rounds =
                PARALLEL_SHARD_ROUNDS.min(rounds - (shard * PARALLEL_SHARD_ROUNDS).min(rounds));
            let mut exp = Experiment::new(shard_cfg)?;
            exp.set_trace_base((shard * PARALLEL_SHARD_ROUNDS) as u64);
            if let Some(p) = plan {
                let mut shard_plan = p.clone();
                shard_plan.seed = stream.next_u64();
                exp.attach_faults(shard_plan);
            }
            let mut buf = BufferRecorder::new();
            let stats = if tracing {
                exp.run_obs(shard_rounds, &mut buf)
            } else {
                exp.run(shard_rounds)
            };
            Ok((stats, buf, shard_rounds))
        });
        let mut total = ExperimentStats::default();
        for (shard, r) in shard_results.into_iter().enumerate() {
            let (s, buf, shard_rounds) = r?;
            if tracing {
                rec.record(&Event::Shard {
                    index: shard as u32,
                    base_round: (shard * PARALLEL_SHARD_ROUNDS) as u64,
                    rounds: shard_rounds as u32,
                });
                buf.replay_into(rec);
            }
            if s.rounds > 0 {
                total.window_bers.push(s.ber());
            }
            total.merge(&s);
        }
        Ok(total)
    }

    /// Run `windows` measurement windows of `rounds_per_window` rounds
    /// each, recording one BER sample per window (the paper's per-minute
    /// measurements, Figure 6).
    pub fn run_windows(&mut self, windows: usize, rounds_per_window: usize) -> ExperimentStats {
        let mut total = ExperimentStats::default();
        for _ in 0..windows {
            let w = self.run(rounds_per_window);
            total.merge(&w);
            total.window_bers.push(w.ber());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.link.interference_rate_hz = 0.0;
        cfg
    }

    #[test]
    fn fig5_near_client_low_ber() {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 7))).unwrap();
        let stats = exp.run(30);
        assert_eq!(stats.missed_triggers, 0, "crystal tag must always trigger");
        assert!(
            stats.ber() < 0.02,
            "tag 1 m from client must communicate reliably, BER {}",
            stats.ber()
        );
        assert_eq!(exp.decrypt_failures, 0);
    }

    /// The U-shape, pooled over four channel realisations (seeds 8–11)
    /// per position: at a single seed, about one in ten, a deep fade on
    /// the near-client link or a strong tag ray at the midpoint reverses
    /// the order.
    #[test]
    fn fig5_midpoint_worse_than_edges() {
        let pooled_ber = |dist: f64| {
            let mut errors = BitErrors::default();
            for seed in 8..12 {
                let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(dist, seed))).unwrap();
                errors.merge(&exp.run(40).errors);
            }
            errors.ber()
        };
        let near_ber = pooled_ber(1.0);
        let mid_ber = pooled_ber(4.0);
        assert!(
            mid_ber >= near_ber,
            "midpoint BER {mid_ber} must be ≥ near-client BER {near_ber}"
        );
    }

    #[test]
    fn throughput_in_tens_of_kbps() {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 9))).unwrap();
        let stats = exp.run(30);
        let kbps = stats.throughput_kbps();
        assert!(
            (15.0..120.0).contains(&kbps),
            "throughput {kbps} Kbps out of plausible range"
        );
    }

    #[test]
    fn works_over_wpa2() {
        let mut cfg = quiet(ExperimentConfig::fig5(1.0, 10));
        cfg.security = SecurityMode::Wpa2;
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(20);
        assert!(stats.ber() < 0.02, "WPA2 must not affect the tag channel");
        assert_eq!(exp.decrypt_failures, 0, "surviving frames must decrypt");
    }

    #[test]
    fn works_over_wep() {
        let mut cfg = quiet(ExperimentConfig::fig5(1.0, 11));
        cfg.security = SecurityMode::Wep;
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(20);
        assert!(stats.ber() < 0.02);
        assert_eq!(exp.decrypt_failures, 0);
    }

    #[test]
    fn nlos_scenarios_construct_and_run() {
        for cfg in [ExperimentConfig::nlos_a(12), ExperimentConfig::nlos_b(12)] {
            let mut exp = Experiment::new(quiet(cfg)).unwrap();
            let stats = exp.run(10);
            assert_eq!(stats.rounds, 10);
            assert!(stats.ber() < 0.5);
        }
    }

    #[test]
    fn window_runs_collect_samples() {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(2.0, 13))).unwrap();
        let stats = exp.run_windows(5, 8);
        assert_eq!(stats.window_bers.len(), 5);
        assert_eq!(stats.rounds, 40);
    }

    #[test]
    fn cross_traffic_slows_but_does_not_break() {
        let mut quiet_exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 15))).unwrap();
        let mut busy_cfg = quiet(ExperimentConfig::fig5(1.0, 15));
        busy_cfg.cross_traffic = Some(CrossTraffic {
            frames_per_s: 400.0,
            mean_airtime: Duration::micros(800),
        });
        let mut busy_exp = Experiment::new(busy_cfg).unwrap();
        let q = quiet_exp.run(25);
        let b = busy_exp.run(25);
        assert!(
            b.throughput_kbps() < q.throughput_kbps() * 0.9,
            "foreign traffic must cost airtime: {} vs {} Kbps",
            b.throughput_kbps(),
            q.throughput_kbps()
        );
        assert!(
            b.ber() < 0.05,
            "foreign bursts must not confuse the trigger: BER {}",
            b.ber()
        );
        assert_eq!(b.missed_triggers, 0, "markers are protected by SIFS spacing");
    }

    #[test]
    fn ba_loss_negligible_on_strong_links() {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 16))).unwrap();
        let stats = exp.run(30);
        assert_eq!(stats.lost_block_acks, 0, "50 dB link must not drop BAs");
    }

    #[test]
    fn battery_free_tag_duty_cycles_gracefully() {
        // Near the client (−25 dBm incident) the rectifier harvests a
        // couple of µW at 40% duty; the 4.6 µW active load can only be
        // afforded part of the time, so some queries go unanswered — but
        // never with corruption artefacts, and answered ones are clean.
        let mut cfg = quiet(ExperimentConfig::fig5(1.0, 19));
        cfg.energy_capacity_uj = Some(0.05); // tiny capacitor
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(40);
        assert!(
            exp.energy_skips > 0,
            "a tiny capacitor must force duty cycling"
        );
        assert!(
            stats.missed_triggers >= exp.energy_skips as usize,
            "energy skips appear as missed queries"
        );
        // Generous capacitor + same harvest: fewer or no skips.
        let mut cfg2 = quiet(ExperimentConfig::fig5(1.0, 19));
        cfg2.energy_capacity_uj = Some(500.0);
        let mut exp2 = Experiment::new(cfg2).unwrap();
        let _ = exp2.run(40);
        assert!(exp2.energy_skips < exp.energy_skips);
    }

    #[test]
    fn ap_initiated_queries_work_symmetrically() {
        // Paper §4: either device may transmit the query; the tag's
        // geometry-driven performance is symmetric because the two-hop
        // product Ds·Dr is direction-independent.
        let mut client_led = Experiment::new(quiet(ExperimentConfig::fig5(2.0, 17))).unwrap();
        let mut cfg = quiet(ExperimentConfig::fig5(2.0, 17));
        cfg.origin = QueryOrigin::Ap;
        let mut ap_led = Experiment::new(cfg).unwrap();
        let c = client_led.run(25);
        let a = ap_led.run(25);
        assert!(c.ber() < 0.02, "client-led BER {}", c.ber());
        assert!(a.ber() < 0.02, "AP-led BER {}", a.ber());
        // Same design emerges (the link budget is reciprocal).
        assert_eq!(
            client_led.design.subframe_bytes,
            ap_led.design.subframe_bytes
        );
    }

    #[test]
    fn end_to_end_over_40mhz_and_vht() {
        use crate::query::DesignSpace;
        use witag_phy::params::Bandwidth;
        for (bw, vht) in [(Bandwidth::Mhz40, false), (Bandwidth::Mhz20, true)] {
            let mut cfg = quiet(ExperimentConfig::fig5(1.0, 18));
            cfg.design_space = DesignSpace { bandwidth: bw, vht };
            let mut exp = Experiment::new(cfg).unwrap();
            let stats = exp.run(15);
            assert!(
                stats.ber() < 0.02,
                "{bw:?}/vht={vht}: BER {} — corruption must work across widths",
                stats.ber()
            );
        }
    }

    #[test]
    fn quiet_fault_plan_is_bit_identical_to_no_plan() {
        // The zero-cost contract: attaching an all-disabled plan must
        // not perturb a single random draw or result.
        let mut a = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 21))).unwrap();
        let mut b = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 21))).unwrap();
        b.attach_faults(FaultPlan::quiet(99));
        let sa = a.run(12);
        let sb = b.run(12);
        assert_eq!(sa.errors, sb.errors);
        assert_eq!(sa.elapsed, sb.elapsed);
        assert_eq!(sa.missed_triggers, sb.missed_triggers);
        assert_eq!(sa.lost_block_acks, sb.lost_block_acks);
        // Twelve rounds judged, no fault class fired on any of them.
        assert_eq!(
            *b.fault_counters().unwrap(),
            FaultCounters {
                rounds: 12,
                ..FaultCounters::default()
            }
        );
    }

    #[test]
    fn hostile_plan_surfaces_every_fault_class() {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 22))).unwrap();
        exp.attach_faults(FaultPlan::hostile(7));
        let stats = exp.run(160);
        let c = *exp.fault_counters().unwrap();
        assert_eq!(c.rounds, 160);
        assert!(c.block_acks_lost > 0, "{c:?}");
        assert!(c.queries_lost > 0, "{c:?}");
        assert!(c.brownout_rounds > 0, "{c:?}");
        // Injected losses surface in the experiment's own accounting.
        assert!(
            stats.lost_block_acks as u64 >= c.block_acks_lost,
            "forced BA losses must be counted: {} vs {c:?}",
            stats.lost_block_acks
        );
        assert!(
            stats.missed_triggers as u64 >= 1,
            "brownouts must show up as missed triggers"
        );
        assert!(stats.ber() > 0.05, "hostile plan must hurt, BER {}", stats.ber());
    }

    #[test]
    fn faulted_experiments_are_deterministic() {
        let run = || {
            let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 23))).unwrap();
            exp.attach_faults(FaultPlan::hostile(11));
            // The recorder sees one `fault` event (round, class mask) per
            // faulted round.
            let mut buf = BufferRecorder::new();
            let stats = exp.run_obs(30, &mut buf);
            (
                stats.errors,
                stats.elapsed,
                *exp.fault_counters().unwrap(),
                buf.events().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_rounds_advance_time_and_fault_models() {
        let mut exp = Experiment::new(quiet(ExperimentConfig::fig5(1.0, 24))).unwrap();
        exp.attach_faults(FaultPlan::hostile(3));
        let dt = exp.run_idle();
        assert!(!dt.is_zero());
        assert_eq!(exp.fault_counters().unwrap().rounds, 1);
    }

    #[test]
    fn hot_ring_oscillator_degrades_badly() {
        let mut cfg = quiet(ExperimentConfig::fig5(1.0, 14));
        cfg.clock = Oscillator::shifting_ring();
        cfg.temperature_delta = 10.0;
        // A ring-clocked tag this far off calibration misses triggers (or
        // smears its schedule): BER collapses toward 0.25+ (half the 0s
        // unanswered). This is the §7 temperature argument end-to-end.
        let mut exp = Experiment::new(cfg).unwrap();
        let stats = exp.run(20);
        assert!(
            stats.ber() > 0.1,
            "hot ring oscillator must fail, BER {}",
            stats.ber()
        );
    }
}
