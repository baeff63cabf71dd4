//! The fleet network layer: N clients × M tags on one shared medium.
//!
//! A deterministic discrete-event simulation that steps from one medium
//! access to the next: clients contend through the same DCF round
//! ([`witag_mac::access::contend`]) as the [`witag_mac::dcf`] simulator,
//! every grant runs one query round of one tag's concurrent
//! [`SessionSender`] session, and airtime comes from the real PHY
//! arithmetic (`witag_phy::ppdu::PhyConfig::airtime` plus SIFS and a
//! legacy-rate block ACK). When two clients' backoff counters expire
//! together both transmit: the medium is busy for the longest exchange
//! and the overlapping fraction of each readout is bit-corrupted, so a
//! collision feeds back through the normal chunk-CRC/ARQ path of the
//! session transport — not through a shortcut loss probability.
//!
//! Per-link impairments compose from two sources:
//!
//! * a [`witag_faults::FaultPlan`] driven through a per-link
//!   [`FaultInjector`] (the same verdict→bit mapping the transport
//!   integration tests use), and
//! * an optional [`DutyCycle`] modelling energy-harvesting tags that
//!   are only awake during periodic ON windows of *simulated time* —
//!   the regime where scheduling matters most, because a serial poller
//!   burns the whole medium waiting out each tag's sleep while a
//!   scheduler serves whoever is awake.
//!
//! Every run is a pure function of [`FleetConfig::seed`];
//! [`run_replicas`] fans independent replicas over threads through
//! [`par_map_traced`], so traces and stats are byte-identical at any
//! thread count.

use witag::fanout::par_map_traced;
use witag::fountain::{FountainQuery, FountainReceiver, FountainSender};
use witag::tagnet::{
    decode_chunk, parse_base_report, ReceiveWindow, SessionQuery, SessionSender, TagnetError,
    MIN_CHANNEL_BITS,
};
use witag_faults::{FaultInjector, FaultPlan, RoundFaults};
use witag_mac::access::{contend, Round, Station};
use witag_obs::{Event, NullRecorder, Recorder};
use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::mcs::Mcs;
use witag_phy::params::timing;
use witag_phy::ppdu::PhyConfig;
use witag_sim::stats::SampleSet;
use witag_sim::time::{Duration, Instant};
use witag_sim::Rng;

use crate::predict::TrafficPredictor;
use crate::scheduler::{Candidate, Scheduler, SchedulerKind};

/// Airtime of the duration-coded marker signature preceding every query
/// (three bursts plus gaps) — a fixed envelope matching the query
/// designer's marker arithmetic at the fleet layer's level of
/// abstraction.
pub const MARKER_AIRTIME: Duration = Duration::micros(320);

/// Flip probability applied while an oscillator-drift episode is live
/// (the tag corrupts the wrong subframes); mirrors the synthetic
/// channel the transport integration tests drive.
const DRIFT_SMEAR_FLIP: f64 = 0.3;

/// Consecutive dead rounds (no modulated readout) before a link enters
/// cooldown and the scheduler stops offering it.
const COOLDOWN_AFTER: u32 = 2;

/// Cooldown growth cap: `exchange << 6` = 64 exchanges, small enough
/// that a duty-cycled tag's ON window is never skipped whole.
const COOLDOWN_CAP_EXP: u32 = 6;

/// The cooldown rule both engines apply after a round: a link that has
/// now been dead `dead_streak` rounds in a row sits out
/// `exchange × 2^min(streak, 6)` once the streak reaches 2, and is
/// servable again at once before that (`None`).
pub(crate) fn cooldown(dead_streak: u32, exchange: Duration) -> Option<Duration> {
    (dead_streak >= COOLDOWN_AFTER).then(|| exchange * (1u64 << dead_streak.min(COOLDOWN_CAP_EXP)))
}

/// Busy forecast above which the `pred` policy defers all but one
/// contending client. Below it the medium is calm enough that ordinary
/// DCF contention is cheaper than serialisation.
const PRED_BUSY_THRESHOLD: f64 = 0.35;

/// Which session transport every link in a fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Selective-repeat ARQ sessions (`tagnet::run_session` semantics).
    Arq,
    /// Rateless fountain sessions (`tagnet::run_fountain_session`
    /// semantics): coded symbols stream until the client's decoder
    /// completes, no per-chunk retransmission state.
    Fountain,
}

impl Transport {
    /// Parse a CLI spelling (`arq`, `fountain`).
    pub fn parse(s: &str) -> Option<Transport> {
        match s {
            "arq" => Some(Transport::Arq),
            "fountain" => Some(Transport::Fountain),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Arq => "arq",
            Transport::Fountain => "fountain",
        }
    }
}

/// Energy-harvesting duty cycle: the tag is awake only while
/// `(now + phase) mod period` falls inside the ON fraction. Purely a
/// function of simulated time, so a scheduler that backs off a sleeping
/// link genuinely saves airtime (unlike round-indexed fault episodes,
/// which advance only when the link is probed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycle {
    /// Full charge/discharge period.
    pub period: Duration,
    /// Fraction of the period the tag is awake, in `(0, 1]`.
    pub on_fraction: f64,
    /// Phase offset into the period at fleet start.
    pub phase: Duration,
}

impl DutyCycle {
    /// Whether the tag can respond at simulated time `now`.
    pub fn awake(&self, now: Instant) -> bool {
        let period = self.period.as_nanos().max(1);
        let t = (now.nanos() + self.phase.as_nanos()) % period;
        (t as f64) < self.on_fraction * period as f64
    }
}

/// Per-tag link profile: everything heterogeneous about one tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TagProfile {
    /// Channel bits one query can carry to this tag (per-query
    /// capacity; must be ≥ [`MIN_CHANNEL_BITS`]).
    pub channel_bits: usize,
    /// Bytes per query subframe — drives this link's exchange airtime.
    pub subframe_bytes: usize,
    /// The message queued on this tag.
    pub message: Vec<u8>,
    /// Freshness deadline for the read, from fleet start (EDF input;
    /// reported as met/missed, never enforced).
    pub deadline: Duration,
    /// Optional per-link fault plan.
    pub faults: Option<FaultPlan>,
    /// Optional energy-harvesting duty cycle.
    pub duty: Option<DutyCycle>,
}

/// Complete description of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of querying clients contending for the medium.
    pub clients: usize,
    /// Scheduling policy every client runs over its tags.
    pub scheduler: SchedulerKind,
    /// Simulated-time budget for the run.
    pub horizon: Duration,
    /// Master seed; every stream (MAC backoff, fault plans, collision
    /// corruption) forks from it.
    pub seed: u64,
    /// Session selective-repeat window (1..=`MAX_WINDOW`; ignored by
    /// the fountain transport, which has no window).
    pub window: usize,
    /// Session transport every link runs.
    pub transport: Transport,
    /// Per-tag link profiles; tag `i` is assigned to client
    /// `i % clients`.
    pub profiles: Vec<TagProfile>,
}

impl FleetConfig {
    /// A deterministic heterogeneous inventory fleet: `tags` tags with
    /// cycling per-query capacities, subframe sizes and message
    /// lengths, staggered deadlines, clean links (no faults, no duty
    /// cycling).
    pub fn inventory(
        clients: usize,
        tags: usize,
        scheduler: SchedulerKind,
        horizon: Duration,
        seed: u64,
    ) -> FleetConfig {
        let mut rng = Rng::seed_from_u64(seed).fork(0xA0);
        let profiles = (0..tags)
            .map(|i| {
                let mut message = vec![0u8; 12 + (i % 5) * 6];
                rng.fill_bytes(&mut message);
                TagProfile {
                    channel_bits: MIN_CHANNEL_BITS + (i % 4) * 2,
                    subframe_bytes: 48 << (i % 3),
                    message,
                    deadline: Duration::nanos(
                        horizon.as_nanos() / tags.max(1) as u64 * (i as u64 + 1),
                    ),
                    faults: None,
                    duty: None,
                }
            })
            .collect();
        FleetConfig {
            clients,
            scheduler,
            horizon,
            seed,
            window: 4,
            transport: Transport::Arq,
            profiles,
        }
    }

    /// The same fleet on a different session transport.
    pub fn with_transport(mut self, transport: Transport) -> FleetConfig {
        self.transport = transport;
        self
    }

    /// Give every tag an energy-harvesting duty cycle with the given
    /// period and ON fraction, phases spread deterministically so the
    /// fleet's ON windows interleave.
    pub fn with_duty_cycle(mut self, period: Duration, on_fraction: f64) -> FleetConfig {
        for (i, p) in self.profiles.iter_mut().enumerate() {
            p.duty = Some(DutyCycle {
                period,
                on_fraction,
                phase: Duration::nanos(
                    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % period.as_nanos().max(1),
                ),
            });
        }
        self
    }

    /// The same fleet under a different master seed: fault-plan seeds
    /// are re-derived from the new seed (the replica runner uses this
    /// so replicas are statistically independent).
    pub fn reseeded(&self, seed: u64) -> FleetConfig {
        let mut cfg = self.clone();
        cfg.seed = seed;
        let mut rng = Rng::seed_from_u64(seed).fork(0xF1);
        for p in cfg.profiles.iter_mut() {
            let s = rng.next_u64();
            if let Some(plan) = p.faults.as_mut() {
                plan.seed = s;
            }
        }
        cfg
    }
}

/// Why a fleet could not be constructed or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The fleet has no clients.
    NoClients,
    /// The fleet has no tag profiles.
    NoTags,
    /// A metro run was configured with zero grid cells.
    NoCells,
    /// A tag's per-query capacity cannot carry one transport chunk.
    ChannelTooSmall {
        /// Offending tag index.
        tag: usize,
        /// Its configured per-query capacity.
        channel_bits: usize,
    },
    /// The session transport rejected a profile (window or message).
    Transport(TagnetError),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::NoClients => write!(f, "fleet needs at least one client"),
            NetError::NoTags => write!(f, "fleet needs at least one tag"),
            NetError::NoCells => write!(f, "metro needs at least one cell"),
            NetError::ChannelTooSmall { tag, channel_bits } => write!(
                f,
                "tag {tag}: {channel_bits} channel bits cannot carry a chunk \
                 (need {MIN_CHANNEL_BITS})"
            ),
            NetError::Transport(e) => write!(f, "session transport: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<TagnetError> for NetError {
    fn from(e: TagnetError) -> Self {
        NetError::Transport(e)
    }
}

/// Outcome of one tag's session.
#[derive(Debug, Clone, PartialEq)]
pub struct TagOutcome {
    /// Fleet-wide tag index.
    pub tag: usize,
    /// The client that served this tag.
    pub client: usize,
    /// Whether the end-to-end-CRC-verified message was delivered.
    pub delivered: bool,
    /// Completion time from fleet start, if the session finished.
    pub latency: Option<Duration>,
    /// Query rounds spent on this link (collisions included).
    pub rounds: u32,
    /// Airtime this link consumed.
    pub airtime: Duration,
    /// Distinct chunk payload bits recovered (header included).
    pub payload_bits: u32,
    /// The message's size in bits (goodput numerator when delivered).
    pub message_bits: u64,
    /// Whether a delivered read beat its freshness deadline.
    pub deadline_met: bool,
}

/// Aggregate result of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The policy that produced this run.
    pub scheduler: SchedulerKind,
    /// Clients that contended.
    pub clients: usize,
    /// Simulated time consumed (completion of the last round, capped at
    /// the horizon).
    pub elapsed: Duration,
    /// Uncontested medium grants.
    pub grants: u64,
    /// Inter-query collision events.
    pub collisions: u64,
    /// Per-tag outcomes, in tag order.
    pub tags: Vec<TagOutcome>,
}

impl FleetReport {
    /// Tags whose message was delivered and CRC-verified.
    pub fn delivered(&self) -> usize {
        self.tags.iter().filter(|t| t.delivered).count()
    }

    /// Collisions per medium access.
    pub fn collision_rate(&self) -> f64 {
        let accesses = self.grants + self.collisions;
        if accesses == 0 {
            0.0
        } else {
            self.collisions as f64 / accesses as f64
        }
    }

    /// Aggregate goodput: delivered message bits over elapsed time.
    pub fn goodput_bps(&self) -> f64 {
        let bits: u64 = self
            .tags
            .iter()
            .filter(|t| t.delivered)
            .map(|t| t.message_bits)
            .sum();
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            bits as f64 / secs
        }
    }

    /// The `p`-th percentile of delivered read latencies, in
    /// microseconds (`None` when nothing was delivered).
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let mut samples = SampleSet::new();
        for t in &self.tags {
            if let (true, Some(lat)) = (t.delivered, t.latency) {
                samples.push(lat.as_micros() as f64);
            }
        }
        samples.percentile(p)
    }

    /// One tag's fraction of the fleet's total consumed airtime.
    pub fn airtime_share(&self, tag: usize) -> f64 {
        let total: f64 = self.tags.iter().map(|t| t.airtime.as_secs_f64()).sum();
        match self.tags.get(tag) {
            Some(t) if total > 0.0 => t.airtime.as_secs_f64() / total,
            _ => 0.0,
        }
    }

    /// Every tag's airtime share, in tag order.
    pub fn airtime_shares(&self) -> Vec<f64> {
        (0..self.tags.len())
            .map(|i| self.airtime_share(i))
            .collect()
    }

    /// Delivered reads that met their freshness deadline.
    pub fn deadline_hits(&self) -> usize {
        self.tags.iter().filter(|t| t.deadline_met).count()
    }
}

/// One round's query, over either transport.
enum ProtoQuery {
    Arq(SessionQuery),
    Fountain(FountainQuery),
}

/// One link's transport state machines — the tag side and the client
/// side of whichever transport the fleet runs, reduced to the
/// serve/commit/absorb/complete shape `TagLink::run_round` drives.
enum LinkProto {
    /// Selective-repeat ARQ: `SessionSender` + the client's
    /// `ReceiveWindow`, one decode per round (no diversity batching: the
    /// scheduler decides when this tag gets another round). A stale
    /// sequence number sets `resync`, so the next query re-learns the
    /// tag's base before spending more slot queries.
    Arq {
        sender: SessionSender,
        win: ReceiveWindow,
        resync: bool,
    },
    /// Rateless fountain: `FountainSender` + `FountainReceiver`
    /// (boxed: the receiver's decoder state dwarfs the ARQ variant).
    Fountain {
        sender: FountainSender,
        recv: Box<FountainReceiver>,
    },
}

impl LinkProto {
    /// The next query and the bits the tag would modulate for it.
    fn serve(&self, channel_bits: usize) -> Result<(ProtoQuery, Vec<u8>), TagnetError> {
        match self {
            LinkProto::Arq {
                sender,
                win,
                resync,
            } => {
                let q = if *resync {
                    SessionQuery::Resync
                } else {
                    win.next_missing_slot()
                        .map_or(SessionQuery::Slide, SessionQuery::Slot)
                };
                let tx = sender.serve(&q, channel_bits)?;
                Ok((ProtoQuery::Arq(q), tx))
            }
            LinkProto::Fountain { sender, recv } => {
                let q = recv.next_query();
                let tx = sender.serve(&q, channel_bits)?;
                Ok((ProtoQuery::Fountain(q), tx))
            }
        }
    }

    /// Apply the tag-side state effect of a query the tag heard.
    fn commit(&mut self, q: &ProtoQuery) {
        match (self, q) {
            (LinkProto::Arq { sender, .. }, ProtoQuery::Arq(q)) => sender.commit(q),
            (LinkProto::Fountain { sender, .. }, ProtoQuery::Fountain(q)) => sender.commit(q),
            _ => {}
        }
    }

    /// Fold one readout into the client side; returns freshly recovered
    /// payload bits.
    fn absorb(&mut self, q: &ProtoQuery, readout: Option<&[u8]>, channel_bits: usize) -> usize {
        match (self, q) {
            (LinkProto::Arq { win, resync, .. }, ProtoQuery::Arq(q)) => {
                // Dead air (the tag never modulated) and chunk-CRC
                // failures (noise, collision overlap) recover nothing.
                let Some(bits) = readout.filter(|bits| !bits.iter().all(|&b| b == 1)) else {
                    return 0;
                };
                let Some((seq, payload)) = decode_chunk(bits, channel_bits) else {
                    return 0;
                };
                match *q {
                    SessionQuery::Slot(k) => {
                        let abs = win.base() + k as usize;
                        if seq == (abs % 16) as u8 {
                            return win.store(abs, payload);
                        }
                        *resync = true;
                    }
                    SessionQuery::Slide | SessionQuery::Resync => {
                        if let Some(base) = parse_base_report(seq, &payload) {
                            win.set_base(base);
                            *resync = false;
                        }
                    }
                    SessionQuery::Idle => {}
                }
                0
            }
            (LinkProto::Fountain { recv, .. }, ProtoQuery::Fountain(q)) => {
                recv.absorb(q, readout, channel_bits).solved_bits
            }
            _ => 0,
        }
    }

    fn complete(&self) -> bool {
        match self {
            LinkProto::Arq { win, .. } => win.complete(),
            LinkProto::Fountain { recv, .. } => recv.complete(),
        }
    }

    fn assemble(&self) -> Option<Vec<u8>> {
        match self {
            LinkProto::Arq { win, .. } => win.assemble(),
            LinkProto::Fountain { recv, .. } => recv.assemble(),
        }
    }
}

/// One tag's live link state inside the fleet loop.
struct TagLink {
    client: usize,
    proto: LinkProto,
    injector: Option<FaultInjector>,
    duty: Option<DutyCycle>,
    channel_bits: usize,
    exchange: Duration,
    deadline: Instant,
    message_bits: u64,
    ready_at: Instant,
    dead_streak: u32,
    airtime_used: Duration,
    rounds: u32,
    payload_bits: u32,
    done: bool,
    delivered: bool,
    finished_at: Option<Instant>,
}

impl TagLink {
    /// Execute one query round at `start`. `collision_frac` is the
    /// fraction of this exchange overlapped by colliding transmissions
    /// (bits in that prefix are flipped with probability ½, then judged
    /// by the normal chunk CRC). Returns whether the client saw any
    /// modulation (the link looked alive).
    fn run_round(
        &mut self,
        mac_rng: &mut Rng,
        start: Instant,
        collision_frac: Option<f64>,
    ) -> Result<bool, NetError> {
        let (q, tx) = self.proto.serve(self.channel_bits)?;
        let rf = match self.injector.as_mut() {
            Some(inj) => inj.begin_round(self.rounds.into(), &mut NullRecorder),
            None => RoundFaults::inert(),
        };
        let asleep = self.duty.is_some_and(|d| !d.awake(start));
        let (tag_heard, mut readout) = if rf.query_lost {
            (false, None)
        } else if asleep || rf.brownout {
            // The tag cannot afford to respond: every subframe sails
            // through clean and the readout is the idle pattern.
            (false, Some(vec![1u8; self.channel_bits]))
        } else if rf.ba_lost {
            (true, None)
        } else {
            let mut bits = tx;
            if let Some(inj) = self.injector.as_mut() {
                if let Some(p) = rf.readout_flip {
                    inj.corrupt_readout(&mut bits, p);
                }
                if rf.clock_error != 0.0 {
                    inj.corrupt_readout(&mut bits, DRIFT_SMEAR_FLIP);
                }
            }
            (true, Some(bits))
        };
        // Colliding airtime corrupts delivered subframes at the AP, so
        // the damage lands on the readout no matter what the tag did.
        if let (Some(bits), Some(frac)) = (readout.as_mut(), collision_frac) {
            let prefix = ((bits.len() as f64) * frac).ceil() as usize;
            for b in bits.iter_mut().take(prefix.min(self.channel_bits)) {
                if mac_rng.chance(0.5) {
                    *b ^= 1;
                }
            }
        }
        if tag_heard {
            self.proto.commit(&q);
        }
        let alive = readout.as_ref().is_some_and(|bits| bits.contains(&0));
        self.payload_bits += self.proto.absorb(&q, readout.as_deref(), self.channel_bits) as u32;
        self.rounds += 1;
        Ok(alive)
    }

    /// Account a finished round: airtime, cooldown, completion. Returns
    /// `true` iff the session just completed.
    fn finish_round(&mut self, own: Duration, alive: bool, t_end: Instant) -> bool {
        self.airtime_used += own;
        if alive {
            self.dead_streak = 0;
            self.ready_at = t_end;
        } else {
            self.dead_streak = self.dead_streak.saturating_add(1);
            let wait = cooldown(self.dead_streak, self.exchange).unwrap_or(Duration::ZERO);
            self.ready_at = t_end + wait;
        }
        if !self.done && self.proto.complete() {
            self.done = true;
            self.delivered = self.proto.assemble().is_some();
            self.finished_at = Some(t_end);
            true
        } else {
            false
        }
    }

    fn outcome(&self, tag: usize) -> TagOutcome {
        TagOutcome {
            tag,
            client: self.client,
            delivered: self.delivered,
            latency: self.finished_at.map(|t| t - Instant::ZERO),
            rounds: self.rounds,
            airtime: self.airtime_used,
            payload_bits: self.payload_bits,
            message_bits: self.message_bits,
            deadline_met: self.delivered && self.finished_at.is_some_and(|t| t <= self.deadline),
        }
    }
}

fn build_links(cfg: &FleetConfig) -> Result<Vec<TagLink>, NetError> {
    let phy = PhyConfig::new(Mcs::ht(4));
    let mut links = Vec::with_capacity(cfg.profiles.len());
    for (tag, prof) in cfg.profiles.iter().enumerate() {
        if prof.channel_bits < MIN_CHANNEL_BITS {
            return Err(NetError::ChannelTooSmall {
                tag,
                channel_bits: prof.channel_bits,
            });
        }
        let proto = match cfg.transport {
            Transport::Arq => LinkProto::Arq {
                sender: SessionSender::new(&prof.message, cfg.window)?,
                win: ReceiveWindow::new(cfg.window),
                resync: false,
            },
            Transport::Fountain => LinkProto::Fountain {
                sender: FountainSender::new(&prof.message)?,
                recv: Box::new(FountainReceiver::new()),
            },
        };
        // Payload window plus two guard subframes, like the query
        // designer's layouts.
        let subframes = prof.channel_bits + 2;
        let exchange = MARKER_AIRTIME
            + phy.airtime(prof.subframe_bytes * subframes)
            + timing::SIFS
            + block_ack_airtime(LegacyRate::M24);
        links.push(TagLink {
            client: tag % cfg.clients,
            proto,
            injector: prof.faults.clone().map(FaultInjector::new),
            duty: prof.duty,
            channel_bits: prof.channel_bits,
            exchange,
            deadline: Instant::ZERO + prof.deadline,
            message_bits: (prof.message.len() * 8) as u64,
            ready_at: Instant::ZERO,
            dead_streak: 0,
            airtime_used: Duration::ZERO,
            rounds: 0,
            payload_bits: 0,
            done: false,
            delivered: false,
            finished_at: None,
        });
    }
    Ok(links)
}

/// Run one fleet to completion (or the horizon), emitting `net.*`
/// events into `rec`. Deterministic: the report and the event stream
/// are pure functions of the config.
pub fn run_fleet(cfg: &FleetConfig, rec: &mut dyn Recorder) -> Result<FleetReport, NetError> {
    if cfg.clients == 0 {
        return Err(NetError::NoClients);
    }
    if cfg.profiles.is_empty() {
        return Err(NetError::NoTags);
    }
    let mut links = build_links(cfg)?;
    let mut stations = vec![Station::default(); cfg.clients];
    let mut scheds: Vec<Box<dyn Scheduler>> =
        (0..cfg.clients).map(|_| cfg.scheduler.build()).collect();
    let mut mac_rng = Rng::seed_from_u64(cfg.seed).fork(0x3AC);
    if rec.enabled() {
        for (tag, link) in links.iter().enumerate() {
            rec.record(&Event::NetEnqueue {
                round: 0,
                client: link.client as u32,
                tag: tag as u32,
                deadline_us: (link.deadline - Instant::ZERO).as_micros(),
            });
        }
    }

    let end = Instant::ZERO + cfg.horizon;
    let ignore_cooldown = cfg.scheduler.ignores_cooldown();
    let pred_active = matches!(cfg.scheduler, SchedulerKind::Pred);
    let mut predictor = TrafficPredictor::new();
    // Per-client starvation counters for the deferral election: the
    // client that has deferred longest goes next (ties to lowest id).
    let mut defer_streak: Vec<u64> = vec![0; cfg.clients];
    let mut fleet_round = 0u64;
    let mut grants = 0u64;
    let mut collisions = 0u64;
    let mut elapsed = Duration::ZERO;

    // The loop steps from one medium access to the next: `now` is when
    // the medium next goes idle, or the earliest cooldown expiry.
    let mut now = Instant::ZERO;
    // Per-access buffers, cleared and refilled each pass; the inner
    // candidate lists keep their capacity.
    let mut per_client: Vec<Vec<Candidate>> = vec![Vec::new(); cfg.clients];
    let mut contenders: Vec<usize> = Vec::with_capacity(cfg.clients);
    let mut round = Round::default();
    let mut picks: Vec<(usize, usize)> = Vec::with_capacity(cfg.clients);
    while now < end && !links.iter().all(|l| l.done) {
        // Servable tags per client, in ascending tag order.
        for cands in per_client.iter_mut() {
            cands.clear();
        }
        for (tag, link) in links.iter().enumerate() {
            if link.done || (!ignore_cooldown && link.ready_at > now) {
                continue;
            }
            let cands = &mut per_client[link.client]; // lint:allow(panic_path) link.client < cfg.clients, per_client sized cfg.clients
            cands.push(Candidate {
                tag,
                round_airtime: link.exchange,
                deadline: link.deadline,
            });
        }
        contenders.clear();
        contenders.extend((0..cfg.clients).filter(|&c| !per_client[c].is_empty()));
        if contenders.is_empty() {
            // Nothing servable: idle forward to the earliest cooldown
            // expiry (cheap — no airtime is burned).
            match links.iter().filter(|l| !l.done).map(|l| l.ready_at).min() {
                Some(t) => {
                    now = t.max(now + timing::SLOT);
                    continue;
                }
                None => break,
            }
        }

        // Predictive deferral: while ambient contention is forecast
        // high, elect a single client (longest defer streak, ties to
        // lowest id) and tell the rest to sit the access out. The
        // elected client then wins the medium uncontested, turning
        // forecast-busy slots into serialised quiet ones. Deterministic:
        // the election reads only simulation state.
        if pred_active && contenders.len() > 1 && predictor.forecast() > PRED_BUSY_THRESHOLD {
            let mut elected = contenders[0];
            for &c in &contenders[1..] {
                let longer = defer_streak[c] > defer_streak[elected]; // lint:allow(panic_path) contenders hold client ids < cfg.clients == defer_streak.len()
                if longer {
                    elected = c;
                }
            }
            let deferred = contenders.len() - 1;
            for &c in &contenders {
                if c != elected {
                    defer_streak[c] += 1;
                }
            }
            defer_streak[elected] = 0; // lint:allow(panic_path) contenders hold client ids < cfg.clients == defer_streak.len()
            if rec.enabled() {
                rec.record(&Event::NetPredict {
                    round: fleet_round,
                    client: elected as u32,
                    busy_ewma: predictor.busy_ewma(),
                    p_busy: predictor.forecast(),
                    deferred: deferred as u32,
                });
            }
            contenders.clear();
            contenders.push(elected);
        } else if pred_active && rec.enabled() {
            rec.record(&Event::NetPredict {
                round: fleet_round,
                client: contenders[0] as u32,
                busy_ewma: predictor.busy_ewma(),
                p_busy: predictor.forecast(),
                deferred: 0,
            });
        }

        // DCF access: simultaneous expiry is a collision.
        contend(&mut stations, &contenders, &mut mac_rng, &mut round);
        let t_access = now + round.wait();

        // Every winner's scheduler picks its tag; picks transmit
        // simultaneously.
        picks.clear();
        picks.extend(round.winners.iter().map(|&c| {
            let pos = scheds[c].pick(&per_client[c]);
            (c, per_client[c][pos].tag) // lint:allow(panic_path) pick() returns an index into the slice it was given
        }));
        let busy = picks
            .iter()
            .map(|&(_, t)| links[t].exchange)
            .fold(Duration::ZERO, Duration::max);
        let t_end = t_access + busy;

        if picks.len() == 1 {
            let (c, tag) = picks[0];
            grants += 1;
            if rec.enabled() {
                rec.record(&Event::NetGrant {
                    round: fleet_round,
                    client: c as u32,
                    tag: tag as u32,
                    airtime_us: links[tag].exchange.as_micros(),
                });
            }
            let own = links[tag].exchange;
            let alive = links[tag].run_round(&mut mac_rng, t_access, None)?;
            let completed = links[tag].finish_round(own, alive, t_end);
            scheds[c].on_served(tag, own);
            if completed && rec.enabled() {
                record_session_done(rec, fleet_round, tag, &links[tag]);
            }
        } else {
            collisions += 1;
            if rec.enabled() {
                rec.record(&Event::NetCollision {
                    round: fleet_round,
                    clients: picks.len() as u32,
                    airtime_us: busy.as_micros(),
                });
            }
            for &(c, tag) in &picks {
                let own = links[tag].exchange;
                let other_max = picks
                    .iter()
                    .filter(|&&(oc, _)| oc != c)
                    .map(|&(_, t)| links[t].exchange)
                    .fold(Duration::ZERO, Duration::max);
                let frac = other_max.min(own).as_nanos() as f64 / own.as_nanos().max(1) as f64;
                let alive = links[tag].run_round(&mut mac_rng, t_access, Some(frac))?;
                let completed = links[tag].finish_round(own, alive, t_end);
                scheds[c].on_served(tag, own);
                if completed && rec.enabled() {
                    record_session_done(rec, fleet_round, tag, &links[tag]);
                }
            }
        }
        predictor.observe(picks.len() > 1);
        fleet_round += 1;
        elapsed = t_end.min(end) - Instant::ZERO;
        now = t_end;
    }

    Ok(FleetReport {
        scheduler: cfg.scheduler,
        clients: cfg.clients,
        elapsed,
        grants,
        collisions,
        tags: links
            .iter()
            .enumerate()
            .map(|(tag, link)| link.outcome(tag))
            .collect(),
    })
}

fn record_session_done(rec: &mut dyn Recorder, round: u64, tag: usize, link: &TagLink) {
    let latency_us = link
        .finished_at
        .map_or(0, |t| (t - Instant::ZERO).as_micros());
    rec.record(&Event::NetSessionDone {
        round,
        tag: tag as u32,
        delivered: link.delivered,
        rounds: link.rounds,
        payload_bits: link.payload_bits,
        latency_us,
    });
}

/// Run `replicas` statistically independent copies of the fleet
/// (per-replica seeds forked from [`FleetConfig::seed`]) across up to
/// `threads` workers ([`par_map_traced`]). Reports come back in replica
/// order and, when `rec` is attached, each replica's trace is replayed
/// in replica order behind a `shard` marker — so the full trace is
/// byte-identical for every thread count.
pub fn run_replicas(
    cfg: &FleetConfig,
    replicas: usize,
    threads: usize,
    rec: &mut dyn Recorder,
) -> Result<Vec<FleetReport>, NetError> {
    let work = |r: usize, rec: &mut dyn Recorder| {
        let mut root = Rng::seed_from_u64(cfg.seed);
        run_fleet(&cfg.reseeded(root.fork(r as u64).next_u64()), rec)
    };
    let marker = |r: usize, rep: &FleetReport| {
        Some(Event::Shard {
            index: r as u32,
            base_round: 0,
            rounds: (rep.grants + rep.collisions) as u32,
        })
    };
    par_map_traced(replicas, threads, rec, work, marker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_faults::FaultPlan;
    use witag_obs::BufferRecorder;

    fn small(clients: usize, tags: usize, kind: SchedulerKind) -> FleetConfig {
        FleetConfig::inventory(clients, tags, kind, Duration::secs(5), 42)
    }

    #[test]
    fn clean_fleet_delivers_every_tag() {
        let rep =
            run_fleet(&small(2, 8, SchedulerKind::Fair), &mut NullRecorder).expect("valid fleet");
        assert_eq!(rep.delivered(), 8, "{rep:?}");
        assert!(rep.grants > 0);
        assert!(rep.latency_percentile(99.0).is_some());
        let shares: f64 = rep.airtime_shares().iter().sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_report() {
        let cfg = small(3, 10, SchedulerKind::Rr);
        let a = run_fleet(&cfg, &mut NullRecorder).expect("valid");
        let b = run_fleet(&cfg, &mut NullRecorder).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn two_clients_do_collide_and_recover() {
        let mut buf = BufferRecorder::new();
        let rep = run_fleet(&small(2, 8, SchedulerKind::Fair), &mut buf).expect("valid");
        assert!(rep.collisions > 0, "contention model never collided");
        assert_eq!(rep.delivered(), 8, "collisions must be survivable");
        let kinds: Vec<&str> = buf.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"net.enqueue"));
        assert!(kinds.contains(&"net.grant"));
        assert!(kinds.contains(&"net.collision"));
        assert!(kinds.contains(&"net.session_done"));
    }

    #[test]
    fn duty_cycle_awake_windows() {
        let d = DutyCycle {
            period: Duration::millis(100),
            on_fraction: 0.25,
            phase: Duration::ZERO,
        };
        assert!(d.awake(Instant::ZERO));
        assert!(d.awake(Instant::ZERO + Duration::millis(24)));
        assert!(!d.awake(Instant::ZERO + Duration::millis(26)));
        assert!(!d.awake(Instant::ZERO + Duration::millis(99)));
        assert!(d.awake(Instant::ZERO + Duration::millis(101)));
    }

    #[test]
    fn scheduler_beats_serial_polling_on_duty_cycled_fleet() {
        let duty = |kind| small(1, 12, kind).with_duty_cycle(Duration::secs(2), 0.10);
        let fair = run_fleet(&duty(SchedulerKind::Fair), &mut NullRecorder).expect("valid");
        let serial = run_fleet(&duty(SchedulerKind::Serial), &mut NullRecorder).expect("valid");
        assert!(
            fair.goodput_bps() > 2.0 * serial.goodput_bps(),
            "fair {:.0} bps vs serial {:.0} bps",
            fair.goodput_bps(),
            serial.goodput_bps()
        );
    }

    #[test]
    fn hostile_links_still_converge() {
        let mut cfg = small(2, 6, SchedulerKind::Fair);
        for (i, p) in cfg.profiles.iter_mut().enumerate() {
            p.faults = Some(FaultPlan::hostile_scaled(100 + i as u64, 0.5));
        }
        cfg.horizon = Duration::secs(20);
        let rep = run_fleet(&cfg, &mut NullRecorder).expect("valid");
        assert!(
            rep.delivered() >= 5,
            "hostile fleet delivered only {}/6",
            rep.delivered()
        );
    }

    #[test]
    fn fountain_fleet_delivers_every_tag() {
        let cfg = small(2, 8, SchedulerKind::Fair).with_transport(Transport::Fountain);
        let rep = run_fleet(&cfg, &mut NullRecorder).expect("valid fleet");
        assert_eq!(rep.delivered(), 8, "{rep:?}");
    }

    #[test]
    fn hostile_fountain_fleet_converges() {
        let mut cfg = small(2, 6, SchedulerKind::Fair).with_transport(Transport::Fountain);
        for (i, p) in cfg.profiles.iter_mut().enumerate() {
            p.faults = Some(FaultPlan::hostile_scaled(100 + i as u64, 0.5));
        }
        cfg.horizon = Duration::secs(20);
        let rep = run_fleet(&cfg, &mut NullRecorder).expect("valid");
        assert!(
            rep.delivered() >= 5,
            "hostile fountain fleet delivered only {}/6",
            rep.delivered()
        );
    }

    #[test]
    fn pred_policy_emits_predict_events_and_delivers() {
        let mut buf = BufferRecorder::new();
        let rep = run_fleet(&small(3, 9, SchedulerKind::Pred), &mut buf).expect("valid");
        assert_eq!(rep.delivered(), 9, "{rep:?}");
        let predicts = buf
            .events()
            .iter()
            .filter(|e| e.kind() == "net.predict")
            .count();
        assert!(predicts > 0, "pred fleets must emit net.predict");
        // Non-pred fleets must not.
        let mut quiet = BufferRecorder::new();
        run_fleet(&small(3, 9, SchedulerKind::Fair), &mut quiet).expect("valid");
        assert!(quiet.events().iter().all(|e| e.kind() != "net.predict"));
    }

    #[test]
    fn transport_parse_roundtrips() {
        for t in [Transport::Arq, Transport::Fountain] {
            assert_eq!(Transport::parse(t.name()), Some(t));
        }
        assert_eq!(Transport::parse("bogus"), None);
    }

    #[test]
    fn replicas_are_thread_count_invariant() {
        let cfg = small(2, 4, SchedulerKind::Fair);
        let mut one = BufferRecorder::new();
        let mut four = BufferRecorder::new();
        let a = run_replicas(&cfg, 3, 1, &mut one).expect("valid");
        let b = run_replicas(&cfg, 3, 4, &mut four).expect("valid");
        assert_eq!(a, b);
        assert_eq!(one.events(), four.events());
    }

    #[test]
    fn config_validation_rejects_degenerate_fleets() {
        let mut cfg = small(1, 1, SchedulerKind::Rr);
        cfg.clients = 0;
        assert_eq!(run_fleet(&cfg, &mut NullRecorder), Err(NetError::NoClients));
        let mut cfg = small(1, 1, SchedulerKind::Rr);
        cfg.profiles.clear();
        assert_eq!(run_fleet(&cfg, &mut NullRecorder), Err(NetError::NoTags));
        let mut cfg = small(1, 1, SchedulerKind::Rr);
        cfg.profiles[0].channel_bits = 10;
        assert!(matches!(
            run_fleet(&cfg, &mut NullRecorder),
            Err(NetError::ChannelTooSmall { .. })
        ));
    }
}
