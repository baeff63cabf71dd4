//! Seeded, deterministic fault injection for WiTAG experiments.
//!
//! The paper's evaluation (§4) runs over benign links; its future-work
//! section defers reliability under hostile conditions. This crate
//! provides the hostile conditions: a [`FaultPlan`] describes a set of
//! composable fault models and a [`FaultInjector`] replays them
//! deterministically from a seed, one [`RoundFaults`] verdict per query
//! round. The injector owns its own RNG stream, so attaching a plan to
//! an experiment never perturbs the experiment's existing random draws
//! — and an experiment with *no* plan takes zero extra draws and stays
//! bit-identical to pre-fault behaviour.
//!
//! Models (all optional, all composable):
//!
//! * **Query loss** — the A-MPDU query dies before the AP receives it.
//!   The tag still heard the trigger and modulated (energy spent, bits
//!   consumed) but the client gets no block ACK.
//! * **Block-ACK loss** — the query round completed but the BA frame
//!   carrying the tag's bits was dropped on the way back.
//! * **Burst interference** — a two-state Gilbert–Elliott chain; while
//!   in the bad state every readout bit flips independently with
//!   `flip_prob` (a co-channel interferer corrupting subframe CRCs at
//!   random).
//! * **Oscillator drift/jitter bursts** — episodes during which the
//!   tag's clock runs off-nominal by `center_ppm ± jitter_ppm`
//!   (re-sampled each round), smearing its modulation schedule against
//!   the subframe grid.
//! * **Brownout** — episodes during which the tag's harvester cannot
//!   power the modulator: triggers are missed outright.
//! * **Coherence collapse** — episodes during which the channel's
//!   coherence time shrinks by `factor` (a door slams, a forklift
//!   drives through the Fresnel zone), accelerating fading.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

use witag_sim::Rng;

/// Two-state Gilbert–Elliott burst-interference model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-round probability of entering the bad state.
    pub p_enter: f64,
    /// Per-round probability of leaving the bad state.
    pub p_exit: f64,
    /// Per-bit readout flip probability while in the bad state.
    pub flip_prob: f64,
}

/// Episode shape shared by the episodic models: each round an inactive
/// model starts an episode with `p_start`; episode lengths are
/// geometric-ish with mean `mean_rounds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Per-round probability of starting an episode while inactive.
    pub p_start: f64,
    /// Mean episode length in rounds (exponential draw, min 1).
    pub mean_rounds: f64,
}

/// Tag-oscillator drift/jitter bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBursts {
    /// When episodes start and how long they last.
    pub episode: Episode,
    /// Systematic frequency offset during an episode, in ppm.
    pub center_ppm: f64,
    /// Uniform per-round jitter around the centre, in ppm.
    pub jitter_ppm: f64,
}

/// Tag power brownouts: the harvester cannot fund a response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// When episodes start and how long they last.
    pub episode: Episode,
}

/// Channel coherence-time collapse episodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceCollapse {
    /// When episodes start and how long they last.
    pub episode: Episode,
    /// Coherence time divides by this factor while active (&gt; 1).
    pub factor: f64,
}

/// A complete, seeded fault schedule. Attach to an experiment with
/// [`witag::Experiment::attach_faults`] or drive a synthetic channel
/// directly through a [`FaultInjector`].
///
/// [`witag::Experiment::attach_faults`]: https://docs.rs/witag
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// First round (0-based) at which faults may fire.
    pub start_round: usize,
    /// Round after which faults stop firing (`None` = never stop).
    pub end_round: Option<usize>,
    /// Per-round probability the query never reaches the AP.
    pub query_loss: f64,
    /// Per-round probability the block ACK is dropped on the way back.
    pub block_ack_loss: f64,
    /// Optional Gilbert–Elliott burst interference.
    pub burst: Option<GilbertElliott>,
    /// Optional oscillator drift/jitter bursts.
    pub drift: Option<DriftBursts>,
    /// Optional power brownout episodes.
    pub brownout: Option<Brownout>,
    /// Optional coherence-collapse episodes.
    pub coherence: Option<CoherenceCollapse>,
}

impl FaultPlan {
    /// A plan with every model disabled. Attaching it must leave an
    /// experiment bit-identical to running with no plan at all (the
    /// zero-cost contract; tested in the workspace integration tests).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            start_round: 0,
            end_round: None,
            query_loss: 0.0,
            block_ack_loss: 0.0,
            burst: None,
            drift: None,
            brownout: None,
            coherence: None,
        }
    }

    /// The default "hostile" plan used by the acceptance tests: ≥20%
    /// block-ACK loss plus query loss, near-continuous burst
    /// interference (a co-channel occupant that rarely yields, flipping
    /// readout bits hard enough to defeat any single-shot decode),
    /// oscillator drift bursts, and brownouts.
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            seed,
            start_round: 0,
            end_round: None,
            query_loss: 0.05,
            block_ack_loss: 0.20,
            burst: Some(GilbertElliott {
                p_enter: 0.30,
                p_exit: 0.02,
                flip_prob: 0.22,
            }),
            drift: Some(DriftBursts {
                episode: Episode {
                    p_start: 0.04,
                    mean_rounds: 8.0,
                },
                center_ppm: 9000.0,
                jitter_ppm: 3000.0,
            }),
            brownout: Some(Brownout {
                episode: Episode {
                    p_start: 0.05,
                    mean_rounds: 3.0,
                },
            }),
            coherence: Some(CoherenceCollapse {
                episode: Episode {
                    p_start: 0.02,
                    mean_rounds: 6.0,
                },
                factor: 40.0,
            }),
        }
    }

    /// [`FaultPlan::hostile`] with every probability scaled by
    /// `intensity` (clamped to keep probabilities valid). `0.0` is a
    /// quiet plan, `1.0` is the stock hostile plan; values above 1.0
    /// push harder. Used by the fault-sweep tools.
    pub fn hostile_scaled(seed: u64, intensity: f64) -> Self {
        let mut plan = Self::hostile(seed);
        let s = |p: f64| (p * intensity).clamp(0.0, 0.95);
        plan.query_loss = s(plan.query_loss);
        plan.block_ack_loss = s(plan.block_ack_loss);
        match &mut plan.burst {
            Some(ge) if intensity > 0.0 => {
                ge.p_enter = s(ge.p_enter);
                ge.flip_prob = s(ge.flip_prob);
            }
            other => *other = None,
        }
        match &mut plan.drift {
            Some(d) if intensity > 0.0 => d.episode.p_start = s(d.episode.p_start),
            other => *other = None,
        }
        match &mut plan.brownout {
            Some(b) if intensity > 0.0 => b.episode.p_start = s(b.episode.p_start),
            other => *other = None,
        }
        match &mut plan.coherence {
            Some(c) if intensity > 0.0 => c.episode.p_start = s(c.episode.p_start),
            other => *other = None,
        }
        plan
    }
}

/// The injector's verdict for one round: what breaks and how badly.
///
/// [`RoundFaults::inert`] (also `Default`) leaves the round untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFaults {
    /// The query never reaches the AP: the tag responded, the client
    /// sees nothing.
    pub query_lost: bool,
    /// The block ACK is dropped after a completed round.
    pub ba_lost: bool,
    /// If set, flip each readout bit with this probability.
    pub readout_flip: Option<f64>,
    /// Fractional tag clock error for this round (0.0 = nominal).
    pub clock_error: f64,
    /// The tag's power rail is down: it cannot afford to respond.
    pub brownout: bool,
    /// Divide the channel coherence time by this factor (1.0 = none).
    pub coherence_scale: f64,
}

impl RoundFaults {
    /// A verdict that perturbs nothing.
    pub fn inert() -> Self {
        RoundFaults {
            query_lost: false,
            ba_lost: false,
            readout_flip: None,
            clock_error: 0.0,
            brownout: false,
            coherence_scale: 1.0,
        }
    }
}

impl Default for RoundFaults {
    fn default() -> Self {
        Self::inert()
    }
}

/// Fault classes, used as bit positions in a `fault` event's class mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultClass {
    /// Query lost before the AP.
    QueryLoss = 0,
    /// Block ACK lost after the round.
    BlockAckLoss = 1,
    /// Gilbert–Elliott bad state active.
    Burst = 2,
    /// Oscillator drift episode active.
    Drift = 3,
    /// Brownout episode active.
    Brownout = 4,
    /// Coherence-collapse episode active.
    CoherenceCollapse = 5,
}

impl FaultClass {
    /// Bit mask for this class in a `fault` event's mask.
    pub fn mask(self) -> u8 {
        1 << (self as u8)
    }

    /// The class's wire name in observability traces — the entry of
    /// [`witag_obs::FAULT_CLASS_NAMES`] at this class's bit position
    /// (the pairing is pinned by a test below).
    pub fn name(self) -> &'static str {
        witag_obs::FAULT_CLASS_NAMES[self as usize] // lint:allow(panic_path) discriminants < table length, pinned by test below
    }
}

/// Per-class counts of rounds on which each fault fired.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Rounds the injector has judged (including idle rounds).
    pub rounds: u64,
    /// Rounds whose query was lost.
    pub queries_lost: u64,
    /// Rounds whose block ACK was lost.
    pub block_acks_lost: u64,
    /// Rounds spent in the Gilbert–Elliott bad state.
    pub burst_rounds: u64,
    /// Rounds inside a drift episode.
    pub drift_rounds: u64,
    /// Rounds inside a brownout episode.
    pub brownout_rounds: u64,
    /// Rounds inside a coherence-collapse episode.
    pub collapse_rounds: u64,
}

/// Deterministic replay engine for a [`FaultPlan`].
///
/// Call [`FaultInjector::begin_round`] once per experiment round (idle
/// rounds included, so episodic models keep evolving while a client
/// backs off). Every random draw comes from a private stream seeded by
/// the plan, so two injectors built from equal plans produce identical
/// verdicts.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    round: usize,
    ge_bad: bool,
    drift_left: u64,
    brownout_left: u64,
    collapse_left: u64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Build an injector that will replay `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Rng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng,
            round: 0,
            ge_bad: false,
            drift_left: 0,
            brownout_left: 0,
            collapse_left: 0,
            counters: FaultCounters::default(),
        }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Per-class fault counts so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    fn episode_active(rng: &mut Rng, left: &mut u64, ep: &Episode) -> bool {
        if *left > 0 {
            *left -= 1;
            return true;
        }
        if rng.chance(ep.p_start) {
            let extra = rng.exponential(1.0 / ep.mean_rounds.max(1.0)).round() as u64;
            // This round counts as the first of the episode.
            *left = extra;
            return true;
        }
        false
    }

    /// Advance every model by one round and return the verdict.
    ///
    /// When at least one class fired and `rec` is attached, emits one
    /// [`witag_obs::Event::FaultInjected`] stamped with `round` (the
    /// caller's global round index — the injector's private counter may
    /// be shard-local). Quiet rounds emit nothing, so hostile traces
    /// stay sparse. The verdict and every internal draw are the same
    /// whatever the recorder does.
    pub fn begin_round(&mut self, round: u64, rec: &mut dyn witag_obs::Recorder) -> RoundFaults {
        let (rf, mask) = self.judge();
        if mask != 0 && rec.enabled() {
            rec.record(&witag_obs::Event::FaultInjected { round, mask });
        }
        rf
    }

    /// Advance every model by one round: the verdict, and the OR of
    /// [`FaultClass::mask`] for every fault active this round.
    fn judge(&mut self) -> (RoundFaults, u8) {
        let round = self.round;
        self.round += 1;
        self.counters.rounds += 1;

        let in_window =
            round >= self.plan.start_round && self.plan.end_round.is_none_or(|e| round < e);
        if !in_window {
            return (RoundFaults::inert(), 0);
        }

        let mut rf = RoundFaults::inert();
        let mut mask = 0u8;

        if self.plan.query_loss > 0.0 && self.rng.chance(self.plan.query_loss) {
            rf.query_lost = true;
            mask |= FaultClass::QueryLoss.mask();
            self.counters.queries_lost += 1;
        }
        if self.plan.block_ack_loss > 0.0 && self.rng.chance(self.plan.block_ack_loss) {
            rf.ba_lost = true;
            mask |= FaultClass::BlockAckLoss.mask();
            self.counters.block_acks_lost += 1;
        }
        if let Some(ge) = &self.plan.burst {
            if self.ge_bad {
                if self.rng.chance(ge.p_exit) {
                    self.ge_bad = false;
                }
            } else if self.rng.chance(ge.p_enter) {
                self.ge_bad = true;
            }
            if self.ge_bad {
                rf.readout_flip = Some(ge.flip_prob);
                mask |= FaultClass::Burst.mask();
                self.counters.burst_rounds += 1;
            }
        }
        if let Some(drift) = self.plan.drift {
            if Self::episode_active(&mut self.rng, &mut self.drift_left, &drift.episode) {
                let jitter = self.rng.range_f64(-drift.jitter_ppm, drift.jitter_ppm);
                rf.clock_error = (drift.center_ppm + jitter) * 1e-6;
                mask |= FaultClass::Drift.mask();
                self.counters.drift_rounds += 1;
            }
        }
        if let Some(b) = self.plan.brownout {
            if Self::episode_active(&mut self.rng, &mut self.brownout_left, &b.episode) {
                rf.brownout = true;
                mask |= FaultClass::Brownout.mask();
                self.counters.brownout_rounds += 1;
            }
        }
        if let Some(c) = self.plan.coherence {
            if Self::episode_active(&mut self.rng, &mut self.collapse_left, &c.episode) {
                rf.coherence_scale = c.factor.max(1.0);
                mask |= FaultClass::CoherenceCollapse.mask();
                self.counters.collapse_rounds += 1;
            }
        }

        (rf, mask)
    }

    /// Flip each bit of `bits` (values 0/1) with probability `p`,
    /// drawing from the injector's private stream. Used by the
    /// experiment to apply [`RoundFaults::readout_flip`].
    pub fn corrupt_readout(&mut self, bits: &mut [u8], p: f64) {
        for b in bits.iter_mut() {
            if self.rng.chance(p) {
                *b ^= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_obs::NullRecorder;

    #[test]
    fn quiet_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(7));
        for _ in 0..200 {
            assert_eq!(inj.begin_round(0, &mut NullRecorder), RoundFaults::inert());
        }
        assert_eq!(
            *inj.counters(),
            FaultCounters {
                rounds: 200,
                ..FaultCounters::default()
            }
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let plan = FaultPlan::hostile(42);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        // Verdicts and class masks, round by round.
        let va: Vec<(RoundFaults, u8)> = (0..500).map(|_| a.judge()).collect();
        let vb: Vec<(RoundFaults, u8)> = (0..500).map(|_| b.judge()).collect();
        assert_eq!(va, vb);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn different_seeds_differ() {
        let masks = |seed: u64| -> Vec<u8> {
            let mut inj = FaultInjector::new(FaultPlan::hostile(seed));
            (0..300).map(|_| inj.judge().1).collect()
        };
        assert_ne!(masks(1), masks(2));
    }

    #[test]
    fn hostile_hits_target_loss_rates() {
        let mut inj = FaultInjector::new(FaultPlan::hostile(9));
        let n = 4000u64;
        for _ in 0..n {
            inj.begin_round(0, &mut NullRecorder);
        }
        let c = inj.counters();
        let ba_rate = c.block_acks_lost as f64 / n as f64;
        assert!(
            (0.17..0.23).contains(&ba_rate),
            "BA loss rate {ba_rate} should be ~0.20"
        );
        assert!(c.drift_rounds > 0 && c.brownout_rounds > 0 && c.burst_rounds > 0);
    }

    #[test]
    fn episodes_last_multiple_rounds() {
        let plan = FaultPlan {
            brownout: Some(Brownout {
                episode: Episode {
                    p_start: 0.05,
                    mean_rounds: 6.0,
                },
            }),
            ..FaultPlan::quiet(3)
        };
        let mut inj = FaultInjector::new(plan);
        // Mean episode ≥ 1 round; with mean 6 the rounds should show runs.
        let mut longest = 0usize;
        let mut cur = 0usize;
        for _ in 0..2000 {
            if inj.begin_round(0, &mut NullRecorder).brownout {
                cur += 1;
                longest = longest.max(cur);
            } else {
                cur = 0;
            }
        }
        assert!(longest >= 3, "longest brownout run {longest} too short");
    }

    #[test]
    fn fault_window_respected() {
        let plan = FaultPlan {
            start_round: 10,
            end_round: Some(20),
            ..FaultPlan::hostile(11)
        };
        let mut inj = FaultInjector::new(plan);
        let verdicts: Vec<RoundFaults> = (0..40)
            .map(|_| inj.begin_round(0, &mut NullRecorder))
            .collect();
        assert!(verdicts[..10].iter().all(|rf| *rf == RoundFaults::inert()));
        assert!(verdicts[20..].iter().all(|rf| *rf == RoundFaults::inert()));
        assert_eq!(inj.counters().rounds, 40);
    }

    #[test]
    fn corrupt_readout_flips_roughly_p() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(5));
        let mut bits = vec![0u8; 10_000];
        inj.corrupt_readout(&mut bits, 0.3);
        let flips = bits.iter().filter(|&&b| b == 1).count();
        assert!((2700..3300).contains(&flips), "flips {flips}");
    }

    #[test]
    fn scaled_zero_is_quiet() {
        let plan = FaultPlan::hostile_scaled(4, 0.0);
        assert_eq!(plan.query_loss, 0.0);
        assert_eq!(plan.block_ack_loss, 0.0);
        assert!(plan.burst.is_none() && plan.drift.is_none());
        assert!(plan.brownout.is_none() && plan.coherence.is_none());
    }

    #[test]
    fn class_names_pin_the_obs_bit_positions() {
        // The schema's FAULT_CLASS_NAMES table is indexed by bit
        // position; this is the cross-crate contract check.
        let classes = [
            (FaultClass::QueryLoss, "query_loss"),
            (FaultClass::BlockAckLoss, "ba_loss"),
            (FaultClass::Burst, "burst"),
            (FaultClass::Drift, "drift"),
            (FaultClass::Brownout, "brownout"),
            (FaultClass::CoherenceCollapse, "coherence_collapse"),
        ];
        assert_eq!(classes.len(), witag_obs::FAULT_CLASS_NAMES.len());
        for (class, name) in classes {
            assert_eq!(class.name(), name);
            assert_eq!(class.mask(), 1 << (class as u8));
            assert_eq!(witag_obs::FAULT_CLASS_NAMES[class as usize], name);
        }
    }

    #[test]
    fn begin_round_obs_matches_begin_round_and_emits_sparse_events() {
        use witag_obs::{BufferRecorder, Event};

        let plan = FaultPlan::hostile(42);
        let mut plain = FaultInjector::new(plan.clone());
        let mut traced = FaultInjector::new(plan.clone());
        let mut judged = FaultInjector::new(plan);
        let mut null = NullRecorder;
        let mut buf = BufferRecorder::new();
        let mut faulted: Vec<(u64, u8)> = Vec::new();

        for round in 0..500u64 {
            let a = plain.begin_round(round, &mut null);
            let c = traced.begin_round(round, &mut buf);
            let (d, mask) = judged.judge();
            assert_eq!(a, c, "round {round}: attached obs must not perturb draws");
            assert_eq!(a, d, "round {round}: begin_round is the judged verdict");
            if mask != 0 {
                faulted.push((round, mask));
            }
        }
        assert_eq!(plain.counters(), traced.counters());

        // One event per faulted round, stamped with its round and mask.
        assert!(!faulted.is_empty(), "hostile plan should fire");
        assert_eq!(buf.events().len(), faulted.len());
        for (event, (round, mask)) in buf.events().iter().zip(&faulted) {
            assert_eq!(
                event,
                &Event::FaultInjected {
                    round: *round,
                    mask: *mask
                }
            );
        }
    }
}
