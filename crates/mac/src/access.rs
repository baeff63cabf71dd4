//! DCF/EDCA channel access timing.
//!
//! WiTAG's throughput is bounded by how fast query exchanges can be run:
//!
//! ```text
//! [DIFS][backoff][A-MPDU][SIFS][block ACK]  …repeat
//! ```
//!
//! This module produces exchange durations — with random backoff drawn
//! from the contention window — and implements binary exponential backoff
//! for retries. The single-querier experiments (like the paper's) use it
//! as an airtime model: inter-station collision dynamics reduce to the
//! configured interference process in `witag-channel`. Where several
//! stations share one medium — the [`dcf`](crate::dcf) simulator and the
//! `witag-net` fleet and metro engines — each round of countdown goes
//! through the one [`contend`] function over [`Station`]s.

use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::params::timing;
use witag_phy::ppdu::PhyConfig;
use witag_sim::rng::Rng;
use witag_sim::time::Duration;

/// Contention/backoff state for one station.
#[derive(Debug, Clone)]
pub struct Contention {
    cw: u32,
}

impl Default for Contention {
    fn default() -> Self {
        Self::new()
    }
}

impl Contention {
    /// Fresh state at CWmin.
    pub fn new() -> Self {
        Contention { cw: timing::CW_MIN }
    }

    /// Current contention window (slots).
    pub fn window(&self) -> u32 {
        self.cw
    }

    /// Draw a backoff duration for a new transmission attempt.
    pub fn draw_backoff(&self, rng: &mut Rng) -> Duration {
        timing::SLOT * self.draw_slots(rng)
    }

    /// Draw a backoff counter, in slots, uniform over `0..=window`.
    fn draw_slots(&self, rng: &mut Rng) -> u64 {
        rng.below(self.cw as u64 + 1)
    }

    /// Record a failed exchange: double the window up to CWmax.
    pub fn on_failure(&mut self) {
        self.cw = ((self.cw + 1) * 2 - 1).min(timing::CW_MAX);
    }

    /// Record a successful exchange: reset to CWmin.
    pub fn on_success(&mut self) {
        self.cw = timing::CW_MIN;
    }
}

/// One station on a shared medium: its contention window plus the
/// backoff counter it froze when another station won the countdown.
#[derive(Debug, Clone, Default)]
pub struct Station {
    contention: Contention,
    frozen: Option<u64>,
}

impl Station {
    /// Current contention window (slots).
    pub fn window(&self) -> u32 {
        self.contention.window()
    }

    /// Backoff slots still to count down, if the station holds a
    /// counter from an earlier round.
    pub fn frozen(&self) -> Option<u64> {
        self.frozen
    }
}

impl AsMut<Station> for Station {
    fn as_mut(&mut self) -> &mut Station {
        self
    }
}

/// What one contention round decided. A caller holds one across rounds
/// and hands it to [`contend`], which overwrites it, so steady-state
/// access loops reuse its `winners` buffer instead of allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// Idle slots counted down before the winners transmitted.
    pub slots: u64,
    /// The contenders whose counters reached zero together, in
    /// contender order: one is a grant, several are a collision.
    pub winners: Vec<usize>,
}

impl Round {
    /// Time from the medium going idle to the winners' transmission:
    /// DIFS plus the counted slots.
    pub fn wait(&self) -> Duration {
        timing::DIFS + timing::SLOT * self.slots
    }

    /// Whether several stations transmitted at once.
    pub fn collided(&self) -> bool {
        self.winners.len() > 1
    }
}

/// Run one DCF contention round among `contenders`, indices into
/// `stations` in the order their counters are drawn, and write its
/// outcome into `round`: `winners` is cleared and refilled, `slots` set.
///
/// Each contender without a counter draws one from its window; a
/// contender that holds a frozen counter keeps it. All contenders count
/// down by the smallest counter, and the ones that reach zero win. A
/// lone winner resets its window to CWmin, colliding winners double
/// theirs, and every winner drops its counter so it draws afresh next
/// time. Stations not named in `contenders` are left untouched.
// lint:no_alloc
pub fn contend<S: AsMut<Station>>(
    stations: &mut [S],
    contenders: &[usize],
    rng: &mut Rng,
    round: &mut Round,
) {
    let mut min: Option<u64> = None;
    for &i in contenders {
        if let Some(s) = stations.get_mut(i) {
            let s = s.as_mut();
            let left = *s.frozen.get_or_insert_with(|| s.contention.draw_slots(rng));
            min = Some(min.map_or(left, |m| m.min(left)));
        }
    }
    let slots = min.unwrap_or(0);
    round.slots = slots;
    round.winners.clear();
    for &i in contenders {
        if let Some(left) = stations.get_mut(i).and_then(|s| s.as_mut().frozen.as_mut()) {
            if *left == slots {
                round.winners.push(i);
            }
            *left -= slots;
        }
    }
    let collided = round.collided();
    for &i in &round.winners {
        if let Some(s) = stations.get_mut(i) {
            let s = s.as_mut();
            if collided {
                s.contention.on_failure();
            } else {
                s.contention.on_success();
            }
            s.frozen = None;
        }
    }
}

/// Timing breakdown of one query exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeTiming {
    /// DIFS + random backoff.
    pub contention: Duration,
    /// A-MPDU PPDU airtime.
    pub ampdu: Duration,
    /// SIFS before the block ACK.
    pub sifs: Duration,
    /// Block ACK airtime (legacy rate).
    pub block_ack: Duration,
}

impl ExchangeTiming {
    /// Total exchange duration.
    pub fn total(&self) -> Duration {
        self.contention + self.ampdu + self.sifs + self.block_ack
    }
}

/// Compute the timing of one `A-MPDU → block ACK` exchange.
pub fn exchange_timing(
    phy: &PhyConfig,
    psdu_len: usize,
    contention: &Contention,
    ba_rate: LegacyRate,
    rng: &mut Rng,
) -> ExchangeTiming {
    ExchangeTiming {
        contention: timing::DIFS + contention.draw_backoff(rng),
        ampdu: phy.airtime(psdu_len),
        sifs: timing::SIFS,
        block_ack: block_ack_airtime(ba_rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::mcs::Mcs;

    #[test]
    fn backoff_within_window() {
        let mut rng = Rng::seed_from_u64(1);
        let c = Contention::new();
        for _ in 0..200 {
            let b = c.draw_backoff(&mut rng);
            assert!(b <= timing::SLOT * timing::CW_MIN as u64);
            assert_eq!(b.as_nanos() % timing::SLOT.as_nanos(), 0);
        }
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let mut c = Contention::new();
        assert_eq!(c.window(), 15);
        c.on_failure();
        assert_eq!(c.window(), 31);
        c.on_failure();
        assert_eq!(c.window(), 63);
        for _ in 0..10 {
            c.on_failure();
        }
        assert_eq!(c.window(), timing::CW_MAX);
        c.on_success();
        assert_eq!(c.window(), timing::CW_MIN);
    }

    #[test]
    fn lone_contender_wins_and_resets_its_window() {
        let mut rng = Rng::seed_from_u64(4);
        let mut stations = vec![Station::default(); 2];
        let mut round = Round::default();
        contend(&mut stations, &[1], &mut rng, &mut round);
        assert_eq!(round.winners, vec![1]);
        assert!(!round.collided());
        assert!(round.slots <= timing::CW_MIN as u64);
        assert_eq!(round.wait(), timing::DIFS + timing::SLOT * round.slots);
        assert_eq!(stations[1].frozen(), None);
        assert_eq!(stations[1].window(), timing::CW_MIN);
        assert_eq!(
            stations[0].frozen(),
            None,
            "a station outside the round never draws"
        );
    }

    #[test]
    fn exchange_total_adds_up() {
        let mut rng = Rng::seed_from_u64(2);
        let phy = PhyConfig::new(Mcs::ht(7));
        let t = exchange_timing(&phy, 2048, &Contention::new(), LegacyRate::M24, &mut rng);
        assert_eq!(t.total(), t.contention + t.ampdu + t.sifs + t.block_ack);
        assert!(t.ampdu >= phy.preamble_duration());
        assert_eq!(t.sifs, timing::SIFS);
        assert_eq!(t.block_ack, Duration::micros(32));
    }

    #[test]
    fn bigger_psdu_longer_exchange() {
        let mut rng = Rng::seed_from_u64(3);
        let phy = PhyConfig::new(Mcs::ht(7));
        let c = Contention::new();
        let t1 = exchange_timing(&phy, 500, &c, LegacyRate::M24, &mut rng);
        let t2 = exchange_timing(&phy, 5000, &c, LegacyRate::M24, &mut rng);
        assert!(t2.ampdu > t1.ampdu);
    }
}
