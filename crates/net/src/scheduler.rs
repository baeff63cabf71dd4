//! Pluggable per-client scheduling policies.
//!
//! Every client in the fleet runs one [`Scheduler`] instance over the
//! tags assigned to it. The fleet loop hands the scheduler the set of
//! *servable* tags for the current medium access (incomplete and past
//! their cooldown), the scheduler picks one, and the fleet reports the
//! airtime the grant actually consumed back via
//! [`on_served`](Scheduler::on_served).
//!
//! Three production policies plus the naive baseline:
//!
//! * [`RrScheduler`] — round-robin in tag order, one grant per turn.
//! * [`FairScheduler`] — deficit round robin over *consumed airtime*:
//!   tags only transmit while they hold airtime credit, so a tag with
//!   8× the per-round airtime gets ~8× fewer grants and every tag
//!   converges to the same airtime share.
//! * [`EdfScheduler`] — earliest deadline first, for fleets where reads
//!   carry freshness requirements.
//! * [`SerialScheduler`] — poll the lowest incomplete tag until it
//!   completes (the one-tag-at-a-time baseline the `net_scale` bench
//!   compares against; it also ignores link cooldowns).

use witag_sim::time::{Duration, Instant};

/// Which scheduling policy a fleet runs; the closed set the CLI and
/// benches can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Round-robin polling ([`RrScheduler`]).
    Rr,
    /// Airtime-fair deficit round robin ([`FairScheduler`]).
    Fair,
    /// Earliest-deadline-first ([`EdfScheduler`]).
    Edf,
    /// Serial one-tag-at-a-time polling ([`SerialScheduler`]) — the
    /// baseline, not a production policy.
    Serial,
    /// Traffic-predictive airtime fairness: per-tag picks come from
    /// [`FairScheduler`], but the fleet loop additionally consults a
    /// [`TrafficPredictor`](crate::TrafficPredictor) and defers all but
    /// one contending client while ambient contention is forecast high
    /// (the FlexScatter-style "grant when the medium is calm" policy).
    Pred,
}

impl SchedulerKind {
    /// Parse a CLI spelling (`rr`, `fair`, `edf`, `serial`, `pred`).
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s {
            "rr" => Some(SchedulerKind::Rr),
            "fair" => Some(SchedulerKind::Fair),
            "edf" => Some(SchedulerKind::Edf),
            "serial" => Some(SchedulerKind::Serial),
            "pred" => Some(SchedulerKind::Pred),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Rr => "rr",
            SchedulerKind::Fair => "fair",
            SchedulerKind::Edf => "edf",
            SchedulerKind::Serial => "serial",
            SchedulerKind::Pred => "pred",
        }
    }

    /// Whether the policy bypasses link cooldowns. The serial baseline
    /// keeps hammering a sleeping tag — that is exactly the behaviour
    /// the scheduled policies exist to avoid.
    pub fn ignores_cooldown(self) -> bool {
        matches!(self, SchedulerKind::Serial)
    }

    /// Instantiate the policy. `Pred`'s per-tag picking *is* airtime
    /// fairness — the predictive deferral lives in the fleet loop's
    /// medium-access logic, not in the per-client scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Rr => Box::new(RrScheduler::new()),
            SchedulerKind::Fair | SchedulerKind::Pred => Box::new(FairScheduler::new()),
            SchedulerKind::Edf => Box::new(EdfScheduler),
            SchedulerKind::Serial => Box::new(SerialScheduler),
        }
    }
}

/// What the scheduler may inspect about one servable tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Fleet-wide tag index.
    pub tag: usize,
    /// Airtime this tag's session has consumed so far.
    pub airtime_used: Duration,
    /// Airtime one more query round of this tag will cost.
    pub round_airtime: Duration,
    /// Absolute freshness deadline for this tag's read.
    pub deadline: Instant,
}

/// A per-client scheduling policy. Implementations must be
/// deterministic: the pick may depend only on the candidate list and
/// the scheduler's own state, never on ambient entropy or wall clock.
pub trait Scheduler {
    /// Choose which of `candidates` (non-empty, ascending tag order) to
    /// serve next; returns an index **into the slice**.
    fn pick(&mut self, candidates: &[Candidate]) -> usize;

    /// Report the airtime a grant actually consumed (collisions
    /// included — the medium was busy either way).
    fn on_served(&mut self, tag: usize, airtime: Duration);
}

/// Round-robin: cycle through tags in index order, one grant per turn.
#[derive(Debug, Clone, Default)]
pub struct RrScheduler {
    last: Option<usize>,
}

impl RrScheduler {
    /// A fresh round-robin cursor.
    pub fn new() -> Self {
        RrScheduler::default()
    }
}

impl Scheduler for RrScheduler {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        let pos = match self.last {
            Some(last) => candidates.iter().position(|c| c.tag > last).unwrap_or(0),
            None => 0,
        };
        self.last = Some(candidates[pos].tag); // lint:allow(panic_path) pick() contract: candidates non-empty, pos from position() or 0
        pos
    }

    fn on_served(&mut self, _tag: usize, _airtime: Duration) {}
}

/// Deficit round robin on consumed airtime: every tag holds a credit
/// counter (nanoseconds of airtime); a tag is only granted while its
/// credit covers its per-round cost, and serving debits the airtime
/// actually burned. When nobody in the candidate set can afford a
/// round, every candidate is replenished by one quantum (the largest
/// per-round cost present, so at least one tag always qualifies).
///
/// The effect is max-min airtime fairness: a tag whose rounds cost 8×
/// more gets ~8× fewer grants, and long-run airtime shares equalise
/// regardless of per-tag message size or PHY rate — the starvation
/// bound `tests/net_determinism.rs` pins.
#[derive(Debug, Clone, Default)]
pub struct FairScheduler {
    /// Per-tag airtime credit in nanoseconds, indexed by tag id.
    deficit: Vec<u64>,
    /// Tag id after the most recent grant; scans resume there.
    cursor: usize,
}

impl FairScheduler {
    /// A fresh DRR state with zero credit everywhere.
    pub fn new() -> Self {
        FairScheduler::default()
    }

    fn grow(&mut self, tag: usize) {
        if self.deficit.len() <= tag {
            self.deficit.resize(tag + 1, 0);
        }
    }
}

impl Scheduler for FairScheduler {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        if let Some(max_tag) = candidates.iter().map(|c| c.tag).max() {
            self.grow(max_tag);
        }
        // The replenish quantum: the costliest round present, so one
        // top-up always qualifies somebody and the loop terminates.
        let quantum = candidates
            .iter()
            .map(|c| c.round_airtime.as_nanos())
            .fold(1, u64::max);
        loop {
            // Scan in cyclic tag order starting after the last grant.
            let start = candidates
                .iter()
                .position(|c| c.tag >= self.cursor)
                .unwrap_or(0);
            for off in 0..candidates.len() {
                let pos = (start + off) % candidates.len();
                let c = &candidates[pos]; // lint:allow(panic_path) pos is taken modulo candidates.len()
                let deficit = self.deficit[c.tag]; // lint:allow(panic_path) deficit grown to cover every candidate tag on entry
                if deficit >= c.round_airtime.as_nanos() {
                    self.cursor = c.tag + 1;
                    return pos;
                }
            }
            for c in candidates {
                self.deficit[c.tag] += quantum; // lint:allow(panic_path) deficit grown to cover every candidate tag on entry
            }
        }
    }

    fn on_served(&mut self, tag: usize, airtime: Duration) {
        self.grow(tag);
        let d = &mut self.deficit[tag]; // lint:allow(panic_path) grow(tag) on the line above
        *d = d.saturating_sub(airtime.as_nanos());
    }
}

/// Earliest deadline first: always serve the candidate whose freshness
/// deadline is nearest (ties break to the lowest tag id).
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfScheduler;

impl Scheduler for EdfScheduler {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            let b = &candidates[best];
            if (c.deadline, c.tag) < (b.deadline, b.tag) {
                best = i;
            }
        }
        best
    }

    fn on_served(&mut self, _tag: usize, _airtime: Duration) {}
}

/// The naive baseline: poll the lowest incomplete tag until it
/// finishes, then move to the next — `warehouse_sensors`-style
/// inventory, with the medium burning airtime on sleeping tags.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialScheduler;

impl Scheduler for SerialScheduler {
    fn pick(&mut self, _candidates: &[Candidate]) -> usize {
        0 // candidates arrive in ascending tag order
    }

    fn on_served(&mut self, _tag: usize, _airtime: Duration) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(tag: usize, used_us: u64, round_us: u64) -> Candidate {
        Candidate {
            tag,
            airtime_used: Duration::micros(used_us),
            round_airtime: Duration::micros(round_us),
            deadline: Instant::ZERO + Duration::millis(tag as u64 + 1),
        }
    }

    #[test]
    fn rr_cycles_in_tag_order() {
        let mut rr = RrScheduler::new();
        let c = [cand(0, 0, 100), cand(2, 0, 100), cand(5, 0, 100)];
        let picks: Vec<usize> = (0..6).map(|_| c[rr.pick(&c)].tag).collect();
        assert_eq!(picks, vec![0, 2, 5, 0, 2, 5]);
    }

    #[test]
    fn rr_skips_missing_tags_without_stalling() {
        let mut rr = RrScheduler::new();
        assert_eq!(rr.pick(&[cand(3, 0, 100)]), 0);
        // Tag 3 vanished (completed); the cursor wraps cleanly.
        let c = [cand(0, 0, 100), cand(1, 0, 100)];
        assert_eq!(c[rr.pick(&c)].tag, 0);
    }

    #[test]
    fn fair_equalises_airtime_against_a_heavy_tag() {
        // Tag 0 costs 8x per round; DRR must grant it ~8x less often.
        let mut fair = FairScheduler::new();
        let c = [cand(0, 0, 800), cand(1, 0, 100), cand(2, 0, 100)];
        let mut airtime = [0u64; 3];
        for _ in 0..200 {
            let pos = fair.pick(&c);
            let tag = c[pos].tag;
            airtime[tag] += c[pos].round_airtime.as_nanos();
            fair.on_served(tag, c[pos].round_airtime);
        }
        let total: u64 = airtime.iter().sum();
        for (tag, &a) in airtime.iter().enumerate() {
            let share = a as f64 / total as f64;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.07,
                "tag {tag} airtime share {share}"
            );
        }
    }

    #[test]
    fn edf_picks_nearest_deadline() {
        let mut edf = EdfScheduler;
        let mut c = vec![cand(0, 0, 100), cand(1, 0, 100), cand(2, 0, 100)];
        c[2].deadline = Instant::ZERO + Duration::micros(1);
        assert_eq!(c[edf.pick(&c)].tag, 2);
    }

    #[test]
    fn kind_parse_roundtrips() {
        for kind in [
            SchedulerKind::Rr,
            SchedulerKind::Fair,
            SchedulerKind::Edf,
            SchedulerKind::Serial,
            SchedulerKind::Pred,
        ] {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("bogus"), None);
    }
}
