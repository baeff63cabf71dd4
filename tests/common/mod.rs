//! Shared synthetic fault channel for the transport integration tests.
//!
//! Drives the real chunk framing and the real [`FaultInjector`] round
//! model, but replaces the PHY/geometry stack with direct bit
//! manipulation so kilobyte-scale transfers stay fast enough for the
//! default test tier. The mapping mirrors what the full stack does:
//!
//! * lost query → tag never triggers, client reads nothing,
//! * brownout → tag silent, subframes sail through clean (all-ones),
//! * drift episode → tag triggers but its corruption schedule smears
//!   across subframe boundaries (heavy bit flipping),
//! * burst interference → Gilbert–Elliott bit flips on the readout,
//! * lost block ACK → tag responded but the client learned nothing.

// Shared across several test binaries; not every binary uses every
// helper.
#![allow(dead_code)]

use witag::tagnet::RoundOutcome;
use witag_faults::{FaultInjector, FaultPlan, RoundFaults};
use witag_sim::Rng;

/// Flip probability applied while an oscillator-drift episode is live:
/// the corruption lands on the wrong subframes, so roughly a third of
/// the readout is garbage.
const DRIFT_SMEAR_FLIP: f64 = 0.3;
/// Quiescent bit-error floor of the synthetic channel.
const AMBIENT_FLIP: f64 = 0.002;

/// A bit channel whose impairments come entirely from a [`FaultPlan`].
pub struct SyntheticChannel {
    inj: FaultInjector,
    noise: Rng,
    channel_bits: usize,
    verdicts: Vec<RoundFaults>,
}

impl SyntheticChannel {
    pub fn new(plan: FaultPlan, channel_bits: usize) -> Self {
        let noise = Rng::seed_from_u64(plan.seed ^ 0x5eed);
        SyntheticChannel {
            inj: FaultInjector::new(plan),
            noise,
            channel_bits,
            verdicts: Vec::new(),
        }
    }

    /// One physical round: the tag wants to modulate `tx`; returns
    /// whether it heard the trigger and what the client read back.
    pub fn round(&mut self, tx: &[u8]) -> RoundOutcome {
        let rf = self.inj.begin_round();
        self.verdicts.push(rf);
        if rf.query_lost {
            return RoundOutcome {
                tag_heard: false,
                readout: None,
            };
        }
        if rf.brownout {
            return RoundOutcome {
                tag_heard: false,
                readout: Some(vec![1u8; self.channel_bits]),
            };
        }
        let mut bits = tx.to_vec();
        if let Some(p) = rf.readout_flip {
            self.inj.corrupt_readout(&mut bits, p);
        }
        if rf.clock_error != 0.0 {
            self.inj.corrupt_readout(&mut bits, DRIFT_SMEAR_FLIP);
        }
        for b in bits.iter_mut() {
            if self.noise.chance(AMBIENT_FLIP) {
                *b ^= 1;
            }
        }
        if rf.ba_lost {
            return RoundOutcome {
                tag_heard: true,
                readout: None,
            };
        }
        RoundOutcome {
            tag_heard: true,
            readout: Some(bits),
        }
    }

    /// Rounds consumed so far (from the injector's own counters).
    pub fn rounds(&self) -> u64 {
        self.inj.counters().rounds
    }

    /// The fault verdict of every round so far.
    pub fn verdicts(&self) -> Vec<RoundFaults> {
        self.verdicts.clone()
    }
}

/// A deterministic pseudo-random message of `len` bytes.
pub fn test_message(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}
