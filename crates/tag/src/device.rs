//! The WiTAG tag device: trigger → timing recovery → switch schedule.
//!
//! Ties the analogue front end ([`EnvelopeDetector`]), the clock
//! ([`Oscillator`]) and the trigger matcher together into the state
//! machine an ASIC would implement:
//!
//! 1. watch the medium's busy/idle edges for the query signature;
//! 2. phase-align a tick counter to the falling edge of the last marker;
//! 3. stay in the reference switch state through the SIFS, PHY preamble
//!    and guard subframes (so channel estimation sees a stable channel —
//!    paper §5);
//! 4. for each data subframe, hold the reference state to send `1` or the
//!    flipped state to send `0` (paper §4), advancing by whole clock
//!    ticks — which is where oscillator drift becomes symbol
//!    misalignment and, eventually, bit errors.
//!
//! The output is a list of absolute switch instants which
//! [`PlannedModulation::to_tag_schedule`] quantises onto a PPDU's OFDM
//! symbol grid for the channel model.

use crate::envelope::{EnergyTrace, EnvelopeDetector};
use crate::oscillator::Oscillator;
use crate::trigger::{TriggerMatcher, TriggerSignature};
use std::collections::VecDeque;
use witag_channel::{TagMode, TagSchedule};
use witag_phy::ppdu::PhyConfig;
use witag_sim::time::{Duration, Instant};

/// The fixed query format a deployment configures its tags with.
///
/// WiTAG is a co-designed protocol: the querier commits to a subframe
/// duration and count, and tags are provisioned with the same profile
/// (the paper's §7 notes the tag must learn subframe length; fixing it in
/// the deployment profile is the zero-power variant of that).
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Trigger marker signature preceding each query.
    pub signature: TriggerSignature,
    /// Gap between the last marker and the query PPDU (SIFS-like).
    pub marker_gap: Duration,
    /// Query PPDU preamble duration (tag stays in the reference state).
    pub preamble: Duration,
    /// Airtime of one subframe.
    pub subframe: Duration,
    /// Number of subframes in the query A-MPDU.
    pub n_subframes: usize,
    /// Leading subframes the tag never modulates (settling guard;
    /// paper §7's trigger subframes play this role).
    pub guard_subframes: usize,
    /// Boundary margin: the tag flips only the *interior*
    /// `[start + margin, end − margin]` of a subframe's airtime. OFDM
    /// symbols straddling subframe boundaries (the SERVICE-field offset
    /// shifts bit positions within symbols) are shared between
    /// neighbouring subframes; flipping them would corrupt the neighbour
    /// too (inter-bit interference). One clock tick of margin per side
    /// clears both the shared symbol and the trigger phase jitter.
    pub margin: Duration,
}

impl QueryProfile {
    /// Number of data bits one query carries.
    pub fn bits_per_query(&self) -> usize {
        self.n_subframes - self.guard_subframes
    }

    /// Check the tick-alignment co-design constraints for a clock: the
    /// tag counts whole ticks from the last marker's falling edge, so
    /// both the lead-in (`marker_gap + preamble`) and the subframe
    /// duration must be integer multiples of the tick period, or the
    /// schedule would smear across subframe boundaries even with a
    /// perfect clock. The querier owns both knobs: it may defer the PPDU
    /// beyond SIFS (gap) and size MPDUs to the tick grid (subframe).
    pub fn is_tick_aligned(&self, osc: &Oscillator) -> bool {
        let tick_ns = (osc.period_s() * 1e9).round() as u64;
        let lead = self.marker_gap + self.preamble;
        lead.as_nanos().is_multiple_of(tick_ns)
            && self.subframe.as_nanos().is_multiple_of(tick_ns)
            && self.margin.as_nanos().is_multiple_of(tick_ns)
            && self.margin * 2 < self.subframe
    }
}

/// How tag bits map to switch states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitEncoding {
    /// Paper §5.2 (the WiTAG design): always reflecting, flip phase.
    /// Reference (and bit 1) = 0°, bit 0 = 180°. Channel displacement 2a.
    PhaseFlip,
    /// Paper §5.1 (the strawman): open/short keying. Reference (and bit
    /// 1) = open (non-reflective), bit 0 = short. Displacement a.
    OnOffKeying,
}

impl BitEncoding {
    /// Switch state representing the reference / idle / bit-1 condition.
    pub fn reference(self) -> TagMode {
        match self {
            BitEncoding::PhaseFlip => TagMode::Phase0,
            BitEncoding::OnOffKeying => TagMode::OpenCircuit,
        }
    }

    /// Switch state representing bit 0 (corrupt the subframe).
    pub fn zero(self) -> TagMode {
        match self {
            BitEncoding::PhaseFlip => TagMode::Phase180,
            BitEncoding::OnOffKeying => TagMode::ShortCircuit,
        }
    }
}

/// Static tag configuration.
#[derive(Debug, Clone)]
pub struct TagConfig {
    /// Clock source.
    pub oscillator: Oscillator,
    /// Temperature offset from the clock's calibration point (°C).
    pub temperature_delta: f64,
    /// Analogue front end.
    pub detector: EnvelopeDetector,
    /// Deployment query profile.
    pub profile: QueryProfile,
    /// Bit-to-switch-state mapping.
    pub encoding: BitEncoding,
}

/// The planned switch activity for one query PPDU.
#[derive(Debug, Clone)]
pub struct PlannedModulation {
    /// Bits the tag committed to this query.
    pub bits: Vec<u8>,
    /// Absolute switch events `(instant, new state)`, time-ordered.
    pub events: Vec<(Instant, TagMode)>,
    /// The tag's estimate of the PPDU start instant.
    pub ppdu_start_estimate: Instant,
}

impl PlannedModulation {
    /// Tag switch state at instant `t` (reference state before the first
    /// event).
    pub fn state_at(&self, t: Instant, reference: TagMode) -> TagMode {
        let mut state = reference;
        for &(at, mode) in &self.events {
            if at <= t {
                state = mode;
            } else {
                break;
            }
        }
        state
    }

    /// Quantise the plan onto a PPDU's OFDM symbol grid: the channel
    /// model needs one [`TagMode`] per DATA symbol (sampled at symbol
    /// midpoints) plus the LTF state.
    pub fn to_tag_schedule(
        &self,
        true_ppdu_start: Instant,
        phy: &PhyConfig,
        n_symbols: usize,
        reference: TagMode,
    ) -> TagSchedule {
        let sym = phy.guard.symbol_duration();
        let ltf_mid = true_ppdu_start + phy.preamble_duration() - sym / 2;
        let ltf = self.state_at(ltf_mid, reference);
        let data = (0..n_symbols)
            .map(|i| {
                let mid = true_ppdu_start + phy.symbol_start(i) + sym / 2;
                self.state_at(mid, reference)
            })
            .collect();
        TagSchedule { ltf, data }
    }
}

/// The tag device.
#[derive(Debug, Clone)]
pub struct Tag {
    cfg: TagConfig,
    matcher: TriggerMatcher,
    queue: VecDeque<u8>,
    /// Extra fractional clock error beyond the temperature model (fault
    /// injection: drift/jitter bursts). 0.0 = nominal hardware.
    clock_fault: f64,
    /// Queries answered (diagnostics).
    pub queries_answered: u64,
}

impl Tag {
    /// Build a tag from its configuration.
    pub fn new(cfg: TagConfig) -> Self {
        let matcher = TriggerMatcher::new(
            cfg.profile.signature.clone(),
            cfg.oscillator,
            cfg.temperature_delta,
        );
        Tag {
            cfg,
            matcher,
            queue: VecDeque::new(),
            clock_fault: 0.0,
            queries_answered: 0,
        }
    }

    /// Inject (or clear, with 0.0) an extra fractional clock-frequency
    /// error on top of the temperature model. Both the trigger matcher
    /// and the modulation schedule see the faulted clock, exactly as a
    /// glitching oscillator would: a large enough error makes the tag
    /// reject triggers outright; a moderate one smears its switch
    /// schedule across subframe boundaries.
    pub fn set_clock_fault(&mut self, frac_error: f64) {
        if frac_error == self.clock_fault {
            return;
        }
        self.clock_fault = frac_error;
        let mut matcher = TriggerMatcher::new(
            self.cfg.profile.signature.clone(),
            self.cfg.oscillator,
            self.cfg.temperature_delta,
        );
        matcher.apply_frequency_error(frac_error);
        self.matcher = matcher;
    }

    /// Queue data bits for transmission.
    pub fn push_bits(&mut self, bits: &[u8]) {
        for &b in bits {
            debug_assert!(b <= 1);
            self.queue.push_back(b);
        }
    }

    /// Queue bytes MSB-first.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            for i in (0..8).rev() {
                self.queue.push_back((byte >> i) & 1);
            }
        }
    }

    /// Bits waiting to be sent.
    pub fn pending_bits(&self) -> usize {
        self.queue.len()
    }

    /// Discard up to `n` queued bits (used by harnesses when a trigger
    /// was missed and the bits were never committed to the air).
    pub fn drop_pending(&mut self, n: usize) {
        for _ in 0..n.min(self.queue.len()) {
            self.queue.pop_front();
        }
    }

    /// Observe the medium and, if a query trigger is present, plan the
    /// modulation for the PPDU that follows it. Consumes up to
    /// `bits_per_query` bits from the queue (missing bits are sent as 1 —
    /// "do nothing", indistinguishable from idle, per the paper's
    /// encoding).
    pub fn respond(&mut self, trace: &EnergyTrace) -> Option<PlannedModulation> {
        let bursts = self.cfg.detector.burst_durations(trace);
        let last_marker = self.matcher.find(&bursts)?;
        // Phase reference: falling edge of the last marker (comparator
        // output), which lags the true RF edge by the detector latency;
        // the tick counter is (asynchronously) restarted on this edge, so
        // every subsequent instant is `reference + k·tick`.
        let (marker_start, marker_dur) = bursts[last_marker]; // lint:allow(panic_path) matcher.find returns an index into the bursts it searched
        let phase_ref = marker_start + marker_dur; // already includes latency

        // Tick-counted delays from the phase reference, in *actual*
        // (drifted) tick units: the counter counts nominal tick targets
        // but each tick really lasts `actual_tick`.
        let nominal_tick = self.cfg.oscillator.period_s();
        let actual_tick = 1.0
            / (self.cfg.oscillator.effective_hz(self.cfg.temperature_delta)
                * (1.0 + self.clock_fault));
        let ticks_of = |d: Duration| (d.as_secs_f64() / nominal_tick).round();
        let elapse = |ticks: f64| Duration::from_secs_f64(ticks * actual_tick);

        let profile = &self.cfg.profile;
        debug_assert!(
            profile.is_tick_aligned(&self.cfg.oscillator),
            "query profile is not tick-aligned for this clock (co-design constraint)"
        );
        let n_data = profile.bits_per_query();
        let mut bits = Vec::with_capacity(n_data);
        for _ in 0..n_data {
            bits.push(self.queue.pop_front().unwrap_or(1));
        }

        let reference = self.cfg.encoding.reference();
        let zero = self.cfg.encoding.zero();
        let mut events = Vec::new();
        // Ticks from the phase reference to the first data subframe: the
        // marker gap + PHY preamble + guard subframes.
        let subframe_ticks = ticks_of(profile.subframe);
        let margin_ticks = ticks_of(profile.margin);
        let lead_ticks = ticks_of(profile.marker_gap + profile.preamble)
            + subframe_ticks * profile.guard_subframes as f64;
        // Interior flips: enter the zero state `margin` after a 1→0
        // boundary, leave it `margin` before a 0→1 boundary, so shared
        // boundary symbols are never corrupted for a neighbouring 1-bit.
        let mut state = reference;
        for (i, &bit) in bits.iter().enumerate() {
            if bit == 0 && state == reference {
                let at = phase_ref + elapse(lead_ticks + subframe_ticks * i as f64 + margin_ticks);
                events.push((at, zero));
                state = zero;
            } else if bit == 1 && state == zero {
                let at = phase_ref + elapse(lead_ticks + subframe_ticks * i as f64 - margin_ticks);
                events.push((at, reference));
                state = reference;
            }
        }
        // Return to reference before the A-MPDU ends.
        if state != reference {
            let at = phase_ref + elapse(lead_ticks + subframe_ticks * n_data as f64 - margin_ticks);
            events.push((at, reference));
        }
        // The tag's belief of when the PPDU started (diagnostics): the
        // comparator latency is a calibrated hardware constant.
        let ppdu_start = phase_ref + profile.marker_gap - self.cfg.detector.latency;

        self.queries_answered += 1;
        Some(PlannedModulation {
            bits,
            events,
            ppdu_start_estimate: ppdu_start,
        })
    }

    /// The tag's configuration.
    pub fn config(&self) -> &TagConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::mcs::Mcs;

    fn us(n: u64) -> Instant {
        Instant::from_micros(n)
    }

    /// Test clock: 250 kHz crystal (4 µs tick).
    fn clock() -> Oscillator {
        Oscillator::Crystal { freq_hz: 250e3 }
    }

    fn profile() -> QueryProfile {
        QueryProfile {
            signature: TriggerSignature::default_markers(),
            // gap + preamble = 24 + 36 = 60 µs = 15 ticks at 250 kHz: the
            // tick-alignment co-design constraint.
            marker_gap: Duration::micros(24),
            preamble: Duration::micros(36),
            subframe: Duration::micros(20), // 5 ticks
            n_subframes: 64,
            guard_subframes: 2,
            margin: Duration::micros(4), // 1 tick
        }
    }

    fn test_config() -> TagConfig {
        TagConfig {
            oscillator: clock(),
            temperature_delta: 0.0,
            detector: EnvelopeDetector::default(),
            profile: profile(),
            encoding: BitEncoding::PhaseFlip,
        }
    }

    /// Build the medium trace for one query: 3 markers then the PPDU.
    fn query_trace(ppdu_airtime: Duration) -> (EnergyTrace, Instant) {
        let mut t = EnergyTrace::new();
        let mut now = 100u64;
        for d in [200u64, 100, 200] {
            t.push(us(now), us(now + d), -20.0);
            now += d + 16;
        }
        let ppdu_start = us(now - 16 + 24); // last gap is the 24 µs marker gap
        t.push(ppdu_start, ppdu_start + ppdu_airtime, -20.0);
        (t, ppdu_start)
    }

    #[test]
    fn no_trigger_no_response() {
        let mut tag = Tag::new(test_config());
        tag.push_bits(&[0, 1, 0]);
        let mut trace = EnergyTrace::new();
        trace.push(us(0), us(500), -20.0);
        assert!(tag.respond(&trace).is_none());
        assert_eq!(tag.pending_bits(), 3);
    }

    #[test]
    fn trigger_consumes_bits_and_plans_events() {
        let mut tag = Tag::new(test_config());
        let n_data = profile().bits_per_query();
        let bits: Vec<u8> = (0..n_data).map(|i| (i % 2) as u8).collect();
        tag.push_bits(&bits);
        let (trace, _) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).expect("must trigger");
        assert_eq!(plan.bits, bits);
        assert_eq!(tag.pending_bits(), 0);
        assert_eq!(tag.queries_answered, 1);
        // Alternating bits: one switch per subframe boundary + final
        // return to reference.
        assert!(plan.events.len() >= n_data - 1);
        // Events strictly time-ordered.
        assert!(plan.events.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn ppdu_start_estimate_accurate_with_crystal() {
        let mut tag = Tag::new(test_config());
        tag.push_bits(&[0; 62]);
        let (trace, true_start) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).unwrap();
        let err = plan
            .ppdu_start_estimate
            .saturating_since(true_start)
            .max(true_start.saturating_since(plan.ppdu_start_estimate));
        assert!(
            err < Duration::micros(2),
            "crystal-clock phase error {err} must be tiny"
        );
    }

    #[test]
    fn schedule_reference_during_ltf_and_guards() {
        let mut tag = Tag::new(test_config());
        tag.push_bits(&[0; 62]); // all zeros: flip on every data subframe
        let (trace, true_start) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).unwrap();
        let phy = PhyConfig::new(Mcs::ht(5));
        // 64 subframes × 20 µs = 5 symbols each.
        let n_symbols = 64 * 5;
        let schedule = plan.to_tag_schedule(true_start, &phy, n_symbols, TagMode::Phase0);
        assert_eq!(
            schedule.ltf,
            TagMode::Phase0,
            "LTF must see the reference state"
        );
        // Guard subframes (first 2 × 5 symbols) unmodulated, plus the
        // margin symbol at the head of the first data subframe.
        for s in 0..=10 {
            assert_eq!(schedule.data[s], TagMode::Phase0, "guard/margin symbol {s}");
        }
        // Interior of the all-zeros run is flipped (consecutive zeros
        // keep the switch held across boundaries)…
        for s in 11..n_symbols - 1 {
            assert_eq!(schedule.data[s], TagMode::Phase180, "data symbol {s}");
        }
        // …and the trailing margin symbol is back at reference.
        assert_eq!(schedule.data[n_symbols - 1], TagMode::Phase0);
    }

    #[test]
    fn alternating_bits_alternate_subframes() {
        let mut tag = Tag::new(test_config());
        let n_data = 62;
        let bits: Vec<u8> = (0..n_data).map(|i| (i % 2) as u8).collect();
        tag.push_bits(&bits);
        let (trace, true_start) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).unwrap();
        let phy = PhyConfig::new(Mcs::ht(5));
        let schedule = plan.to_tag_schedule(true_start, &phy, 64 * 5, TagMode::Phase0);
        // Subframe i (data) occupies symbols (2+i)*5 .. (3+i)*5. With a
        // one-tick (one-symbol) margin, a 0-bit flips only the three
        // interior symbols; boundary symbols stay at reference, and
        // 1-bit subframes are untouched end to end.
        for (i, &bit) in bits.iter().enumerate() {
            let base = (2 + i) * 5;
            if bit == 0 {
                assert_eq!(
                    schedule.data[base],
                    TagMode::Phase0,
                    "subframe {i} lead margin"
                );
                for s in base + 1..base + 4 {
                    assert_eq!(
                        schedule.data[s],
                        TagMode::Phase180,
                        "subframe {i} symbol {s}"
                    );
                }
                assert_eq!(
                    schedule.data[base + 4],
                    TagMode::Phase0,
                    "subframe {i} tail margin"
                );
            } else {
                for s in base..base + 5 {
                    assert_eq!(schedule.data[s], TagMode::Phase0, "subframe {i} symbol {s}");
                }
            }
        }
    }

    #[test]
    fn hot_ring_oscillator_smears_subframes() {
        // Same tag logic on a +6 %-fast ring oscillator: by the end of the
        // A-MPDU the schedule is more than a full subframe early.
        let mut cfg = test_config();
        cfg.oscillator = Oscillator::shifting_ring();
        cfg.temperature_delta = 10.0;
        // Loosen the trigger so the drifted clock still matches (we are
        // testing modulation smear, not trigger rejection).
        cfg.profile.signature.tolerance_ticks = 3000;
        let mut tag = Tag::new(cfg);
        let bits: Vec<u8> = (0..62).map(|i| (i % 2) as u8).collect();
        tag.push_bits(&bits);
        let (trace, true_start) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).unwrap();
        let phy = PhyConfig::new(Mcs::ht(5));
        let schedule = plan.to_tag_schedule(true_start, &phy, 64 * 5, TagMode::Phase0);
        // Count symbol-level mismatches vs the intended (margin-aware)
        // pattern — a perfect clock scores zero here.
        let mut mismatches = 0;
        for (i, &bit) in bits.iter().enumerate() {
            let base = (2 + i) * 5;
            for s in base..base + 5 {
                let interior = s > base && s < base + 4;
                let want = if bit == 0 && interior {
                    TagMode::Phase180
                } else {
                    TagMode::Phase0
                };
                if schedule.data[s] != want {
                    mismatches += 1;
                }
            }
        }
        assert!(
            mismatches > 60,
            "6% clock error over 1.28 ms must smear many symbols, got {mismatches}"
        );
    }

    #[test]
    fn clock_fault_smears_schedule_and_clears() {
        // A 1% clock fault on an otherwise perfect crystal must smear
        // the schedule like a hot ring oscillator would; clearing the
        // fault must restore nominal behaviour exactly.
        let mut tag = Tag::new(test_config());
        let bits: Vec<u8> = (0..62).map(|i| (i % 2) as u8).collect();
        let (trace, true_start) = query_trace(Duration::micros(36 + 64 * 20));
        let phy = PhyConfig::new(Mcs::ht(5));
        let score = |plan: &PlannedModulation| {
            let schedule = plan.to_tag_schedule(true_start, &phy, 64 * 5, TagMode::Phase0);
            let mut mismatches = 0;
            for (i, &bit) in bits.iter().enumerate() {
                let base = (2 + i) * 5;
                for s in base..base + 5 {
                    let interior = s > base && s < base + 4;
                    let want = if bit == 0 && interior {
                        TagMode::Phase180
                    } else {
                        TagMode::Phase0
                    };
                    if schedule.data[s] != want {
                        mismatches += 1;
                    }
                }
            }
            mismatches
        };

        tag.push_bits(&bits);
        let clean = score(&tag.respond(&trace).expect("nominal clock triggers"));
        assert_eq!(clean, 0);

        tag.set_clock_fault(0.01);
        // 1% over a ~320 µs signature is within the matcher tolerance
        // here, so the tag still triggers — but the schedule smears.
        tag.push_bits(&bits);
        let faulted = score(&tag.respond(&trace).expect("1% fault still triggers"));
        assert!(
            faulted > 20,
            "1% clock fault must smear symbols, got {faulted}"
        );

        tag.set_clock_fault(0.0);
        tag.push_bits(&bits);
        let restored = score(&tag.respond(&trace).expect("restored clock triggers"));
        assert_eq!(
            restored, 0,
            "clearing the fault must restore nominal timing"
        );
    }

    #[test]
    fn huge_clock_fault_rejects_trigger() {
        let mut tag = Tag::new(test_config());
        tag.set_clock_fault(0.2);
        tag.push_bits(&[0; 62]);
        let (trace, _) = query_trace(Duration::micros(36 + 64 * 20));
        assert!(
            tag.respond(&trace).is_none(),
            "20% clock error must fail the duration signature"
        );
    }

    #[test]
    fn underflow_pads_with_ones() {
        let mut tag = Tag::new(test_config());
        tag.push_bits(&[0, 0, 0]);
        let (trace, _) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).unwrap();
        assert_eq!(&plan.bits[..3], &[0, 0, 0]);
        assert!(plan.bits[3..].iter().all(|&b| b == 1));
    }

    #[test]
    fn push_bytes_msb_first() {
        let mut tag = Tag::new(test_config());
        tag.push_bytes(&[0b1010_0000]);
        assert_eq!(tag.pending_bits(), 8);
        let (trace, _) = query_trace(Duration::micros(36 + 64 * 20));
        let plan = tag.respond(&trace).unwrap();
        assert_eq!(&plan.bits[..8], &[1, 0, 1, 0, 0, 0, 0, 0]);
    }
}
