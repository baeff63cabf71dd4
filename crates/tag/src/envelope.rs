//! Envelope detection: the tag's only "receiver".
//!
//! A backscatter tag cannot afford a radio. What it has (paper §7) is an
//! **envelope detector** — a diode rectifier that tracks the RF energy on
//! the medium — feeding a **comparator** that outputs a binary busy/idle
//! signal. This module models that analogue front end over an
//! [`EnergyTrace`]: a piecewise-constant record of on-air power at the
//! tag's location (PPDU bursts, interframe gaps, foreign traffic).
//!
//! Modelled imperfections: a sensitivity floor (weak signals are invisible
//! to a passive detector), comparator hysteresis (to reject ripple), and
//! an edge-detection latency. The trigger logic (`trigger` module) then
//! works entirely on the busy/idle *edge times* this front end produces —
//! the same information a real comparator gives an ASIC's state machine.

use witag_sim::time::{Duration, Instant};

/// One piecewise-constant segment of on-air power at the tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySegment {
    /// Segment start.
    pub start: Instant,
    /// Segment end (exclusive).
    pub end: Instant,
    /// Received power at the tag in dBm during the segment.
    pub power_dbm: f64,
}

/// A time-ordered energy profile of the medium as seen by the tag.
#[derive(Debug, Clone, Default)]
pub struct EnergyTrace {
    segments: Vec<EnergySegment>,
}

impl EnergyTrace {
    /// Empty trace (silent medium).
    pub fn new() -> Self {
        EnergyTrace::default()
    }

    /// Append a burst of energy. Bursts must be appended in time order
    /// and may not overlap.
    ///
    /// # Panics
    /// Panics on out-of-order or overlapping segments.
    pub fn push(&mut self, start: Instant, end: Instant, power_dbm: f64) {
        assert!(start < end, "empty or negative segment");
        if let Some(last) = self.segments.last() {
            assert!(
                start >= last.end,
                "segments must be time-ordered and disjoint"
            );
        }
        self.segments.push(EnergySegment {
            start,
            end,
            power_dbm,
        });
    }

    /// The recorded segments.
    pub fn segments(&self) -> &[EnergySegment] {
        &self.segments
    }
}

/// A busy/idle transition seen by the comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// When the comparator output flipped.
    pub at: Instant,
    /// `true` for idle→busy, `false` for busy→idle.
    pub rising: bool,
}

/// The envelope detector + comparator front end.
#[derive(Debug, Clone)]
pub struct EnvelopeDetector {
    /// Minimum power the passive detector can see at all (dBm).
    pub sensitivity_dbm: f64,
    /// Comparator hysteresis (dB): a falling signal must drop this far
    /// below the threshold before the output deasserts.
    pub hysteresis_db: f64,
    /// Edge-to-output latency.
    pub latency: Duration,
}

impl Default for EnvelopeDetector {
    fn default() -> Self {
        // Passive envelope detectors with a matched rectifier reach
        // ≈ −56 dBm sensitivity; the tag operates within metres of the
        // transmitter (incident −10…−45 dBm), above this floor even 7 m
        // out (the far edge of the paper's Figure 5 sweep).
        EnvelopeDetector {
            sensitivity_dbm: -56.0,
            hysteresis_db: 3.0,
            latency: Duration::nanos(800),
        }
    }
}

impl EnvelopeDetector {
    /// Run the comparator over a trace, producing busy/idle edges.
    pub fn edges(&self, trace: &EnergyTrace) -> Vec<Edge> {
        let mut edges = Vec::new();
        let mut busy = false;
        let on_threshold = self.sensitivity_dbm;
        let off_threshold = self.sensitivity_dbm - self.hysteresis_db;
        let mut last_end: Option<Instant> = None;
        for seg in trace.segments() {
            // Gap before this segment: signal at -infinity -> deassert.
            if let Some(e) = last_end {
                if busy && e < seg.start {
                    edges.push(Edge {
                        at: e + self.latency,
                        rising: false,
                    });
                    busy = false;
                }
            }
            let level = seg.power_dbm;
            if !busy && level >= on_threshold {
                edges.push(Edge {
                    at: seg.start + self.latency,
                    rising: true,
                });
                busy = true;
            } else if busy && level < off_threshold {
                edges.push(Edge {
                    at: seg.start + self.latency,
                    rising: false,
                });
                busy = false;
            }
            last_end = Some(seg.end);
        }
        if busy {
            if let Some(e) = last_end {
                edges.push(Edge {
                    at: e + self.latency,
                    rising: false,
                });
            }
        }
        edges
    }

    /// Convenience: the durations of busy bursts (rising→falling pairs).
    pub fn burst_durations(&self, trace: &EnergyTrace) -> Vec<(Instant, Duration)> {
        let mut out = Vec::new();
        let mut rise: Option<Instant> = None;
        for e in self.edges(trace) {
            match (e.rising, rise) {
                (true, None) => rise = Some(e.at),
                (false, Some(r)) => {
                    out.push((r, e.at.since(r)));
                    rise = None;
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Instant {
        Instant::from_micros(n)
    }

    #[test]
    fn detects_single_burst() {
        let mut trace = EnergyTrace::new();
        trace.push(us(100), us(300), -20.0);
        let det = EnvelopeDetector::default();
        let bursts = det.burst_durations(&trace);
        assert_eq!(bursts.len(), 1);
        let (start, dur) = bursts[0];
        assert_eq!(start, us(100) + det.latency);
        assert_eq!(dur, Duration::micros(200));
    }

    #[test]
    fn below_sensitivity_invisible() {
        let mut trace = EnergyTrace::new();
        trace.push(us(0), us(100), -70.0); // far AP, too weak for the diode
        let det = EnvelopeDetector::default();
        assert!(det.edges(&trace).is_empty());
    }

    #[test]
    fn gap_between_bursts_produces_two() {
        let mut trace = EnergyTrace::new();
        trace.push(us(0), us(200), -15.0);
        trace.push(us(216), us(400), -15.0); // SIFS-like gap
        let det = EnvelopeDetector::default();
        let bursts = det.burst_durations(&trace);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].1, Duration::micros(200));
        assert_eq!(bursts[1].1, Duration::micros(184));
    }

    #[test]
    fn hysteresis_bridges_shallow_dips() {
        let det = EnvelopeDetector::default();
        let mut trace = EnergyTrace::new();
        trace.push(us(0), us(100), -20.0);
        // Contiguous segment dipping 1 dB below threshold but within
        // hysteresis: comparator must hold.
        trace.push(us(100), us(150), det.sensitivity_dbm - 1.0);
        trace.push(us(150), us(250), -20.0);
        let bursts = det.burst_durations(&trace);
        assert_eq!(
            bursts.len(),
            1,
            "dip within hysteresis must not split the burst"
        );
        assert_eq!(bursts[0].1, Duration::micros(250));
    }

    #[test]
    fn deep_dip_splits_burst() {
        let det = EnvelopeDetector::default();
        let mut trace = EnergyTrace::new();
        trace.push(us(0), us(100), -20.0);
        trace.push(us(100), us(150), det.sensitivity_dbm - 10.0);
        trace.push(us(150), us(250), -20.0);
        assert_eq!(det.burst_durations(&trace).len(), 2);
    }

    #[test]
    fn latency_shifts_edges() {
        let det = EnvelopeDetector {
            latency: Duration::micros(2),
            ..EnvelopeDetector::default()
        };
        let mut trace = EnergyTrace::new();
        trace.push(us(10), us(20), -10.0);
        let edges = det.edges(&trace);
        assert_eq!(edges[0].at, us(12));
        assert_eq!(edges[1].at, us(22));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn overlapping_segments_rejected() {
        let mut trace = EnergyTrace::new();
        trace.push(us(0), us(100), -10.0);
        trace.push(us(50), us(150), -10.0);
    }
}
