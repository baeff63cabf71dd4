//! Trace aggregation: fold a JSONL trace into per-kind counters in the
//! fixed [`KINDS`] order, plus trace-level structure
//! (sweep points, shards, session roll-ups) that only exists once the
//! run is over.
//!
//! This is the engine behind `witag-cli report`. It reads the
//! constrained JSON this crate's writer emits via the
//! [`jsonl`](crate::jsonl) field helpers — std-only, no parser crate.

use core::fmt::Write as _;

use crate::event::{FAULT_CLASS_NAMES, KINDS};
use crate::jsonl::{field_bool, field_f64, field_str, field_u64};

/// Accumulated view of one JSONL trace.
///
/// Feed it lines (in file order) with [`ingest_line`](Self::ingest_line),
/// then [`render`](Self::render) the human-readable summary. Unknown
/// kinds and malformed lines are counted, never fatal — a report over a
/// truncated trace is still a report.
///
/// ```
/// let mut s = witag_obs::TraceSummary::default();
/// s.ingest_line("{\"schema\":\"witag-obs/2\"}");
/// s.ingest_line("{\"kind\":\"round\",\"round\":0,\"triggered\":true,\
///                \"ba_lost\":false,\"bits\":62,\"bit_errors\":1,\"airtime_us\":2000}");
/// assert_eq!(s.events(), 1);
/// assert!(s.render().contains("rounds"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    schema: Option<String>,
    kind_counts: [u64; KINDS.len()],
    unknown: u64,
    malformed: u64,
    // round aggregates
    rounds: u64,
    triggered: u64,
    ba_lost: u64,
    bits: u64,
    bit_errors: u64,
    airtime_us: u64,
    // phy aggregates
    llr_min: f64,
    llr_max: f64,
    llr_mean_sum: f64,
    // fault aggregates
    fault_counts: [u64; FAULT_CLASS_NAMES.len()],
    // session roll-up (from session_done lines)
    sessions: u64,
    sessions_delivered: u64,
    session_queries: u64,
    session_idle: u64,
    session_retx: u64,
    session_resyncs: u64,
    session_payload_bits: u64,
    // structure markers
    sweep_points: u64,
    shards: u64,
    // fleet roll-up (from net.* lines)
    net_enqueued: u64,
    net_grants: u64,
    net_grant_airtime_us: u64,
    net_collisions: u64,
    net_collision_airtime_us: u64,
    net_sessions: u64,
    net_delivered: u64,
    net_link_rounds: u64,
    net_payload_bits: u64,
    net_latency_us_sum: u64,
    net_latency_us_max: u64,
}

impl TraceSummary {
    /// Event lines ingested (header, unknown and malformed excluded).
    pub fn events(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Lines whose `kind` was not in [`KINDS`] — a
    /// version-skew tripwire.
    pub fn unknown(&self) -> u64 {
        self.unknown
    }

    /// The schema string from the header line, if one was seen.
    pub fn schema(&self) -> Option<&str> {
        self.schema.as_deref()
    }

    /// Events counted for `kind`; 0 for names outside
    /// [`KINDS`].
    pub fn count(&self, kind: &str) -> u64 {
        KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| self.kind_counts[i])
    }

    /// Fold one trace line in. Blank lines are ignored; the schema
    /// header sets [`schema`](Self::schema); anything unrecognised
    /// bumps the unknown/malformed counters.
    pub fn ingest_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        if let Some(schema) = field_str(line, "schema") {
            if field_str(line, "kind").is_none() {
                self.schema = Some(schema.to_string());
                return;
            }
        }
        let Some(kind) = field_str(line, "kind") else {
            self.malformed += 1;
            return;
        };
        let Some(idx) = KINDS.iter().position(|k| *k == kind) else {
            self.unknown += 1;
            return;
        };
        self.kind_counts[idx] += 1; // lint:allow(panic_path) idx from position() over KINDS, kind_counts sized KINDS.len()
        match kind {
            "phy_rx" => {
                let mean = field_f64(line, "llr_mean").unwrap_or(0.0);
                let min = field_f64(line, "llr_min").unwrap_or(mean);
                let max = field_f64(line, "llr_max").unwrap_or(mean);
                if self.count("phy_rx") == 1 {
                    self.llr_min = min;
                    self.llr_max = max;
                } else {
                    self.llr_min = self.llr_min.min(min);
                    self.llr_max = self.llr_max.max(max);
                }
                self.llr_mean_sum += mean;
            }
            "round" => {
                self.rounds += 1;
                self.triggered += u64::from(field_bool(line, "triggered").unwrap_or(false));
                self.ba_lost += u64::from(field_bool(line, "ba_lost").unwrap_or(false));
                self.bits += field_u64(line, "bits").unwrap_or(0);
                self.bit_errors += field_u64(line, "bit_errors").unwrap_or(0);
                self.airtime_us += field_u64(line, "airtime_us").unwrap_or(0);
            }
            "fault" => {
                let mask = field_u64(line, "mask").unwrap_or(0);
                for (i, slot) in self.fault_counts.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        *slot += 1;
                    }
                }
            }
            "session_done" => {
                self.sessions += 1;
                self.sessions_delivered +=
                    u64::from(field_bool(line, "delivered").unwrap_or(false));
                self.session_queries += field_u64(line, "queries").unwrap_or(0);
                self.session_idle += field_u64(line, "idle_rounds").unwrap_or(0);
                self.session_retx += field_u64(line, "retransmissions").unwrap_or(0);
                self.session_resyncs += field_u64(line, "resyncs").unwrap_or(0);
                self.session_payload_bits += field_u64(line, "payload_bits").unwrap_or(0);
            }
            "sweep_point" => self.sweep_points += 1,
            "shard" => self.shards += 1,
            "net.enqueue" => self.net_enqueued += 1,
            "net.grant" => {
                self.net_grants += 1;
                self.net_grant_airtime_us += field_u64(line, "airtime_us").unwrap_or(0);
            }
            "net.collision" => {
                self.net_collisions += 1;
                self.net_collision_airtime_us += field_u64(line, "airtime_us").unwrap_or(0);
            }
            "net.session_done" => {
                self.net_sessions += 1;
                self.net_delivered += u64::from(field_bool(line, "delivered").unwrap_or(false));
                self.net_link_rounds += field_u64(line, "rounds").unwrap_or(0);
                self.net_payload_bits += field_u64(line, "payload_bits").unwrap_or(0);
                let lat = field_u64(line, "latency_us").unwrap_or(0);
                self.net_latency_us_sum += lat;
                self.net_latency_us_max = self.net_latency_us_max.max(lat);
            }
            _ => {}
        }
    }

    /// Render the summary in fixed section order. Sections for which no
    /// events arrived are omitted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary ({})",
            self.schema.as_deref().unwrap_or("no schema header")
        );
        let _ = writeln!(out, "  events: {}", self.events());
        if self.unknown > 0 || self.malformed > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} unknown-kind, {} malformed line(s)",
                self.unknown, self.malformed
            );
        }
        let _ = writeln!(out, "  by kind:");
        for (i, kind) in KINDS.iter().enumerate() {
            if self.kind_counts[i] > 0 {
                let _ = writeln!(out, "    {kind:<16} {}", self.kind_counts[i]);
            }
        }
        if self.shards > 0 || self.sweep_points > 0 {
            let _ = writeln!(
                out,
                "  structure: {} sweep point(s), {} shard(s)",
                self.sweep_points, self.shards
            );
        }
        if self.rounds > 0 {
            let ber = if self.bits > 0 {
                self.bit_errors as f64 / self.bits as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  rounds: {} | triggered {} | ba_lost {} | bit errors {}/{} (BER {:.4}) | airtime {:.3} ms",
                self.rounds,
                self.triggered,
                self.ba_lost,
                self.bit_errors,
                self.bits,
                ber,
                self.airtime_us as f64 / 1000.0
            );
        }
        let phy = self.count("phy_rx");
        if phy > 0 {
            let _ = writeln!(
                out,
                "  phy decodes: {} | mean |LLR| avg {:.3} (min {:.3}, max {:.3})",
                phy,
                self.llr_mean_sum / phy as f64,
                self.llr_min,
                self.llr_max
            );
        }
        if self.fault_counts.iter().any(|c| *c > 0) {
            let _ = writeln!(out, "  fault rounds by class:");
            for (i, name) in FAULT_CLASS_NAMES.iter().enumerate() {
                if self.fault_counts[i] > 0 {
                    let _ = writeln!(out, "    {name:<20} {}", self.fault_counts[i]);
                }
            }
        }
        if self.sessions > 0 {
            let _ = writeln!(
                out,
                "  sessions: {} ({} delivered) | queries {} | idle {} | retx {} | resyncs {} | payload bits {}",
                self.sessions,
                self.sessions_delivered,
                self.session_queries,
                self.session_idle,
                self.session_retx,
                self.session_resyncs,
                self.session_payload_bits
            );
        }
        let accesses = self.net_grants + self.net_collisions;
        if self.net_enqueued > 0 || accesses > 0 {
            let rate = if accesses > 0 {
                self.net_collisions as f64 / accesses as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  fleet: {} tag(s) enqueued | {} grant(s), {} collision(s) (rate {:.3}) | busy {:.3} ms",
                self.net_enqueued,
                self.net_grants,
                self.net_collisions,
                rate,
                (self.net_grant_airtime_us + self.net_collision_airtime_us) as f64 / 1000.0
            );
        }
        if self.net_sessions > 0 {
            let _ = writeln!(
                out,
                "  fleet sessions: {} ({} delivered) | link rounds {} | payload bits {} | mean latency {:.3} ms (max {:.3} ms)",
                self.net_sessions,
                self.net_delivered,
                self.net_link_rounds,
                self.net_payload_bits,
                self.net_latency_us_sum as f64 / self.net_sessions as f64 / 1000.0,
                self.net_latency_us_max as f64 / 1000.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use proptest::prelude::*;

    /// Build a summary by serialising events through the real writer.
    fn summarise(events: &[crate::Event]) -> TraceSummary {
        let mut rec = crate::JsonlRecorder::in_memory();
        for e in events {
            rec.record(e);
        }
        let bytes = rec.finish().expect("in-memory sink cannot fail");
        let text = String::from_utf8(bytes).expect("writer emits UTF-8");
        let mut s = TraceSummary::default();
        for line in text.lines() {
            s.ingest_line(line);
        }
        s
    }

    #[test]
    fn roundtrips_every_kind_through_the_writer() {
        let events = crate::event::all_sample_events();
        let s = summarise(&events);
        assert_eq!(s.schema(), Some("witag-obs/2"));
        assert_eq!(s.events(), events.len() as u64);
        assert_eq!(s.unknown(), 0);
        for kind in KINDS {
            assert_eq!(s.count(kind), 1, "{kind}");
        }
        let rendered = s.render();
        for kind in KINDS {
            assert!(rendered.contains(kind), "{kind} missing from:\n{rendered}");
        }
        assert!(
            rendered.contains("1 sweep point(s), 1 shard(s)"),
            "{rendered}"
        );
        assert!(rendered.contains("BER"), "{rendered}");
    }

    #[test]
    fn unknown_kind_and_malformed_lines_are_counted_not_fatal() {
        let mut s = TraceSummary::default();
        s.ingest_line("{\"kind\":\"from_the_future\",\"round\":1}");
        s.ingest_line("not json at all");
        s.ingest_line("");
        assert_eq!(s.events(), 0);
        assert_eq!(s.unknown(), 1);
        assert!(s.render().contains("WARNING"));
    }

    #[test]
    fn fault_masks_aggregate_per_class() {
        let s = summarise(&[
            crate::Event::FaultInjected {
                round: 0,
                mask: 0b11,
            },
            crate::Event::FaultInjected {
                round: 1,
                mask: 0b10,
            },
        ]);
        let r = s.render();
        assert!(r.contains("query_loss"), "{r}");
        assert!(r.contains("ba_loss"), "{r}");
        let ba_line = r
            .lines()
            .find(|l| l.contains("ba_loss"))
            .expect("ba_loss line");
        assert!(ba_line.trim_end().ends_with('2'), "{ba_line}");
    }

    #[test]
    fn net_lines_aggregate_into_the_fleet_sections() {
        let s = summarise(&[
            crate::Event::NetEnqueue {
                round: 0,
                client: 0,
                tag: 0,
                deadline_us: 1000,
            },
            crate::Event::NetEnqueue {
                round: 0,
                client: 1,
                tag: 1,
                deadline_us: 2000,
            },
            crate::Event::NetGrant {
                round: 0,
                client: 0,
                tag: 0,
                airtime_us: 1200,
            },
            crate::Event::NetCollision {
                round: 1,
                clients: 2,
                airtime_us: 1800,
            },
            crate::Event::NetSessionDone {
                round: 2,
                tag: 0,
                delivered: true,
                rounds: 5,
                payload_bits: 100,
                latency_us: 9000,
            },
            crate::Event::NetSessionDone {
                round: 3,
                tag: 1,
                delivered: false,
                rounds: 7,
                payload_bits: 60,
                latency_us: 11000,
            },
        ]);
        let r = s.render();
        assert!(r.contains("2 tag(s) enqueued"), "{r}");
        assert!(r.contains("1 grant(s), 1 collision(s) (rate 0.500)"), "{r}");
        assert!(r.contains("busy 3.000 ms"), "{r}");
        assert!(r.contains("fleet sessions: 2 (1 delivered)"), "{r}");
        assert!(r.contains("mean latency 10.000 ms (max 11.000 ms)"), "{r}");
    }

    /// One splitmix64 step: the offsets and byte values of the
    /// truncation/corruption property below.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn truncated_and_corrupt_lines_each_land_in_one_bucket(
            seed in any::<u64>(),
            flips in 0usize..24,
        ) {
            // A real trace (header plus one line of every kind), cut at an
            // arbitrary byte offset, with `flips` bytes overwritten and
            // each line cut again with probability 1/2. Every non-blank
            // line must land in exactly one of header / event / unknown /
            // malformed, alone and folded into one running summary.
            let mut rec = crate::JsonlRecorder::in_memory();
            for e in crate::event::all_sample_events() {
                rec.record(&e);
            }
            let mut bytes = rec.finish().expect("in-memory sink cannot fail");
            let mut state = seed;
            let cut = (mix(&mut state) % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(cut);
            for _ in 0..flips {
                if bytes.is_empty() {
                    break;
                }
                let at = (mix(&mut state) % bytes.len() as u64) as usize;
                bytes[at] = mix(&mut state) as u8;
            }

            let mut whole = TraceSummary::default();
            let (mut fed, mut blank, mut headers) = (0u64, 0u64, 0u64);
            let (mut events, mut unknown, mut malformed) = (0u64, 0u64, 0u64);
            for raw in bytes.split(|&b| b == b'\n') {
                let r = mix(&mut state);
                let keep = if r & 1 == 0 { raw.len() } else { (r >> 1) as usize % (raw.len() + 1) };
                let line = String::from_utf8_lossy(&raw[..keep]);
                let mut one = TraceSummary::default();
                one.ingest_line(&line);
                let header = u64::from(one.schema().is_some());
                let landed = header + one.events() + one.unknown + one.malformed;
                prop_assert_eq!(landed, u64::from(!line.trim().is_empty()), "{:?}", line);
                whole.ingest_line(&line);
                fed += 1;
                blank += 1 - landed;
                headers += header;
                events += one.events();
                unknown += one.unknown;
                malformed += one.malformed;
            }
            prop_assert_eq!(whole.events(), events);
            prop_assert_eq!(whole.unknown, unknown);
            prop_assert_eq!(whole.malformed, malformed);
            prop_assert_eq!(blank + headers + whole.events() + whole.unknown + whole.malformed, fed);
            let _ = whole.render();
        }
    }

    #[test]
    fn llr_extremes_track_min_and_max() {
        let q = |min: f64, mean: f64, max: f64| crate::Event::PhyRx {
            round: 0,
            quality: crate::RxQuality {
                symbols: 40,
                sampled: 14,
                llr_min: min,
                llr_mean: mean,
                llr_max: max,
            },
        };
        let s = summarise(&[q(4.0, 6.0, 8.0), q(1.0, 2.0, 3.0), q(9.0, 10.0, 11.0)]);
        let r = s.render();
        assert!(r.contains("min 1.000"), "{r}");
        assert!(r.contains("max 11.000"), "{r}");
        assert!(r.contains("avg 6.000"), "{r}");
    }
}
