//! The event vocabulary: everything the instrumented seams can report,
//! as one flat enum with a stable JSON form.
//!
//! Every event is stamped with **deterministic simulation indices**
//! (round numbers, shard indices, sweep-point indices) — never wall
//! clock. Two runs with equal seeds emit byte-identical event streams,
//! which is what makes traces diffable and the thread-count-invariance
//! test possible. The wire format is one JSON object per line; the
//! field-by-field contract lives in `docs/OBS_SCHEMA.md` and is pinned
//! by `tests/schema_coverage.rs`.

use core::fmt::Write as _;

/// Schema identifier stamped on every trace (the header line of a
/// [`JsonlRecorder`](crate::JsonlRecorder) stream). Bump only with a
/// matching `docs/OBS_SCHEMA.md` revision.
pub const SCHEMA: &str = "witag-obs/2";

/// Every event kind the schema knows, in emission-source order. The
/// schema-coverage test asserts each appears in `docs/OBS_SCHEMA.md`;
/// [`TraceSummary`](crate::TraceSummary) indexes its per-kind counters
/// by position in this list.
pub const KINDS: [&str; 22] = [
    "phy_rx",
    "ba",
    "round",
    "fault",
    "session_query",
    "session_chunk",
    "session_backoff",
    "session_resync",
    "session_done",
    "sweep_point",
    "shard",
    "net.enqueue",
    "net.grant",
    "net.collision",
    "net.session_done",
    "tagnet.symbol",
    "tagnet.decode_progress",
    "net.predict",
    "net.cell_assign",
    "net.cell_epoch",
    "phy.mimo.sound",
    "phy.mimo.stream",
];

/// Names for the fault-class bit positions of a `fault` event's `mask`
/// field. Index `i` names bit `1 << i`, matching `witag_faults::FaultClass`
/// (pinned by a cross-crate test in `witag-faults`). Lives here so the
/// JSON writer and the `report` aggregator share one spelling without a
/// dependency cycle.
pub const FAULT_CLASS_NAMES: [&str; 6] = [
    "query_loss",
    "ba_loss",
    "burst",
    "drift",
    "brownout",
    "coherence_collapse",
];

/// Compact, allocation-free summary of one PHY decode's soft quality:
/// the per-symbol mean |LLR| reduced to min/mean/max over a fixed-stride
/// sample of symbols. Produced by `DecodedPsdu::quality` in `witag-phy`;
/// carried by [`Event::PhyRx`].
///
/// ```
/// let q = witag_obs::RxQuality { symbols: 40, sampled: 14, llr_min: 3.1, llr_mean: 9.8, llr_max: 14.0 };
/// assert!(q.llr_min <= q.llr_mean && q.llr_mean <= q.llr_max);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RxQuality {
    /// DATA symbols in the decoded PPDU.
    pub symbols: u32,
    /// Symbols actually inspected (fixed-stride subsample, ≤ 16).
    pub sampled: u32,
    /// Smallest sampled per-symbol mean |LLR| (unitless soft confidence).
    pub llr_min: f64,
    /// Mean of the sampled per-symbol mean |LLR|s.
    pub llr_mean: f64,
    /// Largest sampled per-symbol mean |LLR|.
    pub llr_max: f64,
}

/// One observability event. See `docs/OBS_SCHEMA.md` for the
/// field-by-field wire contract and one JSON example per kind.
///
/// All `round` stamps are **simulation round indices** (0-based unless a
/// variant documents otherwise), never wall-clock times: determinism is
/// part of the event contract, not a property of the recorder.
///
/// ```
/// use witag_obs::Event;
/// let e = Event::RoundEnd {
///     round: 3, triggered: true, ba_lost: false,
///     bits: 62, bit_errors: 1, airtime_us: 2154,
/// };
/// assert_eq!(e.kind(), "round");
/// let mut line = String::new();
/// e.write_json(&mut line);
/// assert!(line.starts_with("{\"kind\":\"round\",\"round\":3,"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One forward-link PPDU went through the standard receive chain.
    PhyRx {
        /// Experiment round the decode belongs to.
        round: u64,
        /// Sampled soft-quality summary of the decode.
        quality: RxQuality,
    },
    /// The AP assembled a compressed block ACK from de-aggregation
    /// outcomes — the bitmap *is* WiTAG's downlink.
    BlockAckAssembled {
        /// Experiment round the block ACK belongs to.
        round: u64,
        /// Subframes the query carried.
        subframes: u32,
        /// Bitmap bits set (subframes with a valid FCS).
        acked: u32,
        /// The raw 64-bit bitmap (serialised as a hex string).
        bitmap: u64,
    },
    /// One query round completed (or died to a fault) — the experiment
    /// runner's per-round scoreboard.
    RoundEnd {
        /// Experiment round index.
        round: u64,
        /// Whether the tag's trigger matcher fired.
        triggered: bool,
        /// Whether the block ACK (or the query itself) was lost.
        ba_lost: bool,
        /// Tag bits scored this round.
        bits: u32,
        /// Bits scored as errors (undelivered bits included).
        bit_errors: u32,
        /// Round airtime in microseconds of *simulated* time.
        airtime_us: u64,
    },
    /// The fault injector fired at least one fault class this round.
    /// Quiet rounds emit nothing, keeping hostile traces sparse.
    FaultInjected {
        /// Experiment round the verdict applies to.
        round: u64,
        /// OR of fault-class bit masks; bit `i` is named by
        /// [`FAULT_CLASS_NAMES`]`[i]`.
        mask: u8,
    },
    /// The resilient session driver executed one physical round.
    SessionQuery {
        /// 0-based session round index (queries + idle rounds).
        round: u64,
        /// Query flavour: `"slot"`, `"slide"`, `"resync"` or `"idle"`.
        query: &'static str,
        /// Window slot for `"slot"` queries; absent otherwise.
        slot: Option<u8>,
        /// Whether the tag decoded the trigger signature.
        heard: bool,
        /// Whether the client read anything back at all.
        readout: bool,
    },
    /// The session accepted (confirmed) one chunk.
    SessionChunk {
        /// Session round index at acceptance.
        round: u64,
        /// Absolute chunk index (0 = header).
        chunk: u32,
    },
    /// The session is entering an exponential-backoff quiet period.
    SessionBackoff {
        /// Session round index when backoff engaged.
        round: u64,
        /// Idle rounds about to be spent.
        idle_rounds: u32,
        /// Backoff exponent level before this period.
        level: u32,
    },
    /// The client re-learned the tag's window base (decoded base report
    /// or slide prediction).
    SessionResync {
        /// Session round index of the base update.
        round: u64,
        /// The new window base (absolute chunk index).
        base: u32,
    },
    /// The session terminated.
    SessionDone {
        /// Total session rounds consumed.
        round: u64,
        /// Whether the CRC-verified message was delivered.
        delivered: bool,
        /// Non-idle query rounds.
        queries: u32,
        /// Idle backoff rounds.
        idle_rounds: u32,
        /// Slot queries beyond each chunk's first attempt.
        retransmissions: u32,
        /// RESYNC queries issued.
        resyncs: u32,
        /// Distinct payload bits recovered.
        payload_bits: u32,
    },
    /// Marker separating the per-point sub-streams of a distance sweep;
    /// rounds restart at 0 after each marker.
    SweepPoint {
        /// 0-based sweep point index (distance order).
        index: u32,
        /// Tag distance from the client, metres.
        distance_m: f64,
    },
    /// Marker separating the shard sub-streams of a parallel run, in
    /// shard (merge) order.
    Shard {
        /// 0-based shard index.
        index: u32,
        /// First global round index of the shard.
        base_round: u64,
        /// Rounds the shard executed.
        rounds: u32,
    },
    /// A fleet run admitted one tag's session into the network layer
    /// (emitted once per tag before the medium loop starts).
    NetEnqueue {
        /// Fleet medium-round index at enqueue (0 for the initial batch).
        round: u64,
        /// Client the tag is assigned to.
        client: u32,
        /// Fleet-wide tag index.
        tag: u32,
        /// Freshness deadline, microseconds of simulated time from
        /// fleet start.
        deadline_us: u64,
    },
    /// One client won the medium uncontested and queried one tag.
    NetGrant {
        /// Fleet medium-round index (grants and collisions share one
        /// counter).
        round: u64,
        /// The winning client.
        client: u32,
        /// The tag its scheduler picked.
        tag: u32,
        /// Airtime the exchange consumed, microseconds.
        airtime_us: u64,
    },
    /// Two or more clients' backoff counters expired together: their
    /// queries overlapped in the air and corrupted each other.
    NetCollision {
        /// Fleet medium-round index.
        round: u64,
        /// Clients that transmitted simultaneously.
        clients: u32,
        /// Busy time of the collision (longest overlapping exchange),
        /// microseconds.
        airtime_us: u64,
    },
    /// One tag's session completed inside a fleet run.
    NetSessionDone {
        /// Fleet medium-round index at completion.
        round: u64,
        /// Fleet-wide tag index.
        tag: u32,
        /// Whether the CRC-verified message was delivered.
        delivered: bool,
        /// Query rounds this link consumed (collisions included).
        rounds: u32,
        /// Distinct chunk payload bits recovered.
        payload_bits: u32,
        /// Completion time from fleet start, microseconds.
        latency_us: u64,
    },
    /// The fountain transport moved one coded symbol (or failed to):
    /// one event per SYMBOL round of a fountain session.
    TagnetSymbol {
        /// 0-based fountain-session round index.
        round: u64,
        /// The client's resolved encoding-symbol id for the round
        /// (its esi lower bound when the round was not accepted).
        esi: u64,
        /// Whether the readout decoded and folded into the decoder.
        accepted: bool,
    },
    /// The fountain decoder made progress: emitted whenever accepted
    /// symbols newly solve source chunks.
    TagnetDecodeProgress {
        /// 0-based fountain-session round index.
        round: u64,
        /// Source chunks solved so far.
        solved: u32,
        /// Source chunks in the block (header included).
        source: u32,
        /// Distinct coded symbols absorbed so far.
        received: u32,
    },
    /// The traffic predictor's forecast at one medium access (emitted
    /// only when the `pred` scheduling policy is active).
    NetPredict {
        /// Fleet medium-round index (grants and collisions share one
        /// counter).
        round: u64,
        /// The client the forecast gated.
        client: u32,
        /// EWMA of the observed busy indicator.
        busy_ewma: f64,
        /// Blended Markov + EWMA busy forecast for the next access.
        p_busy: f64,
        /// Clients told to defer this round.
        deferred: u32,
    },
    /// Metro-scale topology: one cell's channel, contention-domain and
    /// membership assignment (emitted once per cell before the domain
    /// loops start).
    NetCellAssign {
        /// Grid cell index.
        cell: u32,
        /// WiFi channel the cell operates on (reuse pattern).
        channel: u32,
        /// Contention domain the cell was merged into (co-channel
        /// cells within interference range share a domain).
        domain: u32,
        /// Readers homed in the cell.
        readers: u32,
        /// Tags homed in the cell.
        tags: u32,
    },
    /// The hierarchical scheduler closed one inter-cell budget epoch
    /// for one cell (emitted per cell at every epoch rollover).
    NetCellEpoch {
        /// Grid cell index.
        cell: u32,
        /// 0-based epoch index just closed.
        epoch: u32,
        /// Airtime budget the cell held for the closed epoch,
        /// microseconds.
        budget_us: u64,
        /// Medium accesses the cell's readers won during the epoch.
        grants: u32,
        /// Tags delivered in the cell so far (cumulative).
        delivered: u32,
    },
    /// One MOXcatter sweep point sounded its MIMO channel: the measured
    /// post-equalisation SNR envelope the rate/stream selection saw.
    MimoSound {
        /// 0-based sweep point index.
        index: u32,
        /// Spatial streams multiplexed at this point.
        streams: u32,
        /// HT MCS index used for the data frames.
        mcs: u32,
        /// Tag distance from the client (array centre), metres.
        distance_m: f64,
        /// Worst stream's post-equalisation SNR, dB.
        snr_min_db: f64,
        /// Best stream's post-equalisation SNR, dB.
        snr_max_db: f64,
    },
    /// Per-stream block-ACK outcome of one MOXcatter sweep point: how
    /// the tag's cross-stream leakage landed on this stream's bitmap.
    MimoStream {
        /// 0-based sweep point index (matches the `phy.mimo.sound`
        /// event of the same point).
        index: u32,
        /// 0-based spatial stream index.
        stream: u32,
        /// Subframes this stream's A-MPDU carried.
        subframes: u32,
        /// Bitmap bits set (subframes with a valid FCS).
        acked: u32,
        /// Whether the tag's modulation corrupted this stream (its
        /// bitmap differs from the tag-idle control run).
        hit: bool,
    },
}

impl Event {
    /// The event's kind string — its `"kind"` field on the wire and its
    /// index key into [`KINDS`].
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()] // lint:allow(panic_path) kind_index returns literals < KINDS.len(), pinned by test
    }

    /// Position of this event's kind in [`KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::PhyRx { .. } => 0,
            Event::BlockAckAssembled { .. } => 1,
            Event::RoundEnd { .. } => 2,
            Event::FaultInjected { .. } => 3,
            Event::SessionQuery { .. } => 4,
            Event::SessionChunk { .. } => 5,
            Event::SessionBackoff { .. } => 6,
            Event::SessionResync { .. } => 7,
            Event::SessionDone { .. } => 8,
            Event::SweepPoint { .. } => 9,
            Event::Shard { .. } => 10,
            Event::NetEnqueue { .. } => 11,
            Event::NetGrant { .. } => 12,
            Event::NetCollision { .. } => 13,
            Event::NetSessionDone { .. } => 14,
            Event::TagnetSymbol { .. } => 15,
            Event::TagnetDecodeProgress { .. } => 16,
            Event::NetPredict { .. } => 17,
            Event::NetCellAssign { .. } => 18,
            Event::NetCellEpoch { .. } => 19,
            Event::MimoSound { .. } => 20,
            Event::MimoStream { .. } => 21,
        }
    }

    /// Serialise as one JSON object (no trailing newline) appended to
    /// `out`. The output is deterministic: fixed key order, fixed float
    /// precision, no escapes needed (every string field is a controlled
    /// `&'static str` drawn from a documented vocabulary).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"kind\":\"{}\"", self.kind());
        match *self {
            Event::PhyRx { round, quality } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"symbols\":{},\"sampled\":{},\
                     \"llr_min\":{:.4},\"llr_mean\":{:.4},\"llr_max\":{:.4}",
                    quality.symbols,
                    quality.sampled,
                    quality.llr_min,
                    quality.llr_mean,
                    quality.llr_max
                );
            }
            Event::BlockAckAssembled {
                round,
                subframes,
                acked,
                bitmap,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"subframes\":{subframes},\
                     \"acked\":{acked},\"bitmap\":\"0x{bitmap:016x}\""
                );
            }
            Event::RoundEnd {
                round,
                triggered,
                ba_lost,
                bits,
                bit_errors,
                airtime_us,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"triggered\":{triggered},\
                     \"ba_lost\":{ba_lost},\"bits\":{bits},\
                     \"bit_errors\":{bit_errors},\"airtime_us\":{airtime_us}"
                );
            }
            Event::FaultInjected { round, mask } => {
                let _ = write!(out, ",\"round\":{round},\"mask\":{mask},\"classes\":\"");
                let mut first = true;
                for (i, name) in FAULT_CLASS_NAMES.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        if !first {
                            out.push('|');
                        }
                        out.push_str(name);
                        first = false;
                    }
                }
                out.push('"');
            }
            Event::SessionQuery {
                round,
                query,
                slot,
                heard,
                readout,
            } => {
                let _ = write!(out, ",\"round\":{round},\"query\":\"{query}\"");
                if let Some(k) = slot {
                    let _ = write!(out, ",\"slot\":{k}");
                }
                let _ = write!(out, ",\"heard\":{heard},\"readout\":{readout}");
            }
            Event::SessionChunk { round, chunk } => {
                let _ = write!(out, ",\"round\":{round},\"chunk\":{chunk}");
            }
            Event::SessionBackoff {
                round,
                idle_rounds,
                level,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"idle_rounds\":{idle_rounds},\"level\":{level}"
                );
            }
            Event::SessionResync { round, base } => {
                let _ = write!(out, ",\"round\":{round},\"base\":{base}");
            }
            Event::SessionDone {
                round,
                delivered,
                queries,
                idle_rounds,
                retransmissions,
                resyncs,
                payload_bits,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"delivered\":{delivered},\
                     \"queries\":{queries},\"idle_rounds\":{idle_rounds},\
                     \"retransmissions\":{retransmissions},\"resyncs\":{resyncs},\
                     \"payload_bits\":{payload_bits}"
                );
            }
            Event::SweepPoint { index, distance_m } => {
                let _ = write!(out, ",\"index\":{index},\"distance_m\":{distance_m:.3}");
            }
            Event::Shard {
                index,
                base_round,
                rounds,
            } => {
                let _ = write!(
                    out,
                    ",\"index\":{index},\"base_round\":{base_round},\"rounds\":{rounds}"
                );
            }
            Event::NetEnqueue {
                round,
                client,
                tag,
                deadline_us,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"client\":{client},\"tag\":{tag},\
                     \"deadline_us\":{deadline_us}"
                );
            }
            Event::NetGrant {
                round,
                client,
                tag,
                airtime_us,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"client\":{client},\"tag\":{tag},\
                     \"airtime_us\":{airtime_us}"
                );
            }
            Event::NetCollision {
                round,
                clients,
                airtime_us,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"clients\":{clients},\"airtime_us\":{airtime_us}"
                );
            }
            Event::NetSessionDone {
                round,
                tag,
                delivered,
                rounds,
                payload_bits,
                latency_us,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"tag\":{tag},\"delivered\":{delivered},\
                     \"rounds\":{rounds},\"payload_bits\":{payload_bits},\
                     \"latency_us\":{latency_us}"
                );
            }
            Event::TagnetSymbol {
                round,
                esi,
                accepted,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"esi\":{esi},\"accepted\":{accepted}"
                );
            }
            Event::TagnetDecodeProgress {
                round,
                solved,
                source,
                received,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"solved\":{solved},\"source\":{source},\
                     \"received\":{received}"
                );
            }
            Event::NetPredict {
                round,
                client,
                busy_ewma,
                p_busy,
                deferred,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"client\":{client},\"busy_ewma\":{busy_ewma:.4},\
                     \"p_busy\":{p_busy:.4},\"deferred\":{deferred}"
                );
            }
            Event::NetCellAssign {
                cell,
                channel,
                domain,
                readers,
                tags,
            } => {
                let _ = write!(
                    out,
                    ",\"cell\":{cell},\"channel\":{channel},\"domain\":{domain},\
                     \"readers\":{readers},\"tags\":{tags}"
                );
            }
            Event::NetCellEpoch {
                cell,
                epoch,
                budget_us,
                grants,
                delivered,
            } => {
                let _ = write!(
                    out,
                    ",\"cell\":{cell},\"epoch\":{epoch},\"budget_us\":{budget_us},\
                     \"grants\":{grants},\"delivered\":{delivered}"
                );
            }
            Event::MimoSound {
                index,
                streams,
                mcs,
                distance_m,
                snr_min_db,
                snr_max_db,
            } => {
                let _ = write!(
                    out,
                    ",\"index\":{index},\"streams\":{streams},\"mcs\":{mcs},\
                     \"distance_m\":{distance_m:.3},\"snr_min_db\":{snr_min_db:.2},\
                     \"snr_max_db\":{snr_max_db:.2}"
                );
            }
            Event::MimoStream {
                index,
                stream,
                subframes,
                acked,
                hit,
            } => {
                let _ = write!(
                    out,
                    ",\"index\":{index},\"stream\":{stream},\"subframes\":{subframes},\
                     \"acked\":{acked},\"hit\":{hit}"
                );
            }
        }
        out.push('}');
    }
}

/// One representative event per kind, in [`KINDS`] order — shared by
/// this crate's unit tests (serialisation, metrics, report roundtrip).
#[cfg(test)]
pub(crate) fn all_sample_events() -> Vec<Event> {
    vec![
        Event::PhyRx {
            round: 0,
            quality: RxQuality {
                symbols: 40,
                sampled: 14,
                llr_min: 2.0,
                llr_mean: 8.0,
                llr_max: 12.0,
            },
        },
        Event::BlockAckAssembled {
            round: 0,
            subframes: 64,
            acked: 61,
            bitmap: 0xDEAD_BEEF,
        },
        Event::RoundEnd {
            round: 0,
            triggered: true,
            ba_lost: false,
            bits: 62,
            bit_errors: 1,
            airtime_us: 2154,
        },
        Event::FaultInjected { round: 0, mask: 3 },
        Event::SessionQuery {
            round: 0,
            query: "slot",
            slot: Some(0),
            heard: true,
            readout: true,
        },
        Event::SessionChunk { round: 0, chunk: 1 },
        Event::SessionBackoff {
            round: 0,
            idle_rounds: 4,
            level: 2,
        },
        Event::SessionResync { round: 0, base: 8 },
        Event::SessionDone {
            round: 0,
            delivered: true,
            queries: 10,
            idle_rounds: 2,
            retransmissions: 3,
            resyncs: 1,
            payload_bits: 200,
        },
        Event::SweepPoint {
            index: 0,
            distance_m: 1.0,
        },
        Event::Shard {
            index: 0,
            base_round: 0,
            rounds: 25,
        },
        Event::NetEnqueue {
            round: 0,
            client: 0,
            tag: 3,
            deadline_us: 250_000,
        },
        Event::NetGrant {
            round: 4,
            client: 0,
            tag: 3,
            airtime_us: 1290,
        },
        Event::NetCollision {
            round: 5,
            clients: 2,
            airtime_us: 2410,
        },
        Event::NetSessionDone {
            round: 31,
            tag: 3,
            delivered: true,
            rounds: 12,
            payload_bits: 240,
            latency_us: 48_200,
        },
        Event::TagnetSymbol {
            round: 7,
            esi: 5,
            accepted: true,
        },
        Event::TagnetDecodeProgress {
            round: 7,
            solved: 4,
            source: 9,
            received: 5,
        },
        Event::NetPredict {
            round: 12,
            client: 1,
            busy_ewma: 0.4375,
            p_busy: 0.3912,
            deferred: 1,
        },
        Event::NetCellAssign {
            cell: 5,
            channel: 2,
            domain: 5,
            readers: 1,
            tags: 250,
        },
        Event::NetCellEpoch {
            cell: 5,
            epoch: 3,
            budget_us: 250_000,
            grants: 41,
            delivered: 96,
        },
        Event::MimoSound {
            index: 0,
            streams: 2,
            mcs: 15,
            distance_m: 1.0,
            snr_min_db: 23.9,
            snr_max_db: 31.2,
        },
        Event::MimoStream {
            index: 0,
            stream: 1,
            subframes: 32,
            acked: 17,
            hit: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_matches_kinds_table() {
        let samples = all_sample_events();
        assert_eq!(samples.len(), KINDS.len(), "one sample per kind");
        for (i, e) in samples.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(e.kind(), KINDS[i]);
        }
    }

    #[test]
    fn every_kind_serialises_with_its_kind_field() {
        for e in all_sample_events() {
            let mut s = String::new();
            e.write_json(&mut s);
            assert!(
                s.starts_with(&format!("{{\"kind\":\"{}\"", e.kind())),
                "{s}"
            );
            assert!(s.ends_with('}'), "{s}");
            // Balanced quotes: even count means every string closed.
            assert_eq!(s.matches('"').count() % 2, 0, "{s}");
        }
    }

    #[test]
    fn fault_classes_render_as_names() {
        let e = Event::FaultInjected {
            round: 9,
            mask: 0b10010,
        };
        let mut s = String::new();
        e.write_json(&mut s);
        assert!(s.contains("\"classes\":\"ba_loss|brownout\""), "{s}");
        let quiet = Event::FaultInjected { round: 9, mask: 0 };
        let mut s = String::new();
        quiet.write_json(&mut s);
        assert!(s.contains("\"classes\":\"\""), "{s}");
    }

    #[test]
    fn slot_field_is_conditional() {
        let with = Event::SessionQuery {
            round: 1,
            query: "slot",
            slot: Some(2),
            heard: true,
            readout: true,
        };
        let without = Event::SessionQuery {
            round: 2,
            query: "resync",
            slot: None,
            heard: false,
            readout: false,
        };
        let (mut a, mut b) = (String::new(), String::new());
        with.write_json(&mut a);
        without.write_json(&mut b);
        assert!(a.contains("\"slot\":2"), "{a}");
        assert!(!b.contains("slot"), "{b}");
    }
}
