//! Reliable message transport over the tag bit-channel.
//!
//! The paper stops at raw bits and names error handling as future work
//! (§4.1). This module builds the smallest useful link layer on top:
//!
//! * **Chunk framing** — each query carries one chunk: a 4-bit sequence
//!   number, 20 payload bits and a CRC-8 over both, all wrapped in the
//!   interleaved-Hamming FEC from [`crate::fec`] (56 channel bits of the
//!   62 available). The three fields form one 32-bit data word, and a
//!   chunk payload is a `u32` from the message to the channel and back.
//! * **Stop-and-wait ARQ** — the tag has no receiver, but the *client*
//!   controls which trigger signature each query carries, and tags
//!   already decode signatures (that is how they are addressed). Giving
//!   every tag two signatures — ADVANCE and REPEAT — turns the query
//!   itself into a 1-bit acknowledgement channel: after a good chunk the
//!   client queries with ADVANCE (the tag moves to the next chunk);
//!   after a bad one it queries with REPEAT (the tag retransmits). This
//!   stays 100 % within WiTAG's hardware envelope: the tag only ever
//!   matches marker durations, which it must do anyway.
//!
//! The transport is exercised against the full simulation stack in the
//! workspace integration tests (`tests/tagnet_transport.rs`).

use crate::fec::{deinterleave, hamming74_decode, hamming74_encode, interleave, FecLayout};
use crate::fountain::{source_count_for_len, FountainQuery, FountainReceiver, FountainSender};
use std::collections::VecDeque;
use std::fmt;
use witag_crypto::crc8;
use witag_obs::{Event, Recorder};

/// Payload bits carried per chunk.
pub const CHUNK_PAYLOAD_BITS: usize = 20;
/// Sequence-number bits per chunk.
pub const CHUNK_SEQ_BITS: usize = 4;
/// Data bits per chunk before FEC: seq + payload + CRC-8, one `u32`.
pub const CHUNK_DATA_BITS: usize = CHUNK_SEQ_BITS + CHUNK_PAYLOAD_BITS + 8;
/// Smallest query (channel bits) that can carry one chunk:
/// `CHUNK_DATA_BITS` data bits through Hamming(7,4) blocks.
pub const MIN_CHANNEL_BITS: usize = CHUNK_DATA_BITS.div_ceil(4) * 7;
/// Largest message a session can carry: the header length field is 12
/// bits wide.
pub const MAX_MESSAGE_BYTES: usize = (1 << 12) - 1;
/// Largest selective-repeat window: each slot needs its own trigger
/// signature, and tags realistically match at most a handful.
pub const MAX_WINDOW: usize = 8;
/// Magic prefix (8 bits) marking a base-report chunk (SLIDE / RESYNC
/// responses) so it can never be mistaken for message payload metadata.
pub const BASE_REPORT_MAGIC: u8 = 0xB5;

/// The largest chunk payload: [`CHUNK_PAYLOAD_BITS`] ones.
const PAYLOAD_MAX: u32 = (1 << CHUNK_PAYLOAD_BITS) - 1;
/// Hamming codewords the chunk's data word fills.
const CHUNK_CODEWORDS: usize = CHUNK_DATA_BITS / 4;
/// Every codeword past the data word encodes an all-ones pad nibble.
const PAD_CODEWORD: u8 = hamming74_encode(0xF);

/// Typed errors for the tagnet transport. These replace the asserts the
/// framing layer used to carry: misuse now surfaces as a value the
/// caller can match on instead of a panic in library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagnetError {
    /// Sequence number does not fit the 4-bit field.
    SeqOutOfRange {
        /// The offending sequence number.
        seq: u8,
    },
    /// Chunk payload does not fit [`CHUNK_PAYLOAD_BITS`] bits.
    PayloadTooWide {
        /// The offending payload.
        payload: u32,
    },
    /// The query cannot carry even one chunk after FEC.
    QueryTooSmall {
        /// Channel bits the query offers.
        channel_bits: usize,
        /// Minimum channel bits a chunk needs.
        needed: usize,
    },
    /// Message exceeds the 12-bit length field of the session header.
    MessageTooLong {
        /// Message size supplied.
        bytes: usize,
        /// Largest representable size.
        max: usize,
    },
    /// Session window outside `1..=MAX_WINDOW`.
    WindowOutOfRange {
        /// The window that was requested.
        window: usize,
    },
    /// A `Slot(k)` query with `k` outside the negotiated window.
    SlotOutOfWindow {
        /// Requested slot index.
        slot: u8,
        /// Negotiated window size.
        window: usize,
    },
}

impl fmt::Display for TagnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagnetError::SeqOutOfRange { seq } => {
                write!(f, "sequence number {seq} does not fit 4 bits")
            }
            TagnetError::PayloadTooWide { payload } => {
                write!(
                    f,
                    "chunk payload {payload:#x} does not fit {CHUNK_PAYLOAD_BITS} bits"
                )
            }
            TagnetError::QueryTooSmall {
                channel_bits,
                needed,
            } => write!(
                f,
                "query carries {channel_bits} bits but a chunk needs {needed}"
            ),
            TagnetError::MessageTooLong { bytes, max } => {
                write!(f, "message is {bytes} bytes, header field caps at {max}")
            }
            TagnetError::WindowOutOfRange { window } => {
                write!(f, "session window {window} outside 1..={MAX_WINDOW}")
            }
            TagnetError::SlotOutOfWindow { slot, window } => {
                write!(f, "slot {slot} outside the {window}-slot window")
            }
        }
    }
}

impl std::error::Error for TagnetError {}

/// Which query flavour the client sends — the 1-bit feedback channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// "Last chunk arrived; send the next one."
    Advance,
    /// "Last chunk was damaged; send it again."
    Repeat,
}

/// Encode a chunk into `out`, one query's `out.len()` channel bits. The
/// data word `[seq(4) ‖ payload(20) ‖ crc8(8)]` (first bit in bit 31)
/// fills eight interleaved Hamming(7,4) codewords; every further
/// codeword the query fits carries an all-ones pad nibble, and the bits
/// past `7 · codewords` are idle 1s.
// lint:no_alloc
pub fn encode_chunk(seq: u8, payload: u32, out: &mut [u8]) -> Result<(), TagnetError> {
    if seq >= 16 {
        return Err(TagnetError::SeqOutOfRange { seq });
    }
    if payload > PAYLOAD_MAX {
        return Err(TagnetError::PayloadTooWide { payload });
    }
    let layout = FecLayout::fit(out.len());
    if layout.data_bits() < CHUNK_DATA_BITS {
        return Err(TagnetError::QueryTooSmall {
            channel_bits: out.len(),
            needed: MIN_CHANNEL_BITS,
        });
    }
    let word = (u32::from(seq) << 28) | (payload << 8) | u32::from(chunk_crc(seq, payload));
    let mut cws = [0u8; CHUNK_CODEWORDS];
    for (i, cw) in cws.iter_mut().enumerate() {
        *cw = hamming74_encode((word >> (28 - 4 * i)) as u8 & 0xF);
    }
    let (coded, idle) = out.split_at_mut(layout.channel_bits());
    interleave(&cws, PAD_CODEWORD, layout.codewords, coded);
    idle.fill(1);
    Ok(())
}

/// Decode a chunk from received channel bits (0/1). Returns
/// `(seq, payload)` if the CRC verifies.
// lint:no_alloc
pub fn decode_chunk(received: &[u8], channel_bits: usize) -> Option<(u8, u32)> {
    let layout = FecLayout::fit(channel_bits);
    if received.len() < layout.channel_bits() || layout.data_bits() < CHUNK_DATA_BITS {
        return None;
    }
    let mut cws = [0u8; CHUNK_CODEWORDS];
    deinterleave(received, layout.codewords, &mut cws);
    let word = cws
        .iter()
        .fold(0u32, |w, &cw| (w << 4) | u32::from(hamming74_decode(cw).0));
    let seq = (word >> 28) as u8;
    let payload = (word >> 8) & PAYLOAD_MAX;
    (chunk_crc(seq, payload) == word as u8).then_some((seq, payload))
}

/// CRC-8 over the chunk's `seq ‖ payload`, packed MSB-first into three
/// bytes.
// lint:no_alloc
fn chunk_crc(seq: u8, payload: u32) -> u8 {
    let [_, a, b, c] = ((u32::from(seq) << CHUNK_PAYLOAD_BITS) | payload).to_be_bytes();
    crc8(&[a, b, c])
}

/// Append `message`'s bits, MSB first, to `chunks` as 20-bit payloads
/// (the last one zero-padded).
fn push_message_chunks(message: &[u8], chunks: &mut Vec<u32>) {
    let (mut acc, mut nbits) = (0u32, 0u32);
    for &b in message {
        acc = (acc << 8) | u32::from(b);
        nbits += 8;
        if nbits >= CHUNK_PAYLOAD_BITS as u32 {
            nbits -= CHUNK_PAYLOAD_BITS as u32;
            chunks.push(acc >> nbits);
            acc &= (1 << nbits) - 1;
        }
    }
    if nbits > 0 {
        chunks.push(acc << (CHUNK_PAYLOAD_BITS as u32 - nbits));
    }
}

/// A message's source block, shared by the session and fountain
/// transports: the header chunk `[len(12) ‖ crc8(message)(8)]`, then
/// the message in 20-bit chunks.
pub(crate) fn source_block(message: &[u8]) -> Result<Vec<u32>, TagnetError> {
    if message.len() > MAX_MESSAGE_BYTES {
        return Err(TagnetError::MessageTooLong {
            bytes: message.len(),
            max: MAX_MESSAGE_BYTES,
        });
    }
    let mut chunks = Vec::with_capacity(source_count_for_len(message.len()));
    chunks.push(((message.len() as u32) << 8) | u32::from(crc8(message)));
    push_message_chunks(message, &mut chunks);
    Ok(chunks)
}

/// The bytes a run of 20-bit chunk payloads spells, MSB first. A final
/// partial byte carries its remaining bits right-aligned.
struct ChunkBytes<I> {
    chunks: I,
    acc: u32,
    nbits: u32,
}

impl<I: Iterator<Item = u32>> ChunkBytes<I> {
    fn new(chunks: I) -> Self {
        ChunkBytes {
            chunks,
            acc: 0,
            nbits: 0,
        }
    }
}

impl<I: Iterator<Item = u32>> Iterator for ChunkBytes<I> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        while self.nbits < 8 {
            match self.chunks.next() {
                Some(c) => {
                    self.acc = (self.acc << CHUNK_PAYLOAD_BITS) | c;
                    self.nbits += CHUNK_PAYLOAD_BITS as u32;
                }
                None if self.nbits > 0 => {
                    self.nbits = 0;
                    return Some(std::mem::take(&mut self.acc) as u8);
                }
                None => return None,
            }
        }
        self.nbits -= 8;
        let byte = (self.acc >> self.nbits) as u8;
        self.acc &= (1 << self.nbits) - 1;
        Some(byte)
    }
}

/// The body bytes of a source block, if it holds every chunk.
fn body_bytes(body: &[Option<u32>]) -> Option<impl Iterator<Item = u8> + '_> {
    body.iter()
        .all(Option::is_some)
        .then(|| ChunkBytes::new(body.iter().flatten().copied()))
}

/// Whether `body` spells a message of exactly the length and end-to-end
/// CRC the `header` chunk names, without allocating.
pub(crate) fn message_verifies(header: u32, body: &[Option<u32>]) -> bool {
    let (len, hcrc) = ((header >> 8) as usize, header as u8);
    let Some(bytes) = body_bytes(body) else {
        return false;
    };
    let (n, crc) = bytes
        .take(len)
        .fold((0usize, 0u8), |(n, crc), b| (n + 1, crc8(&[crc ^ b])));
    n == len && crc == hcrc
}

/// The message a header chunk and its body spell, if it verifies
/// ([`message_verifies`]).
pub(crate) fn assemble_message(header: u32, body: &[Option<u32>]) -> Option<Vec<u8>> {
    if !message_verifies(header, body) {
        return None;
    }
    Some(body_bytes(body)?.take((header >> 8) as usize).collect())
}

/// Tag-side transport: chops a message into chunks and serves them under
/// ADVANCE/REPEAT control.
#[derive(Debug, Clone)]
pub struct TagSender {
    chunks: Vec<u32>,
    cursor: usize,
    /// Whether the current chunk has been transmitted at least once (an
    /// ADVANCE only moves the window after that).
    served: bool,
}

impl TagSender {
    /// Queue a message (bytes, MSB-first bits, zero-padded into 20-bit
    /// chunks; an empty message is one zero chunk).
    pub fn new(message: &[u8]) -> Self {
        let mut chunks = Vec::new();
        push_message_chunks(message, &mut chunks);
        if chunks.is_empty() {
            chunks.push(0);
        }
        TagSender {
            chunks,
            cursor: 0,
            served: false,
        }
    }

    /// Number of chunks in the message.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// `true` once every chunk has been acknowledged.
    pub fn done(&self) -> bool {
        self.cursor >= self.chunks.len()
    }

    /// Answer one query of the given kind: write the channel bits to
    /// modulate into `out` (the query's capacity). An ADVANCE
    /// acknowledges the chunk served so far and moves the window; the
    /// first query (nothing served yet) starts chunk 0 regardless of
    /// kind.
    pub fn answer(&mut self, kind: QueryKind, out: &mut [u8]) -> Result<(), TagnetError> {
        if kind == QueryKind::Advance && self.served {
            self.cursor += 1;
            self.served = false;
        }
        let Some(&chunk) = self.chunks.get(self.cursor) else {
            // Idle fill once complete.
            out.fill(1);
            return Ok(());
        };
        self.served = true;
        encode_chunk((self.cursor % 16) as u8, chunk, out)
    }

    /// Index of the chunk currently being served.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

/// Client-side transport: validates chunks and drives the ARQ.
#[derive(Debug, Clone, Default)]
pub struct ArqReader {
    /// Chunk payloads accepted so far, in order.
    pub received: Vec<u32>,
    expected_seq: u8,
}

impl ArqReader {
    /// New reader expecting chunk 0.
    pub fn new() -> Self {
        ArqReader::default()
    }

    /// Process one query's readout; returns the kind of the *next* query
    /// to send.
    pub fn process(&mut self, readout_bits: &[u8], channel_bits: usize) -> QueryKind {
        match decode_chunk(readout_bits, channel_bits) {
            Some((seq, payload)) if seq == self.expected_seq => {
                self.received.push(payload);
                self.expected_seq = (self.expected_seq + 1) % 16;
                QueryKind::Advance
            }
            Some((seq, _)) if seq.wrapping_add(1) % 16 == self.expected_seq => {
                // Duplicate of the previous chunk (our ADVANCE was acted
                // on but we asked again) — ignore and move on.
                QueryKind::Advance
            }
            _ => QueryKind::Repeat,
        }
    }

    /// Recover the message bytes (trailing pad dropped to `len` bytes).
    pub fn message(&self, len: usize) -> Vec<u8> {
        ChunkBytes::new(self.received.iter().copied())
            .take(len)
            .collect()
    }
}

/// Drive a complete message over an arbitrary bit channel.
///
/// `channel` is called once per query with the tag's channel bits and
/// returns what the client read back (same length). Returns the number
/// of queries used, or `None` if `max_queries` was exhausted.
pub fn deliver<F>(
    message: &[u8],
    channel_bits: usize,
    max_queries: usize,
    mut channel: F,
) -> Option<(Vec<u8>, usize)>
where
    F: FnMut(&[u8]) -> Vec<u8>,
{
    let mut tag = TagSender::new(message);
    let mut reader = ArqReader::new();
    let mut kind = QueryKind::Advance;
    let mut tx = vec![0u8; channel_bits];
    for q in 1..=max_queries {
        tag.answer(kind, &mut tx).ok()?;
        if tag.done() && reader.received.len() >= tag.chunk_count() {
            return Some((reader.message(message.len()), q - 1));
        }
        let rx = channel(&tx);
        kind = reader.process(&rx, channel_bits);
    }
    // One last check after the loop.
    (reader.received.len() >= tag.chunk_count())
        .then(|| (reader.message(message.len()), max_queries))
}

// ---------------------------------------------------------------------------
// Resilient session transport: selective-repeat ARQ, adaptive redundancy,
// exponential backoff and explicit desync recovery.
// ---------------------------------------------------------------------------

/// One query flavour of the session protocol. Like ADVANCE/REPEAT, every
/// variant maps to a distinct trigger signature the tag already knows how
/// to match — the client's choice of signature *is* the feedback channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionQuery {
    /// "Transmit chunk `base + k`" for `k` inside the window.
    Slot(u8),
    /// "I hold every chunk in the current window — slide it forward."
    /// The tag answers with a base report naming the post-slide base.
    Slide,
    /// "Where are you?" The tag answers with a base report naming its
    /// current base. Never changes tag state.
    Resync,
    /// No query this round — the client backs off and lets the channel
    /// (interference burst, brownout) recover.
    Idle,
}

/// What one physical round produced, as seen by the session driver.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Did the tag decode the trigger signature? (Drives tag-side state:
    /// a SLIDE the tag never heard must not slide the window.)
    pub tag_heard: bool,
    /// Channel bits the client read back, or `None` when the whole
    /// block ACK (or the query itself) was lost.
    pub readout: Option<Vec<u8>>,
}

/// Tag-side session state machine: a message chopped into chunks behind
/// a selective-repeat window.
///
/// Chunk 0 is the header: `[len(12) ‖ crc8(message)(8)]`, so the client
/// learns the chunk count and an end-to-end checksum from the first
/// decode. Chunks `1..` carry 20 payload bits each.
///
/// State mutation is split into [`serve`](Self::serve) (pure — builds
/// the response bits) and [`commit`](Self::commit) (applied only when
/// the tag physically decoded the trigger), so a query the tag never
/// heard leaves it exactly where it was.
#[derive(Debug, Clone)]
pub struct SessionSender {
    chunks: Vec<u32>,
    window: usize,
    base: usize,
    /// A SLIDE has been applied and no SLOT has been served since. Makes
    /// repeated SLIDEs idempotent: the client may re-ask when it lost
    /// the base report, without the window running away.
    slid: bool,
}

impl SessionSender {
    /// Frame a message for a session with the given window (1..=[`MAX_WINDOW`]).
    pub fn new(message: &[u8], window: usize) -> Result<Self, TagnetError> {
        let chunks = source_block(message)?;
        if window == 0 || window > MAX_WINDOW {
            return Err(TagnetError::WindowOutOfRange { window });
        }
        Ok(SessionSender {
            chunks,
            window,
            base: 0,
            slid: false,
        })
    }

    /// Total chunks including the header.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Current window base (absolute chunk index).
    pub fn base(&self) -> usize {
        self.base
    }

    fn slide_target(&self) -> usize {
        if self.slid {
            self.base
        } else {
            (self.base + self.window).min(self.chunks.len())
        }
    }

    /// Write the response to one query into `out` (the query's channel
    /// bits). Pure: call [`commit`](Self::commit) afterwards iff the tag
    /// actually decoded the trigger.
    pub fn serve(&self, query: &SessionQuery, out: &mut [u8]) -> Result<(), TagnetError> {
        match *query {
            SessionQuery::Slot(k) => {
                if (k as usize) >= self.window {
                    return Err(TagnetError::SlotOutOfWindow {
                        slot: k,
                        window: self.window,
                    });
                }
                let abs = self.base + k as usize;
                match self.chunks.get(abs) {
                    Some(&chunk) => encode_chunk((abs % 16) as u8, chunk, out),
                    None => {
                        out.fill(1); // idle fill past the end
                        Ok(())
                    }
                }
            }
            SessionQuery::Slide => {
                let target = self.slide_target();
                encode_chunk((target % 16) as u8, base_report_payload(target), out)
            }
            SessionQuery::Resync => {
                encode_chunk((self.base % 16) as u8, base_report_payload(self.base), out)
            }
            SessionQuery::Idle => {
                out.fill(1);
                Ok(())
            }
        }
    }

    /// Apply the state effect of a query the tag *did* hear.
    pub fn commit(&mut self, query: &SessionQuery) {
        match *query {
            SessionQuery::Slot(_) => self.slid = false,
            SessionQuery::Slide => {
                if !self.slid {
                    self.base = (self.base + self.window).min(self.chunks.len());
                    self.slid = true;
                }
            }
            SessionQuery::Resync | SessionQuery::Idle => {}
        }
    }
}

/// Base-report payload: `[BASE_REPORT_MAGIC(8) ‖ base mod 4096(12)]`.
/// Crate-wide so the fountain transport reuses the same control-report
/// framing for its INFO/SYNC responses.
pub(crate) fn base_report_payload(base: usize) -> u32 {
    (u32::from(BASE_REPORT_MAGIC) << 12) | (base as u32 & 0xFFF)
}

/// Parse a decoded chunk payload as a base report; the chunk seq must
/// echo the reported base mod 16 (a cheap consistency check on top of
/// the CRC). A payload wider than [`CHUNK_PAYLOAD_BITS`] is no base
/// report. Public so external session drivers (the `witag-net` fleet
/// layer) can interpret slide/resync responses without reimplementing
/// the framing.
// lint:no_alloc
pub fn parse_base_report(seq: u8, payload: u32) -> Option<usize> {
    if payload >> 12 != u32::from(BASE_REPORT_MAGIC) {
        return None;
    }
    let base = (payload & 0xFFF) as usize;
    (seq == (base % 16) as u8).then_some(base)
}

/// Session tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Selective-repeat window, 1..=[`MAX_WINDOW`].
    pub window: usize,
    /// Hard budget of rounds (queries + idle rounds) before giving up.
    pub max_rounds: usize,
    /// Redundancy ceiling for rate stepping (copies per attempt; a
    /// session starts at one).
    pub max_diversity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            window: 4,
            max_rounds: 4096,
            max_diversity: 3,
        }
    }
}

/// Chunk-attempt outcomes remembered for rate adaptation.
const RATE_HISTORY_LEN: usize = 8;
/// Error rate over the history above which redundancy steps up.
const ERR_HIGH: f64 = 0.35;
/// Error rate over the history below which redundancy steps back down.
const ERR_LOW: f64 = 0.125;
/// Consecutive dead rounds before a session driver (ARQ or fountain)
/// goes quiet.
const BACKOFF_THRESHOLD: usize = 4;
/// Cap on the exponential backoff: a quiet period is at most
/// `2^MAX_BACKOFF_EXP` idle rounds.
const MAX_BACKOFF_EXP: u32 = 4;

/// Why a session ended without the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFailure {
    /// Round budget ran out before every chunk was recovered.
    BudgetExhausted,
    /// All chunks decoded but the end-to-end CRC disagreed — the
    /// transport refuses to hand over silently corrupted bytes.
    CrcMismatch,
}

/// Terminal state of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// CRC-verified message bytes.
    Delivered(Vec<u8>),
    /// The session ended without a verified message.
    Failed(SessionFailure),
}

/// Per-session counters: everything needed for goodput-vs-raw analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Physical rounds consumed (queries + idle backoff rounds).
    pub rounds: usize,
    /// Rounds that carried a real query (non-idle).
    pub queries: usize,
    /// Rounds deliberately spent idle (backoff).
    pub idle_rounds: usize,
    /// Slot queries beyond the first attempt for each chunk.
    pub retransmissions: usize,
    /// RESYNC queries issued.
    pub resyncs: usize,
    /// SLIDE queries issued.
    pub slides: usize,
    /// Rounds where the trigger or the whole block ACK was lost.
    pub losses: usize,
    /// Readouts that failed chunk CRC / FEC decoding.
    pub crc_failures: usize,
    /// Decodes carrying a stale sequence number (desync evidence).
    pub desync_events: usize,
    /// Redundancy increases (rate steps *down* in goodput terms).
    pub rate_downs: usize,
    /// Redundancy decreases.
    pub rate_ups: usize,
    /// Distinct payload bits recovered (chunk payloads, incl. header).
    pub payload_bits: usize,
    /// Raw channel bits the consumed queries could have carried.
    pub raw_bits: usize,
}

impl SessionStats {
    /// Useful payload bits per raw channel bit spent (0 when nothing
    /// was spent). The gap to 1.0 is the resilience overhead.
    pub fn goodput_ratio(&self) -> f64 {
        if self.raw_bits == 0 {
            0.0
        } else {
            self.payload_bits as f64 / self.raw_bits as f64
        }
    }
}

/// Full result of a session driver: [`run_session`] reports
/// [`SessionStats`], [`run_fountain_session`] [`FountainStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport<S = SessionStats> {
    /// How the session ended. `CrcMismatch` means every chunk was
    /// recovered but the end-to-end CRC disagreed: neither transport
    /// hands over silently corrupted bytes.
    pub outcome: SessionOutcome,
    /// Everything that was spent getting there.
    pub stats: S,
}

impl<S> SessionReport<S> {
    /// Convenience: the delivered bytes, if any.
    pub fn delivered(&self) -> Option<&[u8]> {
        match &self.outcome {
            SessionOutcome::Delivered(bytes) => Some(bytes),
            SessionOutcome::Failed(_) => None,
        }
    }
}

/// Client side of the selective-repeat window: the client's belief of
/// the tag's window base and the chunks decoded so far, chunk 0 (the
/// header: message length and end-to-end CRC) included.
///
/// [`run_session`] drives one per session; an external driver that
/// multiplexes many sessions (the `witag-net` fleet engine) steps one
/// per link with its own query policy.
#[derive(Debug, Clone)]
pub struct ReceiveWindow {
    window: usize,
    /// Only ever updated from decoded base reports (or a slide the
    /// client saw the tag serve), so it cannot silently diverge.
    base: usize,
    /// Decoded chunk payloads by absolute index: the header slot alone
    /// until chunk 0 decodes, then every chunk the header announces.
    got: Vec<Option<u32>>,
}

impl ReceiveWindow {
    /// An empty window of `window` slots at base 0.
    pub fn new(window: usize) -> Self {
        ReceiveWindow {
            window,
            base: 0,
            got: vec![None],
        }
    }

    /// The client's belief of the tag's window base (absolute chunk
    /// index).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Move the window base, after a base report or a served slide.
    pub fn set_base(&mut self, base: usize) {
        self.base = base;
    }

    /// The header chunk, once it has decoded.
    fn header(&self) -> Option<u32> {
        self.got.first().copied().flatten()
    }

    /// Total chunks, header included, once the header has decoded.
    pub fn chunk_count(&self) -> Option<usize> {
        self.header()
            .map(|h| source_count_for_len((h >> 8) as usize))
    }

    fn have(&self, abs: usize) -> bool {
        self.got.get(abs).is_some_and(|c| c.is_some())
    }

    /// First missing slot in the current window, if any. Before the
    /// header decodes only chunk 0 is actionable.
    pub fn next_missing_slot(&self) -> Option<u8> {
        let end = self.chunk_count().unwrap_or(1);
        (0..self.window as u8).find(|&k| {
            let abs = self.base + k as usize;
            abs < end && !self.have(abs)
        })
    }

    /// Store chunk `abs`'s payload (as [`decode_chunk`] returns it);
    /// chunk 0 is the header, and storing it sizes the window to the
    /// chunk count it announces (the window's one allocation). Returns
    /// the freshly recovered payload bits: 0 for a duplicate, a payload
    /// wider than [`CHUNK_PAYLOAD_BITS`], or a chunk the window does not
    /// hold (any but chunk 0 before the header, or one past the count
    /// the header announces).
    // lint:no_alloc
    pub fn store(&mut self, abs: usize, payload: u32) -> usize {
        if payload > PAYLOAD_MAX {
            return 0;
        }
        match self.got.get_mut(abs) {
            Some(slot) if slot.is_none() => *slot = Some(payload),
            _ => return 0,
        }
        if abs == 0 {
            let n = source_count_for_len((payload >> 8) as usize);
            self.got.resize(n, None);
        }
        CHUNK_PAYLOAD_BITS
    }

    /// Whether the header and every chunk it announces have decoded.
    pub fn complete(&self) -> bool {
        self.header().is_some() && self.got.iter().all(Option::is_some)
    }

    /// Reassemble the message and check its end-to-end CRC. `None`
    /// before [`complete`](Self::complete) or on a CRC mismatch.
    pub fn assemble(&self) -> Option<Vec<u8>> {
        assemble_message(self.header()?, self.got.get(1..)?)
    }
}

/// The ARQ driver's client logic: query choice, diversity copies,
/// chase combining, confirmation and rate adaptation.
struct SessionClient {
    cfg: SessionConfig,
    win: ReceiveWindow,
    diversity: usize,
    history: VecDeque<bool>,
    pending_resync: bool,
    attempts: Vec<u32>,
    /// Soft-decision store: every modulated (non-idle) readout seen for
    /// a chunk, kept across attempts so late copies can rescue early
    /// ones by majority vote. This is the structural edge over
    /// stop-and-wait, which throws each damaged reception away.
    soft: Vec<Vec<Vec<u8>>>,
    /// Majority-combined decodes awaiting confirmation. A 12-bit
    /// seq+CRC check is too weak to accept a vote over garbage outright
    /// (~1 in 4k false accepts adds up over a long transfer), so a
    /// combined result only counts once a second, independent decode
    /// reproduces the identical payload.
    unconfirmed: Vec<Option<u32>>,
    /// Soft store for control queries (SLIDE/RESYNC). Their report
    /// content is constant while the client's base belief is, so copies
    /// accumulate under a `(kind, base)` key and reset when it changes.
    control_soft: Vec<Vec<u8>>,
    control_key: Option<(bool, usize)>,
}

/// Cap on stored soft copies per chunk (oldest evicted first).
const SOFT_COPIES_CAP: usize = 12;

impl SessionClient {
    fn new(cfg: SessionConfig) -> Self {
        SessionClient {
            win: ReceiveWindow::new(cfg.window),
            cfg,
            diversity: 1,
            history: VecDeque::new(),
            pending_resync: false,
            attempts: Vec::new(),
            soft: Vec::new(),
            unconfirmed: Vec::new(),
            control_soft: Vec::new(),
            control_key: None,
        }
    }

    /// Record a chunk-attempt outcome and adapt the redundancy level.
    fn adapt_rate(&mut self, success: bool, stats: &mut SessionStats) {
        self.history.push_back(success);
        if self.history.len() < RATE_HISTORY_LEN {
            return;
        }
        while self.history.len() > RATE_HISTORY_LEN {
            self.history.pop_front();
        }
        let errs = self.history.iter().filter(|&&ok| !ok).count();
        let err_rate = errs as f64 / self.history.len() as f64;
        if err_rate > ERR_HIGH && self.diversity < self.cfg.max_diversity {
            self.diversity += 1;
            stats.rate_downs += 1;
            self.history.clear();
        } else if err_rate < ERR_LOW && self.diversity > 1 {
            self.diversity -= 1;
            stats.rate_ups += 1;
            self.history.clear();
        }
    }

    /// One attempt: pick a query and play up to `diversity` copies of it
    /// through `lp`.
    fn attempt(&mut self, lp: &mut RoundLoop<'_, SessionSender>) -> Result<(), TagnetError> {
        let channel_bits = lp.tx.len();
        // Pick this attempt's query. A pending resync outranks data; a
        // fully-recovered window slides; otherwise fetch the first hole.
        let (q, expected_seq) = if self.pending_resync {
            (SessionQuery::Resync, None)
        } else {
            match self.win.next_missing_slot() {
                None => (SessionQuery::Slide, None),
                Some(k) => (
                    SessionQuery::Slot(k),
                    Some(((self.win.base() + k as usize) % 16) as u8),
                ),
            }
        };

        // One attempt = up to `diversity` copies of the same query, with
        // an early exit on the first accepted decode. Slides and resyncs
        // go through the same machinery as data slots: inside a burst, a
        // lone unprotected control query would stall the whole transfer
        // at the window boundary.
        //
        // Data slots chase-combine per copy: every modulated readout
        // lands in the chunk's soft store immediately and the store is
        // re-voted on the spot, so an accept happens on the earliest
        // copy that tips the majority, not at the attempt boundary. In a
        // noisy regime a lone valid decode (direct or combined) is only
        // a *candidate* — acceptance waits for a second decode, fed by
        // at least one fresh copy, to reproduce the identical payload.
        let needs_confirm_pre = self.diversity > 1 || self.history.iter().any(|&ok| !ok);
        let slot_abs = match q {
            SessionQuery::Slot(k) => Some(self.win.base() + k as usize),
            _ => None,
        };
        // The per-chunk stores grow together, so they share one length.
        if let Some(abs) = slot_abs.filter(|&abs| abs >= self.soft.len()) {
            self.soft.resize(abs + 1, Vec::new());
            self.unconfirmed.resize(abs + 1, None);
            self.attempts.resize(abs + 1, 0);
        }
        let mut issued = 0usize;
        let mut copies: Vec<Vec<u8>> = Vec::new();
        let mut decoded: Option<(u8, u32)> = None;
        let mut candidate: Option<(u8, u32)> = None;
        let mut desynced = false;
        let mut heard_anything = false;
        'attempt: for _ in 0..self.diversity {
            if !lp.budget_left() {
                break;
            }
            let out = lp.round(&q)?;
            issued += 1;
            // No readout, or the pure idle pattern: the tag never
            // modulated (brownout, missed trigger). Dead air — and
            // poison for the combiner, so keep it out.
            let Some(bits) = out.readout.filter(|bits| bits.iter().any(|&b| b != 1)) else {
                lp.stats.losses += 1;
                continue;
            };
            heard_anything = true;
            match decode_chunk(&bits, channel_bits) {
                Some((seq, payload)) => {
                    let valid = match expected_seq {
                        Some(want) => seq == want,
                        None => parse_base_report(seq, payload).is_some(),
                    };
                    if valid {
                        let confirmed = match slot_abs {
                            Some(abs) => {
                                let stashed = self.unconfirmed[abs] == Some(payload); // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                                !needs_confirm_pre
                                    || candidate.is_some_and(|(_, p)| p == payload)
                                    || stashed
                            }
                            // Control reports carry ~20 check bits
                            // (CRC + magic + seq): strong enough to
                            // stand alone.
                            None => true,
                        };
                        if confirmed {
                            decoded = Some((seq, payload));
                            break;
                        }
                        candidate = Some((seq, payload));
                    } else if expected_seq.is_some() {
                        // Decodable but stale: the tag's window is
                        // elsewhere.
                        lp.stats.desync_events += 1;
                        desynced = true;
                    } else {
                        lp.stats.crc_failures += 1;
                    }
                }
                None => lp.stats.crc_failures += 1,
            }
            match slot_abs {
                Some(abs) => {
                    // Per-copy chase combining over the persistent soft
                    // store. Votes need 3+ copies: with two, the
                    // tie-break reduces the "combine" to the older copy
                    // verbatim, which could rubber-stamp itself.
                    let combo = {
                        let store = &mut self.soft[abs]; // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                        store.push(bits);
                        while store.len() > SOFT_COPIES_CAP {
                            store.remove(0);
                        }
                        if store.len() >= 3 {
                            decode_chunk(&majority_combine(store), channel_bits)
                        } else {
                            None
                        }
                    };
                    if let Some((seq, payload)) = combo {
                        if expected_seq == Some(seq) {
                            let confirmed = !needs_confirm_pre
                                || candidate.is_some_and(|(_, p)| p == payload)
                                || self.unconfirmed[abs] == Some(payload); // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                            if confirmed {
                                decoded = Some((seq, payload));
                                break 'attempt;
                            }
                            self.unconfirmed[abs] = Some(payload); // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                        }
                    }
                }
                None => copies.push(bits),
            }
            if matches!(q, SessionQuery::Slide) {
                // Any modulated readout proves the tag served (and so
                // committed) this slide; the target is client-predicted
                // below, no decode needed.
                break;
            }
        }
        // An unconfirmed lone decode still moves the attempt forward:
        // it becomes the pending candidate via the stash logic below.
        let unconfirmed_decode = decoded.is_none() && candidate.is_some();
        decoded = decoded.or(candidate);
        // Control reports are constant while the client's base belief
        // is, so their copies accumulate too — under a key that resets
        // the store whenever that belief (or the query kind) changes.
        let fresh_copies = copies.len();
        if matches!(q, SessionQuery::Slide | SessionQuery::Resync) {
            let key = (matches!(q, SessionQuery::Slide), self.win.base());
            if self.control_key != Some(key) {
                self.control_soft.clear();
                self.control_key = Some(key);
            }
            if decoded.is_none() {
                self.control_soft.append(&mut copies);
                while self.control_soft.len() > SOFT_COPIES_CAP {
                    self.control_soft.remove(0);
                }
                copies = self.control_soft.clone();
            }
        }
        // Combine the accumulated control copies. The freshness guard
        // matters: re-combining an unchanged store would just reproduce
        // the previous round's result.
        if decoded.is_none() && fresh_copies > 0 && copies.len() >= 2 {
            if let Some((seq, payload)) = decode_chunk(&majority_combine(&copies), channel_bits) {
                if parse_base_report(seq, payload).is_some() {
                    decoded = Some((seq, payload));
                }
            }
        }

        match q {
            SessionQuery::Slot(k) => {
                let abs = self.win.base() + k as usize;
                let tries = &mut self.attempts[abs]; // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                if issued > 0 {
                    lp.stats.retransmissions += issued - usize::from(*tries == 0);
                }
                *tries = tries.saturating_add(issued as u32);
                // seq+CRC8 is only 12 check bits; over thousands of
                // garbage decodes a collision is a near-certainty, so in
                // noisy regimes EVERY accept needs a second, independent
                // decode to reproduce the identical payload. Decodes
                // confirmed inside the loop already had one; a lone
                // candidate gets stashed until a later decode agrees.
                if unconfirmed_decode {
                    let payload = decoded.map(|(_, p)| p);
                    let slot = &mut self.unconfirmed[abs]; // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                    if payload.is_some() && *slot != payload {
                        *slot = payload;
                        decoded = None;
                    }
                }
                match decoded {
                    Some((_, payload)) => {
                        lp.stats.payload_bits += self.win.store(abs, payload);
                        if lp.rec.enabled() {
                            lp.rec.record(&Event::SessionChunk {
                                round: lp.stats.rounds as u64,
                                chunk: abs as u32,
                            });
                        }
                        self.soft[abs] = Vec::new(); // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                        self.unconfirmed[abs] = None; // lint:allow(panic_path) resized to abs + 1 where slot_abs is derived
                        lp.progressed();
                        self.adapt_rate(true, &mut lp.stats);
                    }
                    None => {
                        // Dead air drives backoff; noisy-but-alive air
                        // drives redundancy instead — conflating the two
                        // would idle through interference the combiner
                        // could have worked around.
                        lp.count_dead(!heard_anything);
                        self.adapt_rate(false, &mut lp.stats);
                        if desynced {
                            self.pending_resync = true;
                        }
                    }
                }
            }
            SessionQuery::Slide | SessionQuery::Resync => {
                if matches!(q, SessionQuery::Slide) {
                    lp.stats.slides += issued;
                } else {
                    lp.stats.resyncs += issued;
                }
                let base = match decoded {
                    // `decoded` only holds a control report that already
                    // parsed as a base report.
                    Some((seq, payload)) => parse_base_report(seq, payload),
                    // The report itself was garbled, but a modulated
                    // readout proves the tag served the slide — and the
                    // slid-latch makes the commit exact — so the client
                    // advances to the predicted target. If the
                    // "modulation" was actually interference over dead
                    // air, the next slot's stale sequence number flags
                    // the desync and a resync repairs the base. A slide
                    // is only issued with the window fully decoded, so
                    // the header — and with it the total chunk count —
                    // is always in hand by now.
                    None if matches!(q, SessionQuery::Slide) && heard_anything => {
                        let total = self.win.chunk_count().unwrap_or(usize::MAX);
                        Some((self.win.base() + self.cfg.window).min(total))
                    }
                    None => None,
                };
                let Some(base) = base else {
                    lp.count_dead(!heard_anything);
                    return Ok(());
                };
                self.win.set_base(base);
                if lp.rec.enabled() {
                    lp.rec.record(&Event::SessionResync {
                        round: lp.stats.rounds as u64,
                        base: base as u32,
                    });
                }
                // A slide is only chosen with no resync pending.
                self.pending_resync = false;
                lp.progressed();
                self.control_soft.clear();
                self.control_key = None;
            }
            SessionQuery::Idle => unreachable!("idle is only issued from the backoff path"),
        }
        Ok(())
    }
}

/// Majority-combine several noisy copies of the same transmission
/// (Chase combining at bit granularity). Ties fall back to the first
/// copy's bit.
fn majority_combine(copies: &[Vec<u8>]) -> Vec<u8> {
    let n = copies.iter().map(|c| c.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            let ones = copies.iter().filter(|c| c[i] != 0).count();
            match (2 * ones).cmp(&copies.len()) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => copies[0][i],
            }
        })
        .collect()
}

/// The tag side of a session transport, as [`RoundLoop`] drives it: its
/// query vocabulary and its stats. `serve` and `commit` forward to the
/// inherent methods, which the `witag-net` fleet calls directly.
trait Transport {
    type Query: PartialEq;
    type Stats: Default;
    /// The query of a backoff round.
    const IDLE: Self::Query;

    fn serve(&mut self, query: &Self::Query, out: &mut [u8]) -> Result<(), TagnetError>;
    fn commit(&mut self, query: &Self::Query);
    /// The `query` and `slot` fields of `session_query`.
    fn label(query: &Self::Query) -> (&'static str, Option<u8>);
    /// The stats' `rounds`, `queries`, `idle_rounds` and `raw_bits`.
    fn counters(stats: &mut Self::Stats) -> [&mut usize; 4];
    /// The closing `session_done`.
    fn done_event(stats: &Self::Stats, delivered: bool) -> Event;
}

impl Transport for SessionSender {
    type Query = SessionQuery;
    type Stats = SessionStats;
    const IDLE: SessionQuery = SessionQuery::Idle;

    fn serve(&mut self, query: &SessionQuery, out: &mut [u8]) -> Result<(), TagnetError> {
        SessionSender::serve(self, query, out)
    }

    fn commit(&mut self, query: &SessionQuery) {
        SessionSender::commit(self, query);
    }

    fn label(query: &SessionQuery) -> (&'static str, Option<u8>) {
        match query {
            SessionQuery::Slot(k) => ("slot", Some(*k)),
            SessionQuery::Slide => ("slide", None),
            SessionQuery::Resync => ("resync", None),
            SessionQuery::Idle => ("idle", None),
        }
    }

    fn counters(s: &mut SessionStats) -> [&mut usize; 4] {
        [
            &mut s.rounds,
            &mut s.queries,
            &mut s.idle_rounds,
            &mut s.raw_bits,
        ]
    }

    fn done_event(s: &SessionStats, delivered: bool) -> Event {
        Event::SessionDone {
            round: s.rounds as u64,
            delivered,
            queries: s.queries as u32,
            idle_rounds: s.idle_rounds as u32,
            retransmissions: s.retransmissions as u32,
            resyncs: s.resyncs as u32,
            payload_bits: s.payload_bits as u32,
        }
    }
}

impl Transport for FountainSender {
    type Query = FountainQuery;
    type Stats = FountainStats;
    const IDLE: FountainQuery = FountainQuery::Idle;

    fn serve(&mut self, query: &FountainQuery, out: &mut [u8]) -> Result<(), TagnetError> {
        FountainSender::serve(self, query, out)
    }

    fn commit(&mut self, query: &FountainQuery) {
        FountainSender::commit(self, query);
    }

    fn label(query: &FountainQuery) -> (&'static str, Option<u8>) {
        let label = match query {
            FountainQuery::Symbol => "symbol",
            FountainQuery::Info => "info",
            FountainQuery::Sync => "sync",
            FountainQuery::Idle => "idle",
        };
        (label, None)
    }

    fn counters(s: &mut FountainStats) -> [&mut usize; 4] {
        [
            &mut s.rounds,
            &mut s.queries,
            &mut s.idle_rounds,
            &mut s.raw_bits,
        ]
    }

    /// Field mapping for the shared `session_done` kind:
    /// `retransmissions` is the rateless overhead (symbol rounds that
    /// bought no accepted symbol), `resyncs` counts SYNC queries.
    fn done_event(s: &FountainStats, delivered: bool) -> Event {
        Event::SessionDone {
            round: s.rounds as u64,
            delivered,
            queries: s.queries as u32,
            idle_rounds: s.idle_rounds as u32,
            retransmissions: s.symbols.saturating_sub(s.accepted) as u32,
            resyncs: s.syncs as u32,
            payload_bits: s.payload_bits as u32,
        }
    }
}

/// One physical round of a session's channel: query, the tag's channel
/// bits and the recorder lent for the round.
type Channel<'a, T> =
    dyn FnMut(&<T as Transport>::Query, &[u8], &mut dyn Recorder) -> RoundOutcome + 'a;

/// The round loop both session drivers run their client logic through:
/// it owns the tag and its channel bits, plays every round, counts it,
/// runs the backoff periods and ends the session.
struct RoundLoop<'a, T: Transport> {
    tag: T,
    /// The tag's channel bits, rewritten every round.
    tx: Vec<u8>,
    channel: &'a mut Channel<'a, T>,
    rec: &'a mut dyn Recorder,
    max_rounds: usize,
    stats: T::Stats,
    /// Dead rounds (or ARQ attempts) in a row.
    dead_streak: usize,
    /// The next quiet period lasts `2^backoff_level` idle rounds.
    backoff_level: u32,
}

impl<'a, T: Transport> RoundLoop<'a, T> {
    /// A loop over `tag` with `channel_bits`-bit queries. Surfaces an
    /// undersized query once, up front, instead of per round.
    fn new(
        tag: T,
        channel_bits: usize,
        max_rounds: usize,
        rec: &'a mut dyn Recorder,
        channel: &'a mut Channel<'a, T>,
    ) -> Result<Self, TagnetError> {
        let mut tx = vec![0u8; channel_bits];
        encode_chunk(0, 0, &mut tx)?;
        Ok(RoundLoop {
            tag,
            tx,
            channel,
            rec,
            max_rounds,
            stats: T::Stats::default(),
            dead_streak: 0,
            backoff_level: 0,
        })
    }

    fn rounds(&mut self) -> usize {
        *T::counters(&mut self.stats)[0]
    }

    fn budget_left(&mut self) -> bool {
        self.rounds() < self.max_rounds
    }

    /// A decode got through: the dead streak and the backoff level
    /// start over.
    fn progressed(&mut self) {
        self.dead_streak = 0;
        self.backoff_level = 0;
    }

    /// No decode got through: dead air extends the dead streak, a
    /// modulated reply ends it.
    fn count_dead(&mut self, dead: bool) {
        self.dead_streak = if dead { self.dead_streak + 1 } else { 0 };
    }

    /// Play one round: serve `query`, run the channel, count the round,
    /// commit the query if the tag heard it, and emit `session_query`
    /// after the channel's own events.
    fn round(&mut self, query: &T::Query) -> Result<RoundOutcome, TagnetError> {
        self.tag.serve(query, &mut self.tx)?;
        let out = (self.channel)(query, &self.tx, &mut *self.rec);
        let [rounds, queries, idle_rounds, raw_bits] = T::counters(&mut self.stats);
        let round = *rounds as u64;
        *rounds += 1;
        if *query == T::IDLE {
            *idle_rounds += 1;
        } else {
            *queries += 1;
            *raw_bits += self.tx.len();
        }
        if out.tag_heard {
            self.tag.commit(query);
        }
        if self.rec.enabled() {
            let (query, slot) = T::label(query);
            self.rec.record(&Event::SessionQuery {
                round,
                query,
                slot,
                heard: out.tag_heard,
                readout: out.readout.is_some(),
            });
        }
        Ok(out)
    }

    /// A quiet period after a streak of dead rounds: `session_backoff`,
    /// then `2^min(level, MAX_BACKOFF_EXP)` idle rounds, cut short by
    /// the budget; the next period is twice as long, up to the cap.
    fn back_off(&mut self) -> Result<(), TagnetError> {
        let idle = 1usize << self.backoff_level.min(MAX_BACKOFF_EXP);
        if self.rec.enabled() {
            let round = self.rounds() as u64;
            self.rec.record(&Event::SessionBackoff {
                round,
                idle_rounds: idle as u32,
                level: self.backoff_level,
            });
        }
        for _ in 0..idle {
            if !self.budget_left() {
                break;
            }
            self.round(&T::IDLE)?;
        }
        self.backoff_level = (self.backoff_level + 1).min(MAX_BACKOFF_EXP);
        self.dead_streak = 0;
        Ok(())
    }

    /// End the session with exactly one `session_done`. `assembled` is
    /// the receiver's message once it is complete (`Some(None)` when its
    /// end-to-end CRC disagrees); `None` means the budget ran out first.
    fn finish(self, assembled: Option<Option<Vec<u8>>>) -> SessionReport<T::Stats> {
        let outcome = match assembled {
            Some(Some(bytes)) => SessionOutcome::Delivered(bytes),
            Some(None) => SessionOutcome::Failed(SessionFailure::CrcMismatch),
            None => SessionOutcome::Failed(SessionFailure::BudgetExhausted),
        };
        if self.rec.enabled() {
            let delivered = matches!(outcome, SessionOutcome::Delivered(_));
            self.rec.record(&T::done_event(&self.stats, delivered));
        }
        SessionReport {
            outcome,
            stats: self.stats,
        }
    }
}

/// Drive a complete message through the resilient session transport.
///
/// `channel` executes one physical round: it receives the query flavour,
/// the tag's channel bits and the session's recorder (lent for the
/// round, so the channel's own events land in order), and reports
/// whether the tag heard the trigger plus what the client read back
/// (`None` = nothing at all). For [`SessionQuery::Idle`] the driver
/// still calls `channel` so the simulation can advance time; the
/// readout is ignored.
///
/// The driver emits `session_query` (every physical round, idle
/// included, after the channel's events), `session_backoff` (each quiet
/// period), `session_chunk` (each accepted chunk), `session_resync`
/// (each window-base update) and exactly one `session_done` event into
/// `rec`, all stamped with the session's 0-based round counter.
/// Emission is gated on [`Recorder::enabled`].
///
/// The returned report never contains silently corrupted bytes: either
/// the end-to-end CRC verified, or the outcome says why not.
pub fn run_session<F>(
    message: &[u8],
    channel_bits: usize,
    cfg: &SessionConfig,
    rec: &mut dyn Recorder,
    mut channel: F,
) -> Result<SessionReport, TagnetError>
where
    F: FnMut(&SessionQuery, &[u8], &mut dyn Recorder) -> RoundOutcome,
{
    let tag = SessionSender::new(message, cfg.window)?;
    let mut lp = RoundLoop::new(tag, channel_bits, cfg.max_rounds, rec, &mut channel)?;
    let mut client = SessionClient::new(cfg.clone());
    while lp.budget_left() && !client.win.complete() {
        if lp.dead_streak >= BACKOFF_THRESHOLD {
            lp.back_off()?;
            // Re-establish the window after the quiet period.
            client.pending_resync = true;
        } else {
            client.attempt(&mut lp)?;
        }
    }
    let assembled = client.win.complete().then(|| client.win.assemble());
    Ok(lp.finish(assembled))
}

/// Run a session over a live [`Experiment`](crate::experiment::Experiment):
/// the standard glue between the transport and the physical simulation.
///
/// * the tag "hears" a query iff the round's trigger matched,
/// * a lost block ACK (natural or fault-injected) yields no readout,
/// * [`SessionQuery::Idle`] burns real airtime via
///   [`run_idle`](crate::experiment::Experiment::run_idle) so fault
///   episodes and energy harvesting progress while the client is quiet.
///
/// The session driver's events (`session_*`) and the experiment rounds'
/// events (`fault`, `phy_rx`, `ba`, `round`) interleave into `rec` in
/// execution order, sharing the session's round numbering (the
/// experiment's trace base is reset to 0 so both stamps line up).
pub fn session_over_experiment(
    exp: &mut crate::experiment::Experiment,
    message: &[u8],
    cfg: &SessionConfig,
    rec: &mut dyn Recorder,
) -> Result<SessionReport, TagnetError> {
    let channel_bits = exp.design.bits_per_query();
    exp.set_trace_base(0);
    run_session(message, channel_bits, cfg, rec, |q, tx, rec| {
        experiment_round(exp, matches!(q, SessionQuery::Idle), tx, rec)
    })
}

/// The channel glue both session drivers share over an
/// [`Experiment`](crate::experiment::Experiment): burn one idle round
/// or play `tx` as one query round, and map it to a [`RoundOutcome`].
fn experiment_round(
    exp: &mut crate::experiment::Experiment,
    idle: bool,
    tx: &[u8],
    rec: &mut dyn Recorder,
) -> RoundOutcome {
    if idle {
        exp.run_idle(rec);
        return RoundOutcome {
            tag_heard: false,
            readout: None,
        };
    }
    let r = exp.run_round_obs(tx, rec);
    RoundOutcome {
        tag_heard: r.triggered,
        readout: (!r.ba_lost).then_some(r.readout.bits),
    }
}

/// Accept-EWMA level below which the fountain driver treats the channel
/// as degraded and backs off at half of [`BACKOFF_THRESHOLD`] — the
/// adaptive symbol-rate control: a channel that is eating symbols gets
/// them more slowly.
const ACCEPT_EWMA_LOW: f64 = 0.25;

/// Per-fountain-session counters, the rateless analogue of
/// [`SessionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FountainStats {
    /// Physical rounds consumed (queries + idle backoff rounds).
    pub rounds: usize,
    /// Rounds that carried a real query (non-idle).
    pub queries: usize,
    /// Rounds deliberately spent idle (backoff).
    pub idle_rounds: usize,
    /// SYMBOL queries issued.
    pub symbols: usize,
    /// Rounds whose readout decoded and folded in (symbols absorbed
    /// plus accepted INFO/SYNC reports).
    pub accepted: usize,
    /// INFO queries issued.
    pub infos: usize,
    /// SYNC queries issued.
    pub syncs: usize,
    /// Rounds with dead air (lost query/readout or silent tag).
    pub losses: usize,
    /// Modulated readouts that failed chunk CRC / FEC decoding.
    pub crc_failures: usize,
    /// Distinct payload bits recovered (solved source chunks, header
    /// included).
    pub payload_bits: usize,
    /// Raw channel bits the consumed queries could have carried.
    pub raw_bits: usize,
}

impl FountainStats {
    /// Useful payload bits per raw channel bit spent (0 when nothing
    /// was spent). The gap to 1.0 is the rateless overhead plus the
    /// channel's losses.
    pub fn goodput_ratio(&self) -> f64 {
        if self.raw_bits == 0 {
            0.0
        } else {
            self.payload_bits as f64 / self.raw_bits as f64
        }
    }
}

/// Deliver `message` over the rateless fountain transport: the tag
/// streams robust-soliton coded symbols and the client absorbs them in
/// any order until its decoder completes — the block-ACK readouts *are*
/// the "enough" feedback, so no per-chunk ARQ state exists on either
/// side. See [`crate::fountain`] for the codec and the protocol state
/// machines; semantics of `channel` (the recorder lent for each round
/// included) match [`run_session`]. The session gives up after
/// `max_rounds` rounds (queries + idle rounds).
///
/// Into `rec` the driver emits `session_query` (every round, with the
/// fountain vocabulary `"symbol"` / `"info"` / `"sync"` / `"idle"`),
/// `tagnet.symbol` (every SYMBOL round), `tagnet.decode_progress` (every
/// solve), `session_backoff` (each quiet period) and exactly one
/// `session_done`. Emission is gated on [`Recorder::enabled`].
pub fn run_fountain_session<F>(
    message: &[u8],
    channel_bits: usize,
    max_rounds: usize,
    rec: &mut dyn Recorder,
    mut channel: F,
) -> Result<SessionReport<FountainStats>, TagnetError>
where
    F: FnMut(&FountainQuery, &[u8], &mut dyn Recorder) -> RoundOutcome,
{
    let tag = FountainSender::new(message)?;
    let mut lp = RoundLoop::new(tag, channel_bits, max_rounds, rec, &mut channel)?;
    let mut recv = FountainReceiver::new();
    // Accept EWMA: the decode-progress signal the rate control watches.
    // Starts optimistic so a clean channel never pays a warmup tax.
    let mut accept_ewma = 1.0f64;
    while lp.budget_left() && !recv.complete() {
        // Adaptive backoff: dead air drives the streak, and a low
        // accept EWMA halves the patience — the symbol rate degrades
        // gracefully with the channel instead of burning budget.
        let threshold = if accept_ewma < ACCEPT_EWMA_LOW {
            (BACKOFF_THRESHOLD / 2).max(1)
        } else {
            BACKOFF_THRESHOLD
        };
        if lp.dead_streak >= threshold {
            lp.back_off()?;
            // The quiet period is exactly when counter drift sneaks in
            // (brownouts, missed triggers): re-learn it cheaply.
            recv.request_sync();
            continue;
        }
        let q = recv.next_query();
        let out = lp.round(&q)?;
        match q {
            FountainQuery::Symbol => lp.stats.symbols += 1,
            FountainQuery::Info => lp.stats.infos += 1,
            FountainQuery::Sync => lp.stats.syncs += 1,
            // `next_query` never returns Idle; idle rounds only come
            // from the backoff period.
            FountainQuery::Idle => {}
        }
        let dead = match out.readout.as_deref() {
            None => true,
            Some(bits) => bits.iter().all(|&b| b == 1),
        };
        let solved_before = recv.solved_count();
        let absorbed = recv.absorb(&q, out.readout.as_deref(), lp.tx.len());
        if absorbed.accepted {
            lp.stats.accepted += 1;
            lp.stats.payload_bits += absorbed.solved_bits;
            lp.progressed();
        } else {
            // Noisy but alive: keep streaming — every fresh symbol is
            // new information, unlike an ARQ retransmission.
            *if dead {
                &mut lp.stats.losses
            } else {
                &mut lp.stats.crc_failures
            } += 1;
            lp.count_dead(dead);
        }
        accept_ewma = 0.75 * accept_ewma + 0.25 * f64::from(u8::from(absorbed.accepted));
        if lp.rec.enabled() {
            let round = (lp.stats.rounds - 1) as u64;
            if matches!(q, FountainQuery::Symbol) {
                let esi = if absorbed.accepted {
                    recv.esi_belief().saturating_sub(1)
                } else {
                    recv.esi_belief()
                };
                lp.rec.record(&Event::TagnetSymbol {
                    round,
                    esi,
                    accepted: absorbed.accepted,
                });
            }
            if recv.solved_count() > solved_before {
                lp.rec.record(&Event::TagnetDecodeProgress {
                    round,
                    solved: recv.solved_count() as u32,
                    source: recv.source_count().unwrap_or(0) as u32,
                    received: recv.received() as u32,
                });
            }
        }
    }
    let assembled = recv.complete().then(|| recv.assemble());
    Ok(lp.finish(assembled))
}

/// Run a fountain session over a live
/// [`Experiment`](crate::experiment::Experiment) — the fountain
/// analogue of [`session_over_experiment`], with identical channel
/// semantics (trigger match = tag heard, lost block ACK = no readout,
/// idle rounds burn real airtime) and the same interleaving of driver
/// and round events in `rec`.
pub fn fountain_session_over_experiment(
    exp: &mut crate::experiment::Experiment,
    message: &[u8],
    max_rounds: usize,
    rec: &mut dyn Recorder,
) -> Result<SessionReport<FountainStats>, TagnetError> {
    let channel_bits = exp.design.bits_per_query();
    exp.set_trace_base(0);
    run_fountain_session(message, channel_bits, max_rounds, rec, |q, tx, rec| {
        experiment_round(exp, matches!(q, FountainQuery::Idle), tx, rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_obs::NullRecorder;
    use witag_sim::Rng;

    /// Encode one chunk into a fresh `channel_bits`-bit query.
    fn encoded(seq: u8, payload: u32, channel_bits: usize) -> Vec<u8> {
        let mut tx = vec![0u8; channel_bits];
        encode_chunk(seq, payload, &mut tx).unwrap();
        tx
    }

    #[test]
    fn chunk_roundtrip() {
        let payload = 0x5_5555;
        let tx = encoded(7, payload, 62);
        assert_eq!(tx.len(), 62);
        assert!(tx[56..].iter().all(|&b| b == 1), "idle pad");
        let (seq, rx) = decode_chunk(&tx, 62).expect("clean chunk must decode");
        assert_eq!(seq, 7);
        assert_eq!(rx, payload);
    }

    #[test]
    fn chunk_single_error_corrected_by_fec() {
        let payload = PAYLOAD_MAX;
        let mut tx = encoded(3, payload, 62);
        tx[10] ^= 1;
        let (seq, rx) = decode_chunk(&tx, 62).expect("FEC must fix one flip");
        assert_eq!(seq, 3);
        assert_eq!(rx, payload);
    }

    #[test]
    fn chunk_heavy_damage_detected_by_crc() {
        let mut tx = encoded(3, 0, 62);
        for b in tx.iter_mut().take(20) {
            *b ^= 1;
        }
        assert_eq!(
            decode_chunk(&tx, 62),
            None,
            "CRC must catch what FEC cannot fix"
        );
    }

    #[test]
    fn clean_channel_delivers_in_minimum_queries() {
        let message = b"hello, witag transport!";
        let (got, queries) = deliver(message, 62, 100, |tx| tx.to_vec()).expect("must deliver");
        assert_eq!(&got, message);
        // 23 bytes = 184 bits -> 10 chunks; one query per chunk + final.
        assert!(queries <= 12, "took {queries} queries");
    }

    #[test]
    fn lossy_channel_still_delivers() {
        let message = b"resilient";
        let mut rng = Rng::seed_from_u64(9);
        let (got, queries) = deliver(message, 62, 500, |tx| {
            // 30% of queries are heavily damaged.
            if rng.chance(0.3) {
                tx.iter().map(|&b| b ^ (rng.next_u64() & 1) as u8).collect()
            } else {
                tx.to_vec()
            }
        })
        .expect("ARQ must push the message through");
        assert_eq!(&got, message);
        assert!(
            queries >= 4,
            "damage must have cost retransmissions: {queries}"
        );
    }

    #[test]
    fn hopeless_channel_gives_up() {
        let message = b"never";
        let result = deliver(message, 62, 20, |tx| vec![0u8; tx.len()]);
        assert!(result.is_none());
    }

    #[test]
    fn empty_message_is_trivially_delivered() {
        let (got, _) = deliver(b"", 62, 10, |tx| tx.to_vec()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn framing_errors_are_typed() {
        let mut tx = [0u8; 62];
        assert_eq!(
            encode_chunk(16, 0, &mut tx).unwrap_err(),
            TagnetError::SeqOutOfRange { seq: 16 }
        );
        assert_eq!(
            encode_chunk(0, 1 << CHUNK_PAYLOAD_BITS, &mut tx).unwrap_err(),
            TagnetError::PayloadTooWide {
                payload: 1 << CHUNK_PAYLOAD_BITS
            }
        );
        assert!(matches!(
            encode_chunk(0, 0, &mut tx[..7]).unwrap_err(),
            TagnetError::QueryTooSmall {
                channel_bits: 7,
                ..
            }
        ));
        assert!(matches!(
            SessionSender::new(&[0u8; MAX_MESSAGE_BYTES + 1], 4).unwrap_err(),
            TagnetError::MessageTooLong { .. }
        ));
        assert!(matches!(
            SessionSender::new(b"x", 0).unwrap_err(),
            TagnetError::WindowOutOfRange { window: 0 }
        ));
        let s = SessionSender::new(b"x", 2).unwrap();
        assert!(matches!(
            s.serve(&SessionQuery::Slot(2), &mut tx).unwrap_err(),
            TagnetError::SlotOutOfWindow { slot: 2, window: 2 }
        ));
        // Errors render and behave as std errors.
        let e: Box<dyn std::error::Error> = Box::new(TagnetError::SeqOutOfRange { seq: 16 });
        assert!(e.to_string().contains("4 bits"));
    }

    /// A perfect channel: tag always hears, client always reads truth.
    fn clean_channel(sender_bits: &[u8]) -> RoundOutcome {
        RoundOutcome {
            tag_heard: true,
            readout: Some(sender_bits.to_vec()),
        }
    }

    #[test]
    fn session_delivers_on_clean_channel() {
        let message = b"selective repeat over block-ACK bitmaps";
        let cfg = SessionConfig::default();
        let report = run_session(message, 62, &cfg, &mut NullRecorder, |_q, tx, _rec| {
            clean_channel(tx)
        })
        .unwrap();
        assert_eq!(report.delivered(), Some(message.as_slice()));
        // 39 bytes = 312 bits -> 16 data chunks + header = 17 chunks,
        // plus one slide per 4-chunk window.
        assert!(report.stats.queries <= 17 + 6, "{:?}", report.stats);
        assert_eq!(report.stats.idle_rounds, 0);
        assert_eq!(report.stats.resyncs, 0);
        assert!(report.stats.goodput_ratio() > 0.2);
    }

    #[test]
    fn session_delivers_empty_message() {
        let report = run_session(
            b"",
            62,
            &SessionConfig::default(),
            &mut NullRecorder,
            |_q, tx, _rec| clean_channel(tx),
        )
        .unwrap();
        assert_eq!(report.delivered(), Some(&[][..]));
    }

    #[test]
    fn slide_is_idempotent_until_next_slot() {
        let mut s = SessionSender::new(&[0xAB; 20], 4).unwrap();
        assert_eq!(s.base(), 0);
        s.commit(&SessionQuery::Slide);
        assert_eq!(s.base(), 4);
        // A repeated SLIDE (client lost the report) must not slide again.
        s.commit(&SessionQuery::Slide);
        assert_eq!(s.base(), 4);
        // Resync does not unlatch either.
        s.commit(&SessionQuery::Resync);
        s.commit(&SessionQuery::Slide);
        assert_eq!(s.base(), 4);
        // A served slot does.
        s.commit(&SessionQuery::Slot(0));
        s.commit(&SessionQuery::Slide);
        assert_eq!(s.base(), 8);
    }

    #[test]
    fn receive_window_reassembles_what_the_sender_serves() {
        let message = b"one window for every driver";
        let sender = SessionSender::new(message, 4).unwrap();
        let mut win = ReceiveWindow::new(4);
        assert_eq!(win.store(0, 1 << 20), 0, "a wide payload is ignored");
        assert_eq!(
            win.store(1, 0),
            0,
            "only the header lands before the header"
        );
        assert_eq!(win.assemble(), None);
        for abs in 0..sender.chunk_count() {
            let (_, payload) = decode_chunk(&encoded(0, sender.chunks[abs], 62), 62).unwrap();
            assert_eq!(win.store(abs, payload), CHUNK_PAYLOAD_BITS);
            assert_eq!(win.store(abs, payload), 0, "a duplicate recovers nothing");
        }
        assert_eq!(win.store(sender.chunk_count(), 0), 0, "past the count");
        assert_eq!(win.chunk_count(), Some(sender.chunk_count()));
        assert!(win.complete());
        assert_eq!(win.assemble().as_deref(), Some(&message[..]));
    }

    #[test]
    fn base_reports_roundtrip() {
        let s = SessionSender::new(&[0u8; 100], 4).unwrap();
        let mut tx = vec![0u8; 62];
        s.serve(&SessionQuery::Resync, &mut tx).unwrap();
        let (seq, payload) = decode_chunk(&tx, 62).unwrap();
        assert_eq!(parse_base_report(seq, payload), Some(0));
        // Slide response names the post-slide base before committing.
        s.serve(&SessionQuery::Slide, &mut tx).unwrap();
        let (seq, payload) = decode_chunk(&tx, 62).unwrap();
        assert_eq!(parse_base_report(seq, payload), Some(4));
        // Ordinary chunks never parse as base reports.
        s.serve(&SessionQuery::Slot(0), &mut tx).unwrap();
        let (seq, payload) = decode_chunk(&tx, 62).unwrap();
        assert_eq!(parse_base_report(seq, payload), None);
    }

    #[test]
    fn base_report_of_the_wrong_length_is_none() {
        let report = base_report_payload(20);
        assert_eq!(parse_base_report(4, report), Some(20));
        // The leading bits of a report (shifted down) are none, and so
        // is a report with any bit set past the 20-bit payload field.
        for keep in [0, 1, 8, 12, CHUNK_PAYLOAD_BITS - 1] {
            let short = report >> (CHUNK_PAYLOAD_BITS - keep);
            assert_eq!(parse_base_report(4, short), None, "{keep} bits");
        }
        for bit in CHUNK_PAYLOAD_BITS..32 {
            assert_eq!(parse_base_report(4, report | (1 << bit)), None, "bit {bit}");
        }
    }

    #[test]
    fn session_survives_deaf_tag_episodes() {
        // The tag periodically misses triggers (drift burst): state must
        // not advance on unheard queries and the session must recover.
        let message = b"no phantom state transitions";
        let mut rng = Rng::seed_from_u64(17);
        let cfg = SessionConfig {
            max_rounds: 2000,
            ..SessionConfig::default()
        };
        let report = run_session(message, 62, &cfg, &mut NullRecorder, |_q, tx, _rec| {
            if rng.chance(0.3) {
                RoundOutcome {
                    tag_heard: false,
                    readout: None,
                }
            } else {
                clean_channel(tx)
            }
        })
        .unwrap();
        assert_eq!(report.delivered(), Some(message.as_slice()));
        assert!(report.stats.losses > 0);
    }

    #[test]
    fn session_backs_off_and_resyncs_through_a_blackout() {
        // A long dead window mid-transfer: expect idle backoff rounds
        // and a resync, then a clean finish.
        let message = b"backoff then resync then finish the transfer";
        let mut round = 0usize;
        let cfg = SessionConfig {
            max_rounds: 3000,
            ..SessionConfig::default()
        };
        let report = run_session(message, 62, &cfg, &mut NullRecorder, |_q, tx, _rec| {
            round += 1;
            if (10..60).contains(&round) {
                RoundOutcome {
                    tag_heard: false,
                    readout: None,
                }
            } else {
                clean_channel(tx)
            }
        })
        .unwrap();
        assert_eq!(report.delivered(), Some(message.as_slice()));
        assert!(report.stats.idle_rounds > 0, "{:?}", report.stats);
        assert!(report.stats.resyncs > 0, "{:?}", report.stats);
        assert!(report.stats.losses > 0, "{:?}", report.stats);
    }

    #[test]
    fn session_adapts_diversity_to_noise() {
        // Sustained moderate bit noise: the client should step
        // redundancy up, and majority combining should carry chunks
        // that individual copies cannot.
        let message = b"adaptive redundancy under sustained noise";
        let mut rng = Rng::seed_from_u64(23);
        let cfg = SessionConfig {
            max_rounds: 6000,
            ..SessionConfig::default()
        };
        let report = run_session(message, 62, &cfg, &mut NullRecorder, |_q, tx, _rec| {
            let bits = tx
                .iter()
                .map(|&b| if rng.chance(0.04) { b ^ 1 } else { b })
                .collect();
            RoundOutcome {
                tag_heard: true,
                readout: Some(bits),
            }
        })
        .unwrap();
        assert_eq!(report.delivered(), Some(message.as_slice()));
        assert!(report.stats.rate_downs > 0, "{:?}", report.stats);
        assert!(report.stats.retransmissions > 0, "{:?}", report.stats);
    }

    #[test]
    fn session_gives_up_cleanly_on_dead_channel() {
        let cfg = SessionConfig {
            max_rounds: 200,
            ..SessionConfig::default()
        };
        let report = run_session(
            b"unreachable",
            62,
            &cfg,
            &mut NullRecorder,
            |_q, _tx, _rec| RoundOutcome {
                tag_heard: false,
                readout: None,
            },
        )
        .unwrap();
        assert_eq!(
            report.outcome,
            SessionOutcome::Failed(SessionFailure::BudgetExhausted)
        );
        assert_eq!(report.stats.rounds, 200);
        assert!(report.stats.idle_rounds > 0, "backoff must have engaged");
    }

    #[test]
    fn session_never_delivers_corrupted_bytes() {
        // An adversarial channel that replays a *valid* chunk from a
        // different position: the seq check plus end-to-end CRC must
        // keep the output clean or fail loudly — never silent garbage.
        let message = b"integrity over availability";
        let mut rng = Rng::seed_from_u64(5);
        let wrong = encoded(9, PAYLOAD_MAX, 62);
        let cfg = SessionConfig {
            max_rounds: 1500,
            ..SessionConfig::default()
        };
        let report = run_session(message, 62, &cfg, &mut NullRecorder, |_q, tx, _rec| {
            let bits = if rng.chance(0.2) {
                wrong.clone()
            } else {
                tx.to_vec()
            };
            RoundOutcome {
                tag_heard: true,
                readout: Some(bits),
            }
        })
        .unwrap();
        // Either the correct bytes come out, or the failure is loud
        // (CrcMismatch / budget) — silent garbage is the one forbidden
        // outcome.
        if let SessionOutcome::Delivered(bytes) = report.outcome {
            assert_eq!(bytes, message);
        }
    }
}
