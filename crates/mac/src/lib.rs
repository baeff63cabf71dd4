//! # witag-mac — 802.11n/ac MAC-layer substrate
//!
//! Wire formats and timing for the MAC features WiTAG is built on:
//!
//! * [`header`] — QoS data/null MAC headers (parse/emit with validation),
//! * [`ampdu`] — MPDUs with FCS, A-MPDU delimiters with CRC-8 + signature,
//!   aggregation with subframe byte extents, and a de-aggregator that
//!   re-synchronises past corrupted subframes,
//! * [`blockack`] — compressed block ACK frames: the 64-bit bitmap WiTAG
//!   reads its tag data from,
//! * [`access`] — DIFS/SIFS/backoff exchange timing and binary
//!   exponential backoff,
//! * [`dcf`] — a slot-synchronous multi-station CSMA/CA simulator
//!   (Bianchi setting): fairness, collisions, and the query rate a
//!   WiTAG client can sustain as an ordinary DCF citizen,
//! * [`security`] — open / WEP / WPA2-CCMP payload protection, so the
//!   "works with encryption" claim is exercised end-to-end.
//!
//! The crate deliberately models an *unmodified* MAC: nothing in here
//! knows about tags. The WiTAG protocol (crate `witag`) composes these
//! standard behaviours.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod access;
pub mod ampdu;
pub mod blockack;
pub mod dcf;
pub mod header;
pub mod security;

pub use access::{exchange_timing, Contention, ExchangeTiming};
pub use ampdu::{aggregate, deaggregate, Mpdu, SubframeExtent, SubframeOutcome};
pub use blockack::BlockAck;
pub use dcf::{airtime_share, simulate as simulate_dcf, DcfOutcome, DcfStation};
pub use header::{Addr, FrameKind, MacHeader, MacParseError};
pub use security::{Security, SecurityError};
