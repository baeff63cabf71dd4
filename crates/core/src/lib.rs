//! # witag — MAC-layer WiFi backscatter (the paper's contribution)
//!
//! End-to-end implementation of WiTAG (Abedi, Mazaheri, Abari, Brecht —
//! HotNets'18): battery-free tags communicate with unmodified WiFi
//! devices by selectively corrupting A-MPDU subframes, and the client
//! reads their bits out of standard block-ACK bitmaps.
//!
//! * [`query`] — query construction and the alignment/throughput
//!   co-design search ([`query::QueryDesign::best`]),
//! * [`reader`] — block-ACK → tag-bit decoding and error taxonomy
//!   (false zeros = ambient losses, false ones = missed corruption),
//! * [`fec`] — the paper's future-work error correction, realised as
//!   interleaved Hamming(7,4) over the tag bit-channel,
//! * [`experiment`] — the full evaluation loop (client ⇄ AP ⇄ tag over
//!   the geometric channel) with presets for every scenario in the
//!   paper's §6,
//! * [`fanout`] — the one traced fan-out ([`fanout::par_map_traced`])
//!   behind every parallel runner: results in index order and a trace
//!   that does not depend on the thread count,
//! * [`tagnet`] — reliable chunked transports layered on the raw bit
//!   channel: CRC-framed chunks with stop-and-wait ARQ via dual trigger
//!   signatures ([`tagnet::deliver`]), and a resilient session layer
//!   with selective-repeat ARQ, adaptive redundancy, exponential
//!   backoff and explicit desync recovery ([`tagnet::run_session`]),
//! * [`fountain`] — the rateless alternative to per-chunk ARQ: an LT
//!   fountain codec (robust-soliton degrees, seeded symbol selection,
//!   peeling decoder with Gaussian inactivation) plus the SYMBOL /
//!   INFO / SYNC protocol state machines that
//!   [`tagnet::run_fountain_session`] and the `witag-net` fleet layer
//!   drive.
//!
//! Deterministic fault injection (query loss, block-ACK loss, burst
//! interference, oscillator drift, brownouts, coherence collapse) comes
//! from the `witag-faults` crate and hooks in via
//! [`experiment::Experiment::attach_faults`]; without a plan attached,
//! results are bit-identical to a build without the fault layer.
//!
//! Every traced operation has one entry point that takes a
//! `&mut dyn witag_obs::Recorder`; a quiet run passes `&mut NullRecorder`.
//!
//! ```
//! use witag::experiment::{Experiment, ExperimentConfig};
//! use witag_obs::NullRecorder;
//! // Paper Figure 5 operating point: tag 1 m from the client. The
//! // figure's BER is an average over runs, and a seed is one channel
//! // realisation (one room), so the bound is on the mean over four: at
//! // one seed a deep fade can cost more than the whole bound.
//! let mean_ber = (42..46)
//!     .map(|seed| {
//!         let mut cfg = ExperimentConfig::fig5(1.0, seed);
//!         cfg.link.interference_rate_hz = 0.0; // quiet channel for the doctest
//!         let mut exp = Experiment::new(cfg).unwrap();
//!         exp.run(5, &mut NullRecorder).ber()
//!     })
//!     .sum::<f64>()
//!     / 4.0;
//! assert!(mean_ber < 0.05);
//! ```
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod fanout;
pub mod fec;
pub mod fountain;
pub mod moxcatter;
pub mod query;
pub mod reader;
pub mod tagnet;

pub use experiment::{
    CrossTraffic, Experiment, ExperimentConfig, ExperimentError, ExperimentStats, QueryOrigin,
    RoundResult, SecurityMode,
};
pub use fec::FecLayout;
pub use fountain::{
    DegreeDistribution, FountainDecoder, FountainEncoder, FountainQuery, FountainReceiver,
    FountainSender,
};
pub use moxcatter::{MoxConfig, MoxPointResult, MoxStreamResult};
pub use query::{BuiltQuery, QueryDesign};
pub use reader::{read_tag_bits, BitErrors, TagReadout};
pub use tagnet::{
    fountain_session_over_experiment, run_fountain_session, run_session, session_over_experiment,
    FountainStats, RoundOutcome, SessionConfig, SessionFailure, SessionOutcome, SessionReport,
    SessionStats, TagnetError,
};
