//! # witag-channel — geometric wireless channel with a backscatter tag
//!
//! The channel substrate for the WiTAG reproduction. A [`Link`] turns the
//! floorplan geometry of `witag-sim` into per-subcarrier complex channel
//! responses that `witag-phy` PPDUs are passed through:
//!
//! * free-space + obstacle-penetration path loss ([`pathloss`]),
//! * environmental multipath (frequency selectivity + temporal drift with
//!   a ~100 ms coherence time),
//! * an optional **tag ray** whose presence/sign is switched per OFDM
//!   symbol via a [`TagSchedule`] — the backscatter modulation itself,
//! * AWGN from a physical noise floor, and Poisson ambient-interference
//!   bursts that keep the ambient error rate realistic (paper §4.1).
//!
//! The tag ray's field amplitude follows the radar-equation two-hop form
//! the paper cites in §6.2: power ∝ 1/(Ds²·Dr²), minimised when the tag
//! sits midway between transmitter and receiver — the cause of Figure 5's
//! U-shaped BER curve.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod link;
mod medium;
pub mod mimo;
pub mod pathloss;

pub use link::{Link, LinkConfig, TagMode, TagSchedule};
pub use mimo::{MimoLink, MimoLinkConfig};
pub use pathloss::{
    backscatter_amplitude, db_to_linear, freespace_amplitude, freespace_loss_db, linear_to_db,
    noise_floor_dbm, wavelength, SPEED_OF_LIGHT,
};
