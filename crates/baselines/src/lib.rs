//! # witag-baselines — the systems WiTAG is compared against
//!
//! Behavioural and (where the comparison needs it) functional models of
//! prior WiFi backscatter systems, so the paper's §1/§2 comparisons are
//! regenerated from code rather than restated as prose:
//!
//! * [`systems`] — profiles of WiFi Backscatter, BackFi, Passive WiFi,
//!   HitchHike, FreeRider, MOXcatter and WiTAG along the paper's four
//!   requirements;
//! * [`matrix`] — the requirements matrix (REQS experiment);
//! * [`dsss`] — a functional 802.11b DSSS link with HitchHike's codeword
//!   translation, demonstrating both its operation and its failure modes
//!   (FCS drop on unmodified APs, ICV/MIC rejection on protected
//!   networks);
//! * [`ofdm_shift`] — FreeRider's per-OFDM-symbol and MOXcatter's
//!   per-packet codeword translation, on real legacy OFDM PPDUs;
//! * [`interference`] — secondary-channel victim-loss model for
//!   channel-shifting tags (INTF experiment).
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod dsss;
pub mod interference;
pub mod matrix;
pub mod ofdm_shift;
pub mod systems;

pub use dsss::{hitchhike_exchange, HitchhikeDelivery};
pub use interference::{victim_loss_probability, ShiftingTagWorkload, VictimTraffic};
pub use matrix::{build_matrix, render_matrix, MatrixRow};
pub use ofdm_shift::{freerider_translate, moxcatter_translate, recover_symbol_rotations};
pub use systems::{all_systems, Mechanism, PhySupport, SystemProfile};
