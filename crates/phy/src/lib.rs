//! # witag-phy — a frequency-domain 802.11n/ac OFDM PHY
//!
//! The PHY substrate for the WiTAG reproduction. It implements the real
//! DATA-field processing chain of 802.11n/ac — scrambling, rate-1/2
//! convolutional coding with puncturing, stream parsing, BCC
//! interleaving, Gray-mapped QAM, pilot tones — and the receive chain with
//! LTF channel estimation, single-shot equalisation, pilot CPE tracking,
//! soft demapping and Viterbi decoding.
//!
//! ## What is modelled, and what is not
//!
//! * **Frequency domain only.** A transmitted symbol is the vector of
//!   constellation points on occupied subcarriers. The channel multiplies
//!   per-subcarrier; the IFFT/FFT pair is mathematically transparent under
//!   cyclic-prefix assumptions and is skipped. Consequence: receiver-side
//!   time/frequency synchronisation impairments are out of scope.
//! * **Real MIMO.** Multi-stream PPDUs are sounded with P-mapped HT-LTF
//!   symbols and decoded through full per-subcarrier `Nss×Nss` channel
//!   matrices with joint ZF/MMSE equalisation ([`mimo`]); one stream is
//!   the 1×1 case of the same receive core. The tag — a single physical
//!   reflector — perturbs every matrix entry at once, which is why WiTAG
//!   is MIMO-agnostic (paper §4) while per-symbol-twiddling designs are
//!   not.
//! * **Channel estimation happens once per PPDU**, from the LTF — the
//!   802.11 behaviour WiTAG exploits (paper §3.2): flip the channel
//!   mid-frame and every later symbol is equalised with stale CSI.
//!
//! The crate is deterministic and allocation-conscious; no RNG is used
//! anywhere in the signal path (noise is injected by `witag-channel`).
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod airtime;
pub mod complex;
pub mod convolutional;
pub mod interleaver;
pub mod legacy;
pub mod mcs;
pub mod mimo;
pub mod modulation;
pub mod params;
pub mod ppdu;
pub mod receiver;
pub mod scrambler;

pub use complex::{c64, Complex64};
pub use legacy::{
    legacy_receive, legacy_receive_with_scratch, legacy_transmit, LegacyLayout, LegacyPpdu,
};
pub use mcs::{CodeRate, Mcs, Modulation};
pub use mimo::{receive_mu, transmit_mu, MimoEqualiser};
pub use params::{Bandwidth, GuardInterval, SubcarrierLayout, MAX_AMPDU_SUBFRAMES};
pub use ppdu::{transmit, OfdmSymbol, PhyConfig, Ppdu};
pub use receiver::{
    receive, receive_mu_with_scratch, receive_with_scratch, DecodedPsdu, RxScratch,
};
