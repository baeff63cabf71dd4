//! # witag-net — fleet scheduling and medium contention for WiTAG
//!
//! The network layer above the single-link session transport: **N
//! querying clients × M tags on one shared WiFi medium**, as a
//! deterministic discrete-event simulation.
//!
//! WiTAG (HotNets'18 §"Supporting multiple tags") sketches how one
//! client addresses many tags with per-tag query A-MPDUs; this crate
//! supplies what the sketch leaves open — who gets the medium
//! ([`witag_mac::dcf`]-style contention with real PHY airtime), which
//! tag each winner queries next (a pluggable [`Scheduler`] with
//! round-robin, airtime-fair DRR, EDF, a traffic-predictive `pred`
//! policy backed by [`TrafficPredictor`], and a serial baseline), and
//! what happens when two clients' queries overlap in the air (the
//! overlapping fraction of each readout is bit-corrupted and judged by
//! the transport's normal chunk CRC, not dropped by fiat). Links run
//! either the selective-repeat ARQ session transport or the rateless
//! fountain transport ([`Transport`]), selected per fleet.
//!
//! Everything is a pure function of the seed: same
//! [`FleetConfig`] → byte-identical `net.*` trace and identical
//! [`FleetReport`] at any thread count (see [`run_replicas`]).
//!
//! Two engines share that contract at different scales:
//!
//! * [`run_fleet`] / [`run_replicas`] — the full-fidelity single-medium
//!   engine: every grant drives a real transport round (chunk FEC,
//!   CRC). Right up to a few hundred tags.
//! * [`run_metro`] ([`metro`]) — the metro-scale engine: spatial cell
//!   decomposition with channel reuse, struct-of-arrays tag state,
//!   calendar-queue wakeups, batched grant rounds and a hierarchical
//!   (inter-cell budget over intra-cell policy) scheduler. Built for
//!   10⁴–10⁶ tags across hundreds of readers.
//!
//! Entry points: [`FleetConfig::inventory`] → [`run_fleet`] /
//! [`run_replicas`], [`MetroConfig::inventory`] → [`run_metro`];
//! `witag-cli net` and the `net_scale` perf-gate section sit directly
//! on top of them. The system-wide map — how this crate composes with
//! the PHY, MAC, transport and observability layers — is in
//! `docs/ARCHITECTURE.md`.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod metro;
pub mod predict;
pub mod scheduler;

pub use fleet::{
    run_fleet, run_replicas, DutyCycle, FleetConfig, FleetReport, NetError, TagOutcome, TagProfile,
    Transport, MARKER_AIRTIME,
};
pub use metro::{
    run_metro, CellSummary, MetroConfig, MetroReport, CELL_SIZE_M, INTERFERENCE_RANGE_M,
};
pub use predict::TrafficPredictor;
pub use scheduler::{
    Candidate, EdfScheduler, FairScheduler, RrScheduler, Scheduler, SchedulerKind, SerialScheduler,
};
