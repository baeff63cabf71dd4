//! # witag-sim — deterministic simulation foundation
//!
//! Shared substrate for every other crate in the WiTAG reproduction:
//!
//! * [`time`] — nanosecond-resolution simulation clock and durations. All
//!   802.11 timing (slot times, SIFS, symbol durations) is expressed in
//!   integer nanoseconds so airtime arithmetic is exact and deterministic.
//! * [`rng`] — a self-contained xoshiro256** PRNG with SplitMix64 seeding.
//!   The whole simulation is reproducible from a single `u64` seed; no
//!   external RNG crate is used on any simulation path.
//! * [`event`] — a binary-heap discrete-event queue with stable FIFO
//!   ordering among simultaneous events: the reference implementation
//!   the calendar queue is tested against.
//! * [`calendar`] — a bucketed calendar queue with the same contract but
//!   O(1) amortized insert/pop, for simulations holding millions of
//!   pending wakeups (the metro-scale fleet engine).
//! * [`stats`] — streaming statistics (Welford), sample sets with exact
//!   percentiles, empirical CDFs, and histograms used by the experiment
//!   harness and the benchmark binaries.
//! * [`geom`] — 2-D geometry: points, segments, segment intersection,
//!   attenuating obstacles (walls, cabinets, doors) and the floorplan of the
//!   paper's testbed (Figure 4).
//!
//! Design follows the event-driven, allocation-conscious style of smoltcp:
//! no async runtime, no interior mutability on hot paths, and exhaustive
//! doc coverage of what is and is not modelled.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod calendar;
pub mod event;
pub mod geom;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use event::{EventQueue, ScheduledEvent};
pub use geom::{Floorplan, Material, Obstacle, Point2, Segment};
pub use parallel::{available_threads, par_map};
pub use rng::Rng;
pub use stats::{wilson_interval_95, Cdf, Histogram, RunningStats, SampleSet};
pub use time::{Duration, Instant};
