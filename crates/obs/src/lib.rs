//! `witag-obs` — deterministic structured observability for the WiTAG
//! reproduction.
//!
//! WiTAG's mechanism is indirect: tag bits are inferred from block-ACK
//! bitmaps after channel-level corruption, so debugging a bad round
//! means reconstructing what happened across phy, mac and the tagnet
//! session. This crate is the reconstruction layer: instrumented seams
//! (`phy` decode, `mac` block-ACK assembly, `core` rounds and sessions,
//! `faults` injection) hand structured [`Event`]s to a [`Recorder`].
//!
//! Design rules, in priority order:
//!
//! 1. **Zero-cost when detached.** The default [`NullRecorder`] reports
//!    `enabled() == false`; every instrumentation site gates event
//!    *construction* on that flag, so a detached run pays one virtual
//!    call per seam per round and allocates nothing (mirroring the
//!    `witag-faults` detached contract).
//! 2. **Deterministic when attached.** Events are stamped with
//!    simulation indices (round/shard/sweep-point), never `std::time`;
//!    floats serialise at fixed precision; parallel runners buffer
//!    per-shard and replay in shard order — so a trace is a pure
//!    function of seeds and byte-identical at any thread count.
//! 3. **Written down.** The JSONL wire format is versioned
//!    ([`SCHEMA`]) and specified field-by-field in `docs/OBS_SCHEMA.md`;
//!    a schema-coverage test keeps code and document in lockstep.
//!
//! Recorders shipped here: [`NullRecorder`] (detached default),
//! [`JsonlRecorder`] (streaming JSON lines) and [`BufferRecorder`]
//! (event capture for shard merging and tests).
//! [`TraceSummary`] folds a finished JSONL trace into per-kind counts
//! and roll-ups (`witag-cli report`).
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod event;
pub mod jsonl;
pub mod report;

pub use event::{Event, RxQuality, FAULT_CLASS_NAMES, KINDS, SCHEMA};
pub use jsonl::JsonlRecorder;
pub use report::TraceSummary;

/// A sink for observability [`Event`]s.
///
/// The contract instrumented code relies on:
///
/// * Call [`enabled`](Recorder::enabled) before doing *any* work to
///   build an event (summaries, allocation, formatting). A recorder
///   answering `false` must receive no events — that is what makes the
///   detached path free.
/// * [`record`](Recorder::record) must not panic and must not reorder:
///   events arrive in deterministic program order and recorders
///   preserve it.
/// * Recorders never stamp events themselves — time lives *in* the
///   event, as simulation indices, so the same run always produces the
///   same bytes.
///
/// ```
/// use witag_obs::{Event, Recorder};
///
/// /// Counts round completions, ignores everything else.
/// #[derive(Default)]
/// struct RoundCounter(u64);
/// impl Recorder for RoundCounter {
///     fn record(&mut self, event: &Event) {
///         if let Event::RoundEnd { .. } = event {
///             self.0 += 1;
///         }
///     }
/// }
///
/// let mut rec = RoundCounter::default();
/// assert!(rec.enabled()); // default: attached
/// rec.record(&Event::RoundEnd {
///     round: 0, triggered: true, ba_lost: false,
///     bits: 62, bit_errors: 0, airtime_us: 2000,
/// });
/// assert_eq!(rec.0, 1);
/// ```
pub trait Recorder {
    /// Whether this recorder wants events at all. Instrumented code
    /// gates event construction on this, so `false` short-circuits the
    /// entire observability path. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Accept one event. Must be infallible from the caller's view:
    /// sink errors are stashed internally (see
    /// [`JsonlRecorder::finish`]) rather than surfaced mid-round.
    fn record(&mut self, event: &Event);
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: &Event) {
        (**self).record(event)
    }
}

/// The zero-cost detached recorder: reports `enabled() == false` and
/// drops anything recorded anyway.
///
/// Every instrumented entry point takes a `&mut dyn Recorder`; a quiet
/// run passes `&mut NullRecorder` and pays one branch per seam per
/// round — nothing else.
///
/// ```
/// use witag_obs::{NullRecorder, Recorder};
/// let rec = NullRecorder;
/// assert!(!rec.enabled());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &Event) {}
}

/// An in-memory recorder that keeps every event, in order.
///
/// This is the merge unit of the deterministic parallel runners: each
/// shard records into its own `BufferRecorder` and the calling thread
/// replays the buffers in shard order into the final sink, making the
/// merged stream independent of thread count. Tests use it to assert on
/// exactly what was emitted.
///
/// ```
/// use witag_obs::{BufferRecorder, Event, Recorder};
/// let mut buf = BufferRecorder::new();
/// buf.record(&Event::SessionChunk { round: 4, chunk: 1 });
/// assert_eq!(buf.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BufferRecorder {
    events: Vec<Event>,
}

impl BufferRecorder {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured events, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Replay every captured event, in order, into another recorder.
    /// No-op when `rec` is detached.
    pub fn replay_into(&self, rec: &mut dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        for e in &self.events {
            rec.record(e);
        }
    }
}

impl Recorder for BufferRecorder {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_detached() {
        let mut rec = NullRecorder;
        assert!(!rec.enabled());
        rec.record(&Event::SessionChunk { round: 0, chunk: 0 }); // must not blow up
    }

    #[test]
    fn mut_ref_forwards() {
        let mut buf = BufferRecorder::new();
        {
            let r: &mut dyn Recorder = &mut buf;
            assert!(r.enabled());
            r.record(&Event::SessionChunk { round: 0, chunk: 7 });
        }
        assert_eq!(buf.events().len(), 1);
    }

    #[test]
    fn buffer_replay_preserves_order_and_respects_detached() {
        let mut src = BufferRecorder::new();
        src.record(&Event::SessionChunk { round: 0, chunk: 0 });
        src.record(&Event::SessionChunk { round: 1, chunk: 1 });
        let mut dst = BufferRecorder::new();
        src.replay_into(&mut dst);
        assert_eq!(dst.events(), src.events());
        let mut null = NullRecorder;
        src.replay_into(&mut null); // must be a no-op, not a panic
    }
}
