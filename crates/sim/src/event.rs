//! Discrete-event queue.
//!
//! A minimal, deterministic event scheduler: events are `(Instant, payload)`
//! pairs popped in time order, with a monotonically increasing sequence
//! number breaking ties so that events scheduled for the same instant are
//! delivered in FIFO order. That tie-break is what makes multi-entity
//! simulations (client, AP, tag, interferers) reproducible.
//!
//! Two pending-event structures keep one contract — events pop in
//! ascending `(time, seq)` order, `pop` advances `now` to the popped
//! fire time, scheduling earlier than `now` panics, and `seq` ids are
//! unique and increasing. The [`EventQueue`] here is a binary heap,
//! O(log n) per operation; it is the reference the calendar queue's
//! property tests check against. The
//! [`CalendarQueue`](crate::CalendarQueue) is bucketed, O(1) amortized,
//! and built for the millions of pending wakeups of the metro-scale
//! engine in `witag-net`.

use crate::time::{Duration, Instant};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event taken from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant at which the event fires.
    pub at: Instant,
    /// Monotonic insertion index; also serves as a unique event id.
    pub seq: u64,
    /// User payload.
    pub payload: E,
}

/// Internal heap entry ordered as a *min*-heap on (time, seq).
struct Entry<E> {
    at: Instant,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic discrete-event queue.
///
/// ```
/// use witag_sim::{EventQueue, Instant};
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_nanos(20), "b");
/// q.schedule(Instant::from_nanos(10), "a");
/// q.schedule(Instant::from_nanos(20), "c"); // same time as "b": FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Instant,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`Instant::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Current simulation time: the fire time of the last popped event.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`. Returns the event's
    /// unique sequence id.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time — events
    /// may not be scheduled in the past.
    pub fn schedule(&mut self, at: Instant, payload: E) -> u64 {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        seq
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) -> u64 {
        self.schedule(self.now + delay, payload)
    }

    /// Fire time of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest event, advancing the simulation clock to its fire
    /// time. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "heap returned an event in the past");
        self.now = entry.at;
        Some(ScheduledEvent {
            at: entry.at,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(30), 3);
        q.schedule(Instant::from_nanos(10), 1);
        q.schedule(Instant::from_nanos(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(100), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_nanos(100));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(50), "first");
        q.pop();
        q.schedule_in(Duration::nanos(25), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.at, Instant::from_nanos(75));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(10), ());
        q.pop();
        q.schedule(Instant::from_nanos(5), ());
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(42), ());
        assert_eq!(q.peek_time(), Some(Instant::from_nanos(42)));
        assert_eq!(q.now(), Instant::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_nanos(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
