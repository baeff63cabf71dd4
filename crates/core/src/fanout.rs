//! The traced fan-out: independent work items on a bounded worker pool,
//! with one trace whatever the thread count.
//!
//! Every parallel surface of the workspace (experiment shards, sweep
//! points, MOXcatter points, fleet replicas, metro contention domains)
//! runs through [`par_map_traced`], so the thread-count-invariant trace
//! rule (buffer per item, replay in index order behind a marker) is
//! written once.

use witag_obs::{BufferRecorder, Event, NullRecorder, Recorder};
use witag_sim::par_map;

/// Run `work(i, rec)` for each `i` in `0..n` on up to `threads` workers
/// ([`par_map`]) and return the results in index order.
///
/// When `rec` is attached, each item records into a private
/// [`BufferRecorder`]; after the join the buffers are replayed into
/// `rec` in index order, each behind the event that `marker(i, &result)`
/// returns, if any. A detached `rec` hands every item a [`NullRecorder`]
/// and buffers nothing. Provided `work` is a pure function of its index,
/// the results and the trace are byte-identical for every `threads >= 1`.
///
/// The first error in index order is returned; the items before it
/// have been replayed, the rest have not.
pub fn par_map_traced<T: Send, E: Send>(
    n: usize,
    threads: usize,
    rec: &mut dyn Recorder,
    work: impl Fn(usize, &mut dyn Recorder) -> Result<T, E> + Sync,
    marker: impl Fn(usize, &T) -> Option<Event>,
) -> Result<Vec<T>, E> {
    let tracing = rec.enabled();
    let results = par_map(n, threads, |i| {
        let mut buf = BufferRecorder::new();
        let r = if tracing {
            work(i, &mut buf)
        } else {
            work(i, &mut NullRecorder)
        };
        (r, buf)
    });
    let mut out = Vec::with_capacity(n);
    for (i, (r, buf)) in results.into_iter().enumerate() {
        let item = r?;
        if tracing {
            if let Some(event) = marker(i, &item) {
                rec.record(&event);
            }
            buf.replay_into(rec);
        }
        out.push(item);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(i: usize, rec: &mut dyn Recorder) -> Result<usize, usize> {
        if rec.enabled() {
            rec.record(&Event::SessionChunk {
                round: i as u64,
                chunk: 0,
            });
        }
        if i == 3 {
            Err(i)
        } else {
            Ok(i * 10)
        }
    }

    fn marker(i: usize, v: &usize) -> Option<Event> {
        i.is_multiple_of(2).then_some(Event::SessionChunk {
            round: *v as u64,
            chunk: 1,
        })
    }

    #[test]
    fn replays_in_index_order_behind_markers_at_any_thread_count() {
        let mut one = BufferRecorder::new();
        let mut two = BufferRecorder::new();
        let a = par_map_traced(3, 1, &mut one, work, marker);
        let b = par_map_traced(3, 2, &mut two, work, marker);
        assert_eq!(a, Ok(vec![0, 10, 20]));
        assert_eq!(a, b);
        assert_eq!(one, two);
        let stamps: Vec<(u64, u32)> = one
            .events()
            .iter()
            .map(|e| match e {
                Event::SessionChunk { round, chunk } => (*round, *chunk),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(stamps, [(0, 1), (0, 0), (1, 0), (20, 1), (2, 0)]);
    }

    #[test]
    fn stops_at_the_first_error_and_stays_quiet_when_detached() {
        let mut buf = BufferRecorder::new();
        assert_eq!(par_map_traced(5, 2, &mut buf, work, marker), Err(3));
        assert_eq!(buf.events().len(), 5, "items 0..3 and their markers");
        assert_eq!(
            par_map_traced(3, 2, &mut NullRecorder, work, marker),
            Ok(vec![0, 10, 20])
        );
    }
}
