//! Property-based tests for the simulation foundation.

use proptest::prelude::*;
use witag_sim::geom::{Floorplan, Point2, Segment};
use witag_sim::stats::{RunningStats, SampleSet};
use witag_sim::time::{Duration, Instant};
use witag_sim::{CalendarQueue, EventQueue, Rng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in proptest::collection::vec(any::<u32>(), 0..64)) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut original = v.clone();
        rng.shuffle(&mut v);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(v, original);
    }

    #[test]
    fn event_queue_pops_in_nondecreasing_time(
        times in proptest::collection::vec(0u64..1_000_000, 1..128),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Instant::from_nanos(t), i);
        }
        let mut last = Instant::ZERO;
        let mut count = 0;
        while let Some(e) = q.pop() {
            prop_assert!(e.at >= last);
            last = e.at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn calendar_queue_matches_heap_reference(
        seed in any::<u64>(),
        width_ns in 1u64..100_000,
        ops in proptest::collection::vec(0u8..4, 1..400),
    ) {
        // Drive the bucketed calendar and the BinaryHeap-backed
        // EventQueue through one random schedule of interleaved
        // inserts, pops (removal) and time advances; every pop must
        // agree on (time, seq, payload) — the contract both queues keep.
        let mut cal: CalendarQueue<u64> =
            CalendarQueue::with_width(Duration::nanos(width_ns));
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::seed_from_u64(seed);
        let mut payload = 0u64;
        for &op in &ops {
            let dt = rng.below(5_000_000);
            match op {
                // Insert at a random offset past `now` (both clocks
                // advance identically, so the offsets stay legal).
                0 | 1 => {
                    let at = heap.now() + Duration::nanos(dt);
                    let sa = cal.schedule(at, payload);
                    let sb = heap.schedule(at, payload);
                    prop_assert_eq!(sa, sb, "seq ids must track");
                    payload += 1;
                }
                // Remove the earliest pending event from both.
                2 => {
                    let a = cal.pop();
                    let b = heap.pop();
                    match (a, b) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            prop_assert_eq!(a.at, b.at);
                            prop_assert_eq!(a.seq, b.seq);
                            prop_assert_eq!(a.payload, b.payload);
                        }
                        (a, b) => prop_assert!(false, "pop mismatch: {a:?} vs {b:?}"),
                    }
                }
                // Advance time by scheduling + popping a marker whose
                // payload is drawn from one shared stream.
                _ => {
                    let m = rng.next_u64();
                    cal.schedule_in(Duration::nanos(dt), m);
                    heap.schedule_in(Duration::nanos(dt), m);
                    prop_assert_eq!(cal.pop().map(|e| e.at), heap.pop().map(|e| e.at));
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.now(), heap.now());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        // Drain both: the full remaining order must agree.
        loop {
            match (cal.pop(), heap.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.at, b.at);
                    prop_assert_eq!(a.seq, b.seq);
                    prop_assert_eq!(a.payload, b.payload);
                }
                (a, b) => prop_assert!(false, "drain mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn welford_mean_bounded_by_extremes(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
        prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn percentiles_are_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = SampleSet::new();
        for &x in &xs {
            s.push(x);
        }
        let p25 = s.percentile(25.0).unwrap();
        let p50 = s.percentile(50.0).unwrap();
        let p90 = s.percentile(90.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p90);
        // The interpolated p-quantile sits between ranks floor(p(n-1))
        // and ceil(p(n-1)), so at least floor(p(n-1))+1 samples are <= it.
        let n = xs.len();
        let lower_rank = (0.9 * (n as f64 - 1.0)).floor() as usize + 1;
        let cdf = s.cdf();
        prop_assert!(cdf.at(p90) >= lower_rank as f64 / n as f64 - 1e-9);
    }

    #[test]
    fn segment_intersection_is_symmetric(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0,
        cx in -10.0f64..10.0, cy in -10.0f64..10.0,
        dx in -10.0f64..10.0, dy in -10.0f64..10.0,
    ) {
        let s1 = Segment::new(Point2::new(ax, ay), Point2::new(bx, by));
        let s2 = Segment::new(Point2::new(cx, cy), Point2::new(dx, dy));
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
    }

    #[test]
    fn penetration_loss_is_symmetric_and_nonnegative(
        ax in 0.5f64..17.5, ay in 0.5f64..6.5,
        bx in 0.5f64..17.5, by in 0.5f64..6.5,
    ) {
        let fp = Floorplan::paper_testbed();
        let a = Point2::new(ax, ay);
        let b = Point2::new(bx, by);
        let ab = fp.penetration_loss_db(a, b);
        let ba = fp.penetration_loss_db(b, a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= 0.0);
    }

    #[test]
    fn duration_arithmetic_consistent(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let da = Duration::nanos(a);
        let db = Duration::nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        let t = Instant::from_nanos(a) + db;
        prop_assert_eq!(t.since(Instant::from_nanos(a)), db);
    }

    #[test]
    fn gaussian_stream_is_fixed_by_seed_and_forks_differ(seed in any::<u64>(), stream in any::<u64>()) {
        // The normal deviates are a function of the seed alone, and two
        // forks of one parent draw different deviates.
        let draw = |rng: &mut Rng| (0..8).map(|_| rng.gaussian().to_bits()).collect::<Vec<_>>();
        let (mut a, mut b) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
        prop_assert_eq!(draw(&mut a), draw(&mut b));
        let mut parent = Rng::seed_from_u64(seed);
        let mut c = parent.clone().fork(stream);
        let mut d = parent.fork(stream ^ 1);
        prop_assert_ne!(draw(&mut c), draw(&mut d));
    }
}
