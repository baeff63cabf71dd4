//! Property-based tests for the MAC: aggregation geometry, corruption
//! containment, block-ACK bitmap correctness — for arbitrary MPDU mixes
//! and arbitrary damage — and the DCF contention round for arbitrary
//! station states.

use proptest::prelude::*;
use witag_mac::access::{contend, Round, Station};
use witag_mac::ampdu::{aggregate, deaggregate, Mpdu};
use witag_mac::blockack::BlockAck;
use witag_mac::header::{Addr, FrameKind, MacHeader};
use witag_phy::params::timing;
use witag_sim::Rng;

fn mpdu(seq: u16, payload_len: usize) -> Mpdu {
    let mut h = MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq % 4096);
    if payload_len > 0 {
        h.kind = FrameKind::QosData;
    }
    Mpdu {
        header: h,
        payload: vec![(seq % 251) as u8; payload_len],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregate_extents_tile_the_psdu(
        sizes in proptest::collection::vec(0usize..600, 1..64),
    ) {
        let mpdus: Vec<Mpdu> = sizes.iter().enumerate()
            .map(|(i, &len)| mpdu(i as u16, len))
            .collect();
        let (psdu, extents) = aggregate(&mpdus);
        prop_assert_eq!(extents.len(), mpdus.len());
        prop_assert_eq!(extents[0].start, 0);
        for w in extents.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "extents must tile");
            prop_assert_eq!(w[0].end % 4, 0, "non-final subframes 4-byte aligned");
        }
        prop_assert_eq!(extents.last().unwrap().end, psdu.len());
    }

    #[test]
    fn clean_deaggregation_recovers_everything(
        sizes in proptest::collection::vec(0usize..600, 1..64),
    ) {
        let mpdus: Vec<Mpdu> = sizes.iter().enumerate()
            .map(|(i, &len)| mpdu(i as u16, len))
            .collect();
        let (psdu, _) = aggregate(&mpdus);
        let outcomes = deaggregate(&psdu);
        prop_assert_eq!(outcomes.len(), mpdus.len());
        for (o, m) in outcomes.iter().zip(mpdus.iter()) {
            prop_assert_eq!(o.mpdu.as_ref(), Some(m));
        }
    }

    #[test]
    fn corruption_is_contained_to_the_damaged_subframe(
        n in 2usize..32,
        victim_sel in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mpdus: Vec<Mpdu> = (0..n).map(|i| mpdu(i as u16, 20)).collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        let victim = victim_sel.index(n);
        let e = extents[victim];
        // Damage the victim's MPDU body only (not its delimiter).
        for b in &mut psdu[e.mpdu_start..e.mpdu_start + e.mpdu_len] {
            *b ^= xor;
        }
        let outcomes = deaggregate(&psdu);
        prop_assert_eq!(outcomes.len(), n);
        for (i, o) in outcomes.iter().enumerate() {
            if i == victim {
                prop_assert!(o.mpdu.is_none(), "victim {i} must fail");
            } else {
                prop_assert!(o.mpdu.is_some(), "bystander {i} must survive");
            }
        }
    }

    #[test]
    fn block_ack_bitmap_matches_loss_pattern(
        losses in proptest::collection::btree_set(0usize..32, 0..16),
    ) {
        let n = 32usize;
        let mpdus: Vec<Mpdu> = (0..n).map(|i| mpdu(i as u16, 10)).collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        for &l in &losses {
            let e = extents[l];
            for b in &mut psdu[e.mpdu_start..e.mpdu_start + e.mpdu_len] {
                *b ^= 0x3C;
            }
        }
        let ba = BlockAck::from_outcomes(
            Addr::local(2), Addr::local(1), 0, 0, &deaggregate(&psdu));
        for (i, bit) in ba.tag_bits(n).iter().enumerate() {
            let expect = u8::from(!losses.contains(&i));
            prop_assert_eq!(*bit, expect, "bit {}", i);
        }
    }

    #[test]
    fn block_ack_wire_roundtrip(
        bitmap in any::<u64>(),
        ssn in 0u16..4096,
        tid in 0u8..16,
    ) {
        let ba = BlockAck {
            ra: Addr::local(9),
            ta: Addr::local(7),
            tid,
            ssn,
            bitmap,
        };
        prop_assert_eq!(BlockAck::from_bytes(&ba.to_bytes()), Some(ba));
    }

    #[test]
    fn header_roundtrip(
        seq in 0u16..4096,
        tid in 0u8..16,
        duration in any::<u16>(),
        protected in any::<bool>(),
    ) {
        let h = MacHeader {
            kind: FrameKind::QosData,
            protected,
            duration,
            addr1: Addr::local(1),
            addr2: Addr::local(2),
            addr3: Addr::local(3),
            seq,
            tid,
        };
        prop_assert_eq!(MacHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn garbage_never_panics_the_deaggregator(
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        // Must terminate and produce no false positives that parse as
        // valid MPDUs (delimiter CRC + signature + FCS all colliding is
        // astronomically unlikely for random bytes).
        let outcomes = deaggregate(&garbage);
        for o in outcomes {
            prop_assert!(o.mpdu.is_none());
        }
    }

    #[test]
    fn contention_round_draws_counts_down_and_picks_the_minimum(
        seed in any::<u64>(),
        stations_n in 1usize..12,
        warmup in 0usize..8,
        joins in proptest::collection::vec(any::<bool>(), 12),
    ) {
        // Warm-up rounds over random subsets leave a random mix of
        // windows and frozen counters: losers hold one, winners and
        // stations that never contended do not. Every round, the
        // checked one included, goes through one caller-held `Round`,
        // so a winner left over from a warm-up round fails the
        // exact-winners check below.
        let mut rng = Rng::seed_from_u64(seed);
        let mut stations = vec![Station::default(); stations_n];
        let mut round = Round::default();
        for _ in 0..warmup {
            let subset: Vec<usize> = (0..stations_n).filter(|_| rng.chance(0.6)).collect();
            contend(&mut stations, &subset, &mut rng, &mut round);
        }
        let contenders: Vec<usize> = (0..stations_n).filter(|&i| joins[i]).collect();
        let before = stations.clone();

        // The counters the round should use: a frozen one is kept, a
        // missing one is drawn uniformly from 0..=window, in contender
        // order, from the same stream.
        let mut reference = rng.clone();
        let counters: Vec<u64> = contenders
            .iter()
            .map(|&i| {
                before[i]
                    .frozen()
                    .unwrap_or_else(|| reference.below(before[i].window() as u64 + 1))
            })
            .collect();
        contend(&mut stations, &contenders, &mut rng, &mut round);
        prop_assert_eq!(rng.next_u64(), reference.next_u64(), "only stations without a counter draw");

        let min = counters.iter().copied().min().unwrap_or(0);
        prop_assert_eq!(round.slots, min);
        let winners: Vec<usize> = contenders
            .iter()
            .zip(&counters)
            .filter(|&(_, &c)| c == min)
            .map(|(&i, _)| i)
            .collect();
        prop_assert_eq!(&round.winners, &winners, "exactly the stations at the minimum win");
        prop_assert_eq!(round.collided(), winners.len() > 1);

        for (&i, &c) in contenders.iter().zip(&counters) {
            if winners.contains(&i) {
                let window = if round.collided() {
                    ((before[i].window() + 1) * 2 - 1).min(timing::CW_MAX)
                } else {
                    timing::CW_MIN
                };
                prop_assert_eq!(stations[i].frozen(), None, "a winner draws afresh next time");
                prop_assert_eq!(stations[i].window(), window);
            } else {
                prop_assert_eq!(stations[i].frozen(), Some(c - min), "losers count down by the minimum");
                prop_assert_eq!(stations[i].window(), before[i].window());
            }
        }
        for i in (0..stations_n).filter(|i| !contenders.contains(i)) {
            prop_assert_eq!(stations[i].frozen(), before[i].frozen(), "outsiders keep their counter");
            prop_assert_eq!(stations[i].window(), before[i].window());
        }
    }
}
