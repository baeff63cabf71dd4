//! Compressed block ACK frames (IEEE 802.11-2016 §9.3.1.9).
//!
//! The block ACK's 64-bit bitmap is WiTAG's downlink: bit `i` is 1 iff the
//! MPDU with sequence number `ssn + i` arrived with a valid FCS. The AP
//! emits this frame as a matter of standard MAC operation; the client
//! reads the tag's data straight out of it (paper §4, step 2). Neither
//! device knows a tag exists.

use crate::ampdu::SubframeOutcome;
use crate::header::Addr;
use witag_crypto::{verify_fcs, with_fcs};

/// Compressed block ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAck {
    /// Receiver address (the original A-MPDU's transmitter).
    pub ra: Addr,
    /// Transmitter address (the AP sending the BA).
    pub ta: Addr,
    /// TID the BA covers.
    pub tid: u8,
    /// Starting sequence number of the bitmap window.
    pub ssn: u16,
    /// Bit `i` set ⇔ MPDU `ssn + i` received correctly.
    pub bitmap: u64,
}

/// Wire length: FC(2) dur(2) RA(6) TA(6) BA-ctl(2) SSC(2) bitmap(8) FCS(4).
pub const BLOCK_ACK_WIRE_LEN: usize = 32;

impl BlockAck {
    /// Build a block ACK from de-aggregation outcomes: sets bit
    /// `seq − ssn` for every subframe whose MPDU FCS verified.
    ///
    /// Outcomes whose sequence number falls outside the 64-frame window
    /// are ignored (out-of-window frames are unacknowledged, as per the
    /// standard).
    pub fn from_outcomes(
        ra: Addr,
        ta: Addr,
        tid: u8,
        ssn: u16,
        outcomes: &[SubframeOutcome],
    ) -> Self {
        let mut bitmap = 0u64;
        for o in outcomes {
            if let Some(mpdu) = &o.mpdu {
                let offset = (mpdu.header.seq.wrapping_sub(ssn)) & 0x0FFF;
                if offset < 64 {
                    bitmap |= 1 << offset;
                }
            }
        }
        BlockAck {
            ra,
            ta,
            tid,
            ssn,
            bitmap,
        }
    }

    /// Extract the `n` tag bits the WiTAG client reads: bit `i` of the
    /// bitmap, in window order. (1 = subframe delivered = tag sent `1`;
    /// 0 = subframe missing = tag sent `0`.)
    pub fn tag_bits(&self, n: usize) -> Vec<u8> {
        assert!(n <= 64, "bitmap carries at most 64 bits");
        (0..n).map(|i| ((self.bitmap >> i) & 1) as u8).collect()
    }

    /// Number of acknowledged subframes.
    pub fn acked_count(&self) -> u32 {
        self.bitmap.count_ones()
    }

    /// The observability event describing this assembly: the bitmap is
    /// WiTAG's downlink, so tracing it closes the loop between what the
    /// channel corrupted and what the client will read. `round` is the
    /// simulation round stamp; `subframes` how many the query carried.
    pub fn assembly_event(&self, round: u64, subframes: usize) -> witag_obs::Event {
        witag_obs::Event::BlockAckAssembled {
            round,
            subframes: subframes as u32,
            acked: self.acked_count(),
            bitmap: self.bitmap,
        }
    }

    /// Serialise to on-air bytes (with FCS).
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.ssn < 4096 && self.tid < 16);
        let mut body = Vec::with_capacity(BLOCK_ACK_WIRE_LEN - 4);
        // Frame control: type 1 (control), subtype 9 (block ACK).
        let fc: u16 = (1 << 2) | (9 << 4);
        body.extend_from_slice(&fc.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes()); // duration
        body.extend_from_slice(&self.ra.0);
        body.extend_from_slice(&self.ta.0);
        // BA control: compressed bitmap (bit 2), TID in bits 12..16.
        let ba_ctl: u16 = (1 << 2) | ((self.tid as u16) << 12);
        body.extend_from_slice(&ba_ctl.to_le_bytes());
        body.extend_from_slice(&(self.ssn << 4).to_le_bytes());
        body.extend_from_slice(&self.bitmap.to_le_bytes());
        with_fcs(&body)
    }

    /// Parse an on-air block ACK, verifying FCS and frame type.
    pub fn from_bytes(buf: &[u8]) -> Option<BlockAck> {
        let body = verify_fcs(buf)?;
        if body.len() != BLOCK_ACK_WIRE_LEN - 4 {
            return None;
        }
        let fc = u16::from_le_bytes([body[0], body[1]]);
        if fc & 0xFC != ((1 << 2) | (9 << 4)) {
            return None;
        }
        let addr = |o: usize| {
            let mut a = [0u8; 6];
            a.copy_from_slice(&body[o..o + 6]);
            Addr(a)
        };
        let ra = addr(4);
        let ta = addr(10);
        let ba_ctl = u16::from_le_bytes([body[16], body[17]]);
        let ssc = u16::from_le_bytes([body[18], body[19]]);
        let mut bm = [0u8; 8];
        bm.copy_from_slice(&body[20..28]);
        Some(BlockAck {
            ra,
            ta,
            tid: (ba_ctl >> 12) as u8,
            ssn: ssc >> 4,
            bitmap: u64::from_le_bytes(bm),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ampdu::{aggregate, deaggregate, Mpdu};
    use crate::header::MacHeader;

    fn outcomes_with_losses(losses: &[usize]) -> Vec<SubframeOutcome> {
        let mpdus: Vec<Mpdu> = (0..16)
            .map(|seq| Mpdu {
                header: MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq),
                payload: Vec::new(),
            })
            .collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        for &l in losses {
            let e = extents[l];
            for b in &mut psdu[e.mpdu_start..e.mpdu_start + e.mpdu_len] {
                *b ^= 0x55;
            }
        }
        deaggregate(&psdu)
    }

    #[test]
    fn bitmap_reflects_losses() {
        let ba = BlockAck::from_outcomes(
            Addr::local(2),
            Addr::local(1),
            0,
            0,
            &outcomes_with_losses(&[2, 5, 11]),
        );
        assert_eq!(ba.acked_count(), 13);
        let bits = ba.tag_bits(16);
        for (i, &b) in bits.iter().enumerate() {
            let expect = if [2usize, 5, 11].contains(&i) { 0 } else { 1 };
            assert_eq!(b, expect, "bit {i}");
        }
    }

    #[test]
    fn wire_roundtrip() {
        let ba = BlockAck {
            ra: Addr::local(7),
            ta: Addr::local(8),
            tid: 3,
            ssn: 100,
            bitmap: 0xDEAD_BEEF_0BAD_F00D,
        };
        let bytes = ba.to_bytes();
        assert_eq!(bytes.len(), BLOCK_ACK_WIRE_LEN);
        assert_eq!(BlockAck::from_bytes(&bytes), Some(ba));
    }

    #[test]
    fn corrupted_ba_rejected() {
        let ba = BlockAck {
            ra: Addr::local(7),
            ta: Addr::local(8),
            tid: 0,
            ssn: 0,
            bitmap: u64::MAX,
        };
        let mut bytes = ba.to_bytes();
        bytes[20] ^= 1;
        assert_eq!(BlockAck::from_bytes(&bytes), None);
    }

    #[test]
    fn nonzero_ssn_window() {
        let mpdus: Vec<Mpdu> = (100..108)
            .map(|seq| Mpdu {
                header: MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq),
                payload: Vec::new(),
            })
            .collect();
        let (psdu, _) = aggregate(&mpdus);
        let ba =
            BlockAck::from_outcomes(Addr::local(2), Addr::local(1), 0, 100, &deaggregate(&psdu));
        assert_eq!(ba.tag_bits(8), vec![1; 8]);
    }

    #[test]
    fn out_of_window_sequences_ignored() {
        let mpdus: Vec<Mpdu> = [0u16, 200]
            .iter()
            .map(|&seq| Mpdu {
                header: MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq),
                payload: Vec::new(),
            })
            .collect();
        let (psdu, _) = aggregate(&mpdus);
        let ba = BlockAck::from_outcomes(Addr::local(2), Addr::local(1), 0, 0, &deaggregate(&psdu));
        assert_eq!(ba.bitmap, 1, "only seq 0 falls inside the window");
    }

    #[test]
    fn tag_bits_cap() {
        let ba = BlockAck {
            ra: Addr::local(1),
            ta: Addr::local(2),
            tid: 0,
            ssn: 0,
            bitmap: u64::MAX,
        };
        assert_eq!(ba.tag_bits(64).len(), 64);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_tag_bits_panics() {
        let ba = BlockAck {
            ra: Addr::local(1),
            ta: Addr::local(2),
            tid: 0,
            ssn: 0,
            bitmap: 0,
        };
        let _ = ba.tag_bits(65);
    }
}
