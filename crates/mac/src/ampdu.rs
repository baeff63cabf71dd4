//! MPDUs and A-MPDU aggregation (IEEE 802.11-2016 §9.7).
//!
//! An A-MPDU is a train of `[delimiter ‖ MPDU ‖ pad]` subframes packed
//! into one PSDU. Each 4-byte delimiter carries the MPDU length, a CRC-8
//! over its own fields, and the signature byte 0x4E ('N'): together these
//! let a receiver *re-synchronise* after a corrupted subframe by scanning
//! forward for the next valid delimiter — which is exactly what makes
//! WiTAG work: one corrupted subframe is reported as missing in the block
//! ACK while its neighbours still deliver.
//!
//! The parser here implements that scan-forward recovery, and the
//! aggregation API reports each subframe's byte extent within the PSDU —
//! the geometry the tag's corruption schedule is built from.

use crate::header::{MacHeader, QOS_HEADER_LEN};
use witag_crypto::{crc8, verify_fcs, with_fcs};

/// Delimiter signature byte ('N').
pub const DELIMITER_SIGNATURE: u8 = 0x4E;
/// Delimiter length in bytes.
pub const DELIMITER_LEN: usize = 4;
/// Maximum MPDU length representable in the delimiter (12 bits... HT uses
/// 12 bits plus 2 scale bits; the reproduction never needs more than 4095).
pub const MAX_MPDU_LEN: usize = 4095;

/// One MAC protocol data unit: header + (possibly encrypted) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mpdu {
    /// MAC header.
    pub header: MacHeader,
    /// Frame body (ciphertext if `header.protected`).
    pub payload: Vec<u8>,
}

impl Mpdu {
    /// Serialise to on-air bytes: header ‖ payload ‖ FCS.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(QOS_HEADER_LEN + self.payload.len());
        body.extend_from_slice(&self.header.to_bytes());
        body.extend_from_slice(&self.payload);
        with_fcs(&body)
    }

    /// Parse and FCS-verify an on-air MPDU.
    pub fn from_bytes(buf: &[u8]) -> Option<Mpdu> {
        let body = verify_fcs(buf)?;
        let header = MacHeader::from_bytes(body).ok()?;
        Some(Mpdu {
            header,
            payload: body[QOS_HEADER_LEN..].to_vec(),
        })
    }

    /// On-air length (header + payload + FCS).
    pub fn wire_len(&self) -> usize {
        QOS_HEADER_LEN + self.payload.len() + 4
    }
}

/// Build one 4-byte delimiter for an MPDU of `len` bytes.
pub fn delimiter(len: usize) -> [u8; DELIMITER_LEN] {
    assert!(len <= MAX_MPDU_LEN, "MPDU too long for delimiter");
    // Bits 4..16 carry the length (bits 0..4 EOF/reserved, kept zero).
    let field: u16 = (len as u16) << 4;
    let fb = field.to_le_bytes();
    [fb[0], fb[1], crc8(&fb), DELIMITER_SIGNATURE]
}

/// Check a delimiter; returns the MPDU length on success.
pub fn parse_delimiter(buf: &[u8]) -> Option<usize> {
    if buf.len() < DELIMITER_LEN {
        return None;
    }
    if buf[3] != DELIMITER_SIGNATURE || crc8(&buf[0..2]) != buf[2] {
        return None;
    }
    let field = u16::from_le_bytes([buf[0], buf[1]]);
    Some((field >> 4) as usize)
}

/// Byte extent of one subframe within the PSDU (delimiter + MPDU + pad).
/// Corrupting *any* byte in this range destroys the subframe as far as
/// the receiver is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubframeExtent {
    /// First PSDU byte of the subframe's delimiter.
    pub start: usize,
    /// One past the subframe's final byte (including pad).
    pub end: usize,
    /// First byte of the MPDU proper (after the delimiter).
    pub mpdu_start: usize,
    /// Length of the MPDU in bytes.
    pub mpdu_len: usize,
}

/// Aggregate MPDUs into a PSDU. Returns the PSDU bytes plus each
/// subframe's extent. Every subframe except the last is padded to a
/// 4-byte boundary (§9.7.3).
///
/// # Panics
/// Panics on an empty MPDU list or an oversized MPDU.
pub fn aggregate(mpdus: &[Mpdu]) -> (Vec<u8>, Vec<SubframeExtent>) {
    assert!(!mpdus.is_empty(), "A-MPDU needs at least one MPDU");
    let mut psdu = Vec::new();
    let mut extents = Vec::with_capacity(mpdus.len());
    for (i, mpdu) in mpdus.iter().enumerate() {
        let bytes = mpdu.to_bytes();
        let start = psdu.len();
        psdu.extend_from_slice(&delimiter(bytes.len()));
        let mpdu_start = psdu.len();
        psdu.extend_from_slice(&bytes);
        if i != mpdus.len() - 1 {
            while psdu.len() % 4 != 0 {
                psdu.push(0);
            }
        }
        extents.push(SubframeExtent {
            start,
            end: psdu.len(),
            mpdu_start,
            mpdu_len: bytes.len(),
        });
    }
    (psdu, extents)
}

/// Result of de-aggregating one subframe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubframeOutcome {
    /// The recovered MPDU, if its FCS verified.
    pub mpdu: Option<Mpdu>,
    /// Where in the PSDU the subframe was found.
    pub at: usize,
}

/// Walk a received PSDU, validating delimiters and FCS, recovering after
/// corruption by scanning forward (4-byte aligned) for the next valid
/// delimiter.
///
/// Returns one outcome per *found* subframe slot. A subframe whose
/// delimiter was destroyed entirely may be skipped (it simply goes
/// unacknowledged — the sender's block-ACK accounting treats it as lost,
/// and in WiTAG's encoding that is a `0`).
pub fn deaggregate(psdu: &[u8]) -> Vec<SubframeOutcome> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + DELIMITER_LEN <= psdu.len() {
        match parse_delimiter(&psdu[pos..]) {
            Some(len) if pos + DELIMITER_LEN + len <= psdu.len() && len >= QOS_HEADER_LEN + 4 => {
                let body = &psdu[pos + DELIMITER_LEN..pos + DELIMITER_LEN + len];
                out.push(SubframeOutcome {
                    mpdu: Mpdu::from_bytes(body),
                    at: pos,
                });
                pos += DELIMITER_LEN + len;
                while !pos.is_multiple_of(4) {
                    pos += 1;
                }
            }
            _ => {
                // Scan forward to the next 4-byte boundary and retry —
                // §9.7.3 receiver behaviour.
                pos = if pos.is_multiple_of(4) {
                    pos + 4
                } else {
                    pos + (4 - pos % 4)
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Addr;

    fn null_mpdu(seq: u16) -> Mpdu {
        Mpdu {
            header: MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq),
            payload: Vec::new(),
        }
    }

    fn data_mpdu(seq: u16, len: usize) -> Mpdu {
        let mut h = MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq);
        h.kind = crate::header::FrameKind::QosData;
        Mpdu {
            header: h,
            payload: vec![seq as u8; len],
        }
    }

    #[test]
    fn mpdu_roundtrip() {
        let m = data_mpdu(7, 100);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.wire_len());
        assert_eq!(Mpdu::from_bytes(&bytes), Some(m));
    }

    #[test]
    fn corrupted_mpdu_fails_fcs() {
        let mut bytes = data_mpdu(7, 100).to_bytes();
        bytes[40] ^= 0x01;
        assert_eq!(Mpdu::from_bytes(&bytes), None);
    }

    #[test]
    fn delimiter_roundtrip() {
        for len in [30usize, 100, 1500, 4095] {
            assert_eq!(parse_delimiter(&delimiter(len)), Some(len));
        }
    }

    #[test]
    fn delimiter_rejects_bad_signature_and_crc() {
        let mut d = delimiter(64);
        d[3] = 0x00;
        assert_eq!(parse_delimiter(&d), None);
        let mut d = delimiter(64);
        d[0] ^= 0x10;
        assert_eq!(parse_delimiter(&d), None);
    }

    #[test]
    fn aggregate_deaggregate_roundtrip() {
        let mpdus: Vec<Mpdu> = (0..64).map(null_mpdu).collect();
        let (psdu, extents) = aggregate(&mpdus);
        assert_eq!(extents.len(), 64);
        // Extents tile the PSDU without overlap.
        for w in extents.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(extents.last().unwrap().end, psdu.len());

        let outcomes = deaggregate(&psdu);
        assert_eq!(outcomes.len(), 64);
        for (i, o) in outcomes.iter().enumerate() {
            let m = o.mpdu.as_ref().expect("clean PSDU must parse fully");
            assert_eq!(m.header.seq, i as u16);
        }
    }

    #[test]
    fn mixed_sizes_aggregate() {
        let mpdus = vec![
            data_mpdu(0, 13),
            null_mpdu(1),
            data_mpdu(2, 777),
            null_mpdu(3),
        ];
        let (psdu, _) = aggregate(&mpdus);
        let outcomes = deaggregate(&psdu);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[2].mpdu.as_ref().unwrap().payload.len(), 777);
    }

    #[test]
    fn corrupting_one_subframe_spares_neighbours() {
        let mpdus: Vec<Mpdu> = (0..8).map(null_mpdu).collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        // Smash subframe 3's MPDU body (not the delimiter).
        let e = extents[3];
        for b in &mut psdu[e.mpdu_start..e.mpdu_start + e.mpdu_len] {
            *b ^= 0xFF;
        }
        let outcomes = deaggregate(&psdu);
        assert_eq!(outcomes.len(), 8);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 3 {
                assert!(o.mpdu.is_none(), "subframe 3 must fail FCS");
            } else {
                assert!(o.mpdu.is_some(), "subframe {i} must survive");
            }
        }
    }

    #[test]
    fn destroyed_delimiter_recovers_at_next_subframe() {
        let mpdus: Vec<Mpdu> = (0..8).map(null_mpdu).collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        // Destroy subframe 2 entirely, delimiter included.
        let e = extents[2];
        for b in &mut psdu[e.start..e.end] {
            *b = 0xAA;
        }
        let outcomes = deaggregate(&psdu);
        // Subframe 2 vanishes; 0,1 and 3..7 recovered.
        let seqs: Vec<u16> = outcomes
            .iter()
            .filter_map(|o| o.mpdu.as_ref().map(|m| m.header.seq))
            .collect();
        assert!(seqs.contains(&0) && seqs.contains(&1));
        for s in 3..8u16 {
            assert!(
                seqs.contains(&s),
                "subframe {s} must be recovered, got {seqs:?}"
            );
        }
        assert!(!seqs.contains(&2));
    }

    #[test]
    fn empty_psdu_yields_nothing() {
        assert!(deaggregate(&[]).is_empty());
        assert!(deaggregate(&[0u8; 3]).is_empty());
    }

    #[test]
    fn garbage_psdu_yields_nothing_valid() {
        let garbage: Vec<u8> = (0..512).map(|i| (i * 37) as u8).collect();
        let outcomes = deaggregate(&garbage);
        assert!(outcomes.iter().all(|o| o.mpdu.is_none()));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_aggregate_panics() {
        let _ = aggregate(&[]);
    }
}
