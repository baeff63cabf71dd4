//! 802.11 MAC header wire format.
//!
//! Implements the subset of the frame format the reproduction needs: QoS
//! data frames (what query A-MPDUs are made of) and the control-frame
//! fields shared with block ACKs. Parse/emit is smoltcp-style: explicit
//! byte layout, validation on parse, no silent truncation.

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Addr(pub [u8; 6]);

impl Addr {
    /// A locally administered address derived from a small id (handy for
    /// tests and simulations).
    pub const fn local(id: u8) -> Addr {
        Addr([0x02, 0x00, 0x00, 0x00, 0x00, id])
    }
}

impl core::fmt::Display for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Frame type/subtype combinations used by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// QoS data frame (type 2, subtype 8).
    QosData,
    /// QoS null frame (type 2, subtype 12) — header-only, the minimal
    /// subframe WiTAG queries are built from (paper §4.1).
    QosNull,
    /// Block ACK request (type 1, subtype 8).
    BlockAckReq,
    /// Block ACK (type 1, subtype 9).
    BlockAck,
}

impl FrameKind {
    /// (type, subtype) pair.
    const fn type_subtype(self) -> (u8, u8) {
        match self {
            FrameKind::QosData => (2, 8),
            FrameKind::QosNull => (2, 12),
            FrameKind::BlockAckReq => (1, 8),
            FrameKind::BlockAck => (1, 9),
        }
    }

    fn from_type_subtype(ty: u8, subtype: u8) -> Option<FrameKind> {
        match (ty, subtype) {
            (2, 8) => Some(FrameKind::QosData),
            (2, 12) => Some(FrameKind::QosNull),
            (1, 8) => Some(FrameKind::BlockAckReq),
            (1, 9) => Some(FrameKind::BlockAck),
            _ => None,
        }
    }
}

/// Length of a QoS data/null MAC header: 24 base + 2 QoS control.
pub const QOS_HEADER_LEN: usize = 26;

/// A QoS data/null MAC header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacHeader {
    /// Frame kind (encoded into frame control).
    pub kind: FrameKind,
    /// `true` if the Protected Frame bit is set (payload is CCMP/WEP).
    pub protected: bool,
    /// Duration/ID field (µs).
    pub duration: u16,
    /// Receiver address.
    pub addr1: Addr,
    /// Transmitter address.
    pub addr2: Addr,
    /// BSSID / destination.
    pub addr3: Addr,
    /// Sequence number (0..4096); fragment number fixed at 0.
    pub seq: u16,
    /// QoS TID (0..16).
    pub tid: u8,
}

/// Errors from parsing MAC frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacParseError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Unknown or unsupported type/subtype.
    UnsupportedKind,
    /// Header field holds an out-of-range value.
    FieldRange,
}

impl core::fmt::Display for MacParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MacParseError::Truncated => write!(f, "frame truncated"),
            MacParseError::UnsupportedKind => write!(f, "unsupported frame type/subtype"),
            MacParseError::FieldRange => write!(f, "header field out of range"),
        }
    }
}

impl std::error::Error for MacParseError {}

impl MacHeader {
    /// Build a QoS-null header — a query subframe's entire contents.
    pub fn qos_null(addr1: Addr, addr2: Addr, addr3: Addr, seq: u16) -> Self {
        MacHeader {
            kind: FrameKind::QosNull,
            protected: false,
            duration: 0,
            addr1,
            addr2,
            addr3,
            seq,
            tid: 0,
        }
    }

    /// Serialise to the 26-byte wire form.
    pub fn to_bytes(&self) -> [u8; QOS_HEADER_LEN] {
        assert!(self.seq < 4096, "sequence number is 12 bits");
        assert!(self.tid < 16, "TID is 4 bits");
        let (ty, subtype) = self.kind.type_subtype();
        let mut fc: u16 = ((ty as u16) << 2) | ((subtype as u16) << 4);
        if self.protected {
            fc |= 1 << 14;
        }
        let mut out = [0u8; QOS_HEADER_LEN];
        out[0..2].copy_from_slice(&fc.to_le_bytes());
        out[2..4].copy_from_slice(&self.duration.to_le_bytes());
        out[4..10].copy_from_slice(&self.addr1.0);
        out[10..16].copy_from_slice(&self.addr2.0);
        out[16..22].copy_from_slice(&self.addr3.0);
        out[22..24].copy_from_slice(&(self.seq << 4).to_le_bytes());
        out[24..26].copy_from_slice(&(self.tid as u16).to_le_bytes());
        out
    }

    /// Parse the 26-byte wire form.
    pub fn from_bytes(buf: &[u8]) -> Result<MacHeader, MacParseError> {
        if buf.len() < QOS_HEADER_LEN {
            return Err(MacParseError::Truncated);
        }
        let fc = u16::from_le_bytes([buf[0], buf[1]]);
        let version = fc & 0b11;
        if version != 0 {
            return Err(MacParseError::FieldRange);
        }
        let ty = ((fc >> 2) & 0b11) as u8;
        let subtype = ((fc >> 4) & 0b1111) as u8;
        let kind =
            FrameKind::from_type_subtype(ty, subtype).ok_or(MacParseError::UnsupportedKind)?;
        let protected = fc & (1 << 14) != 0;
        let duration = u16::from_le_bytes([buf[2], buf[3]]);
        let addr = |o: usize| {
            let mut a = [0u8; 6];
            a.copy_from_slice(&buf[o..o + 6]);
            Addr(a)
        };
        let addr1 = addr(4);
        let addr2 = addr(10);
        let addr3 = addr(16);
        let seq_ctl = u16::from_le_bytes([buf[22], buf[23]]);
        let qos = u16::from_le_bytes([buf[24], buf[25]]);
        Ok(MacHeader {
            kind,
            protected,
            duration,
            addr1,
            addr2,
            addr3,
            seq: seq_ctl >> 4,
            tid: (qos & 0xF) as u8,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MacHeader {
        MacHeader {
            kind: FrameKind::QosData,
            protected: true,
            duration: 44,
            addr1: Addr::local(1),
            addr2: Addr::local(2),
            addr3: Addr::local(3),
            seq: 1234,
            tid: 5,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let bytes = h.to_bytes();
        assert_eq!(MacHeader::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn qos_null_roundtrip() {
        let h = MacHeader::qos_null(Addr::local(9), Addr::local(8), Addr::local(9), 4095);
        let parsed = MacHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed.kind, FrameKind::QosNull);
        assert_eq!(parsed.seq, 4095);
        assert!(!parsed.protected);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            MacHeader::from_bytes(&[0u8; 10]),
            Err(MacParseError::Truncated)
        );
    }

    #[test]
    fn unknown_subtype_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0xF0 | 0x0C; // type 3 (reserved)
        assert_eq!(
            MacHeader::from_bytes(&bytes),
            Err(MacParseError::UnsupportedKind)
        );
    }

    #[test]
    fn nonzero_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] |= 0b01;
        assert_eq!(
            MacHeader::from_bytes(&bytes),
            Err(MacParseError::FieldRange)
        );
    }

    #[test]
    fn protected_bit_carried() {
        let mut h = sample();
        h.protected = false;
        let parsed = MacHeader::from_bytes(&h.to_bytes()).unwrap();
        assert!(!parsed.protected);
    }

    #[test]
    fn addr_display() {
        assert_eq!(Addr::local(0x2A).to_string(), "02:00:00:00:00:2a");
    }

    #[test]
    #[should_panic(expected = "12 bits")]
    fn oversized_seq_panics() {
        let mut h = sample();
        h.seq = 4096;
        let _ = h.to_bytes();
    }
}
