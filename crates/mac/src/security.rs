//! Link-layer security bindings: open, WEP, or WPA2 (CCMP) networks.
//!
//! WiTAG's headline compatibility claim (paper §1, §4) is that the tag
//! never reads or rewrites frame contents, so encryption is irrelevant to
//! it. This module is what makes that claim testable end-to-end: MPDUs on
//! a protected network have their payloads encrypted/decrypted here, and
//! the integration tests drive identical tag traffic over all three modes.

use crate::header::MacHeader;
use witag_crypto::{CcmpError, CcmpKey, WepError, WepKey};

/// Per-link security configuration and state.
pub enum Security {
    /// Open network — payloads in the clear.
    Open,
    /// WEP (RC4 + CRC-32 ICV).
    Wep(WepKey),
    /// WPA2 data protection (AES-CCMP).
    Wpa2(Box<CcmpKey>),
}

impl core::fmt::Debug for Security {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Security::Open => write!(f, "Security::Open"),
            Security::Wep(_) => write!(f, "Security::Wep"),
            Security::Wpa2(_) => write!(f, "Security::Wpa2"),
        }
    }
}

/// Payload protection errors surfaced to the MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityError {
    /// CCMP failure (MIC, replay, truncation).
    Ccmp(CcmpError),
    /// WEP failure (ICV, truncation).
    Wep(WepError),
}

impl core::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SecurityError::Ccmp(e) => write!(f, "CCMP: {e}"),
            SecurityError::Wep(e) => write!(f, "WEP: {e}"),
        }
    }
}

impl std::error::Error for SecurityError {}

impl Security {
    /// `true` if MPDUs should set the Protected Frame bit.
    pub fn is_protected(&self) -> bool {
        !matches!(self, Security::Open)
    }

    /// Protect a plaintext payload for the given header.
    pub fn encrypt(&mut self, header: &MacHeader, plaintext: &[u8]) -> Vec<u8> {
        match self {
            Security::Open => plaintext.to_vec(),
            Security::Wep(key) => key.encrypt(plaintext),
            Security::Wpa2(key) => {
                let hdr_bytes = header.to_bytes();
                key.encrypt(&hdr_bytes, &header.addr2.0, header.tid, plaintext)
            }
        }
    }

    /// Recover the plaintext payload of a received MPDU.
    pub fn decrypt(
        &mut self,
        header: &MacHeader,
        payload: &[u8],
    ) -> Result<Vec<u8>, SecurityError> {
        match self {
            Security::Open => Ok(payload.to_vec()),
            Security::Wep(key) => key.decrypt(payload).map_err(SecurityError::Wep),
            Security::Wpa2(key) => {
                let hdr_bytes = header.to_bytes();
                key.decrypt(&hdr_bytes, &header.addr2.0, header.tid, payload)
                    .map_err(SecurityError::Ccmp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Addr, FrameKind, MacHeader};

    fn header(protected: bool) -> MacHeader {
        let mut h = MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), 5);
        h.kind = FrameKind::QosData;
        h.protected = protected;
        h
    }

    #[test]
    fn open_passthrough() {
        let mut sec = Security::Open;
        let h = header(false);
        let ct = sec.encrypt(&h, b"hello");
        assert_eq!(ct, b"hello");
        assert_eq!(sec.decrypt(&h, &ct).unwrap(), b"hello");
        assert!(!sec.is_protected());
    }

    #[test]
    fn wep_roundtrip() {
        let mut tx = Security::Wep(WepKey::new(b"ABCDE"));
        let mut rx = Security::Wep(WepKey::new(b"ABCDE"));
        let h = header(true);
        let ct = sec_roundtrip(&mut tx, &mut rx, &h, b"sensor payload");
        assert_ne!(ct, b"sensor payload".to_vec());
        assert!(tx.is_protected());
    }

    #[test]
    fn wpa2_roundtrip() {
        let mut tx = Security::Wpa2(Box::new(CcmpKey::new(&[9u8; 16])));
        let mut rx = Security::Wpa2(Box::new(CcmpKey::new(&[9u8; 16])));
        let h = header(true);
        let ct = sec_roundtrip(&mut tx, &mut rx, &h, b"sensor payload");
        assert_ne!(ct, b"sensor payload".to_vec());
    }

    /// Encrypt with `tx`, decrypt with `rx`, assert plaintext recovered;
    /// returns the ciphertext.
    fn sec_roundtrip(tx: &mut Security, rx: &mut Security, h: &MacHeader, pt: &[u8]) -> Vec<u8> {
        let ct = tx.encrypt(h, pt);
        assert_eq!(rx.decrypt(h, &ct).unwrap(), pt);
        ct
    }

    #[test]
    fn wpa2_tamper_detected() {
        let mut tx = Security::Wpa2(Box::new(CcmpKey::new(&[9u8; 16])));
        let mut rx = Security::Wpa2(Box::new(CcmpKey::new(&[9u8; 16])));
        let h = header(true);
        let mut ct = tx.encrypt(&h, b"data");
        ct[9] ^= 0x80;
        assert!(matches!(
            rx.decrypt(&h, &ct),
            Err(SecurityError::Ccmp(CcmpError::MicMismatch))
        ));
    }

    #[test]
    fn wep_tamper_detected() {
        let mut tx = Security::Wep(WepKey::new(b"ABCDE"));
        let mut rx = Security::Wep(WepKey::new(b"ABCDE"));
        let h = header(true);
        let mut ct = tx.encrypt(&h, b"data");
        let n = ct.len();
        ct[n - 1] ^= 0x01;
        assert!(matches!(
            rx.decrypt(&h, &ct),
            Err(SecurityError::Wep(WepError::IcvMismatch))
        ));
    }
}
