//! WEP (Wired Equivalent Privacy) per the original 802.11-1997 design.
//!
//! `ciphertext = RC4(IV ‖ key) ⊕ (plaintext ‖ CRC32(plaintext))`, with the
//! 3-byte IV sent in clear. The CRC-32 **ICV** (integrity check value) is
//! what a HitchHike-style tag breaks when it rewrites PHY symbols: the
//! payload no longer matches the ICV after decryption and the AP discards
//! the frame. WiTAG never modifies surviving frames, so the ICV always
//! verifies.

use crate::crc::crc32;
use crate::rc4::Rc4;

/// WEP processing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WepError {
    /// Frame shorter than IV + ICV.
    Truncated,
    /// ICV check failed after decryption.
    IcvMismatch,
}

impl core::fmt::Display for WepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WepError::Truncated => write!(f, "frame too short for WEP"),
            WepError::IcvMismatch => write!(f, "WEP ICV mismatch (corrupted or tampered)"),
        }
    }
}

impl std::error::Error for WepError {}

/// IV length in bytes (sent in the clear before the ciphertext).
pub const IV_LEN: usize = 3;
/// ICV length (encrypted CRC-32 trailer).
pub const ICV_LEN: usize = 4;

/// A WEP key (40-bit "WEP-40" or 104-bit "WEP-104").
#[derive(Clone)]
pub struct WepKey {
    key: Vec<u8>,
    next_iv: u32,
}

impl core::fmt::Debug for WepKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "WepKey {{ len: {}, next_iv: {} }}",
            self.key.len(),
            self.next_iv
        )
    }
}

impl WepKey {
    /// Install a 5-byte (WEP-40) or 13-byte (WEP-104) key.
    ///
    /// # Panics
    /// Panics on any other key length.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            key.len() == 5 || key.len() == 13,
            "WEP keys are 5 (WEP-40) or 13 (WEP-104) bytes"
        );
        WepKey {
            key: key.to_vec(),
            next_iv: 0,
        }
    }

    fn seed(&self, iv: [u8; IV_LEN]) -> Vec<u8> {
        let mut seed = Vec::with_capacity(IV_LEN + self.key.len());
        seed.extend_from_slice(&iv);
        seed.extend_from_slice(&self.key);
        seed
    }

    /// Encrypt `plaintext`, returning `IV ‖ RC4(plaintext ‖ ICV)`.
    pub fn encrypt(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let iv_num = self.next_iv;
        self.next_iv = (self.next_iv + 1) & 0x00FF_FFFF;
        let iv = [(iv_num >> 16) as u8, (iv_num >> 8) as u8, iv_num as u8];
        let mut body = Vec::with_capacity(plaintext.len() + ICV_LEN);
        body.extend_from_slice(plaintext);
        body.extend_from_slice(&crc32(plaintext).to_le_bytes());
        Rc4::new(&self.seed(iv)).apply(&mut body);
        let mut out = Vec::with_capacity(IV_LEN + body.len());
        out.extend_from_slice(&iv);
        out.extend_from_slice(&body);
        out
    }

    /// Decrypt a WEP frame body and verify the ICV.
    pub fn decrypt(&self, frame: &[u8]) -> Result<Vec<u8>, WepError> {
        if frame.len() < IV_LEN + ICV_LEN {
            return Err(WepError::Truncated);
        }
        let iv = [frame[0], frame[1], frame[2]];
        let mut body = frame[IV_LEN..].to_vec();
        Rc4::new(&self.seed(iv)).apply(&mut body);
        let (pt, icv) = body.split_at(body.len() - ICV_LEN);
        let expected = u32::from_le_bytes([icv[0], icv[1], icv[2], icv[3]]);
        if crc32(pt) != expected {
            return Err(WepError::IcvMismatch);
        }
        Ok(pt.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_wep40() {
        let mut tx = WepKey::new(b"ABCDE");
        let rx = WepKey::new(b"ABCDE");
        let frame = tx.encrypt(b"hello wep");
        assert_eq!(rx.decrypt(&frame).unwrap(), b"hello wep");
    }

    #[test]
    fn roundtrip_wep104() {
        let mut tx = WepKey::new(b"0123456789abc");
        let rx = WepKey::new(b"0123456789abc");
        let frame = tx.encrypt(b"payload bytes here");
        assert_eq!(rx.decrypt(&frame).unwrap(), b"payload bytes here");
    }

    #[test]
    fn iv_rotates_per_frame() {
        let mut tx = WepKey::new(b"ABCDE");
        let f1 = tx.encrypt(b"same");
        let f2 = tx.encrypt(b"same");
        assert_ne!(f1, f2, "distinct IVs must give distinct ciphertexts");
        assert_ne!(&f1[..3], &f2[..3]);
    }

    #[test]
    fn tamper_breaks_icv() {
        // The HitchHike failure mode on a WEP network: a modified payload
        // bit decrypts to garbage that no longer matches the ICV.
        let mut tx = WepKey::new(b"ABCDE");
        let rx = WepKey::new(b"ABCDE");
        let mut frame = tx.encrypt(b"sensor data");
        frame[5] ^= 0x10;
        assert_eq!(rx.decrypt(&frame), Err(WepError::IcvMismatch));
    }

    #[test]
    fn wrong_key_fails() {
        let mut tx = WepKey::new(b"ABCDE");
        let rx = WepKey::new(b"VWXYZ");
        let frame = tx.encrypt(b"data");
        assert_eq!(rx.decrypt(&frame), Err(WepError::IcvMismatch));
    }

    #[test]
    fn truncated_rejected() {
        let rx = WepKey::new(b"ABCDE");
        assert_eq!(rx.decrypt(&[1, 2, 3]), Err(WepError::Truncated));
    }

    #[test]
    #[should_panic(expected = "WEP keys")]
    fn bad_key_length_panics() {
        let _ = WepKey::new(b"toolongforwep40!");
    }
}
