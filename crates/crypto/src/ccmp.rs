//! CCMP — WPA2 data confidentiality (AES in CCM mode, IEEE 802.11i §8.3.3).
//!
//! CCM = CTR encryption + CBC-MAC authentication with a single AES key.
//! The 802.11 construction binds each MPDU's ciphertext to:
//!
//! * a 48-bit **packet number** (PN, replay counter, carried in the CCMP
//!   header),
//! * the transmitter address, and
//! * additional authenticated data (AAD) derived from the (masked) MAC
//!   header.
//!
//! What matters for the WiTAG reproduction: the 8-byte MIC makes *any*
//! modification of protected bits detectable — this is exactly why
//! symbol-translation backscatter (HitchHike/FreeRider) cannot work on WPA
//! networks (paper §2), while WiTAG, which only ever destroys whole
//! subframes, is unaffected (the AP simply reports the subframe missing in
//! the block ACK). The integration tests exercise both sides of that claim.
//!
//! Simplifications vs the full standard: we use the standard M=8, L=2 CCM
//! parameters and a nonce of `priority ‖ A2 ‖ PN`, but derive the AAD from
//! the caller-supplied header bytes directly instead of re-masking every
//! subtype flag (the masking rules exist for QoS/retry bits that our MAC
//! model never mutates between encrypt and decrypt).

use crate::aes::Aes128;

/// CCMP encryption/decryption failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcmpError {
    /// Frame too short to carry the CCMP header and MIC.
    Truncated,
    /// MIC verification failed — the payload or header was tampered with.
    MicMismatch,
    /// Packet number not strictly increasing (replay).
    Replay,
}

impl core::fmt::Display for CcmpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CcmpError::Truncated => write!(f, "frame too short for CCMP"),
            CcmpError::MicMismatch => write!(f, "CCMP MIC mismatch (tampered frame)"),
            CcmpError::Replay => write!(f, "CCMP replay detected (stale PN)"),
        }
    }
}

impl std::error::Error for CcmpError {}

/// Length of the CCMP header prepended to the payload.
pub const CCMP_HEADER_LEN: usize = 8;
/// Length of the MIC appended to the payload.
pub const MIC_LEN: usize = 8;

/// A CCMP session key (the pairwise temporal key in a real handshake).
#[derive(Clone)]
pub struct CcmpKey {
    cipher: Aes128,
    /// Next PN to use when encrypting.
    tx_pn: u64,
    /// Highest PN accepted so far (replay window of size 1, like the spec's
    /// per-TID replay counter).
    rx_pn: u64,
}

impl core::fmt::Debug for CcmpKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "CcmpKey {{ tx_pn: {}, rx_pn: {} }}",
            self.tx_pn, self.rx_pn
        )
    }
}

impl CcmpKey {
    /// Install a 128-bit temporal key.
    pub fn new(key: &[u8; 16]) -> Self {
        CcmpKey {
            cipher: Aes128::new(key),
            tx_pn: 1,
            rx_pn: 0,
        }
    }

    /// Build the 13-byte CCM nonce: priority ‖ transmitter address ‖ PN.
    fn nonce(priority: u8, a2: &[u8; 6], pn: u64) -> [u8; 13] {
        let pn_bytes = pn.to_be_bytes();
        let mut n = [0u8; 13];
        n[0] = priority;
        n[1..7].copy_from_slice(a2);
        n[7..13].copy_from_slice(&pn_bytes[2..8]); // 48-bit PN, big-endian
        n
    }

    /// CTR-mode keystream block `i` for the given nonce.
    fn ctr_block(&self, nonce: &[u8; 13], counter: u16) -> [u8; 16] {
        // Flags byte for CTR: L' = L-1 = 1.
        let mut block = [0u8; 16];
        block[0] = 0x01;
        block[1..14].copy_from_slice(nonce);
        block[14..16].copy_from_slice(&counter.to_be_bytes());
        self.cipher.encrypt(&block)
    }

    /// CBC-MAC over B0 ‖ AAD blocks ‖ message blocks; returns the full tag.
    fn cbc_mac(&self, nonce: &[u8; 13], aad: &[u8], msg: &[u8]) -> [u8; 16] {
        // B0: flags ‖ nonce ‖ message length. Flags: Adata=1, M'=(8-2)/2=3,
        // L'=1 -> 0b0_1_011_001 = 0x59.
        let mut b0 = [0u8; 16];
        b0[0] = 0x59;
        b0[1..14].copy_from_slice(nonce);
        b0[14..16].copy_from_slice(&(msg.len() as u16).to_be_bytes());
        let mut x = self.cipher.encrypt(&b0);

        // AAD, prefixed by its 2-byte length, zero-padded to block size.
        let mut aad_stream = Vec::with_capacity(2 + aad.len() + 15);
        aad_stream.extend_from_slice(&(aad.len() as u16).to_be_bytes());
        aad_stream.extend_from_slice(aad);
        while aad_stream.len() % 16 != 0 {
            aad_stream.push(0);
        }
        for chunk in aad_stream.chunks(16) {
            for i in 0..16 {
                x[i] ^= chunk[i];
            }
            self.cipher.encrypt_block(&mut x);
        }

        // Message blocks, zero-padded.
        for chunk in msg.chunks(16) {
            for (i, &b) in chunk.iter().enumerate() {
                x[i] ^= b;
            }
            self.cipher.encrypt_block(&mut x);
        }
        x
    }

    /// Encrypt `plaintext`, producing `CCMP header ‖ ciphertext ‖ MIC`.
    ///
    /// `header` is the MAC header the AAD is derived from; `a2` the
    /// transmitter address; `priority` the QoS TID (0 for best effort).
    pub fn encrypt(
        &mut self,
        header: &[u8],
        a2: &[u8; 6],
        priority: u8,
        plaintext: &[u8],
    ) -> Vec<u8> {
        let pn = self.tx_pn;
        self.tx_pn += 1;
        let nonce = Self::nonce(priority, a2, pn);

        // MIC over AAD + plaintext, encrypted with CTR counter 0.
        let tag = self.cbc_mac(&nonce, header, plaintext);
        let s0 = self.ctr_block(&nonce, 0);
        let mut mic = [0u8; MIC_LEN];
        for i in 0..MIC_LEN {
            mic[i] = tag[i] ^ s0[i];
        }

        // CCMP header: PN0 PN1 rsvd keyid PN2..PN5 (PN little-end first).
        let pnb = pn.to_be_bytes();
        let mut out = Vec::with_capacity(CCMP_HEADER_LEN + plaintext.len() + MIC_LEN);
        out.extend_from_slice(&[pnb[7], pnb[6], 0x00, 0x20, pnb[5], pnb[4], pnb[3], pnb[2]]);

        // CTR encryption with counters 1..
        out.extend_from_slice(plaintext);
        for (i, chunk) in out[CCMP_HEADER_LEN..].chunks_mut(16).enumerate() {
            let ks = self.ctr_block(&nonce, (i + 1) as u16);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        out.extend_from_slice(&mic);
        out
    }

    /// Extract the PN from a CCMP header.
    fn parse_pn(ccmp_hdr: &[u8]) -> u64 {
        u64::from_be_bytes([
            0,
            0,
            ccmp_hdr[7],
            ccmp_hdr[6],
            ccmp_hdr[5],
            ccmp_hdr[4],
            ccmp_hdr[1],
            ccmp_hdr[0],
        ])
    }

    /// Decrypt and verify a protected payload produced by [`encrypt`].
    ///
    /// Enforces strictly-increasing PNs (replay protection).
    ///
    /// [`encrypt`]: CcmpKey::encrypt
    pub fn decrypt(
        &mut self,
        header: &[u8],
        a2: &[u8; 6],
        priority: u8,
        protected: &[u8],
    ) -> Result<Vec<u8>, CcmpError> {
        if protected.len() < CCMP_HEADER_LEN + MIC_LEN {
            return Err(CcmpError::Truncated);
        }
        let pn = Self::parse_pn(&protected[..CCMP_HEADER_LEN]);
        if pn <= self.rx_pn {
            return Err(CcmpError::Replay);
        }
        let nonce = Self::nonce(priority, a2, pn);

        let ct = &protected[CCMP_HEADER_LEN..protected.len() - MIC_LEN];
        let rx_mic = &protected[protected.len() - MIC_LEN..];

        // CTR-decrypt.
        let mut pt = ct.to_vec();
        for (i, chunk) in pt.chunks_mut(16).enumerate() {
            let ks = self.ctr_block(&nonce, (i + 1) as u16);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }

        // Verify MIC.
        let tag = self.cbc_mac(&nonce, header, &pt);
        let s0 = self.ctr_block(&nonce, 0);
        let mut expected = [0u8; MIC_LEN];
        for i in 0..MIC_LEN {
            expected[i] = tag[i] ^ s0[i];
        }
        if expected != rx_mic {
            return Err(CcmpError::MicMismatch);
        }
        self.rx_pn = pn;
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_pair() -> (CcmpKey, CcmpKey) {
        let k = [0x0F; 16];
        (CcmpKey::new(&k), CcmpKey::new(&k))
    }

    const A2: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x01];
    const HDR: &[u8] = &[0x88, 0x41, 0x2C, 0x00, 1, 2, 3, 4, 5, 6];

    #[test]
    fn roundtrip() {
        let (mut tx, mut rx) = key_pair();
        let pt = b"sensor reading: 21.5C";
        let protected = tx.encrypt(HDR, &A2, 0, pt);
        assert_eq!(rx.decrypt(HDR, &A2, 0, &protected).unwrap(), pt);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (mut tx, _) = key_pair();
        let pt = vec![0xAA; 64];
        let protected = tx.encrypt(HDR, &A2, 0, &pt);
        let body = &protected[CCMP_HEADER_LEN..protected.len() - MIC_LEN];
        assert_ne!(body, &pt[..]);
    }

    #[test]
    fn payload_tamper_detected() {
        let (mut tx, mut rx) = key_pair();
        let mut protected = tx.encrypt(HDR, &A2, 0, b"data");
        let idx = CCMP_HEADER_LEN; // first ciphertext byte
        protected[idx] ^= 0x01;
        assert_eq!(
            rx.decrypt(HDR, &A2, 0, &protected),
            Err(CcmpError::MicMismatch)
        );
    }

    #[test]
    fn header_tamper_detected() {
        // This is the HitchHike failure mode: flipping protected bits
        // breaks the MIC even though the frame still "parses".
        let (mut tx, mut rx) = key_pair();
        let protected = tx.encrypt(HDR, &A2, 0, b"data");
        let mut other_hdr = HDR.to_vec();
        other_hdr[4] ^= 0xFF;
        assert_eq!(
            rx.decrypt(&other_hdr, &A2, 0, &protected),
            Err(CcmpError::MicMismatch)
        );
    }

    #[test]
    fn replay_rejected() {
        let (mut tx, mut rx) = key_pair();
        let protected = tx.encrypt(HDR, &A2, 0, b"one");
        assert!(rx.decrypt(HDR, &A2, 0, &protected).is_ok());
        assert_eq!(rx.decrypt(HDR, &A2, 0, &protected), Err(CcmpError::Replay));
    }

    #[test]
    fn pn_increments_per_frame() {
        let (mut tx, mut rx) = key_pair();
        for i in 0..5 {
            let msg = format!("frame {i}");
            let protected = tx.encrypt(HDR, &A2, 0, msg.as_bytes());
            assert_eq!(rx.decrypt(HDR, &A2, 0, &protected).unwrap(), msg.as_bytes());
        }
    }

    #[test]
    fn truncated_rejected() {
        let (_, mut rx) = key_pair();
        assert_eq!(
            rx.decrypt(HDR, &A2, 0, &[0u8; 10]),
            Err(CcmpError::Truncated)
        );
    }

    #[test]
    fn wrong_key_fails_mic() {
        let mut tx = CcmpKey::new(&[0x01; 16]);
        let mut rx = CcmpKey::new(&[0x02; 16]);
        let protected = tx.encrypt(HDR, &A2, 0, b"secret");
        assert_eq!(
            rx.decrypt(HDR, &A2, 0, &protected),
            Err(CcmpError::MicMismatch)
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (mut tx, mut rx) = key_pair();
        let protected = tx.encrypt(HDR, &A2, 0, b"");
        assert_eq!(protected.len(), CCMP_HEADER_LEN + MIC_LEN);
        assert_eq!(rx.decrypt(HDR, &A2, 0, &protected).unwrap(), b"");
    }

    #[test]
    fn priority_is_bound_into_nonce() {
        let (mut tx, mut rx) = key_pair();
        let protected = tx.encrypt(HDR, &A2, 3, b"qos data");
        assert_eq!(
            rx.decrypt(HDR, &A2, 0, &protected),
            Err(CcmpError::MicMismatch)
        );
    }
}
